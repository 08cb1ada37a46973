"""Consistency checkers over recorded histories.

Five checks are provided, matching the guarantees of the protocols in this
repository:

* :func:`check_external_consistency` — external consistency in its standard
  formal reading (strict serializability): the DSG extended with the
  real-time *precedence* order (Ti completed before Tj began) must be
  acyclic.  SSS and the 2PC-baseline must pass it; Walter (PSI) fails it
  under adversarial interleavings.
* :func:`check_update_completion_order` — the paper's Statement 1: the
  update-only sub-history must additionally respect the order in which
  clients received their responses (up to the observability tolerance — two
  responses closer together than one network latency cannot be ordered by
  any external observer).
* :func:`check_serializability` — DSG acyclicity with dependency edges only.
* :func:`check_snapshot_reads` — every read observed a committed version and
  the versions observed by one transaction form a consistent cut (the
  "consistent view" part of Statements 2 and 3).
* :func:`check_committed_reads` — only the committed-writer half of
  :func:`check_snapshot_reads`: no read may observe an uncommitted or
  unknown (torn) write.  This is the durability floor every protocol must
  hold under crashes, including Walter, whose PSI contract permits the
  cross-site cuts the full snapshot check rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.ids import TransactionId
from repro.consistency.dsg import build_dsg, find_cycle, install_order, install_positions
from repro.consistency.history import CommittedTransaction, HistoryRecorder


@dataclass
class CheckResult:
    """Outcome of one consistency check."""

    ok: bool
    name: str
    violations: List[str] = field(default_factory=list)
    checked_transactions: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        detail = f" ({len(self.violations)} violations)" if self.violations else ""
        return f"[{status}] {self.name}: " f"{self.checked_transactions} transactions{detail}"


def _transactions(history) -> Sequence[CommittedTransaction]:
    if isinstance(history, HistoryRecorder):
        return history.committed
    return list(history)


def _render_cycle(cycle) -> str:
    parts = []
    for source, _target, kind in cycle:
        label = source if not isinstance(source, tuple) else "~rt~"
        parts.append(f"{label}({kind})")
    return " -> ".join(str(part) for part in parts)


def _cycle_check(
    transactions: Sequence[CommittedTransaction],
    name: str,
    realtime: str,
    completion_tolerance_us: float = 25.0,
) -> CheckResult:
    graph = build_dsg(
        transactions,
        realtime=realtime,
        completion_tolerance_us=completion_tolerance_us,
    )
    cycle = find_cycle(graph)
    violations = [] if cycle is None else [f"cycle: {_render_cycle(cycle)}"]
    return CheckResult(
        ok=cycle is None,
        name=name,
        violations=violations,
        checked_transactions=len(transactions),
    )


# ----------------------------------------------------------------------
# DSG based checks
# ----------------------------------------------------------------------
def check_external_consistency(history) -> CheckResult:
    """Strict-serializability reading of external consistency."""
    return _cycle_check(_transactions(history), "external-consistency", realtime="precedence")


def check_serializability(history) -> CheckResult:
    """DSG acyclicity with dependency edges only."""
    return _cycle_check(_transactions(history), "serializability", realtime="none")


def check_update_completion_order(history, tolerance_us: float = 25.0) -> CheckResult:
    """Statement 1: the update-only sub-history respects client response order."""
    updates = [txn for txn in _transactions(history) if txn.is_update]
    return _cycle_check(
        updates,
        "update-completion-order",
        realtime="completion",
        completion_tolerance_us=tolerance_us,
    )


# ----------------------------------------------------------------------
# Snapshot / read-value checks
# ----------------------------------------------------------------------
def check_snapshot_reads(history) -> CheckResult:
    """Reads observe committed versions and form per-transaction consistent cuts."""
    transactions = _transactions(history)
    by_id: Dict[TransactionId, CommittedTransaction] = {
        txn.txn_id: txn for txn in transactions
    }
    violations: List[str] = []

    position = install_positions(install_order(transactions))

    for txn in transactions:
        # (key, position of the observed version in the key's order, writer);
        # -1 is the preloaded version, -2 a writer that never installed the key.
        observed: List[Tuple[object, int, Optional[TransactionId]]] = []
        for read in txn.reads:
            if read.writer is None:
                observed.append((read.key, -1, None))
            elif read.writer not in by_id:
                violations.append(
                    f"{txn.txn_id} read {read.key!r} from uncommitted/unknown "
                    f"writer {read.writer}"
                )
            else:
                observed.append((read.key, position.get((read.key, read.writer), -2), read.writer))

        # Consistent-cut property: if the transaction observed key A at the
        # version produced by writer W, it must not have observed, for any
        # other key B that W also wrote, a version older than W's.
        for key_a, pos_a, writer_a in observed:
            if pos_a < 0:
                continue
            writer_a_writes = by_id[writer_a].writes
            for key_b, pos_b, _writer_b in observed:
                if key_a == key_b:
                    continue
                if key_b in writer_a_writes and pos_b < position[(key_b, writer_a)]:
                    violations.append(
                        f"{txn.txn_id} observed {key_a!r} from {writer_a} "
                        f"but an older version of {key_b!r} that {writer_a} "
                        "already overwrote"
                    )

    return CheckResult(
        ok=not violations,
        name="snapshot-reads",
        violations=violations,
        checked_transactions=len(transactions),
    )


def check_committed_reads(history) -> CheckResult:
    """Every read observed a committed (never torn or lost) write.

    The dirty-read half of :func:`check_snapshot_reads`, separated out as
    the crash-durability floor: a crash that loses a write some client
    already read, or tears a multi-key commit so only part of it is ever
    recorded, surfaces here as a read from an unknown writer.  Unlike the
    consistent-cut half this holds for *every* protocol in the repository,
    PSI included.
    """
    transactions = _transactions(history)
    committed = {txn.txn_id for txn in transactions}
    violations: List[str] = []
    for txn in transactions:
        for read in txn.reads:
            if read.writer is not None and read.writer not in committed:
                violations.append(
                    f"{txn.txn_id} read {read.key!r} from uncommitted/unknown "
                    f"writer {read.writer}"
                )
    return CheckResult(
        ok=not violations,
        name="committed-reads",
        violations=violations,
        checked_transactions=len(transactions),
    )


#: Every check by the name its :class:`CheckResult` carries, in
#: :func:`run_all_checks` order: the names
#: :meth:`~repro.consistency.history.HistoryRecorder.check` answers.
CHECKS: Dict[str, Callable[..., CheckResult]] = {
    "external-consistency": check_external_consistency,
    "serializability": check_serializability,
    "update-completion-order": check_update_completion_order,
    "snapshot-reads": check_snapshot_reads,
    "committed-reads": check_committed_reads,
}


def run_all_checks(history) -> List[CheckResult]:
    """Run every checker; convenience for examples and reports."""
    return [check(history) for check in CHECKS.values()]
