"""Docs are executable collateral, not prose that rots.

Three contracts over ``README.md`` and ``docs/``:

* every relative markdown link resolves to a real file, and every
  ``#anchor`` (same-file or cross-file) matches a real heading;
* every inline-code reference to a repository path (``src/...``,
  ``tests/...``, ``benchmarks/...``, ``docs/...``, ``examples/...``)
  points at something that exists — renaming a module without updating
  the docs fails here;
* every fenced DSL example in ``docs/SCENARIOS.md`` (the ``fault-dsl`` /
  ``traffic-dsl`` fences, one spec per line) parses through the real
  plan parsers, and the ``python`` fences there execute end to end;
* ARCHITECTURE.md's durable-state table names exactly each protocol
  node's declared ``_DURABLE`` attributes, and its fault-only table names
  exactly the ``src/`` functions that read ``self._fault_mode``;
* every module holding ``SSSNode`` code cites only the paper's Algorithms
  1-6, its docstring cites at least one, and ARCHITECTURE.md's SSS module
  map lists exactly the algorithms each docstring cites;
* every Sphinx cross-reference to a ``repro.`` name in ``src/`` resolves
  by import plus attribute lookup.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

from repro.common.config import FaultPlan
from repro.core.node import SSSNode
from repro.protocols.registry import REGISTRY
from repro.traffic.plan import TrafficPlan

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_FILES = sorted([REPO_ROOT / "README.md", *(REPO_ROOT / "docs").rglob("*.md")])

_FENCE_RE = re.compile(r"^```(\S*)\s*$")
_LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
_PATH_REF_RE = re.compile(r"^(?:src|tests|benchmarks|docs|examples)/[\w./-]*$")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")

#: Node-count budget the fault examples are validated against (the docs
#: never name a node id above 3).
VALIDATION_NODES = 8


def _split_fences(text: str):
    """Yield ``(kind, content)`` pairs: prose chunks and tagged fences."""
    prose: list[str] = []
    fence_tag = None
    fence_lines: list[str] = []
    for line in text.splitlines():
        match = _FENCE_RE.match(line.strip())
        if match and fence_tag is None:
            fence_tag = match.group(1) or "untagged"
            yield "prose", "\n".join(prose)
            prose = []
        elif match and fence_tag is not None:
            yield fence_tag, "\n".join(fence_lines)
            fence_tag, fence_lines = None, []
        elif fence_tag is not None:
            fence_lines.append(line)
        else:
            prose.append(line)
    yield "prose", "\n".join(prose)


def _prose(path: Path) -> str:
    return "\n".join(
        content for kind, content in _split_fences(path.read_text()) if kind == "prose"
    )


def _fences(path: Path, tag: str) -> list[str]:
    return [content for kind, content in _split_fences(path.read_text()) if kind == tag]


def _github_slug(heading: str) -> str:
    """GitHub's anchor slug: drop code ticks, punctuation; spaces -> hyphens."""
    text = heading.replace("`", "").strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: Path) -> set[str]:
    anchors = set()
    for kind, content in _split_fences(path.read_text()):
        if kind != "prose":
            continue
        for line in content.splitlines():
            match = _HEADING_RE.match(line)
            if match:
                anchors.add(_github_slug(match.group(2)))
    return anchors


def _doc_id(path: Path) -> str:
    return str(path.relative_to(REPO_ROOT))


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_links_and_anchors_resolve(doc):
    problems = []
    for target in _LINK_RE.findall(_prose(doc)):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        resolved = (doc.parent / path_part).resolve() if path_part else doc
        if not resolved.exists():
            problems.append(f"{target}: {path_part} does not exist")
            continue
        if anchor and anchor not in _anchors(resolved):
            problems.append(f"{target}: no heading for #{anchor} in {path_part or doc.name}")
    assert not problems, f"{doc.name}: broken links: {problems}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_inline_path_references_exist(doc):
    missing = []
    for span in _CODE_SPAN_RE.findall(_prose(doc)):
        if not _PATH_REF_RE.match(span):
            continue
        if "*" in span or "<" in span:
            continue
        if not (REPO_ROOT / span).exists():
            missing.append(span)
    assert not missing, f"{doc.name}: references to nonexistent paths: {missing}"


def test_docs_reference_a_meaningful_number_of_paths():
    # Guard against the checks above passing vacuously because a refactor
    # changed the inline-code convention: the docs name many real paths.
    spans = [
        span
        for doc in DOC_FILES
        for span in _CODE_SPAN_RE.findall(_prose(doc))
        if _PATH_REF_RE.match(span) and "*" not in span
    ]
    assert len(spans) >= 40, f"only {len(spans)} path references found"


class TestScenarioExamples:
    SCENARIOS = REPO_ROOT / "docs" / "SCENARIOS.md"

    @staticmethod
    def _specs(fence: str) -> list[str]:
        return [
            line.strip()
            for line in fence.splitlines()
            if line.strip() and not line.strip().startswith("#")
        ]

    def test_every_fault_example_parses(self):
        fences = _fences(self.SCENARIOS, "fault-dsl")
        assert len(fences) >= 3, "SCENARIOS.md lost its fault-dsl examples"
        for fence in fences:
            for spec in self._specs(fence):
                plan = FaultPlan.parse([spec])
                plan.validate(VALIDATION_NODES)

    def test_every_traffic_example_parses(self):
        fences = _fences(self.SCENARIOS, "traffic-dsl")
        assert len(fences) >= 3, "SCENARIOS.md lost its traffic-dsl examples"
        for fence in fences:
            for spec in self._specs(fence):
                # Each line is one phase; as the only phase of its plan it
                # is also the last, so an omitted `until` stays legal.
                plan = TrafficPlan.parse([spec])
                plan.validate()

    def test_python_examples_execute(self):
        fences = _fences(self.SCENARIOS, "python")
        assert fences, "SCENARIOS.md lost its runnable python example"
        for fence in fences:
            exec(compile(fence, str(self.SCENARIOS), "exec"), {"__name__": "__docs__"})


@pytest.mark.parametrize("protocol", ["SSS", "2PC", "ROCOCO", "Walter"])
def test_durable_state_table_matches_the_declarations(protocol):
    rows = [
        line.split("|")[1:-1]
        for line in _prose(REPO_ROOT / "docs" / "ARCHITECTURE.md").splitlines()
        if line.startswith(f"| {protocol} |")
    ]
    assert len(rows) == 1, f"ARCHITECTURE.md has {len(rows)} durable-state rows for {protocol}"
    documented = set(_CODE_SPAN_RE.findall(rows[0][1]))
    declared = set(REGISTRY[protocol.lower()].node_class._DURABLE)
    assert documented == declared, (
        f"{protocol}: documented, not declared {sorted(documented - declared)}; "
        f"declared, not documented {sorted(declared - documented)}"
    )


def _fault_mode_readers():
    """``(file, Class.function)`` of every ``src/`` method reading ``self._fault_mode``."""
    readers = set()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for function in cls.body:
                if isinstance(function, ast.FunctionDef) and any(
                    isinstance(node, ast.Attribute)
                    and node.attr == "_fault_mode"
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    for node in ast.walk(function)
                ):
                    name = f"{cls.name}.{function.name}"
                    readers.add((path.relative_to(REPO_ROOT).as_posix(), name))
    return readers


def test_fault_only_table_matches_the_code():
    text = _prose(REPO_ROOT / "docs" / "ARCHITECTURE.md")
    section = text.split("## Fault-only mechanisms", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `src/"):
            cells = line.split("|")[1:-1]
            documented.add((cells[0].strip().strip("`"), cells[1].strip().strip("`")))
    readers = _fault_mode_readers()
    assert readers, "no function reads self._fault_mode any more: drop the table"
    assert documented == readers, (
        f"documented, not in the code {sorted(documented - readers)}; "
        f"in the code, not documented {sorted(readers - documented)}"
    )


#: ``Algorithm 6``, ``Algorithms 3 and 4``, ``Algorithms 2-4``: the numbers
#: a citation names (a trailing ``lines 29-36`` is not part of it).
_ALGORITHM_RE = re.compile(r"\bAlgorithms?\s+(\d+(?:\s*(?:,|and|-|–)\s*\d+)*)")


def _cited_algorithms(text: str) -> set[int]:
    cited = set()
    for match in _ALGORITHM_RE.finditer(text):
        for part in re.split(r"\s*(?:,|and)\s*", match.group(1)):
            low, _, high = re.sub(r"\s*[-–]\s*", "-", part).partition("-")
            cited.update(range(int(low), int(high or low) + 1))
    return cited


#: The modules of ``SSSNode`` and its mixins, as repository paths.
SSS_MODULES = sorted(
    "src/" + cls.__module__.replace(".", "/") + ".py"
    for cls in SSSNode.__mro__
    if cls.__module__.startswith("repro.core.")
)


def _module_docstring(module: str) -> str:
    return ast.get_docstring(ast.parse((REPO_ROOT / module).read_text())) or ""


def test_the_citation_parser_reads_lists_and_ranges():
    text = "Algorithm 6, line 5; Algorithms 3 and 4; Algorithms 1-2; Algorithm 2 lines 29-36"
    assert _cited_algorithms(text) == {1, 2, 3, 4, 6}


@pytest.mark.parametrize("module", SSS_MODULES)
def test_sss_code_cites_only_algorithms_1_to_6(module):
    cited = _cited_algorithms((REPO_ROOT / module).read_text())
    stray = sorted(cited - set(range(1, 7)))
    assert not stray, f"{module} cites Algorithm(s) {stray}"


@pytest.mark.parametrize("module", SSS_MODULES)
def test_each_sss_module_docstring_cites_an_algorithm(module):
    assert _cited_algorithms(_module_docstring(module)), f"{module}'s docstring cites no algorithm"


def test_the_sss_module_map_lists_the_algorithms_each_docstring_cites():
    text = _prose(REPO_ROOT / "docs" / "ARCHITECTURE.md")
    section = text.split("#### SSS module map", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `src/"):
            cells = line.split("|")[1:-1]
            rows[cells[0].strip().strip("`")] = {int(n) for n in re.findall(r"\d+", cells[2])}
    assert sorted(rows) == SSS_MODULES
    for module, listed in rows.items():
        cited = _cited_algorithms(_module_docstring(module))
        assert listed == cited, f"{module}: map {sorted(listed)}, docstring {sorted(cited)}"


_XREF_RE = re.compile(r":(?:func|class|meth|mod|attr|data):`~?(repro(?:\.\w+)+)`")


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute chain on its
    longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def test_the_resolver_rejects_a_stale_name():
    assert _resolves("repro.protocols.registry.REGISTRY")
    assert _resolves("repro.consistency.history.HistoryRecorder.check")
    assert not _resolves("repro.protocols.REGISTRY")
    assert not _resolves("repro.harness.metrics.compute_phase_metrics")


def test_docstring_cross_references_resolve():
    references = [
        (f"{path.relative_to(REPO_ROOT)}:{text.count(chr(10), 0, match.start()) + 1}", match[1])
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        for text in [path.read_text()]
        for match in _XREF_RE.finditer(text)
    ]
    assert len(references) > 200, "the reference pattern stopped matching"
    broken = [f"{where}: {name}" for where, name in references if not _resolves(name)]
    assert not broken, broken
