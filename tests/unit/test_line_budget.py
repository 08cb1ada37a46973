"""No ``src/`` module grows past 600 lines.

A module that long holds more than one idea; split it along its parts
(as ``SSSNode`` is split into one mixin per part of the algorithms)
rather than raise the budget.
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

LINE_BUDGET = 600


def test_every_src_module_fits_the_line_budget():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50, f"only {len(modules)} modules found under {SRC}"
    over = {
        str(path.relative_to(SRC.parents[1])): count
        for path in modules
        if (count := len(path.read_text().splitlines())) > LINE_BUDGET
    }
    assert not over, f"modules over {LINE_BUDGET} lines: {over}"
