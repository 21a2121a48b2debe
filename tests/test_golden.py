"""The shipped configs against their golden CSVs under ``tests/golden/``.

Headers, labels and row counts must match exactly, and so must every
numeric cell, as text, unless ``tests/golden/tolerances.json`` gives its
column an absolute tolerance.  A change that moves numbers on purpose
regenerates the golden files with ``tests/golden/regenerate.py``.
"""

import json

import pytest

from golden.regenerate import GOLDEN, render

TOLERANCES = json.loads((GOLDEN / "tolerances.json").read_text(encoding="utf-8"))


def cell_mismatches(golden: str, produced: str, tolerances: dict[str, float]) -> list[str]:
    """Cells of ``produced`` that differ from ``golden`` beyond their column's tolerance."""
    gold_lines, new_lines = golden.split("\n"), produced.split("\n")
    header = gold_lines[0].split(",")
    if new_lines[0] != gold_lines[0]:
        return [f"header {new_lines[0]!r}, golden {gold_lines[0]!r}"]
    if len(new_lines) != len(gold_lines):
        return [f"{len(new_lines)} lines, golden {len(gold_lines)}"]
    unknown = set(tolerances) - set(header)
    if unknown:
        return [f"tolerances for columns {sorted(unknown)} not in the header"]
    bad = []
    for line, (gold, new) in enumerate(zip(gold_lines, new_lines), start=1):
        gold_cells, new_cells = gold.split(","), new.split(",")
        if len(new_cells) != len(gold_cells):
            bad.append(f"line {line}: {new!r}, golden {gold!r}")
            continue
        for column, g, n in zip(header, gold_cells, new_cells):
            if n == g:
                continue
            tol = tolerances.get(column)
            try:
                within = tol is not None and abs(float(n) - float(g)) <= tol
            except ValueError:
                within = False
            if not within:
                bad.append(f"line {line}, {column}: {n}, golden {g}")
    return bad


def test_shipped_configs_match_golden_outputs(tmp_path):
    render(tmp_path)
    produced = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.csv"))
    golden = sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*.csv"))
    assert produced == golden
    assert set(TOLERANCES) <= set(golden)
    bad = {}
    for name in golden:
        text = (tmp_path / name).read_text(encoding="utf-8")
        mismatches = cell_mismatches(
            (GOLDEN / name).read_text(encoding="utf-8"), text, TOLERANCES.get(name, {})
        )
        if mismatches:
            bad[name] = mismatches[:5] + [f"... {len(mismatches)} in all"]
    assert not bad


class TestCellComparison:
    GOLDEN = "T,P,label\n0.25,0.5,a\n0.5,1.25e-16,b\n"

    @pytest.mark.parametrize(
        "produced,tolerances,ok",
        [
            ("T,P,label\n0.25,0.5,a\n0.5,1.25e-16,b\n", {}, True),
            ("T,P,label\n0.25,0.5,a\n0.5,1.26e-16,b\n", {}, False),
            ("T,P,label\n0.25,0.5,a\n0.5,1.26e-16,b\n", {"P": 2e-18}, True),
            ("T,P,label\n0.25,0.500000000001,a\n0.5,1.25e-16,b\n", {"P": 2e-18}, False),
            ("T,P,label\n0.25,0.5,a\n0.5,1.25e-16,c\n", {"label": 1.0}, False),
            ("T,P,label\n0.25,0.5,a\n0.5,1.25e-16,b", {}, False),
            ("T,P,label\n0.25,0.5,a\n0.5,1.25e-16\n", {}, False),
            ("T,P,Label\n0.25,0.5,a\n0.5,1.25e-16,b\n", {}, False),
            ("T,P,label\n0.25,0.5,a\n0.5,1.25e-16,b\n", {"Q": 1.0}, False),
            ("T,P,label\r\n0.25,0.5,a\r\n0.5,1.25e-16,b\r\n", {}, False),
        ],
    )
    def test_exact_unless_covered(self, produced, tolerances, ok):
        assert (not cell_mismatches(self.GOLDEN, produced, tolerances)) == ok
