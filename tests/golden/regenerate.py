"""Regenerate the golden CSVs of the shipped configs.

Run from the repository root, after a change that moves numbers on
purpose, and quote the largest move per column with the change:

    PYTHONPATH=src python tests/golden/regenerate.py

Each config under ``configs/`` runs through ``qreset.cli.main`` with the
recipe named on its ``# Run:`` line, into ``tests/golden/<config stem>/``.
``tolerances.json`` is left as it is: it maps a CSV (path relative to
this directory) to the columns whose numeric cells may differ from the
golden cell by at most the given absolute amount.
"""

from __future__ import annotations

import re
import shutil
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
CONFIGS = GOLDEN.parent.parent / "configs"


def shipped_runs() -> list[tuple[str, Path]]:
    """(recipe, config path) of every shipped config, read off its ``# Run:`` line."""
    runs = []
    for path in sorted(CONFIGS.glob("*.cfg")):
        text = path.read_text(encoding="utf-8")
        match = re.search(r"^# Run: qreset (\S+) --config", text, re.MULTILINE)
        if match is None:
            raise ValueError(f"{path} names no recipe on a '# Run: qreset <recipe>' line")
        runs.append((match.group(1), path))
    return runs


def render(out: Path) -> None:
    """Run every shipped config into ``out/<config stem>/``."""
    from qreset.cli import main

    for recipe, path in shipped_runs():
        code = main([recipe, "--config", str(path), "--out", str(out / path.stem)])
        if code:
            raise RuntimeError(f"qreset {recipe} --config {path} exited with {code}")


if __name__ == "__main__":
    for _, path in shipped_runs():
        shutil.rmtree(GOLDEN / path.stem, ignore_errors=True)
    render(GOLDEN)
