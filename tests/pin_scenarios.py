"""Regenerate tests/pinned_rows.json: a few rows of every shipped scenario,
and of the pump sweep at a sideband frequency too, which
tests/test_experiments.py::TestPinnedRows compares with fresh values to
1e-12 relative.

Run from the root of a checkout, with its package importable:

    PYTHONPATH=src python tests/pin_scenarios.py

The file records the commit it was made at, and whether src/ then had
uncommitted changes.  A change that moves the numerics regenerates the
file in the same commit and states its largest move; the diff of the file
is then the evidence.  Tier-1 does not run this script (pytest collects
only test_*.py files).
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from laddertangle.experiments import all_scenarios, default_delta1_grid, run_scenario

PINNED = Path(__file__).with_name("pinned_rows.json")
# nine rows spread over each spectrum's grid: -800, -600, ..., 800 MHz,
# which hold line centre and the detuned pump's relocated feature at 200
SPECTRUM_ROWS = default_delta1_grid()[::100]
PUMP_SWEEP_ROWS = np.array([1.0, 6.0, 50.0, 150.0])
# the scenarios also pinned at a nonzero omega (MHz): a pump-sweep row there
# has its own atomic resolvent B0 + i omega / c
SIDEBANDS = {"fig3": 50.0}


def scenario_rows(name: str, omega: float = 0.0) -> dict[str, list]:
    """Every column of the scenario's table on the pinned rows (at jobs 1),
    with a NaN as None: v12, du2, dv2 and absorption for a spectrum, and
    v12 and absorption per p for the pump sweep."""
    scenario = all_scenarios()[name]
    grid = PUMP_SWEEP_ROWS if scenario.kind == "pump-sweep" else SPECTRUM_ROWS
    table, _ = run_scenario(replace(scenario, grid=grid), omega=omega)
    return {f.name: [None if np.isnan(x) else float(x) for x in getattr(table, f.name)]
            for f in fields(table)}


def _git(*args) -> str:
    root = Path(__file__).resolve().parents[1]
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


def main():
    pinned = {"commit": _git("rev-parse", "HEAD"),
              "src_modified": bool(_git("status", "--porcelain", "--", "src")),
              "scenarios": {name: scenario_rows(name) for name in sorted(all_scenarios())},
              "sidebands": {name: {"omega": omega, **scenario_rows(name, omega)}
                            for name, omega in SIDEBANDS.items()}}
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
