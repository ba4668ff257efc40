"""Command-line front end.

Commands: run (sweep a scenario or an explicit detuning grid to CSV plus
manifest), validate (invariant suite), feature-report (classify a narrow
feature in an existing CSV), list-scenarios.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__, experiments
from .errors import ConfigError, ContractError, LadderError, ParameterError
from .experiments import Scenario, all_scenarios, extract_feature
from .model import SCHEMA_VERSION, load_config, params_to_config, validate_regime
from .tables import SpectrumTable

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_PHYSICS = 3


def _default_jobs(value: int | None) -> int:
    if value is None:
        env = os.environ.get("LADDERTANGLE_JOBS")
        if not env:
            return os.cpu_count() or 1
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"LADDERTANGLE_JOBS must be an integer, got {env!r}") from exc
    if value < 1:
        raise ConfigError(f"--jobs/LADDERTANGLE_JOBS must be at least 1, got {value}")
    return value


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _environment() -> dict:
    """Interpreter and library versions plus the BLAS thread settings."""
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "laddertangle": __version__}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laddertangle",
        description="Pump-probe correlation spectra of a Doppler-broadened "
                    "ladder medium with collisional dephasing.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep and write CSV + manifest")
    run.add_argument("--config", type=Path, default=None,
                     help="JSON parameter file (defaults to the baseline)")
    run.add_argument("--scenario", default=None,
                     help="canned scenario name (see list-scenarios)")
    run.add_argument("--out", type=Path, required=True, help="output directory")
    run.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default: LADDERTANGLE_JOBS or all cores)")
    run.add_argument("--delta1-min", type=float, default=None)
    run.add_argument("--delta1-max", type=float, default=None)
    run.add_argument("--delta1-points", type=int, default=None)
    run.add_argument("--omega", type=float, default=0.0,
                     help="analysis Fourier frequency in MHz (default 0)")

    val = sub.add_parser("validate", help="run the physics invariant suite")
    val.add_argument("--out", type=Path, default=None,
                     help="optional path for the JSON report")

    feat = sub.add_parser("feature-report",
                          help="classify the narrow feature in a spectrum CSV")
    feat.add_argument("csv", type=Path)
    feat.add_argument("--location", type=float, default=0.0,
                      help="expected feature position in MHz (default 0)")
    feat.add_argument("--column", default="v12",
                      choices=["v12", "du2", "dv2", "absorption"])
    feat.add_argument("--half-width", type=float, default=10.0,
                      help="feature window half-width in MHz")

    sub.add_parser("list-scenarios", help="print available scenario names")
    return parser


def _explicit_grid(args) -> np.ndarray | None:
    trio = (args.delta1_min, args.delta1_max, args.delta1_points)
    if all(v is None for v in trio):
        return None
    if any(v is None for v in trio):
        raise ConfigError("--delta1-min/--delta1-max/--delta1-points must be given together")
    if args.delta1_points < 2 or args.delta1_max <= args.delta1_min:
        raise ConfigError("detuning grid must be increasing with at least 2 points")
    return np.linspace(args.delta1_min, args.delta1_max, args.delta1_points)


def _resolve_scenario(args) -> Scenario:
    grid = _explicit_grid(args)
    if args.scenario is not None:
        catalog = all_scenarios()
        if args.scenario not in catalog:
            raise ConfigError(f"unknown scenario {args.scenario!r}; "
                              f"try: {', '.join(sorted(catalog))}")
        scenario = catalog[args.scenario]
        if args.config is not None:
            scenario = replace(scenario, base=load_config(args.config))
            if scenario.kind == "pump-sweep":
                experiments.check_pump_sweep_base(scenario.base)
        if grid is not None:
            if scenario.kind != "spectrum":
                raise ConfigError("explicit detuning grid applies only to spectrum sweeps")
            scenario = replace(scenario, grid=grid)
        return scenario
    base = load_config(args.config) if args.config is not None \
        else experiments.baseline_params()
    if grid is None:
        grid = experiments.default_delta1_grid()
    return Scenario(name="custom", base=base, kind="spectrum", grid=grid, outputs="v12")


def cmd_run(args) -> int:
    jobs = _default_jobs(args.jobs)
    scenario = _resolve_scenario(args)
    regime_warnings = validate_regime(scenario.base)
    for warning in regime_warnings:
        print(f"warning: {warning}", file=sys.stderr)
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    table, _ = experiments.run_scenario(scenario, jobs=jobs, omega=args.omega)
    wall = time.monotonic() - start
    csv_path = out_dir / f"{scenario.name}.csv"
    table.write_csv(csv_path)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.name,
        "kind": scenario.kind,
        "outputs": scenario.outputs,
        "omega_mhz": args.omega,
        "params": params_to_config(scenario.base),
        "grid": {"min": float(scenario.grid[0]), "max": float(scenario.grid[-1]),
                 "points": int(len(scenario.grid))},
        "velocity_nodes": scenario.base.doppler.nodes,
        "jobs": jobs,
        "wall_time_s": wall,
        "regime_warnings": regime_warnings,
        "environment": _environment(),
        "files": {csv_path.name: _sha256(csv_path)},
    }
    manifest_path = out_dir / f"{scenario.name}.manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {csv_path} and {manifest_path} "
          f"({len(scenario.grid)} points, {wall:.1f} s, jobs={jobs})")
    return EXIT_OK


def cmd_validate(args) -> int:
    from .validation import run_all

    results = run_all()
    report = {"schema_version": SCHEMA_VERSION,
              "passed": all(r.passed for r in results),
              "checks": [r.to_dict() for r in results]}
    text = json.dumps(report, indent=2) + "\n"
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text, encoding="utf-8")
    print(text, end="")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}", file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_VALIDATION_FAILED


def cmd_feature_report(args) -> int:
    try:
        table = SpectrumTable.read_csv(args.csv)
    except (OSError, ValueError, ContractError) as exc:
        print(f"error: cannot read spectrum CSV {args.csv}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    values = getattr(table, args.column)
    if np.any(~np.isfinite(values)):
        print(f"error: column {args.column} has missing values in {args.csv}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    report = extract_feature(table.delta1, values, args.location, args.half_width)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def cmd_list_scenarios(_args) -> int:
    for name, scenario in all_scenarios().items():
        print(f"{name}: {scenario.kind}, outputs={scenario.outputs}, "
              f"{len(scenario.grid)} points")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "validate": cmd_validate,
                "feature-report": cmd_feature_report,
                "list-scenarios": cmd_list_scenarios}
    try:
        return handlers[args.command](args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except LadderError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
