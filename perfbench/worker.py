"""One benchmark process: set up, sweep for a fixed time, check, report.

Started by run.py as a fresh interpreter with the workload's BLAS thread
environment already in place.  Modes:

  setup    import the program and build the scenario, print the ready
           time, exit (a set-up time sample);
  measure  set up, sweep untraced for --seconds, then check every row and,
           with --accuracy, compare a subset with the converged reference;
  trace    set up, run each call serially twice, untraced and under the
           span tracer, for --seconds; report per-layer metrics.

Every mode prints JSON lines on stdout; the last one is the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402

FEATURE_MHZ = 200.0   # fig4-c: two-photon resonance moved to delta1 = -delta2


@dataclass
class Call:
    values: object          # grid values or a (min, max, points) CLI window
    start: float
    end: float
    rows: list = field(default_factory=list)   # dicts: x (and p), column values
    error: str | None = None
    out_dir: Path | None = None                # CLI output directory
    header: list = field(default_factory=list)     # CLI CSV header and rows, as text
    text_rows: list = field(default_factory=list)
    failed: set = field(default_factory=set)   # indices into rows
    size: int = 0                              # rows the call was asked for


class Bench:
    def __init__(self, workload: W.Workload, work: Path, serial: bool):
        import numpy as np
        import laddertangle
        from laddertangle import cli, experiments, fluctuations

        self.np = np
        self.pkg = laddertangle
        self.cli, self.experiments, self.fluctuations = cli, experiments, fluctuations
        self.w = workload
        self.jobs = 1 if serial else workload.jobs
        self.work = work
        self.scenario = experiments.all_scenarios()[workload.scenario]
        self.calls_made = 0
        if workload.kind == "cli":
            # ready to sweep includes the first pool start-up and CSV write
            self.run_call((FEATURE_MHZ - 1.0, FEATURE_MHZ + 1.0, 2))

    # ---- one call into the program -------------------------------------
    def run_call(self, values) -> Call:
        call = Call(values=values, start=time.perf_counter(), end=0.0)
        try:
            getattr(self, f"_call_{self.w.kind}")(call)
        except Exception:  # noqa: BLE001 - an aborted sweep is a failed result
            call.error = traceback.format_exc(limit=3)
        call.end = time.perf_counter()
        self.calls_made += 1
        return call

    def _columns(self):
        if self.scenario.outputs == "absorption":
            return ("absorption",)
        return ("v12", "du2", "dv2", "absorption")

    def _call_row(self, call: Call):
        call.size = 1
        base = self.scenario.base
        table, _ = self.fluctuations.v12_spectrum(base, self.np.array(call.values),
                                                  jobs=self.jobs)
        call.rows = [{"x": float(table.delta1[0]),
                      **{c: float(getattr(table, c)[0]) for c in self._columns()}}]

    def _call_chunk(self, call: Call):
        scenario = replace(self.scenario, grid=self.np.array(call.values))
        if self.scenario.kind == "pump-sweep":
            call.size = 2 * len(call.values)
            table, _ = self.experiments.run_scenario(scenario, jobs=self.jobs)
            for col in table.HEADER:
                if not col.startswith("v12_p"):
                    continue
                suffix = col[len("v12_"):]
                v12 = getattr(table, col)
                absorption = getattr(table, f"absorption_{suffix}")
                call.rows += [{"x": float(a2), "p": float(suffix[1:]), "v12": float(v12[k]),
                               "absorption": float(absorption[k])}
                              for k, a2 in enumerate(call.values)]
            return
        call.size = len(call.values)
        table, _ = self.experiments.run_scenario(scenario, jobs=self.jobs)
        for k in range(len(table.delta1)):
            call.rows.append({"x": float(table.delta1[k]),
                              **{c: float(getattr(table, c)[k]) for c in self._columns()}})

    def _call_cli(self, call: Call):
        lo, hi, points = call.values
        call.size = points
        call.out_dir = self.work / f"call-{self.calls_made}"
        code = self.cli.main(["run", "--scenario", self.scenario.name,
                              "--out", str(call.out_dir), "--jobs", str(self.jobs),
                              "--delta1-min", repr(lo), "--delta1-max", repr(hi),
                              "--delta1-points", str(points)])
        if code != 0:
            raise RuntimeError(f"laddertangle run exited with code {code}")

    # ---- sweeping --------------------------------------------------------
    def sweep(self, stream, seconds: float, calibrator: speed.Calibrator | None) -> list[Call]:
        """Closed loop: the next call starts when the previous one returns
        and the calibration kernel, if any, has had its share of the time."""
        calls = []
        start = time.perf_counter()
        while not calls or time.perf_counter() - start < seconds:
            call = self.run_call(next(stream))
            calls.append(call)
            if calibrator is not None:
                calibrator.after_call(call.end - call.start)
        return calls

    # ---- correctness gate ------------------------------------------------
    def check(self, calls: list[Call], seed: int):
        """Mark failed rows: errors, non-finite values, CLI integrity."""
        for call in calls:
            if call.error is not None:
                call.failed = set(range(call.size))
                print(f"call failed: {call.values}\n{call.error}", file=sys.stderr)
                continue
            if self.w.kind == "cli":
                self._read_cli(call)
            for k, row in enumerate(call.rows):
                if not checks.all_finite(v for c, v in row.items()
                                         if c in ("v12", "du2", "dv2", "absorption")):
                    call.failed.add(k)
            if len(call.rows) != call.size:
                call.failed = set(range(call.size))
        if self.w.kind == "cli":
            self._recompute_cli(calls, seed)

    def _read_cli(self, call: Call):
        name = self.scenario.name
        try:
            csv_bytes = (call.out_dir / f"{name}.csv").read_bytes()
            manifest = json.loads((call.out_dir / f"{name}.manifest.json").read_text())
        except (OSError, ValueError) as exc:
            call.error = f"unreadable CLI output: {exc}"
            call.failed = set(range(call.size))
            return
        problems = checks.manifest_errors(csv_bytes, manifest, f"{name}.csv")
        header, rows = checks.csv_rows(csv_bytes.decode("utf-8"))
        lo, hi, points = call.values
        expected = [format(float(x), ".17g") for x in self.np.linspace(lo, hi, points)]
        if [r[0] for r in rows] != expected:
            problems.append("CSV delta1 column does not match the requested grid")
        if problems:
            print(f"call {call.values}: {'; '.join(problems)}", file=sys.stderr)
            call.failed = set(range(call.size))
        call.header, call.text_rows = header, rows
        call.rows = [{"x": float(r[0]), **{c: float(v) for c, v in zip(header[1:], r[1:])}}
                     for r in rows]

    def _recompute_cli(self, calls: list[Call], seed: int):
        """Rows recomputed in-process at jobs=1 must equal the CSV bytes."""
        sound = [c for c in calls if c.error is None and c.text_rows]
        if not sound:
            return
        picks = W.pick_rows(self.w.name, seed, "recompute",
                            sum(len(c.text_rows) for c in sound), W.RECOMPUTE_ROWS)
        by_call, offset = {}, 0
        for c in sound:
            by_call[id(c)] = [p - offset for p in picks if offset <= p < offset + len(c.text_rows)]
            offset += len(c.text_rows)

        def recompute(delta1):
            table, _ = self.fluctuations.v12_spectrum(self.scenario.base, [delta1], jobs=1)
            return {c: getattr(table, c)[0] for c in ("v12", "du2", "dv2", "absorption")}

        for c in sound:
            bad = checks.recompute_mismatches(c.header, c.text_rows, by_call[id(c)], recompute)
            if bad:
                print(f"call {c.values}: rows {bad} differ from a jobs=1 recomputation",
                      file=sys.stderr)
            c.failed.update(bad)

    # ---- accuracy against the converged reference ------------------------
    def _point(self, row):
        """Parameter set and probe detuning of one output row."""
        if "p" not in row:
            return self.scenario.base, row["x"]
        # the per-p base as run_pump_sweep_scenario builds it
        d = self.scenario.base.decay
        base = replace(self.scenario.base, coherence=None,
                       decay=type(d)(gamma1=d.gamma1, gamma2=d.gamma2, p=row["p"]))
        params = self.experiments.pump_sweep_transform(base, row["x"])
        return params, params.field.delta1

    def accuracy_rows(self, calls: list[Call], seed: int) -> list[dict]:
        """Anchor rows plus a seeded subset, each with the program's values."""
        w = self.w
        if w.kind == "row":
            n = len(w.anchors) + W.ACCURACY_SEEDED_ROWS
            picked = [c.rows[0] for c in calls[:n] if c.error is None and c.rows]
        else:
            first = next((c for c in calls if c.error is None and c.rows), None)
            if first is None:
                return []
            anchors = w.anchors if w.kind == "chunk" else (0.0, FEATURE_MHZ)
            fixed = [k for k, r in enumerate(first.rows)
                     if any(abs(r["x"] - a) < 1e-9 for a in anchors)]
            rest = [k for k in range(len(first.rows)) if k not in fixed]
            seeded = W.pick_rows(w.name, seed, "accuracy", len(rest), W.ACCURACY_SEEDED_ROWS)
            xs = {first.rows[k]["x"] for k in fixed + [rest[i] for i in seeded]}
            picked = [r for r in first.rows if r["x"] in xs]
        if self.scenario.outputs == "absorption":
            # V12 is not an output here: evaluate it with the same rule, untimed
            for row in picked:
                params, delta1 = self._point(row)
                table, _ = self.fluctuations.v12_spectrum(params, [delta1], jobs=1)
                row["v12"] = float(table.v12[0])
        return picked

    def accuracy(self, calls, seed, reference: checks.Reference) -> dict:
        rows = self.accuracy_rows(calls, seed)
        if not rows:
            return {}
        dv12, dabs = [], []
        for row in rows:
            ref_v12, ref_abs = reference.point(*self._point(row))
            dv12.append(abs(row["v12"] - ref_v12))
            dabs.append(abs(row["absorption"] - ref_abs))
        head = rows[0]
        r1 = reference.point(*self._point(head))
        r2 = reference.point(*self._point(head), checks.SELF_CHECK_NODES)
        return {"v12_err_max": max(dv12), "absorption_err_max": max(dabs),
                "rows": [{"x": r["x"], **({"p": r["p"]} if "p" in r else {}),
                          "dv12": a, "dabs": b} for r, a, b in zip(rows, dv12, dabs)],
                "reference": {"nodes": checks.REFERENCE_NODES, "span_sigma": checks.REFERENCE_SPAN,
                              "self_check_nodes": checks.SELF_CHECK_NODES,
                              "self_check_x": head["x"],
                              "self_dv12": abs(r1[0] - r2[0]), "self_dabs": abs(r1[1] - r2[1]),
                              "computed": reference.computed}}

    def environment(self) -> dict:
        import numpy
        import scipy
        try:
            blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
            openblas = f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError, AttributeError):
            openblas = "unknown"
        return {"numpy": numpy.__version__, "scipy": scipy.__version__,
                "blas": openblas, "laddertangle": getattr(self.pkg, "__version__", None),
                "laddertangle_path": str(Path(self.pkg.__file__).parent)}


def _counts(calls):
    attempted = sum(c.size for c in calls)
    failed = sum(len(c.failed) for c in calls)
    return attempted, failed


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure(bench: Bench, args, reference) -> dict:
    """Sweep, check, and report each call's time, speed factor and rows.

    Workloads pinned to one BLAS thread are timed against the calibration
    kernel (speed.py).  detuned-cli is not: its rows run in two pool
    processes with default BLAS threads, whose speed a one-core kernel in
    this process does not follow (scaling widened its spread)."""
    calibrator = speed.Calibrator() if bench.w.single_thread else None
    calls = bench.sweep(W.calls(bench.w, args.seed), args.seconds, calibrator)
    rss = _peak_rss_mb()
    bench.check(calls, args.seed)
    attempted, failed = _counts(calls)
    acc = bench.accuracy(calls, args.seed, reference) if reference is not None else None
    timed = [[c.end - c.start,
              calibrator.factor_at(0.5 * (c.start + c.end)) if calibrator else 1.0, c.size]
             for c in calls if c.size]
    return {"attempted": attempted, "failed": failed, "calls": timed,
            "kernel_ms_p50": calibrator.kernel_ms() if calibrator else None,
            "kernel_samples": len(calibrator.samples) if calibrator else 0,
            "peak_rss_mb": rss, "accuracy": acc}


def trace(bench: Bench, args) -> dict:
    """Each call runs twice, untraced and traced, in alternating order, so
    drift in machine load cancels out of the tracing overhead."""
    tr = tracing.Tracer(bench.pkg)
    stream = W.calls(bench.w, args.seed)
    untraced, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        values = next(stream)
        for traced_now in ((False, True) if len(traced) % 2 else (True, False)):
            if traced_now:
                with tr:
                    traced.append(bench.run_call(values))
            else:
                untraced.append(bench.run_call(values))
    bench.check(traced, args.seed)
    attempted, failed = _counts(traced)
    summary = tracing.summarize(tr.spans)
    metrics = tracing.layer_metrics(summary, tr.wrapped, attempted)
    wall_u = sum(c.end - c.start for c in untraced)
    wall_t = sum(c.end - c.start for c in traced)
    metrics["trace.overhead_frac"] = {"value": wall_t / wall_u - 1.0, "unit": "1"}
    spans_path = bench.work.parent / f"spans-{bench.w.name}-{args.seed}.json"
    spans_path.write_text(json.dumps({"rows": attempted, "spans": tr.spans}), encoding="utf-8")
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "spans": len(tr.spans), "spans_file": str(spans_path),
            "summary": {k: {kk: round(vv, 9) if isinstance(vv, float) else vv
                            for kk, vv in v.items()} for k, v in sorted(summary.items())}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--accuracy", action="store_true",
                    help="also compare rows with the converged reference (measure mode)")
    args = ap.parse_args(argv)
    w = W.WORKLOADS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(w, args.work, serial=args.mode == "trace")
        print(json.dumps({"ready": time.monotonic()}), flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "trace":
            result = trace(bench, args)
        elif args.accuracy:
            from laddertangle import model
            reference = checks.Reference(bench.fluctuations.v12_spectrum, model.DopplerConfig,
                                         args.work.parent / "reference-cache.json",
                                         checks.source_digest(args.root / "src"))
            result = measure(bench, args, reference)
            reference.save()
        else:
            result = measure(bench, args, None)
        result["environment"] = bench.environment()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        for path in args.work.glob("call-*"):
            shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
