"""laddertangle benchmark: one workload, one seed, one JSON result.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload spectrum-p0 --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics: several fresh set-up processes,
then three processes that together sweep untraced for --seconds and check
their output.
--trace 1 reports the per-layer metrics from a serial, single-BLAS-thread
traced run of the same inputs.  The last line of stdout is the result
object; the lines before it are a readable summary and the full record
(environment, set-up samples, per-row accuracy) as one JSON line.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

SETUP_SAMPLES = 7          # set-up time is the median over this many processes
# The sweep is split over this many fresh measuring processes (they are also
# set-up samples): the same rows run up to 10% faster in one process than
# in another, so one process per run would make the runs disagree.
MEASURE_PROCESSES = 3
WORKER_GRACE_S = 100.0     # allowance beyond --seconds for set-up and checks

END_TO_END_UNITS = {"points_per_s": "1/s", "point_ms_p50": "ms", "point_ms_p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "v12_err_max": "1",
                    "absorption_err_max": "1"}


class BenchError(Exception):
    pass


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker_env(root: Path, w: W.Workload, trace: bool) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("LADDERTANGLE_JOBS", None)
    if w.single_thread or trace:
        env.update(W.SINGLE_THREAD_ENV)
    return env


def run_worker(mode: str, args, root: Path, work: Path, env: dict, seconds: float,
               accuracy: bool = False) -> tuple[float, dict | None]:
    """Start one worker; return (set-up seconds, result object or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--root", str(root), "--work", str(work)]
    if accuracy:
        cmd.append("--accuracy")
    spawned = time.monotonic()
    # own process group, so a timed-out worker is stopped with its pool workers
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if not lines or "ready" not in lines[0]:
        raise BenchError(f"{mode} worker printed no ready line")
    setup = lines[0]["ready"] - spawned
    return setup, (lines[-1] if len(lines) > 1 else None)


def environment(root: Path, w: W.Workload, args, env: dict, worker: dict) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"nproc": os.cpu_count(), "affinity_cpus": affinity,
            "python": platform.python_version(), **worker,
            "blas_threads": {v: env.get(v) for v in W.SINGLE_THREAD_ENV},
            "jobs": 1 if args.trace else w.jobs, "seed": args.seed,
            "seconds": args.seconds, "git_commit": git_commit(root),
            "platform": platform.platform()}


def quantile(values, q):
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def timing(attempted: int, calls, scaled: bool) -> dict:
    """Rows per second and per-row latency from (seconds, factor, rows) per call."""
    seconds = [s * f if scaled else s for s, f, _ in calls]
    per_row = [1e3 * s / rows for s, (_, _, rows) in zip(seconds, calls)]
    return {"points_per_s": attempted / sum(seconds),
            "point_ms_p50": quantile(per_row, 0.5), "point_ms_p90": quantile(per_row, 0.9)}


def end_to_end(args, root, work, w, env) -> tuple[dict, dict, dict]:
    """Set-up samples, then the sweep over several measuring processes."""
    setups = [run_worker("setup", args, root, work, env, args.seconds)[0]
              for _ in range(SETUP_SAMPLES - MEASURE_PROCESSES)]
    parts = []
    for i in range(MEASURE_PROCESSES):
        setup, part = run_worker("measure", args, root, work, env,
                                 args.seconds / MEASURE_PROCESSES, accuracy=i == 0)
        setups.append(setup)
        parts.append(part)
    acc = parts[0]["accuracy"]
    if not acc:
        raise BenchError("no call succeeded, so accuracy cannot be measured")
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    calls = [c for p in parts for c in p["calls"]]
    values = {**timing(attempted, calls, scaled=w.single_thread),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
              "v12_err_max": acc["v12_err_max"],
              "absorption_err_max": acc["absorption_err_max"]}
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    factors = [f for _, f, _ in calls]
    detail = {"failed_frac": failed / attempted,
              "latency_samples": len(calls),
              "latency_per": "row" if w.chunk == 1 else
              f"call of {w.chunk} grid values, divided by its rows",
              "program_s": sum(s for s, _, _ in calls),
              "speed_scaled": w.single_thread,
              "speed_factor": statistics.median(factors),
              "measured": timing(attempted, calls, scaled=False),
              "kernel_ms_p50": [p["kernel_ms_p50"] for p in parts],
              "kernel_samples": sum(p["kernel_samples"] for p in parts),
              "setup_samples_s": setups,
              "accuracy": acc}
    result = {"attempted": attempted, "failed": failed, "environment": parts[0]["environment"]}
    return result, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload!r}; try: {', '.join(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (root / "src" / "laddertangle" / "__init__.py").is_file():
        print(f"no laddertangle sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    w = W.WORKLOADS[args.workload]
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    env = worker_env(root, w, bool(args.trace))
    try:
        if args.trace:
            _, result = run_worker("trace", args, root, work, env, args.seconds)
            metrics, detail = result["metrics"], {"spans": result["spans"],
                                                  "spans_file": result["spans_file"],
                                                  "layers": result["summary"]}
        else:
            result, metrics, detail = end_to_end(args, root, work, w, env)
    except (BenchError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            work.rmdir()
        except OSError:
            pass
    record = {"workload": w.name, "why": w.why, "trace": args.trace,
              "environment": environment(root, w, args, env, result["environment"]),
              **detail}
    for name, m in metrics.items():
        print(f"{w.name:>16}  {name:<52} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"{w.name:>16}  {'failed_frac':<52} {detail['failed_frac']:>14.6g} 1")
        print(f"{w.name:>16}  {'speed_factor (see perfbench/speed.py)':<52} "
              f"{detail['speed_factor']:>14.6g} 1")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
