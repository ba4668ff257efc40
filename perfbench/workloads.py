"""Workload definitions and their seeded inputs.

Pure Python (no numpy) so that the parent process of a benchmark run can
build inputs without loading the program.  Every input stream is a
deterministic function of (workload name, seed); rows are drawn lazily so
a faster program simply consumes more of the same stream.

Anchor rows open every stream.  They sit where the shipped velocity
quadrature's error peaks (the two-photon resonance, the relocated
detuned-pump feature, the ends of the sweep ranges), so the accuracy
metrics, a maximum over anchors plus a seeded subset, do not swing with
the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# BLAS/OpenMP variables a single-threaded workload pins before numpy loads.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}

# Probe-detuning streams: this share of rows is uniform over +-SPAN, the
# rest clustered within CLUSTER_GAMMAS * gamma12 of the two-photon resonance.
SPAN_MHZ = 800.0
UNIFORM_SHARE = 0.75
CLUSTER_GAMMAS = 4.0

# detuned-cli: every CLI call sweeps CLI_POINTS rows spaced CLI_STEP_MHZ
# apart, starting at -k * CLI_STEP_MHZ with seeded k, so each window holds
# the rows delta1 = 0 and delta1 = +200 (the relocated feature).  A CLI
# call's time is one latency sample, so calls are kept short enough for
# about a dozen samples in a run; an even count splits evenly over 2 jobs.
CLI_POINTS = 12
CLI_STEP_MHZ = 25.0
CLI_OFFSETS = (0, 3)

ALPHA2_RANGE = (1.0, 150.0)

# Seeded rows checked against the converged reference, besides the anchors.
ACCURACY_SEEDED_ROWS = 3
# Rows of detuned-cli recomputed in-process at jobs=1 and compared bytewise.
RECOMPUTE_ROWS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str          # name in experiments.all_scenarios()
    kind: str              # "row" | "cli" | "chunk"
    jobs: int
    single_thread: bool    # pin BLAS to one thread (else inherit the environment)
    chunk: int             # grid values per call (1 for per-row calls)
    gamma12: float         # resonance width used to cluster detunings (MHz)
    anchors: tuple         # grid values every run starts with
    why: str
    axis: str = "delta1"   # swept quantity: "delta1" or "alpha2"


WORKLOADS = {w.name: w for w in (
    Workload("spectrum-p0", "fig2-a", "row", jobs=1, single_thread=True, chunk=1,
             gamma12=3.0, anchors=(-1.0, 0.0, 1.0),
             why="fig2-a (p=0) one serial v12_spectrum call per row on one BLAS "
                 "thread: the whole chain, hardest quadrature case"),
    Workload("detuned-cli", "fig4-c", "cli", jobs=2, single_thread=False,
             chunk=CLI_POINTS, gamma12=9.0, anchors=(),
             why="fig4-c (delta2=-200) through 'laddertangle run --jobs 2' with "
                 "default BLAS threads: process pool, CSV and manifest output"),
    Workload("absorption-sweep", "fig2-g", "chunk", jobs=2, single_thread=True,
             chunk=16, gamma12=9.0, anchors=(-800.0, 0.0, 800.0),
             why="fig2-g (p=6) absorption only via run_scenario: bloch and doppler "
                 "work, fluctuations and propagation bypassed"),
    Workload("pump-sweep", "fig3", "chunk", jobs=2, single_thread=True,
             chunk=4, gamma12=0.0, anchors=ALPHA2_RANGE, axis="alpha2",
             why="fig3 alpha2 sweep at p=0 and p=20 via run_scenario: a new "
                 "parameter set on every row, so no per-parameter reuse"),
)}


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def _detuning(rng: random.Random, gamma12: float) -> float:
    if rng.random() < UNIFORM_SHARE:
        return rng.uniform(-SPAN_MHZ, SPAN_MHZ)
    return rng.uniform(-CLUSTER_GAMMAS * gamma12, CLUSTER_GAMMAS * gamma12)


def _grid_value(w: Workload, rng: random.Random) -> float:
    if w.axis == "alpha2":
        return rng.uniform(*ALPHA2_RANGE)
    return _detuning(rng, w.gamma12)


def calls(w: Workload, seed: int):
    """Endless stream of call inputs for a workload.

    "row" and "chunk" workloads yield strictly increasing lists of grid
    values (delta1 in MHz, or alpha2 for pump-sweep); the first call starts
    with the anchors.  "cli" workloads yield (delta1_min, delta1_max,
    points) triples.
    """
    rng = _rng(w.name, seed, "calls")
    if w.kind == "cli":
        while True:
            k = rng.randint(*CLI_OFFSETS)
            lo = -k * CLI_STEP_MHZ
            yield (lo, lo + (CLI_POINTS - 1) * CLI_STEP_MHZ, CLI_POINTS)
    pending = list(w.anchors)
    while True:
        if w.kind == "row":
            yield [pending.pop(0) if pending else _grid_value(w, rng)]
            continue
        values = set(pending)
        pending = []
        while len(values) < w.chunk:
            values.add(_grid_value(w, rng))
        yield sorted(values)


def take_calls(w: Workload, seed: int, n: int) -> list:
    stream = calls(w, seed)
    return [next(stream) for _ in range(n)]


def pick_rows(workload: str, seed: int, stream: str, population: int, k: int) -> list[int]:
    """Seeded choice of k distinct row indices out of range(population)."""
    return sorted(_rng(workload, seed, stream).sample(range(population),
                                                      min(k, population)))
