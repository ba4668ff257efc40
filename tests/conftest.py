import os
from pathlib import Path

import numpy as np
import pytest

from laddertangle import bloch, fluctuations
from laddertangle.bloch import REDUCED_CONJ
from laddertangle.doppler import average, build_classes
from laddertangle.errors import ResonanceError
from laddertangle.experiments import baseline_params
from laddertangle.model import C_M_MHZ, DopplerConfig


@pytest.fixture(scope="session")
def fast_doppler():
    # coarse but converged enough for structural checks
    return DopplerConfig(width=530.0, nodes=401, rule="trapezoid", span=3.0)


@pytest.fixture(scope="session")
def fast_params(fast_doppler):
    def make(**kwargs):
        kwargs.setdefault("doppler", fast_doppler)
        return baseline_params(**kwargs)
    return make


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the sweep's process pool by a serial stand-in; the list
    returned collects (max_workers, initializer) of every pool the sweep
    opens.  The stand-in does not run the initializer, so this process
    keeps its BLAS setting."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None):
            pools.append((max_workers, initializer))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(fluctuations, "ProcessPoolExecutor", RecordingPool)
    return pools


@pytest.fixture
def eager_pool(monkeypatch):
    """Let the sweep hand any call of two or more rows to a process pool,
    one row a chunk, however short the call is."""
    monkeypatch.setattr(fluctuations, "STACK_ROWS", 1)


@pytest.fixture
def core_mask(monkeypatch):
    """Setter for the cores fluctuations.usable_cores sees: an affinity
    mask of n cores, or for n None a platform without affinity masks that
    cannot count its cores."""
    def set_mask(n):
        if n is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return set_mask


def per_class_field_system(params, delta1, omega=0.0):
    """Oracle for fluctuations.field_system_at: every velocity class gets
    its own 9x9 generator, steady-state solve, reduced drift and explicit
    resolvent inverse, and the per-class M and S are then averaged.

    Returns (M, S, absorption).
    """
    classes = build_classes(params, delta1, params.field.delta2)
    g = bloch.generator_matrix(params, classes.d1, classes.d2)
    means = bloch.steady_state_batch(g)
    b = bloch.reduce_generator(g)
    c = fluctuations.coupling_batch(params, means)
    corr = fluctuations.diffusion_correlator_batch(params, means)[:, 1:, 1:]
    try:
        resolvent = np.linalg.inv(-1j * omega * np.eye(8) - b)
    except np.linalg.LinAlgError as exc:
        raise ResonanceError(f"singular atomic resolvent: {exc}") from exc
    t = fluctuations._source_projection(params) @ resolvent
    conj = np.eye(8)[list(REDUCED_CONJ)]
    scale = params.geometry.N / C_M_MHZ
    mv = scale * t @ c
    sv = scale * t @ corr @ conj @ np.conj(t).transpose(0, 2, 1)
    return (average(mv, classes), average(sv, classes),
            bloch.absorption_exact_batch(params, means, classes))


def pencil_class_states(pencil, shifts) -> np.ndarray:
    """The (K, 9) steady states of the classes with the given probe
    shifts, each the pencil's state map times its factors 1 / (1 - s t)."""
    factors = 1.0 / (1.0 - np.asarray(shifts, dtype=float)[:, None] * pencil.points)
    return factors @ pencil.states.T


def steady_state_errors(means: np.ndarray) -> tuple[float, float, float]:
    """Oracle for bloch.pencil_errors: worst trace, hermiticity and
    population-range errors over a stack of per-class steady states; all
    three are zero for physical density matrices."""
    pops = means[:, list(bloch.POPULATIONS)]
    trace_err = float(np.max(np.abs(pops.sum(axis=1) - 1.0)))
    upper, lower = zip(*[(bloch.IDX[i, j], bloch.IDX[j, i]) for (i, j) in bloch.LABELS if i < j])
    herm = max(float(np.max(np.abs(means[:, list(upper)] - np.conj(means[:, list(lower)])))),
               float(np.max(np.abs(pops.imag))))
    pop_err = max(0.0, float(np.max(np.maximum(-pops.real, pops.real - 1.0))))
    return trace_err, herm, pop_err


def symmetrized_diffusion_min_eig(d: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized noise kernel.

    The physical (Hermitian) kernel couples F_mu to F_nu+, i.e. the
    column index is conjugated before symmetrizing.
    """
    herm = 2.0 * d[:, list(REDUCED_CONJ)]
    herm = 0.5 * (herm + herm.conj().T)
    return float(np.min(np.linalg.eigvalsh(herm)))


def package_env(**overrides):
    """Environment for a fresh interpreter that imports this checkout's
    package, with the given variables set."""
    src = str(Path(fluctuations.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return dict(os.environ, PYTHONPATH=path, **overrides)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def record_criterion_line(config, line):
    lines = getattr(config, "_criterion_lines", None)
    if lines is None:
        lines = []
        config._criterion_lines = lines
    lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
