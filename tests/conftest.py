import numpy as np
import pytest

from laddertangle import fluctuations
from laddertangle.bloch import REDUCED_CONJ
from laddertangle.experiments import baseline_params
from laddertangle.model import DopplerConfig


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
    returned collects the max_workers of every pool the sweep opens."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(fluctuations, "ProcessPoolExecutor", RecordingPool)
    return sizes


def symmetrized_diffusion_min_eig(d: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized noise kernel.

    The physical (Hermitian) kernel couples F_mu to F_nu+, i.e. the
    column index is conjugated before symmetrizing.
    """
    herm = 2.0 * d[:, list(REDUCED_CONJ)]
    herm = 0.5 * (herm + herm.conj().T)
    return float(np.min(np.linalg.eigvalsh(herm)))


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
