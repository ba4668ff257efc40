"""Linearized quantum-fluctuation engine.

Each atomic and field operator is split into mean value plus fluctuation.
Per velocity class, the atomic fluctuations obey

    d(dsigma)/dt = B dsigma + C dA + F,

with dsigma the 8 traceless components in the order
[ds22, ds33, ds21, ds12, ds31, ds13, ds32, ds23], dA the field
fluctuation vector (da1, da1+, da2, da2+) and F Langevin forces whose
correlators <F_mu F_nu> = 2 D_mu_nu follow from the generalized Einstein
relation.  Solving algebraically at Fourier frequency w and substituting
into the field propagation equations gives the 4x4 spatial generator M(w)
and noise spectral density S(w); both are Maxwellian-averaged before the
medium is traversed in closed form.  The class shift s enters B only
through a diagonal, so one eigendecomposition per row factors every
class, and the steady state and the resolvent depend on s only through
factors 1/(1 - s theta).  M and S are then contractions with class
averages of products of two and three such factors, computed from the
rule's resolvent function in one pass over the classes that gives the
absorption's averages of one factor too (see _eliminate); no per-class
tensor is built.
M leaves out the common phase i w / c of free propagation: a multiple of
the identity, it cancels from every second moment of the output.

Rows are a batch axis.  The contiguous rows of a sweep that share one
parameter set run as one stack, whatever their omegas and Doppler scales,
as long as omega = 0 on all of them or on none (_field_rows, one row
being R = 1): the classes, the pencils, the class averages, the
contractions, propagation and the Duan combination each run once over
the stack, and every stacked step acts on each row alone, so a row's
bytes do not depend on its stack mates.

Covariances are stored as Sigma_ij = <dA_i dA_j+> in shot-noise units, so
vacuum/coherent inputs give Sigma = diag(1, 0, 1, 0) and two uncorrelated
coherent beams give the Duan combination (du)^2 + (dv)^2 = 4.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cache, lru_cache, reduce
from itertools import groupby, repeat

import numpy as np

# generator_matrix is not called here; the alias stays because
# perfbench's tracer test wraps the drift builder through it
from .bloch import (PROD, REDUCED_CONJ, REDUCED_LABELS,  # noqa: F401
                    SOP_O1, SOP_O1C, SOP_O2, SOP_O2C,
                    averaged_absorption, decay_generator, drift_bound, drift_pencil,
                    generator_matrix, pencil_errors, steady_state_pencil)
from .doppler import build_classes, factor_moments
from .errors import ContractError, DivergenceError, ResonanceError
from .model import C_M_MHZ, CoherenceRates, DecayConfig, SystemParams
from .numerics import check_shifts, divide_rows, factor_pencil, propagation_integral
from .tables import SpectrumTable

RIDX = {lab: k for k, lab in enumerate(REDUCED_LABELS)}

# C entry points that get and set the OpenBLAS thread count: a plain build, and
# the symbol-prefixed builds that scipy and numpy (64-bit integer) wheels bundle
_BLAS_THREAD_CALLS = ("openblas_{}_num_threads", "scipy_openblas_{}_num_threads",
                      "scipy_openblas_{}_num_threads64_")

# Thread-count variables that a BLAS or OpenMP runtime reads when it loads
_BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Most rows sweep_rows hands batch at once.  A stacked fig2-a row holds
# 51 KB at its peak at omega = 0 and 104 KB at 50 (tracemalloc), so a stack
# stays under 7 MB however long the sweep; an 801-row fig2-a spectrum ran no slower in
# stacks of 64 than as one stack (one BLAS thread, 2-core x86-64).  A call
# of this many rows or fewer runs here; a longer one pools when it can.
STACK_ROWS = 64

# field pairing involution (a1 <-> a1+, a2 <-> a2+)
FIELD_CONJ = (1, 0, 3, 2)

# quadrature rows x1, p1, x2, p2 (x = a + a+, p = -i a + i a+) on the field
# order (da1, da1+, da2, da2+), and the Duan rows du = dx1 - dx2, dv = dp1 + dp2
_QUADRATURES = np.array([[1, 1, 0, 0], [-1j, 1j, 0, 0], [0, 0, 1, 1], [0, 0, -1j, 1j]])
_CU = _QUADRATURES[0] - _QUADRATURES[2]
_CV = _QUADRATURES[1] + _QUADRATURES[3]

# one-hot product table: _PROD_ONEHOT[k, a, b] = 1 when sigma_a sigma_b = sigma_k
_PROD_ONEHOT = (PROD[None, :, :] == np.arange(9)[:, None, None]).astype(complex)

# field-coupling superoperators stacked as (component, reduced row, field)
# for the field order (da1, da1+, da2, da2+)
_FIELD_SOPS = np.stack([SOP_O1, SOP_O1C, SOP_O2, SOP_O2C], axis=-1)[1:].transpose(1, 0, 2)


# the factor triples of _eliminate, as indices into the points (pencil
# points 0..8, the first being 0; resolvent theta 9..16; their conjugates
# 17..24): the (8, 9, 9) outer product (theta_i, y_k, pencil_j) with
# y = (0, conj theta), so that y = 0 gives M and the rest S
_ELIMINATION_TRIPLES = np.stack(np.meshgrid(np.arange(9, 17), np.r_[0, 17:25], np.arange(9),
                                            indexing="ij"), -1).reshape(-1, 3)


def vacuum_covariance() -> np.ndarray:
    """Shot-noise covariance of two uncorrelated coherent/vacuum modes."""
    return np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)


def _source_projection(params: SystemParams) -> np.ndarray:
    """4x8 map from atomic components to field-equation source terms.

    da1 is sourced by the 1-2 polarization (component rho21), da2 by the
    2-3 polarization (rho32), conjugates likewise with opposite sign of i.
    """
    g1, g2 = params.couplings
    kp = np.zeros((4, 8), dtype=complex)
    kp[0, RIDX[2, 1]] = 1j * g1
    kp[1, RIDX[1, 2]] = -1j * g1
    kp[2, RIDX[3, 2]] = 1j * g2
    kp[3, RIDX[2, 3]] = -1j * g2
    return kp


def _coupling_map(params: SystemParams) -> np.ndarray:
    """Field-coupling matrix C as a linear map of the steady state:
    C = sum_m means[m] * map[m], shape (9, 8, 4).  C is the Jacobian of
    the drift with respect to (da1, da1+, da2, da2+)."""
    g1, g2 = params.couplings
    return _FIELD_SOPS * np.array([g1, g1, g2, g2])


def coupling_batch(params: SystemParams, means: np.ndarray) -> np.ndarray:
    """Field-coupling matrix C per class: one product with the 9x32 map."""
    return (means @ _coupling_map(params).reshape(9, 32)).reshape(-1, 8, 4)


def _diffusion_map(decay: DecayConfig, rates: CoherenceRates) -> np.ndarray:
    """Langevin correlators 2*D from the generalized Einstein relation, as
    a linear map of the steady state in the full 9-component basis:
    2 D = sum_m means[m] * map[m], shape (9, 9, 9).

    With Gdec the relaxation part of the drift,

        2 D_ab = (Gdec m)_[ab] - sum_l Gdec_al m_[lb] - sum_l Gdec_bl m_[al],

    where x_[ab] is the component of x at the product sigma_a sigma_b, or
    zero when that product vanishes.  Hamiltonian drift terms are derivations
    of the operator algebra and cancel identically.
    """
    gdec = decay_generator(decay, rates)
    return ((gdec.T @ _PROD_ONEHOT.reshape(9, 81)).reshape(9, 9, 9)
            - gdec @ _PROD_ONEHOT - _PROD_ONEHOT @ gdec.T)


@lru_cache(maxsize=64)
def _noise_map(decay: DecayConfig, rates: CoherenceRates) -> np.ndarray:
    """_eliminate's map of <F F+>, the reduced _diffusion_map with its column
    index conjugated, once per set of relaxation inputs, read-only."""
    corr = _diffusion_map(decay, rates)[:, 1:, 1:][:, :, list(REDUCED_CONJ)]
    corr.flags.writeable = False
    return corr


def diffusion_correlator_batch(params: SystemParams, means: np.ndarray) -> np.ndarray:
    """Langevin correlators 2*D per class: one product with the 9x81 map."""
    return (means @ _diffusion_map(params.decay, params.rates).reshape(9, 81)).reshape(-1, 9, 9)


def _eliminate(params: SystemParams, pencil, classes, resolvent):
    """Class-averaged field generators M and noise densities S at frequency
    w of a stack of rows.

    Per class, T = kp (-i w - B)^-1 is the source response to the atomic
    fluctuations, M_v = T C and S_v = T <F F+> T+, where <F_mu F_nu+> is
    the correlator with its column index conjugated.  With B = B0 - s diag(e),
    resolvent, the stacked numerics.factor_pencil factorization of
    B0 + i w, gives every class (B + i w)^-1 = V diag(r) L with
    L = ((B0 + i w) V)^-1 and r = 1 / (1 - s theta), so T = -(kp V) diag(r) L.
    The maps C and 2D are linear in the steady state, which is X q with q
    the factors at the points of pencil (bloch.SteadyPencil), so with
    A = L C X and D = L 2D L^H X

        M = -(kp V)_ai <r_i q_j> A_jib,
        S = (kp V)_ai <r_i r_k^* q_j> D_jik (kp V)^*_bk,

    and every class average is a moment of three pencil factors
    (doppler.factor_moments).  Every product is a stack of the one-row
    products, each row's slice laid out as a row alone would lay it out.
    Returns the stacks of M and S, and the class averages <r> at the points
    of pencil, which the moments' pass takes on the way (the absorption's).
    """
    v, left, theta, _ = resolvent
    kv = _source_projection(params) @ v                            # (R,4,8)
    states = pencil.states.transpose(0, 2, 1)
    lc = states @ (left[:, None] @ _coupling_map(params)).reshape(-1, 9, 32)
    ld = states @ (left[:, None] @ _noise_map(params.decay, params.rates)
                   @ left.conj().transpose(0, 2, 1)[:, None]).reshape(-1, 9, 64)
    points = np.concatenate([pencil.points, theta, theta.conj()], axis=1)
    moments, factors = factor_moments(classes, points, _ELIMINATION_TRIPLES)
    moments = moments.reshape(-1, 8, 9, 9)
    of_m = moments[:, :, 0].transpose(0, 2, 1)                     # (R, j, i)
    of_s = moments[:, :, 1:].transpose(0, 3, 1, 2)                 # (R, j, i, k)
    scale = params.geometry.N / C_M_MHZ
    m = -scale * (kv @ (of_m[..., None] * lc.reshape(-1, 9, 8, 4)).sum(axis=1))
    s = scale * (kv @ (of_s * ld.reshape(-1, 9, 8, 8)).sum(axis=1) @ kv.conj().transpose(0, 2, 1))
    return m, s, factors[:, :9]


def propagate(m: np.ndarray, s: np.ndarray, length: float, sigma_in: np.ndarray) -> np.ndarray:
    """Traverse the medium: Sigma_out = T Sigma_in T+ + accumulated noise,
    with T = exp(M L), for one pair M, S or for each of a stack of them."""
    t, noise = propagation_integral(m, s, length)
    out = t @ sigma_in @ np.swapaxes(t.conj(), -1, -2) + noise
    if not np.abs(out).max() <= 1e12:       # a NaN or inf entry fails this too
        raise DivergenceError("field covariance diverged during propagation")
    return out


@dataclass(frozen=True)
class DuanResult:
    """Duan inseparability combination; v12 < 4 certifies entanglement."""

    v12: float
    du2: float
    dv2: float


def full_second_moments(sigma: np.ndarray) -> np.ndarray:
    """Matrix of plain products <dA_i dA_j> from the covariance layout, of
    one covariance or of each of a stack of them."""
    return sigma[..., list(FIELD_CONJ)]


def duan_v12(sigma: np.ndarray) -> DuanResult:
    """(du)^2 and (dv)^2 with du = dx1 - dx2, dv = dp1 + dp2."""
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape != (4, 4):
        raise ContractError(f"expected 4x4 covariance, got {sigma.shape}")
    return DuanResult(*(float(column[0]) for column in _duan_rows(sigma[None])))


def _duan_rows(sigma: np.ndarray):
    """duan_v12's v12, du2 and dv2 of each of a stack of covariances, as
    arrays.  Each row is a vector-matrix and a vector-vector product, as
    one row alone."""
    moments = full_second_moments(sigma)
    du2, dv2 = (np.real((c @ moments)[:, None, :] @ c[:, None])[:, 0, 0] for c in (_CU, _CV))
    return du2 + dv2, du2, dv2


def covariance_hermiticity_error(sigma: np.ndarray):
    """Deviation from the pairing symmetry (a Gram matrix is Hermitian), of
    one covariance or of each of a stack of them."""
    return np.max(np.abs(sigma - np.swapaxes(sigma.conj(), -1, -2)), axis=(-2, -1))


def quadrature_variances(sigma: np.ndarray) -> list[tuple[float, float]]:
    """Per-mode (Var x, Var p); vacuum gives (1, 1) for each mode."""
    moments = full_second_moments(sigma)
    var = [float(np.real(c @ moments @ c)) for c in _QUADRATURES]
    return [(var[0], var[1]), (var[2], var[3])]


@dataclass(frozen=True)
class PhysicalityReport:
    """Worst-case physicality diagnostics over a computed sweep.

    The trace, hermiticity and population errors are those of the rows'
    steady states, read from their pencils (bloch.pencil_errors).
    max_drift_eigenvalue is an upper bound on the real part of every
    class's reduced drift eigenvalues (bloch.drift_bound), not their
    maximum; a value < 0 still certifies that every class is dissipative.
    """

    trace_error: float = 0.0
    hermiticity_error: float = 0.0
    population_error: float = 0.0
    max_drift_eigenvalue: float = -np.inf
    covariance_error: float = 0.0
    # largest condition number of the eigenvector bases that factor the
    # class dependence (numerics.factor_pencil), each with its theta = 0
    # columns (the populations) unit vectors
    eigenvector_condition: float = 0.0

    def merged(self, other: "PhysicalityReport") -> "PhysicalityReport":
        return PhysicalityReport(**{f.name: max(getattr(self, f.name), getattr(other, f.name))
                                    for f in fields(self)})

    def scaled(self, scale: float) -> "PhysicalityReport":
        """The report with every rate times scale: of the fields, only the
        drift bound is a rate, and the others are ratios."""
        return replace(self, max_drift_eigenvalue=scale * self.max_drift_eigenvalue)


def field_system_at(params: SystemParams, delta1: float, omega: float = 0.0,
                    collect: bool = False):
    """Maxwellian-averaged field generator M(w), without the free-propagation
    phase i w / c (it cancels from every second moment), and noise density
    S(w) at one probe detuning, plus exact absorption and diagnostics: the
    one-row stack of _field_rows."""
    m, s, absorption, reports = _field_rows(params, [delta1], [omega], [1.0], collect)
    return m[0], s[0], float(absorption[0]), reports[0] if collect else None


def _field_rows(params: SystemParams, delta1s, omegas, scales, collect: bool):
    """field_system_at of each probe detuning of delta1s at one parameter
    set, as one stack of rows, each row at its entry of omegas (all zero,
    or none) and with its classes at the shifts of the class rule divided
    by its entry of scales: the stacks of M and S, the absorptions, and a
    PhysicalityReport per row (None unless collected).

    The class averages need the class rule alone, which the rows share, so
    the classes are built once, at delta1 = 0 (bloch.absorption_rows), and
    a row of scale c takes them at its points divided by c
    (bloch.SteadyPencil.scaled).  Each distinct detuning's drift pencil is
    built and factored once, and its rows take it from there; at w = 0
    that factorization is the resolvent too, and at w != 0 each row
    factors B0 + i w of its own.  The elimination and its class averages,
    the absorption's among them, run once over the stack, and each acts on
    every row alone."""
    classes = build_classes(params, 0.0, params.field.delta2)
    distinct = {}
    rows = [distinct.setdefault(delta1, len(distinct)) for delta1 in delta1s]
    b0, h, e = drift_pencil(params, list(distinct))
    pencil = steady_state_pencil(b0, h, e, classes.shifts,
                                 rows if len(distinct) < len(rows) else slice(None), scales)
    resolvent = pencil.resolvent   # at w = 0 the resolvent is the steady-state pencil
    if any(omegas):
        try:
            v, left, theta, cond = factor_pencil(
                b0[rows] + (1j * np.asarray(omegas))[:, None, None] * np.eye(8), np.diag(e))
            resolvent = v, left, divide_rows(theta, scales), cond
            check_shifts(resolvent, classes.shifts)
        except np.linalg.LinAlgError as exc:
            lo, hi = min(omegas), max(omegas)
            where = f"omega={lo}" if lo == hi else f"omega in [{lo}, {hi}]"
            raise ResonanceError(f"singular atomic resolvent at {where}: {exc}") from exc
    m, s, factors = _eliminate(params, pencil, classes, resolvent)
    absorption = averaged_absorption(params, pencil, factors)
    reports = None
    if collect:
        reports = [PhysicalityReport(
            *pencil_errors(pencil.take(r), classes.shifts),
            max_drift_eigenvalue=drift_bound(params, b0[k], e, classes.shifts, scales[r]),
            eigenvector_condition=float(max(pencil.resolvent[3][r], resolvent[3][r])))
            for r, k in enumerate(rows)]
    return m, s, absorption, reports


@cache
def _blas_thread_controls():
    """(get, set) thread-count entry points of every loaded OpenBLAS, found
    once per process in its memory map; none where there is no map (not
    Linux), and rows then run on the inherited setting."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {parts[5].strip() for parts in (line.split(maxsplit=5) for line in fh)
                     if len(parts) == 6 and "openblas" in parts[5].lower()}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_CALLS:
            getter, setter = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return tuple(controls)


def _set_blas_threads(counts=None):
    """Set every loaded OpenBLAS to its entry of counts (default: one
    thread each) and return the previous counts; the pool-worker
    initializer.  At the 8x8 sizes of a row, BLAS threads only add
    synchronization, and pool workers already share out the cores.  A
    library already at its count is left alone: in a forked worker, which
    inherits the pin, the setter would only start OpenBLAS's thread server."""
    controls = _blas_thread_controls()
    previous = [getter() for getter, _ in controls]
    for (_, setter), count, now in zip(controls, counts or repeat(1), previous):
        if count != now:
            setter(count)
    return previous


def usable_cores() -> int:
    """Cores this process may run on: the size of its affinity mask, which
    taskset and batch schedulers narrow, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _one_blas_thread_env():
    """Set every _BLAS_THREAD_ENV variable to 1, and restore the caller's
    values (or their absence) on exit."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_ENV}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_ENV, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def sweep_rows(batch, rows, jobs: int = 1):
    """Ordered map of the picklable batch function over a sequence of
    rows: batch(chunk) takes a contiguous list of rows and returns one
    result per row, each independent of the chunk's other rows.

    Rows go out in contiguous chunks of at most STACK_ROWS rows, with
    every loaded OpenBLAS at one thread, and the caller's thread counts
    are restored afterwards.  A call of at most STACK_ROWS rows runs here
    as one chunk, and so does each chunk of a longer call when only one
    worker is possible.  Otherwise the rows go to one pool of
    min(jobs, usable_cores(), rows) worker processes, in chunks of
    min(STACK_ROWS, ceil(rows / (4 workers))) rows.  This process is
    already pinned when the pool starts, so a forked worker inherits the
    pin and the library lookup; and while the pool runs, the
    _BLAS_THREAD_ENV variables read 1, so a worker that loads OpenBLAS
    afresh (the spawn and forkserver start methods) starts it on one
    thread.  Results come back in row order, so they do not depend on
    where a row ran.
    """
    n = len(rows)
    workers = min(jobs, usable_cores(), n) if n > STACK_ROWS else 1
    size = STACK_ROWS if workers < 2 else min(STACK_ROWS, -(-n // (4 * workers)))
    chunks = [rows[k:k + size] for k in range(0, n, size)]
    counts = _set_blas_threads()
    try:
        if workers < 2:
            return [result for chunk in chunks for result in batch(chunk)]
        with _one_blas_thread_env(), ProcessPoolExecutor(
                max_workers=workers, initializer=_set_blas_threads) as pool:
            return [result for part in pool.map(batch, chunks) for result in part]
    finally:
        _set_blas_threads(counts)


def _spectrum_rows(rows):
    """(v12, du2, dv2, absorption, report) of each (params, delta1, omega,
    scale, collect) of rows (spectrum_columns).  Each run of contiguous
    rows with equal (params, collect), whatever their scales, and with
    omega = 0 on all of them or on none, goes through _field_rows,
    propagation and the Duan combination as one stack; each stacked step
    acts on every row alone, so a row's values do not depend on the rest
    of its chunk.  A spectrum's chunk is one run, and so is each p of a
    line-centre pump sweep in it, at any omega; sweep_rows keeps a chunk,
    and so each stack, to at most STACK_ROWS rows."""
    out = []
    for (params, _, collect), run in groupby(rows, key=lambda row: (row[0], row[2] == 0.0,
                                                                    row[4])):
        _, delta1s, omegas, scales, _ = zip(*run)
        m, s, absorption, reports = _field_rows(params, delta1s, omegas, scales, collect)
        sigma = propagate(m, s, params.geometry.L, vacuum_covariance())
        if collect:
            reports = [replace(report, covariance_error=error) for report, error
                       in zip(reports, covariance_hermiticity_error(sigma).tolist())]
        out.extend(zip(*(column.tolist() for column in (*_duan_rows(sigma), absorption)),
                       reports or repeat(None)))
    return out


def spectrum_columns(rows, jobs: int, collect: bool):
    """V12 rows at the (params, delta1, omega, scale) of rows, run by
    sweep_rows in chunks of _spectrum_rows, which stacks the contiguous
    rows of one parameter set, at omega = 0 and not apart: their v12,
    du2, dv2 and absorption columns in row order, and their merged
    PhysicalityReport, which is None unless collected.

    A row runs params at delta1 and omega with the Doppler width of params
    divided by its scale.  It stands for the row with every rate, Rabi
    frequency, detuning, omega and the density times its scale, and the
    Doppler width of params.  The drift is homogeneous of degree one in
    all of them and the noise kernel linear in the rates, so the two rows
    have the same columns; each row's report is scaled to the row it
    stands for before the merge.
    """
    *columns, reports = zip(*sweep_rows(_spectrum_rows, [(*row, collect) for row in rows], jobs))
    report = None
    if collect:
        report = reduce(PhysicalityReport.merged,
                        (r.scaled(row[3]) for r, row in zip(reports, rows)), PhysicalityReport())
    return (*(np.array(c) for c in columns), report)


def v12_spectrum(params: SystemParams, delta1_grid, omega: float = 0.0,
                 jobs: int = 1, collect: bool = False):
    """Sweep the probe detuning: correlation V12 and exact absorption.

    Contiguous chunks of detunings run as stacks of rows, each row's
    values independent of its stack mates (spectrum_columns), and are
    assembled in grid order, so results are identical at any parallelism
    degree and chunking.

    Returns (SpectrumTable, PhysicalityReport | None).
    """
    grid = np.asarray(delta1_grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ContractError("delta1 grid must be a non-empty 1-d array")
    v12s, du2, dv2, absorption, report = spectrum_columns(
        [(params, float(d), omega, 1.0) for d in grid], jobs, collect)
    table = SpectrumTable(delta1=grid, v12=v12s, du2=du2, dv2=dv2, absorption=absorption)
    return table, report
