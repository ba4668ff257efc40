"""Semiclassical steady state of the driven ladder atom.

Conventions.  Components are density-matrix elements rho_ij = <i|rho|j>
of the three-level ladder (1 ground, 2 intermediate, 3 top), ordered

    [rho11, rho22, rho33, rho21, rho12, rho31, rho13, rho32, rho23].

The rotating frame is chosen so that the weak-probe coherence obeys
rho21 = i*g1*alpha1 / (gamma12 + i*d1), i.e. Im(rho21) > 0 means probe
absorption.  Mean fields enter as the c-number couplings O1 = g1*alpha1
and O2 = g2*alpha2 (undepleted pump and probe).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .doppler import average, build_classes, pump_shift_ratio, resolvent_series
from .errors import ContractError, NoSteadyStateError, ParameterError
from .model import CoherenceRates, DecayConfig, SystemParams
from .numerics import check_shifts, divide_rows, factor_pencil

LABELS = ((1, 1), (2, 2), (3, 3), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3))
IDX = {lab: k for k, lab in enumerate(LABELS)}
POPULATIONS = (IDX[1, 1], IDX[2, 2], IDX[3, 3])

# reduced (trace-eliminated) fluctuation basis: drop rho11
REDUCED_LABELS = LABELS[1:]
# conjugate-partner permutation on the reduced basis
REDUCED_CONJ = tuple(REDUCED_LABELS.index((j, i)) for (i, j) in REDUCED_LABELS)
# unitary map of the reduced components x to real coordinates (rho22, rho33,
# Re rho21, Im rho21, Re rho31, Im rho31, Re rho32, Im rho32), sqrt(2) times on
# the coherences: rows (x_k + x_p) / sqrt(2) and i (x_p - x_k) / sqrt(2) per pair k < p
_K, _P, _SWAP = np.arange(8)[:, None], np.array(REDUCED_CONJ)[:, None], np.eye(8)[list(REDUCED_CONJ)]
REAL_BASIS = np.where(_K == _P, np.eye(8),
                      np.where(_K < _P, np.eye(8) + _SWAP, 1j * (np.eye(8) - _SWAP)) / np.sqrt(2.0))
# reduced -> full components of a traceless vector: rho11 = -rho22 - rho33
LIFT = np.vstack([-np.eye(8)[:2].sum(axis=0), np.eye(8)])
# Hilbert-Schmidt inner product of traceless vectors in the reduced basis
HS_METRIC = LIFT.T @ LIFT


def _elementary(i: int, j: int) -> np.ndarray:
    e = np.zeros((3, 3), dtype=complex)
    e[i - 1, j - 1] = 1.0
    return e


def _commutator_superop(h: np.ndarray) -> np.ndarray:
    """9x9 matrix of rho -> -i(H rho - rho H) in the component basis."""
    out = np.zeros((9, 9), dtype=complex)
    for col, (i, j) in enumerate(LABELS):
        r = -1j * (h @ _elementary(i, j) - _elementary(i, j) @ h)
        for row, (a, b) in enumerate(LABELS):
            out[row, col] = r[a - 1, b - 1]
    return out


# Hamiltonian building blocks: H = d1*E22 + (d1+d2)*E33
#                                 - O1*E21 - O1c*E12 - O2*E32 - O2c*E23
SOP_D1 = _commutator_superop(_elementary(2, 2))
SOP_DSUM = _commutator_superop(_elementary(3, 3))
SOP_O1 = -_commutator_superop(_elementary(2, 1))
SOP_O1C = -_commutator_superop(_elementary(1, 2))
SOP_O2 = -_commutator_superop(_elementary(3, 2))
SOP_O2C = -_commutator_superop(_elementary(2, 3))

# single-atom operator product rule: component (i,j) times component (k,l)
# is delta_il * component (k,j); PROD[a,b] = resulting index or -1
PROD = np.full((9, 9), -1, dtype=int)
for _a, (_i, _j) in enumerate(LABELS):
    for _b, (_k, _l) in enumerate(LABELS):
        if _i == _l:
            PROD[_a, _b] = IDX[_k, _j]


def decay_generator(d: DecayConfig, c: CoherenceRates) -> np.ndarray:
    """Field-independent relaxation part of the component drift matrix:
    population decay d and coherence rates c (SystemParams.rates)."""
    g = np.zeros((9, 9), dtype=complex)
    g[IDX[1, 1], IDX[2, 2]] += 2.0 * d.gamma1
    g[IDX[2, 2], IDX[2, 2]] -= 2.0 * d.gamma1
    g[IDX[2, 2], IDX[3, 3]] += 2.0 * d.gamma2
    g[IDX[3, 3], IDX[3, 3]] -= 2.0 * d.gamma2
    for (i, j), rate in (((2, 1), c.gamma12), ((1, 2), c.gamma12),
                         ((3, 1), c.gamma13), ((1, 3), c.gamma13),
                         ((3, 2), c.gamma23), ((2, 3), c.gamma23)):
        g[IDX[i, j], IDX[i, j]] -= rate
    return g


def generator_matrix(params: SystemParams, d1, d2, o1=None, o1c=None, o2=None, o2c=None):
    """Drift matrices G with d<rho>/dt = G <rho>, one per velocity class.

    d1, d2 are 1-d arrays over the classes.  The four field couplings can
    be overridden independently (used for linear-response columns and for
    holding the conjugate amplitude fixed in derivative oracles).
    """
    o1 = params.rabi1 if o1 is None else o1
    o1c = np.conj(o1) if o1c is None else o1c
    o2 = params.rabi2 if o2 is None else o2
    o2c = np.conj(o2) if o2c is None else o2c
    d1, d2 = np.asarray(d1, dtype=float), np.asarray(d2, dtype=float)
    base = (decay_generator(params.decay, params.rates)
            + o1 * SOP_O1 + o1c * SOP_O1C + o2 * SOP_O2 + o2c * SOP_O2C)
    return (base[None, :, :]
            + d1[:, None, None] * SOP_D1
            + (d1 + d2)[:, None, None] * SOP_DSUM)


def reduce_generator(g: np.ndarray) -> np.ndarray:
    """Project the drift onto the 8 traceless components (rho11 eliminated)."""
    b = np.array(g[..., 1:, 1:])
    b[..., :, 0] -= g[..., 1:, 0]
    b[..., :, 1] -= g[..., 1:, 0]
    return b


def steady_state_batch(g: np.ndarray) -> np.ndarray:
    """Unique trace-one null vectors of a stack of drift matrices."""
    a = np.array(g)
    a[:, 0, :] = 0.0
    a[:, 0, POPULATIONS] = 1.0
    b = np.zeros((a.shape[0], 9, 1), dtype=complex)
    b[:, 0, 0] = 1.0
    try:
        return np.linalg.solve(a, b)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NoSteadyStateError(f"steady-state solve failed: {exc}") from exc


def drift_pencil(params: SystemParams, delta1s):
    """Reduced drifts B0 and sources h of the stationary class at each
    probe detuning of delta1s, stacked as (R, 8, 8) and (R, 8), and the
    velocity diagonal e, which they share.

    A class with probe shift s sees d1 = delta1 - s and d1 + d2 =
    delta1 + delta2 + (k2/k1 - 1) s, and both detunings enter the drift
    through diagonal superoperators, so its reduced drift is
    B(s) = B0 - s diag(e) and its steady state solves B(s) x = -h.
    """
    d1 = np.asarray(delta1s, dtype=float)
    g0 = generator_matrix(params, d1, np.full(d1.shape, params.field.delta2))
    ratio = pump_shift_ratio(params)
    e = np.diag(SOP_D1 - (ratio - 1.0) * SOP_DSUM)[1:]
    return reduce_generator(g0), g0[:, 1:, 0], e


class SteadyPencil(NamedTuple):
    """Steady states of the velocity classes of a stack of rows, affine in
    the pencil factors.

    The reduced state of class s is V (y / (1 - s theta)) with
    y = (B0 V)^-1 (-h) (see drift_pencil and numerics.factor_pencil), and
    rho11 = 1 - rho22 - rho33.  So with a row's points (0, theta) and the
    factors r(s) = 1 / (1 - s points), its full state is states @ r(s).
    The theta come in exact conjugate pairs (_factor_rows).  resolvent is
    the stacked factorization (V, (B0 V)^-1, theta, cond(V)), which the
    atomic elimination at w = 0 reuses.  A row of scale c holds the
    classes at the shifts s / c as the factors at s of its points and
    theta divided by c (scaled).
    """

    points: np.ndarray       # (R, 9)
    states: np.ndarray       # (R, 9, 9)
    resolvent: tuple

    def take(self, index) -> "SteadyPencil":
        """The rows at index of every array: for an integer, the pencil of
        that row alone, points (9,), states (9, 9) and its factorization."""
        return SteadyPencil(self.points[index], self.states[index],
                            tuple(a[index] for a in self.resolvent))

    def scaled(self, scales) -> "SteadyPencil":
        """Each row's pencil for the classes at its shifts divided by its
        scale: 1 / (1 - (s / c) t) = 1 / (1 - s (t / c)), so its points and
        theta are divided by c (numerics.divide_rows), and its states and V
        are unchanged."""
        v, left, theta, cond = self.resolvent
        return SteadyPencil(divide_rows(self.points, scales), self.states,
                            (v, left, divide_rows(theta, scales), cond))


def steady_state_pencil(b0: np.ndarray, h: np.ndarray, e: np.ndarray, shifts,
                        rows=slice(None), scales=1.0) -> SteadyPencil:
    """Factor the drift pencils of a stack of rows (drift_pencil) once, and
    return the pencils of the rows at index rows of the stack, each for the
    classes at the given probe shifts divided by its scale (a scalar, or
    one per returned row; SteadyPencil.scaled).  So a row repeated in rows
    is factored once, with the bytes it has alone.  The checks that depend
    on the shifts and on numerics.MAX_EIGENVECTOR_CONDITION
    (numerics.check_shifts) run on every returned row, after the division."""
    pencil = _factor_rows(b0, h, e).take(rows).scaled(scales)
    try:
        check_shifts(pencil.resolvent, shifts)
    except np.linalg.LinAlgError as exc:
        raise NoSteadyStateError(f"steady-state solve failed: {exc}") from exc
    return pencil


def _factor_rows(b0: np.ndarray, h: np.ndarray, e: np.ndarray) -> SteadyPencil:
    """steady_state_pencil's factorization of a stack of row pencils.

    The drift keeps states Hermitian, so in U = REAL_BASIS the pencil
    (B0, diag(e)) is real up to rounding, which is dropped, and real QZ
    pairs its theta exactly; V = U^H V_r and (B0 V)^-1 = (B_r V_r)^-1 U.
    An imaginary part above rounding, on any row, is a drift that does not
    keep states Hermitian, and raises ContractError."""
    u, uh = REAL_BASIS, REAL_BASIS.conj().T
    b_r, e_r = u @ b0 @ uh, (u * e) @ uh
    for name, dropped, scale in (
            ("B0", np.abs(b_r.imag).max(axis=(1, 2)), np.abs(b0).max(axis=(1, 2))),
            ("diag(e)", np.abs(e_r.imag).max(), np.abs(e).max())):
        refused = dropped > 8.0 * np.finfo(float).eps * scale
        if np.any(refused):
            raise ContractError(f"the drift pencil's {name} does not keep states Hermitian: "
                                f"imaginary part {np.max(dropped * refused):.3g} in the real basis")
    try:
        v, left, theta, cond = factor_pencil(b_r.real, e_r.real)
    except np.linalg.LinAlgError as exc:
        raise NoSteadyStateError(f"steady-state solve failed: {exc}") from exc
    v, left = uh @ v, left @ u
    states = np.zeros((len(b0), 9, 9), dtype=complex)
    states[:, 0, 0] = 1.0
    states[:, :, 1:] = LIFT @ v * (left @ -h[:, :, None]).transpose(0, 2, 1)
    points = np.concatenate([np.zeros((len(b0), 1)), theta], axis=1)
    return SteadyPencil(points, states, (v, left, theta, cond))


def metric_log_norm(b: np.ndarray) -> float:
    """Largest eigenvalue mu of Herm(P b) y = mu P y, with P = HS_METRIC:
    the logarithmic norm of the reduced drift b in the Hilbert-Schmidt
    metric, so an upper bound on the real parts of its eigenvalues."""
    pb = HS_METRIC @ b
    return float(sla.eigh(0.5 * (pb + pb.conj().T), HS_METRIC, eigvals_only=True)[-1])


@lru_cache(maxsize=64)
def relaxation_log_norm(decay: DecayConfig, rates: CoherenceRates) -> float:
    """metric_log_norm of the relaxation part of the reduced drift, once
    per set of relaxation inputs: rows that differ only in their fields,
    geometry or Doppler width share it."""
    return metric_log_norm(reduce_generator(decay_generator(decay, rates)))


def drift_bound(params: SystemParams, b0: np.ndarray, e: np.ndarray, shifts,
                scale: float) -> float:
    """Upper bound on the real parts of the eigenvalues of the reduced
    drifts B0 - s diag(e) of the classes with the given probe shifts
    divided by scale.

    The Hamiltonian part of the drift, detunings and velocity shift
    included, is skew in the Hilbert-Schmidt metric P = LIFT^T LIFT.  So
    for every class and every detuning, Re(lambda) is at most the
    metric_log_norm of B0, which is that of its relaxation part alone
    (relaxation_log_norm).  When that is >= 0 it certifies nothing, and
    the largest real part over the classes is computed from their
    eigenvalues instead.
    """
    top = relaxation_log_norm(params.decay, params.rates)
    if top < 0.0:
        return top
    b = b0 - (np.asarray(shifts, dtype=float) / scale)[:, None, None] * np.diag(e)
    return float(np.max(np.linalg.eigvals(b).real))


# The coefficient checks of pencil_errors, as maps of the states and of their
# conjugates at the mirrored points, states[:, mirror].conj() (conj r(t) =
# r(conj t)): the trace row rho11 + rho22 + rho33 less its 1 at point 0, the
# gap rho_ij - conj(rho_ji) of every component, and rho + conj(rho) of rho22
# and rho33, from which the populations are evaluated.
_ADJOINT = np.eye(9)[[IDX[j, i] for (i, j) in LABELS]]
_ON_STATES = np.vstack([[1.0 if i == j else 0.0 for (i, j) in LABELS], np.eye(9), np.eye(9)[1:3]])
_ON_MIRRORED = np.vstack([np.zeros(9), -_ADJOINT, _ADJOINT[1:3]])
_TRACE_ONE = np.zeros((12, 9))
_TRACE_ONE[0, 0] = 1.0
# a population's gap is twice its imaginary part
_CHECK_WEIGHTS = np.array([1.0] + [0.5 if i == j else 1.0 for (i, j) in LABELS])


def _pencil_check(pencil: SteadyPencil, shifts: np.ndarray):
    """Trace and hermiticity error bounds and the (3, K) populations
    rho11, rho22, rho33 of the classes with the given probe shifts
    (pencil_errors), in real arithmetic with denominators |1 - s t|^2."""
    points = pencil.points.tolist()
    index = {t: k for k, t in enumerate(points)}
    mirror, live, zeros = [], [], []      # live: nonzero, a pair by its member above the axis
    for k, t in enumerate(points):
        mirror.append(k if t.imag == 0.0 else index[t.conjugate()])
        if t == 0.0:
            zeros.append(k)
        elif t.imag >= 0.0:
            live.append(k)
    checks = (_ON_STATES @ pencil.states + _ON_MIRRORED @ pencil.states[:, mirror].conj()
              - _TRACE_ONE)
    # A population is sum_j h_j r_j(s) / 2 with h its row of rho + conj(rho).
    # A point 0 adds Re h_j / 2, and with x = 1 - s Re t and y = s Im t
    # another adds Re(h r) / 2 = (x Re h - y Im h) / (x^2 + y^2) / 2, a
    # denominator without cancellation; a pair adds twice that at its
    # member above the axis.
    m = len(live)
    coef = []
    for h in checks[10:].tolist():
        c = [h[k] if points[k].imag else 0.5 * h[k] for k in live]
        coef.append([z.real for z in c] + [-z.imag for z in c]
                    + [0.5 * sum(h[k].real for k in zeros)])
    coef.insert(0, [-a - b for a, b in zip(*coef)])     # rho11 = 1 - rho22 - rho33
    coef[0][-1] += 1.0
    # rows x and y per live point, then ones
    factors = np.empty((2 * m + 1, len(shifts)))
    for j, k in enumerate(live):
        np.multiply(shifts, -points[k].real, out=factors[j])
        factors[j] += 1.0
        np.multiply(shifts, points[k].imag, out=factors[m + j])
    factors[-1] = 1.0
    xy = factors[:-1].reshape(2, m, len(shifts))
    size = np.square(xy).sum(axis=0)
    xy /= size
    # the largest |r| = 1 / |1 - s t| over the classes at each point
    largest = dict(zip(live, (1.0 / np.sqrt(size.min(axis=1))).tolist()))
    reach = [largest.get(k, largest.get(mirror[k], 1.0)) for k in range(len(points))]
    errors = (_CHECK_WEIGHTS * (np.abs(checks[:10]) @ reach)).tolist()
    return errors[0], max(errors[1:]), np.array(coef) @ factors


def pencil_errors(pencil: SteadyPencil, shifts) -> tuple[float, float, float]:
    """Worst trace, hermiticity and population-range errors over the
    steady states of the classes with the given probe shifts; all three
    are zero for physical density matrices.

    The trace and the hermiticity gaps are linear in the factors r, so
    each is bounded over the classes by the sum over the points of its
    coefficient error times the largest |r| over the classes there: the
    row rho11 + rho22 + rho33 against its value 1 at point 0, and each
    rho_ij row against the conjugated rho_ji row at the conjugate points.
    The population range is exact per class (_pencil_check).
    """
    trace, herm, pops = _pencil_check(pencil, np.asarray(shifts, dtype=float))
    return trace, herm, max(0.0, -float(pops.min()), float(pops.max()) - 1.0)


def eq1_terms(params: SystemParams, d1, d2):
    """The three perturbative absorption terms per velocity class.

    term1: one-photon Lorentzian; term2: lowest-order pump term
    (destructive, the transparency route); term3: two-step two-photon
    excitation (constructive, fifth order in the fields).
    """
    c, o1, o2 = params.rates, params.rabi1, params.rabi2
    d1, d2 = np.asarray(d1, dtype=float), np.asarray(d2, dtype=float)
    lor1 = c.gamma12**2 / (c.gamma12**2 + d1**2)
    term1 = lor1
    term2 = -np.real(
        c.gamma12 * o2**2
        / ((c.gamma12 + 1j * d1) ** 2 * (c.gamma13 + 1j * (d1 + d2)))
    )
    if o1 == 0.0 or o2 == 0.0:
        term3 = np.zeros_like(lor1)
    else:
        prefactor = (o1**2 * o2**2) / (
            4.0 * params.decay.gamma1 * params.decay.gamma2 * c.gamma12 * c.gamma23
        )
        term3 = prefactor * c.gamma23**2 / (c.gamma23**2 + d2**2) * lor1**2
    return term1, term2, term3


def absorption_perturbative(params: SystemParams, delta1: float) -> float:
    """Doppler-averaged weak-probe absorption with the pump kept to all
    orders, plus the leading two-step two-photon excitation correction.

    Normalized so the pump-off stationary-atom line-center value is
    exactly 1.  Expanding the resummed term to lowest pump order recovers
    the first two terms of eq1_terms.
    """
    if params.decay.gamma1 <= 0.0 or params.decay.gamma2 <= 0.0:
        raise ParameterError("perturbative absorption requires gamma1, gamma2 > 0")
    c = params.rates
    o2 = params.rabi2
    classes = build_classes(params, delta1, params.field.delta2)
    d1, d2 = classes.d1, classes.d2
    denom = (c.gamma12 + 1j * d1) + o2**2 / (c.gamma13 + 1j * (d1 + d2))
    weak = c.gamma12 * np.real(1.0 / denom)
    _, _, t3 = eq1_terms(params, d1, d2)
    return float(average(weak + t3, classes))


def absorption_exact_batch(params: SystemParams, mean_vecs: np.ndarray, classes) -> float:
    """Doppler average of (gamma12/(g1 alpha1)) Im rho21 from per-class
    steady states."""
    o1 = params.rabi1
    if o1 == 0.0:
        return 0.0
    vals = params.rates.gamma12 / o1 * mean_vecs[:, IDX[2, 1]].imag
    return float(average(vals, classes))


def averaged_absorption(params: SystemParams, pencil: SteadyPencil, factors) -> np.ndarray:
    """Doppler average of (gamma12/(g1 alpha1)) Im rho21 of each row of a
    stacked pencil, from the class averages <1 / (1 - s t)> at the row's
    points, factors (R, 9): doppler.resolvent_series' order 0 in
    absorption_rows, and the V12 rows' (doppler.factor_moments), alike."""
    o1 = params.rabi1
    if o1 == 0.0:
        return np.zeros(len(pencil.points))
    rho21 = pencil.states[:, None, IDX[2, 1]] @ factors[:, :, None]
    return params.rates.gamma12 / o1 * rho21[:, 0, 0].imag


def absorption_rows(params: SystemParams, delta1s) -> np.ndarray:
    """Exact-steady-state probe absorption at each probe detuning of
    delta1s, through one stacked pencil layer; same normalization
    convention as the perturbative expression.  The class averages need
    the class rule alone, which the rows share, so the classes are built
    once, at delta1 = 0."""
    classes = build_classes(params, 0.0, params.field.delta2)
    pencil = steady_state_pencil(*drift_pencil(params, delta1s), classes.shifts)
    return averaged_absorption(params, pencil, resolvent_series(classes, pencil.points, 0)[0])


def absorption_exact(params: SystemParams, delta1: float) -> float:
    """absorption_rows of the one probe detuning delta1."""
    return float(absorption_rows(params, [delta1])[0])
