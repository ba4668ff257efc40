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

import numpy as np

from .doppler import average, build_classes, pump_shift_ratio
from .errors import NoSteadyStateError, ParameterError
from .model import SystemParams
from .numerics import shifted_inverse

LABELS = ((1, 1), (2, 2), (3, 3), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3))
IDX = {lab: k for k, lab in enumerate(LABELS)}
POPULATIONS = (IDX[1, 1], IDX[2, 2], IDX[3, 3])

# reduced (trace-eliminated) fluctuation basis: drop rho11
REDUCED_LABELS = LABELS[1:]
# conjugate-partner permutation on the reduced basis
REDUCED_CONJ = tuple(REDUCED_LABELS.index((j, i)) for (i, j) in REDUCED_LABELS)


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


def decay_generator(params: SystemParams) -> np.ndarray:
    """Field-independent relaxation part of the component drift matrix."""
    g = np.zeros((9, 9), dtype=complex)
    d = params.decay
    c = params.coherence
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
    g1, g2 = params.couplings
    if o1 is None:
        o1 = g1 * params.field.alpha1
    if o1c is None:
        o1c = np.conj(o1)
    if o2 is None:
        o2 = g2 * params.field.alpha2
    if o2c is None:
        o2c = np.conj(o2)
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    base = (decay_generator(params)
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


def drift_pencil(params: SystemParams, delta1: float):
    """Reduced drift B0 and source h of the stationary class, and the
    velocity diagonal e.

    A class with probe shift s sees d1 = delta1 - s and d1 + d2 =
    delta1 + delta2 + (k2/k1 - 1) s, and both detunings enter the drift
    through diagonal superoperators, so its reduced drift is
    B(s) = B0 - s diag(e) and its steady state solves B(s) x = -h.
    """
    g0 = generator_matrix(params, [delta1], [params.field.delta2])[0]
    ratio = pump_shift_ratio(params)
    e = np.diag(SOP_D1 - (ratio - 1.0) * SOP_DSUM)[1:]
    return reduce_generator(g0), g0[1:, 0], e


def pencil_steady_states(b0: np.ndarray, h: np.ndarray, e: np.ndarray, shifts):
    """Steady states of the classes with the given probe shifts, from one
    factorization of the drift pencil (see drift_pencil and
    numerics.shifted_inverse): the reduced state of class s is
    V (y / (1 - s theta)) with y = (B0 V)^-1 (-h), and
    rho11 = 1 - rho22 - rho33.

    Returns the (K, 9) steady states and the eigenvector condition number.
    """
    try:
        v, left, factors, cond = shifted_inverse(b0, e, shifts)
    except np.linalg.LinAlgError as exc:
        raise NoSteadyStateError(f"steady-state solve failed: {exc}") from exc
    lift = np.vstack([-(v[0] + v[1]), v])      # reduced -> full components
    means = (factors * (left @ -h)) @ lift.T
    means[:, 0] += 1.0
    return means, cond


def steady_state_errors(means: np.ndarray) -> tuple[float, float, float]:
    """Worst trace, hermiticity and population-range errors over a stack
    of steady states; all three are zero for physical density matrices."""
    pops = means[:, list(POPULATIONS)]
    trace_err = float(np.max(np.abs(pops.sum(axis=1) - 1.0)))
    herm = 0.0
    for (i, j) in LABELS:
        if i < j:
            herm = max(herm, float(np.max(np.abs(
                means[:, IDX[i, j]] - np.conj(means[:, IDX[j, i]])))))
    herm = max(herm, float(np.max(np.abs(pops.imag))))
    pop_err = max(0.0, float(np.max(np.maximum(-pops.real, pops.real - 1.0))))
    return trace_err, herm, pop_err


def eq1_terms(params: SystemParams, d1, d2):
    """The three perturbative absorption terms per velocity class.

    term1: one-photon Lorentzian; term2: lowest-order pump term
    (destructive, the transparency route); term3: two-step two-photon
    excitation (constructive, fifth order in the fields).
    """
    c = params.coherence
    o1 = params.rabi1
    o2 = params.rabi2
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
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
    c = params.coherence
    o2 = params.rabi2
    classes = build_classes(params, delta1, params.field.delta2)
    d1, d2 = classes.d1, classes.d2
    denom = (c.gamma12 + 1j * d1) + o2**2 / (c.gamma13 + 1j * (d1 + d2))
    weak = c.gamma12 * np.real(1.0 / denom)
    _, _, t3 = eq1_terms(params, d1, d2)
    return float(average(weak + t3, classes))


def absorption_exact_batch(params: SystemParams, mean_vecs: np.ndarray, classes) -> float:
    """Doppler average of (gamma12/(g1 alpha1)) Im rho21 from steady states."""
    o1 = params.rabi1
    if o1 == 0.0:
        return 0.0
    vals = params.coherence.gamma12 / o1 * mean_vecs[:, IDX[2, 1]].imag
    return float(average(vals, classes))


def absorption_exact(params: SystemParams, delta1: float) -> float:
    """Exact-steady-state probe absorption, same normalization convention
    as the perturbative expression."""
    classes = build_classes(params, delta1, params.field.delta2)
    means, _ = pencil_steady_states(*drift_pencil(params, delta1), classes.shifts)
    return absorption_exact_batch(params, means, classes)
