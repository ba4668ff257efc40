"""Small dense complex linear-algebra and quadrature kernels.

Everything here operates on matrices of dimension <= 16; the physics
modules only ever need 3x3, 8x8 and 4x4 systems, plus Maxwellian
quadrature rules for the Doppler average.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from numpy.polynomial.hermite import hermgauss

from .errors import ContractError, ResonanceError, UnsupportedOrderError

MAX_DIM = 16
MAX_HERMITE_ORDER = 512
# Largest eigenvector condition number shifted_inverse accepts.  Its
# factored inverses lose about log10(cond) digits against a direct solve;
# the shipped scenarios stay below 100.
MAX_EIGENVECTOR_CONDITION = 1e6


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {a.shape}")
    return a


def matrix_exponential(a) -> np.ndarray:
    """exp(A) for a small dense complex matrix."""
    a = _as_square(a)
    if a.shape[0] > MAX_DIM:
        raise ContractError(f"dimension {a.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(a.view(float))):
        raise ContractError("non-finite entries in matrix exponential input")
    return sla.expm(a)


def shifted_inverse(a, e, shifts):
    """Factor (A - s diag(e))^-1 for every shift s at once.

    With K = A^-1 diag(e) = V diag(theta) V^-1,

        (A - s diag(e))^-1 = V diag(1 / (1 - s theta)) (A V)^-1,

    so one eigendecomposition serves every shift.  Returns V, (A V)^-1,
    the (len(shifts), n) factors 1 / (1 - s theta) and the condition
    number of V.  Raises numpy.linalg.LinAlgError when A is singular or a
    factor is not finite (a shift on a pole of the pencil), and
    ResonanceError when V is worse conditioned than
    MAX_EIGENVECTOR_CONDITION.
    """
    a = _as_square(a)
    shifts = np.asarray(shifts, dtype=float)
    theta, v = np.linalg.eig(np.linalg.solve(a, np.diag(np.asarray(e, dtype=complex))))
    cond = float(np.linalg.cond(v))
    if not cond <= MAX_EIGENVECTOR_CONDITION:
        raise ResonanceError(f"eigenvector condition number {cond:.3g} of the shifted "
                             f"inverse exceeds {MAX_EIGENVECTOR_CONDITION:.0e}")
    left = np.linalg.inv(a @ v)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        factors = 1.0 / (1.0 - shifts[:, None] * theta)
    if not np.all(np.isfinite(factors.view(float))):
        raise np.linalg.LinAlgError("a shift lies on a pole of the pencil")
    return v, left, factors, cond


def gauss_hermite_rule(n: int, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and normalized weights of the Gauss-Hermite rule for the
    Gaussian exp(-v^2/mu^2)/(sqrt(pi) mu).

    Exact for f polynomial of degree <= 2n-1.
    """
    if n < 1:
        raise UnsupportedOrderError("quadrature order must be >= 1")
    if n > MAX_HERMITE_ORDER:
        raise UnsupportedOrderError(f"order {n} exceeds supported maximum {MAX_HERMITE_ORDER}")
    x, w = hermgauss(n)
    weights = w / np.sqrt(np.pi)
    return mu * x, weights / weights.sum()


def gaussian_trapezoid_rule(n: int, mu: float, span: float = 3.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and normalized weights of the uniform grid on
    [-span*mu, span*mu] weighted by the Maxwellian (mu > 0); one node is
    the stationary class.

    Dense rule for integrands that carry structure much narrower than the
    Doppler width; also the brute-force oracle in tests.
    """
    if n < 1:
        raise UnsupportedOrderError("quadrature order must be >= 1")
    if n == 1:
        return np.zeros(1), np.ones(1)
    nodes = np.linspace(-span * mu, span * mu, n)
    weights = np.exp(-((nodes / mu) ** 2))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return nodes, weights / weights.sum()


def propagation_integral(m, s, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrix T = exp(M L) and accumulated noise
    I = int_0^L exp(M u) S exp(M^H u) du.

    One Van Loan block exponential (Van Loan, IEEE TAC 23(3), 1978)
    over a step h = L / 2^k gives both on [0, h]:

        exp([[M, S], [0, -M^H]] h) = [[T(h), G], [0, exp(-M^H h)]],

    with I(h) = G T(h)^H.  k doubling steps I <- I + T I T^H, T <- T T
    then reach L.  k is the smallest integer with ||M||_1 h <= 1/2.  A
    single block exponential over the whole cell would carry
    exp(-M^H L), which grows as fast as an optically thick cell
    attenuates, and would lose I to rounding at that scale.
    """
    m = _as_square(m)
    n = m.shape[0]
    norm = float(np.linalg.norm(m, 1))
    steps, h = 0, float(length)
    while norm * abs(h) > 0.5:
        steps += 1
        h *= 0.5
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = m
    block[:n, n:] = s
    block[n:, n:] = -m.conj().T
    f = matrix_exponential(block * h)
    t = f[:n, :n]
    integral = f[:n, n:] @ t.conj().T
    for _ in range(steps):
        integral = integral + t @ integral @ t.conj().T
        t = t @ t
    return t, integral


def _quadrature_propagation_integral(m, s, length: float, panels: int = 8, order: int = 16) -> np.ndarray:
    """Composite Gauss-Legendre quadrature of the propagation integral.

    Test oracle for propagation_integral; no program path calls it.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    out = np.zeros_like(np.asarray(s, dtype=complex))
    h = length / panels
    for k in range(panels):
        lo = k * h
        u = lo + 0.5 * h * (x + 1.0)
        for ui, wi in zip(u, w):
            t = matrix_exponential(m * ui)
            out += (0.5 * h * wi) * (t @ s @ t.conj().T)
    return out
