"""Small dense complex linear-algebra and quadrature kernels.

Everything here operates on matrices of dimension <= 16; the physics
modules only ever need 3x3, 8x8 and 4x4 systems, plus Maxwellian
quadrature rules for the Doppler average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from numpy.polynomial.hermite import hermgauss

from .errors import ContractError, UnsupportedOrderError

MAX_DIM = 16
MAX_HERMITE_ORDER = 512


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


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and normalized weights approximating integral dv D(v) f(v)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape:
            raise ContractError("quadrature nodes/weights length mismatch")


def gauss_hermite_rule(n: int, mu: float) -> QuadratureRule:
    """Gauss-Hermite rule for the normalized Gaussian exp(-v^2/mu^2)/(sqrt(pi) mu).

    Exact for f polynomial of degree <= 2n-1.  mu = 0 collapses to the
    single stationary node.
    """
    if n < 1:
        raise UnsupportedOrderError("quadrature order must be >= 1")
    if n > MAX_HERMITE_ORDER:
        raise UnsupportedOrderError(f"order {n} exceeds supported maximum {MAX_HERMITE_ORDER}")
    if mu == 0.0 or n == 1:
        return QuadratureRule(np.zeros(max(n, 1))[:1], np.ones(1))
    x, w = hermgauss(n)
    weights = w / np.sqrt(np.pi)
    weights = weights / weights.sum()
    return QuadratureRule(mu * x, weights)


def gaussian_trapezoid_rule(n: int, mu: float, span: float = 3.0) -> QuadratureRule:
    """Uniform-grid rule on [-span*mu, span*mu] weighted by the Maxwellian.

    Dense fallback used when integrands carry structure much narrower than
    the Doppler width; also the brute-force oracle in tests.
    """
    if n < 1:
        raise UnsupportedOrderError("quadrature order must be >= 1")
    if mu == 0.0 or n == 1:
        return QuadratureRule(np.zeros(1), np.ones(1))
    nodes = np.linspace(-span * mu, span * mu, n)
    weights = np.exp(-((nodes / mu) ** 2))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    weights = weights / weights.sum()
    return QuadratureRule(nodes, weights)


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
