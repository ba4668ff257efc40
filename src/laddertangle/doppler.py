"""Maxwellian velocity averaging with counterpropagating detuning shifts.

Velocities are carried directly as probe-detuning shifts s = k1*v (MHz).
For counterpropagating beams the pump shift has the opposite sign and is
scaled by k2/k1, so the two-photon detuning sum d1 + d2 keeps the small
residual shift (k2/k1 - 1)*s; switching the residual mismatch off makes
it velocity independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import ContractError
from .model import DopplerConfig, SystemParams

# Distinct points closer than this share of their scale make a divided
# difference lose digits, so factor_moments expands them in a Taylor series
# in two places: the first difference of a close pair, and a triple whose
# outer pair is close.  Against extended-precision node sums on shipped
# rows at w in {0, 1e-6, 3}, 0.1 keeps every class average within 3.2e-13
# of its own scale (0.01: 5.1e-12).
CLOSE_POINTS = 0.1
# Highest Taylor order expanded about close points; CLOSE_POINTS keeps the
# series ratio below 0.2, which needs 25 terms.
MAX_SERIES_ORDER = 40


@dataclass(frozen=True)
class VelocityClasses:
    """Velocity-class grid as parallel arrays (one entry per class, by
    ascending shift)."""

    shifts: np.ndarray
    weights: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def __len__(self) -> int:
        return len(self.shifts)

    @cached_property
    def complex_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """The shifts and weights as complex arrays, as a product with a
        complex array casts them: cast once per grid, not per product."""
        return self.shifts.astype(complex), self.weights.astype(complex)


@lru_cache(maxsize=8)
def maxwellian_rule(cfg: DopplerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Read-only class shifts and normalized weights of the configured
    rule, built once per config.  A zero Doppler width or a single node is
    one stationary class.  "hermite" is the Gauss-Hermite rule for the
    Gaussian exp(-s^2/width^2), exact for polynomials of degree below
    2 * nodes.  "trapezoid" is the uniform grid on +-span * width with
    Maxwellian weights, one node being the stationary class: the dense
    rule for integrands with structure much narrower than the Doppler
    width, and the brute-force oracle in tests."""
    if cfg.width == 0.0 or cfg.nodes == 1:
        shifts, weights = np.zeros(1), np.ones(1)
    elif cfg.rule == "hermite":
        x, w = hermgauss(cfg.nodes)
        shifts, weights = cfg.width * x, w / np.sqrt(np.pi)
    else:
        shifts = np.linspace(-cfg.span * cfg.width, cfg.span * cfg.width, cfg.nodes)
        weights = np.exp(-((shifts / cfg.width) ** 2))
        weights[0] *= 0.5
        weights[-1] *= 0.5
    weights = weights / weights.sum()
    shifts.flags.writeable = weights.flags.writeable = False
    return shifts, weights


def pump_shift_ratio(params: SystemParams) -> float:
    """Pump Doppler shift per unit probe shift: k2/k1, or 1 with the
    residual two-photon mismatch off."""
    if params.doppler.residual_mismatch:
        return params.field.lambda1 / params.field.lambda2
    return 1.0


def build_classes(params: SystemParams, delta1: float, delta2: float) -> VelocityClasses:
    """Velocity classes with Doppler-shifted detunings for given lab detunings.

    Probe: d1 = delta1 - s.  Counterpropagating pump: d2 = delta2 + s,
    with s scaled by k2/k1 unless the residual two-photon mismatch is off.
    """
    s, weights = maxwellian_rule(params.doppler)
    return VelocityClasses(
        shifts=s,
        weights=weights,
        d1=delta1 - s,
        d2=delta2 + pump_shift_ratio(params) * s,
    )


def average(values, classes: VelocityClasses):
    """Weight-sum of per-class values; values may be scalars or arrays.

    The leading axis of `values` must run over classes.
    """
    values = np.asarray(values)
    if values.shape[0] != len(classes):
        raise ContractError(
            f"per-class values length {values.shape[0]} does not match {len(classes)} classes"
        )
    return np.tensordot(classes.weights, values, axes=(0, 0))


def pole_distance(classes: VelocityClasses, points) -> np.ndarray:
    """Distance from each point t to the nearest pole 1/s of the class
    rule's resolvent function: the pole of a shift bracketing 1/Re(t) or
    of an extreme shift (the shifts ascend)."""
    t = np.asarray(points, dtype=complex)
    s = classes.shifts
    with np.errstate(divide="ignore"):
        k = np.searchsorted(s, 1.0 / t.real)
        poles = 1.0 / s.take([k - 1, k, 0 * k, 0 * k + len(s) - 1], mode="clip")
    return np.abs(t - poles).min(axis=0)


def resolvent_taylor(classes: VelocityClasses, points, order: int) -> np.ndarray:
    """Taylor coefficients <s^m / (1 - s t)^(m+1)>, m = 0..order, of the
    resolvent function g(t) = <1 / (1 - s t)> of the class rule at each
    point t, shape (order + 1, len(points)), each order one weight-vector
    product over the classes; g itself is a stack of one product per point,
    since a point's bytes in a product over several depend on the others."""
    shifts, weights = classes.complex_rule
    term = 1.0 / (1.0 - np.asarray(points, dtype=complex)[:, None] * shifts)
    coef = [(term[:, None] @ weights)[:, 0]]
    if order:
        sr = term * shifts
        for _ in range(order):
            term = term * sr
            coef.append(term @ weights)
    return np.array(coef)


def resolvent_series(classes: VelocityClasses, points, orders) -> np.ndarray:
    """Taylor coefficients g^(m)(t) / m!, m = 0..orders, of g at each point t
    of a row of points, or of each row of a stack of them (zero beyond the
    point's order), shape (max(orders) + 1, *points.shape), from which every
    class average of pencil factors is built.  A point 0 is the factor 1,
    and of an exact conjugate pair within a row the member above the real
    axis is evaluated (to the pair's larger order) and the other mirrored,
    as g(conj t) = conj g(t) on a real rule.  Each row's class sums are
    taken apart (resolvent_taylor), so no K-length temporary spans rows,
    and a point's g has its bytes alone in any row, call or order."""
    shape = np.shape(points)
    n = shape[-1]
    rows = np.asarray(points, dtype=complex).reshape(-1, n)
    # flat index of each point's conjugate partner within its row, or of itself
    mirror = (np.argmax(rows.conj()[:, :, None] == rows[:, None, :], axis=2)
              + n * np.arange(len(rows))[:, None]).ravel()
    t = rows.ravel()
    paired = t[mirror] == t.conj()
    mirrored = paired & (t.imag < 0.0)
    orders = (np.zeros(shape, dtype=int) + orders).ravel()
    orders = np.maximum(orders, np.where(paired, orders[mirror], 0))
    own = ~mirrored & (t != 0.0)
    g = np.zeros((orders.max() + 1, len(t)), dtype=complex)
    g[0, t == 0.0] = 1.0
    for order in set(orders[own].tolist()):
        at = own & (orders == order)
        for r in np.flatnonzero(at.reshape(-1, n).any(axis=1)).tolist():
            row = slice(r * n, r * n + n)
            g[:order + 1, row][:, at[row]] = resolvent_taylor(classes, t[row][at[row]], order)
    g[:, mirrored] = g[:, mirror[mirrored]].conj()
    return g.reshape(-1, *shape)


def factor_moments(classes: VelocityClasses, points, ids):
    """Class averages <r(t_1) r(t_2) r(t_3)> of the pencil factors
    r(t) = 1 / (1 - s t), for triples of points given as rows of indices
    into a row of points (a point 0 is a factor 1), or into each row of a
    stack of them, shape (*points.shape[:-1], len(ids)); and <r(t)> at
    every point, shape points.shape, as resolvent_series gives it.

    By partial fractions such an average is the divided difference
    F[t_1, t_2, t_3] of F(t) = t^2 g(t), with g(t) = <1 / (1 - s t)>; where
    points repeat it is confluent and takes the Taylor coefficients
    f_m = F^(m)(t) / m!, built from g^(m)(t) / m! = <s^m / (1 - s t)^(m+1)>
    (resolvent_series).  It is the Newton form over one table of first
    differences F[t_a, t_b] of the distinct points.

    The divided difference of two distinct points closer than CLOSE_POINTS
    times their scale (their modulus or pole_distance, whichever is
    smaller) loses digits.  Such points are expanded in a Taylor series in
    two places only: a close pair's first difference, about its
    lower-index point, and a triple whose outer pair is close (so all its
    points are), about its first point.  Every centre takes the one order
    that the largest gap over its centre's pole distance demands, in its
    own row.

    Rows whose points repeat alike run as one stack (_alike_moments), over
    each multiset of their distinct points that a triple names, once.
    Every step acts on each row alone, with each row's class sums taken
    apart (resolvent_series), so a row's averages do not depend on the
    others.
    """
    points = np.asarray(points, dtype=complex)
    rows = points.reshape(-1, points.shape[-1])
    # the first index of each point's value within its row
    first_equal = np.argmax(rows[:, :, None] == rows[:, None, :], axis=2)
    alike = {}
    for r, pattern in enumerate(first_equal):
        alike.setdefault(pattern.tobytes(), []).append(r)
    value = np.empty((len(rows), len(ids)), dtype=complex)
    series = np.empty(rows.shape, dtype=complex)
    for members in alike.values():
        first = first_equal[members[0]]
        distinct = np.flatnonzero(first == np.arange(len(first)))
        at, n = np.searchsorted(distinct, first), len(distinct)
        # each triple as the flat index (i, j, k) of its sorted multiset i <= j <= k
        code = np.ravel_multi_index(np.sort(at[ids], axis=1).T, (n, n, n))
        seen = np.zeros(n ** 3, dtype=bool)
        seen[code] = True
        moments, g = _alike_moments(classes, rows[members][:, distinct],
                                    np.unravel_index(np.flatnonzero(seen), (n, n, n)))
        value[members], series[members] = moments[:, (np.cumsum(seen) - 1)[code]], g[:, at]
    return value.reshape(*points.shape[:-1], len(ids)), series.reshape(points.shape)


def _alike_moments(classes: VelocityClasses, t: np.ndarray, ids):
    """factor_moments of a stack of rows of distinct points t, shape (R, n),
    for the triples of indices ids = (i, j, k) into each row, and g(t) at
    every point.  Lower-case indices count within a row; upper-case ones
    are flat, row * n + index, into the (R, n) arrays of the rows' points."""
    n = t.shape[1]
    i, j, k = ids
    # order each triple with its farthest pair outermost, where the Newton
    # form divides by its gap last; repeated points then sit side by side
    gap = np.abs(t[:, :, None] - t[:, None, :])
    gaps = gap.reshape(len(t), n * n)
    d01, d12, d02 = gaps[:, i * n + j], gaps[:, j * n + k], gaps[:, i * n + k]
    outer01 = (d01 > d02) & (d01 >= d12)
    outer12 = ~outer01 & (d12 > d02)
    i, j, k = (np.where(outer12, j, i), np.where(outer01, k, np.where(outer12, i, j)),
               np.where(outer01, j, k))
    base = n * np.arange(len(t))[:, None]
    I, J, K = i + base, j + base, k + base
    first, last = i == j, j == k
    nonzero = t != 0.0

    size = abs(t)
    close = gap < CLOSE_POINTS * np.maximum(size[:, :, None], size[:, None, :])
    close.reshape(len(t), n * n)[:, ::n + 1] = False
    pole = np.full(t.shape, np.inf)
    some = nonzero & close.reshape(len(t), n * n).any(axis=1)[:, None]
    if some.any():
        pole[some] = pole_distance(classes, t[some])
        close &= gap < CLOSE_POINTS * np.minimum(pole[:, :, None], pole[:, None, :])
    upper = np.arange(n)[:, None] < np.arange(n)
    pr, a, b = np.nonzero(close & upper)           # close pairs, a < b, of row pr
    A, B = a + n * pr, b + n * pr
    near = np.flatnonzero(close.take(I * n + k))   # triples whose outer pair is close
    C = I.take(near)                               # and their expansion centres
    nr = C // n
    # the order the repeated points need; at t = 0 F needs g(0) = 1 alone
    nonzero_j = nonzero.take(J)
    order = (((first | last) & nonzero_j).any(axis=1).astype(int)
             + (first & last & nonzero_j).any(axis=1))
    orders = np.repeat(order[:, None], n, axis=1)
    if len(pr):
        # the largest gap over its centre's pole distance, per row
        ratio = np.zeros(len(t))
        np.maximum.at(ratio, np.concatenate([pr, nr]),
                      np.concatenate([gap.take(A * n + b), gap.take(C * n + k.take(near))])
                      / pole.take(np.concatenate([A, C])))
        for r in set(pr.tolist()):
            terms = int(np.ceil(np.log(1e-17) / np.log(ratio[r]))) if ratio[r] > 0.0 else 0
            order[r] = max(order[r], min(terms, MAX_SERIES_ORDER) + 2)
        orders.ravel()[np.concatenate([A, C])] = order[np.concatenate([pr, nr])]
    top = order.max()
    g = np.zeros((max(top, 2) + 3, *t.shape), dtype=complex)   # g[m + 2] = g^(m) / m!
    g[2:top + 3] = resolvent_series(classes, t, orders)
    # Taylor coefficients of F = t^2 g, then the first differences
    f = (t * t * g[2:] + 2.0 * t * g[1:-1] + g[:-2]).reshape(len(g) - 2, -1)
    t = t.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = ((f[0].reshape(-1, n, 1) - f[0].reshape(-1, 1, n))
                / (t.reshape(-1, n, 1) - t.reshape(-1, 1, n))).reshape(-1, n * n)
        diff[:, ::n + 1] = f[1].reshape(-1, n)
        diff = diff.ravel()
        # F[a, b] = sum_m f_m(a) (b - a)^(m-1), by Horner's rule to the row's order
        for m_top, (lo, hi, lo_hi, hi_lo) in _by_order(order[pr], A, B, A * n + b, B * n + a):
            pair, u = 0.0, t[hi] - t[lo]
            for m in range(m_top, 0, -1):
                pair = f[m, lo] + u * pair
            diff[lo_hi] = diff[hi_lo] = pair
        value = np.where(first & last, f[2].take(I),
                         (diff.take(I * n + j) - diff.take(J * n + k)) / (t.take(I) - t.take(K)))
    # F[c, c + x, c + y] = sum_m f_m(c) h_(m-2)(x, y), with h the complete
    # homogeneous polynomials: Horner's rule in x over the tails in y
    value = value.ravel()
    for m_top, (tri, centre) in _by_order(order[nr], near, C):
        x, y = t[J.take(tri)] - t[centre], t[K.take(tri)] - t[centre]
        tail = near_value = 0.0
        for m in range(m_top, 1, -1):
            tail = f[m, centre] + y * tail
            near_value = tail + x * near_value
        value[tri] = near_value
    return value.reshape(len(base), -1), g[2]


def _by_order(order: np.ndarray, *columns):
    """(order, columns at it) for each distinct value of order."""
    tops = set(order.tolist())
    if len(tops) == 1:
        yield tops.pop(), columns
        return
    for top in tops:
        at = order == top
        yield top, [column[at] for column in columns]
