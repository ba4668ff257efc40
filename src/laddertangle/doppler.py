"""Maxwellian velocity averaging with counterpropagating detuning shifts.

Velocities are carried directly as probe-detuning shifts s = k1*v (MHz).
For counterpropagating beams the pump shift has the opposite sign and is
scaled by k2/k1, so the two-photon detuning sum d1 + d2 keeps the small
residual shift (k2/k1 - 1)*s; switching the residual mismatch off makes
it velocity independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ContractError
from .model import SystemParams
from .numerics import gauss_hermite_rule, gaussian_trapezoid_rule, product_moments


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


def maxwellian_rule(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Class shifts and normalized weights of the configured rule; a zero
    Doppler width is one stationary class."""
    cfg = params.doppler
    if cfg.width == 0.0:
        return np.zeros(1), np.ones(1)
    if cfg.rule == "hermite":
        return gauss_hermite_rule(cfg.nodes, cfg.width)
    return gaussian_trapezoid_rule(cfg.nodes, cfg.width, cfg.span)


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
    s, weights = maxwellian_rule(params)
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
        poles = 1.0 / s[np.clip([k - 1, k, 0 * k, 0 * k + len(s) - 1], 0, len(s) - 1)]
    return np.abs(t - poles).min(axis=0)


def resolvent_taylor(classes: VelocityClasses, points, order: int) -> np.ndarray:
    """Taylor coefficients <s^m / (1 - s t)^(m+1)>, m = 0..order, of the
    resolvent function g(t) = <1 / (1 - s t)> of the class rule at each
    point t, shape (order + 1, len(points)), each one weight-vector product
    over the classes."""
    term = 1.0 / (1.0 - np.asarray(points, dtype=complex)[:, None] * classes.shifts)
    coef = [term @ classes.weights]
    if order:
        sr = term * classes.shifts
        for _ in range(order):
            term = term * sr
            coef.append(term @ classes.weights)
    return np.array(coef)


def factor_moments(classes: VelocityClasses, points, ids) -> np.ndarray:
    """Class averages <r(t_1) r(t_2) r(t_3)> of pencil factors
    r(t) = 1 / (1 - s t), one per row of ids, a triple of indices into
    points (see numerics.product_moments)."""
    return product_moments(points, ids, partial(resolvent_taylor, classes),
                           partial(pole_distance, classes))
