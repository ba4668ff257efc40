"""Maxwellian velocity averaging with counterpropagating detuning shifts.

Velocities are carried directly as probe-detuning shifts s = k1*v (MHz).
For counterpropagating beams the pump shift has the opposite sign and is
scaled by k2/k1, so the two-photon detuning sum d1 + d2 keeps the small
residual shift (k2/k1 - 1)*s; switching the residual mismatch off makes
it velocity independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .model import SystemParams
from .numerics import gauss_hermite_rule, gaussian_trapezoid_rule


@dataclass(frozen=True)
class VelocityClasses:
    """Velocity-class grid as parallel arrays (one entry per class)."""

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


def build_classes(params: SystemParams, delta1: float, delta2: float) -> VelocityClasses:
    """Velocity classes with Doppler-shifted detunings for given lab detunings.

    Probe: d1 = delta1 - s.  Counterpropagating pump: d2 = delta2 + s,
    with s scaled by k2/k1 unless the residual two-photon mismatch is off.
    """
    s, weights = maxwellian_rule(params)
    ratio = 1.0
    if params.doppler.residual_mismatch:
        ratio = params.field.lambda1 / params.field.lambda2  # k2/k1
    return VelocityClasses(
        shifts=s,
        weights=weights,
        d1=delta1 - s,
        d2=delta2 + ratio * s,
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
