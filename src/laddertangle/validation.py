"""Self-check suite: physics invariants the install must satisfy.

Each check returns a CheckResult; run_all collects them into a
machine-readable report. The checks are deliberately cheap (coarse
velocity grids) so the whole suite runs in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bloch, fluctuations
from .experiments import baseline_params
from .model import (DecayConfig, DopplerConfig, FieldConfig, GeometryConfig,
                    SystemParams)

_FAST_DOPPLER = DopplerConfig(width=530.0, nodes=401, rule="trapezoid", span=3.0)
_STATIONARY = DopplerConfig(width=0.0)


def _fast_params(**kwargs) -> SystemParams:
    return replace(baseline_params(doppler=_FAST_DOPPLER), **kwargs)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    metrics: dict = field(default_factory=dict)


def check_decoupled_limits() -> CheckResult:
    """v12 must equal the vacuum value 4 exactly when probe coupling,
    density or cell length is zeroed."""
    worst = 0.0
    g1, g2 = _fast_params().couplings
    cases = {
        "g1=0": _fast_params(field=FieldConfig(alpha1=10.0, alpha2=50.0, g1=0.0)),
        "n=0": _fast_params(geometry=GeometryConfig(r=4.5e-4, L=0.06, n=0.0)),
        "L=0": _fast_params(geometry=GeometryConfig(r=4.5e-4, L=0.0, n=8.5e15),
                            field=FieldConfig(alpha1=10.0, alpha2=50.0, g1=g1, g2=g2)),
    }
    metrics = {}
    for label, params in cases.items():
        table, _ = fluctuations.v12_spectrum(params, [0.0])
        err = float(abs(table.v12[0] - 4.0))
        metrics[label] = err
        worst = max(worst, err)
    return CheckResult("decoupled-limits", worst <= 1e-12,
                       f"max |v12 - 4| = {worst:.3e}", metrics)


def check_steady_state_physicality(draws: int = 25, seed: int = 20240817) -> CheckResult:
    """Random parameter sweeps: the reduced drift is dissipative (its
    eigenvalue bound is negative), and steady states keep unit trace,
    Hermitian coherence pairs and populations in [0, 1].  Each draw is one
    stationary class, checked by its row's collected report
    (fluctuations.field_system_at)."""
    rng = np.random.default_rng(seed)
    worst = fluctuations.PhysicalityReport()
    for _ in range(draws):
        params = _fast_params(
            decay=DecayConfig(gamma1=rng.uniform(0.5, 6.0),
                              gamma2=rng.uniform(0.1, 2.0),
                              p=rng.uniform(0.0, 25.0)),
            field=FieldConfig(alpha1=rng.uniform(0.1, 30.0),
                              alpha2=rng.uniform(0.1, 120.0),
                              delta2=rng.uniform(-300.0, 300.0)),
            doppler=_STATIONARY,
        )
        worst = worst.merged(fluctuations.field_system_at(
            params, rng.uniform(-600.0, 600.0), collect=True)[3])
    metrics = {"max_drift_eigenvalue": worst.max_drift_eigenvalue, "trace": worst.trace_error,
               "hermiticity": worst.hermiticity_error, "population": worst.population_error}
    drift, *errors = metrics.values()
    return CheckResult(
        "steady-state-physicality", drift < 0.0 and max(errors) <= 1e-10,
        "max drift eigenvalue {:.2e}, trace {:.2e}, hermiticity {:.2e}, "
        "population bound {:.2e}".format(*metrics.values()), metrics)


def check_quadrature_convergence() -> CheckResult:
    """Velocity-average of the exact absorption converges as the uniform
    grid is refined."""
    params = _fast_params()
    values = {}
    for nodes in (801, 1601, 3201):
        p = replace(params, doppler=replace(params.doppler, nodes=nodes))
        values[nodes] = bloch.absorption_exact(p, 2.0)
    coarse = abs(values[801] - values[3201])
    fine = abs(values[1601] - values[3201])
    ok = fine <= 1e-6 and fine <= coarse + 1e-12
    return CheckResult("quadrature-convergence", ok,
                       f"refinement residuals {coarse:.3e} -> {fine:.3e}",
                       {str(k): v for k, v in values.items()})


def check_weak_probe_oracle() -> CheckResult:
    """Exact stationary-class steady states match the analytic weak-probe
    two-photon coherence ig1*a1 / (gamma12 + i d1 + (g2 a2)^2/(gamma13 + i(d1+d2)))."""
    params = _fast_params(field=FieldConfig(alpha1=1e-4, alpha2=50.0))
    d1 = np.array([-40.0, -3.0, 0.0, 2.5, 60.0])
    # the stationary class's state: every factor of the pencil is 1 at s = 0
    rho21 = bloch.steady_state_pencil(*bloch.drift_pencil(params, d1), [0.0]).states[
        :, bloch.IDX[2, 1]].sum(axis=1)
    c = params.rates
    expected = 1j * params.rabi1 / (c.gamma12 + 1j * d1
                                    + params.rabi2 ** 2 / (c.gamma13 + 1j * d1))
    worst = float(np.max(np.abs(rho21 - expected) / np.abs(expected)))
    return CheckResult("weak-probe-oracle", worst <= 1e-6,
                       f"max relative error {worst:.3e}", {"relative_error": worst})


def check_perturbative_vs_exact() -> CheckResult:
    """Pump-off exact absorption agrees with the perturbative line shape
    in the weak-probe regime."""
    params = _fast_params(field=FieldConfig(alpha1=1e-4, alpha2=0.0))
    worst = 0.0
    for d1 in (-120.0, 0.0, 45.0):
        exact = bloch.absorption_exact(params, d1)
        pert = bloch.absorption_perturbative(params, d1)
        worst = max(worst, abs(exact - pert))
    return CheckResult("perturbative-vs-exact", worst <= 1e-8,
                       f"max |exact - perturbative| = {worst:.3e}",
                       {"max_abs_error": worst})


def check_term_signs() -> CheckResult:
    """Sign pattern of the perturbative line shape at line center:
    the linear term is a positive Lorentzian, the pump correction
    subtracts from it on two-photon resonance, the saturation term is
    positive."""
    params = _fast_params()
    t1, t2, t3 = bloch.eq1_terms(params, 0.0, 0.0)
    ok = t1 > 0.0 and t2 < 0.0 and t3 > 0.0
    return CheckResult("term-signs", bool(ok),
                       f"t1={t1:.4g}, t2={t2:.4g}, t3={t3:.4g}",
                       {"t1": float(t1), "t2": float(t2), "t3": float(t3)})


def check_covariance_physicality() -> CheckResult:
    """Output covariance stays Hermitian and keeps both quadrature
    uncertainty products at or above the vacuum bound."""
    params = _fast_params()
    worst_herm = 0.0
    worst_heis = math.inf
    for d1 in (-5.0, 0.0, 4.0, 120.0):
        m, s, _, _ = fluctuations.field_system_at(params, d1, 0.0, False)
        sigma = fluctuations.propagate(m, s, params.geometry.L,
                                       fluctuations.vacuum_covariance())
        worst_herm = max(worst_herm, fluctuations.covariance_hermiticity_error(sigma))
        for x, y in fluctuations.quadrature_variances(sigma):
            worst_heis = min(worst_heis, x * y)
    ok = worst_herm <= 1e-8 and worst_heis >= 1.0 - 1e-8
    return CheckResult("covariance-physicality", ok,
                       f"hermiticity {worst_herm:.2e}, min XY product {worst_heis:.6f}",
                       {"hermiticity": worst_herm, "min_xy_product": worst_heis})


ALL_CHECKS = (
    check_decoupled_limits,
    check_steady_state_physicality,
    check_quadrature_convergence,
    check_weak_probe_oracle,
    check_perturbative_vs_exact,
    check_term_signs,
    check_covariance_physicality,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
