"""40-digit oracle of the pencil layer: the eigenvalues theta of A^-1 B and
the inverses (A - s B)^-1 at shifts over the Doppler rule's span, for the
drift pencils of six rows, against numerics.factor_pencil and
against QZ (scipy.linalg.eig(A, B)) given the same reconstruction
V diag(1 / (1 - s theta)) (A V)^-1.

Each row is the pencil its sweep factors: the real-basis steady-state
pencil (bloch._factor_rows) at omega = 0, and the component-basis resolvent
B0 + i omega (fluctuations._field_rows) at omega != 0.  The fig3 row is the
alpha2 = 1 row of the pump sweep, run as the alpha2 = 50 row at scale 1/50:
its classes sit at the shifts divided by 1/50.  The last row is the
alpha2 = 1 pencil itself (pump_sweep_transform) at delta1 = 200, whose
narrow pole lies far inside the largest |theta|.

Print the measured errors with

    PYTHONPATH=src python tests/test_pencil_oracle.py
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from laddertangle import numerics
from laddertangle.bloch import REAL_BASIS, drift_pencil
from laddertangle.doppler import build_classes
from laddertangle.experiments import all_scenarios, baseline_params, pump_sweep_transform

DIGITS = 40
SPREAD_SHIFTS = 9       # shifts evenly spread over the rule
NEAR_POLE_SHIFTS = 8    # and the shifts where some 1 / (1 - s theta) is largest

# row -> (theta error, inverse error) measured for factor_pencil and for QZ on
# x86-64 (numpy 2.4.6 with OpenBLAS, scipy 1.17.1); each test bound is 10x
MEASURED = {
    "fig2-a-0": {"factor_pencil": (1.5e-16, 9.9e-16), "qz": (2.4e-15, 2.0e-15)},
    "fig2-a-0-omega-50": {"factor_pencil": (3.5e-16, 3.5e-15), "qz": (7.3e-15, 1.9e-14)},
    "fig4-c-200": {"factor_pencil": (2.2e-17, 9.7e-16), "qz": (1.9e-15, 8.9e-15)},
    "fig3-alpha2-1-scaled": {"factor_pencil": (1.5e-16, 8.7e-16), "qz": (2.4e-15, 2.3e-15)},
    "fig3-alpha2-1-scaled-omega-50": {"factor_pencil": (2.7e-16, 1.5e-13),
                                      "qz": (3.5e-15, 4.9e-13)},
    # the transform row itself at delta1 = 200: a pole 0.06 MHz wide, |theta|
    # spanning 3e5, where the factors before factor_pencil's Newton step are
    # 8x worse than QZ
    "fig3-alpha2-1-200": {"factor_pencil": (1.2e-16, 1.1e-13), "qz": (9.3e-14, 3.7e-13)},
}


def oracle_rows():
    """row -> (A, B, shifts): the pencil a sweep factors for the row, and
    the shifts of its classes."""
    scenarios = all_scenarios()
    u, uh = REAL_BASIS, REAL_BASIS.conj().T
    rows = {}
    for name, params, delta1, omega, scale in (
            ("fig2-a-0", scenarios["fig2-a"].base, 0.0, 0.0, 1.0),
            ("fig2-a-0-omega-50", scenarios["fig2-a"].base, 0.0, 50.0, 1.0),
            ("fig4-c-200", scenarios["fig4-c"].base, 200.0, 0.0, 1.0),
            ("fig3-alpha2-1-scaled", pump_sweep_transform(baseline_params(p=0.0), 50.0),
             0.0, 0.0, 1.0 / 50.0),
            ("fig3-alpha2-1-scaled-omega-50", pump_sweep_transform(baseline_params(p=0.0), 50.0),
             0.0, 50.0, 1.0 / 50.0),
            ("fig3-alpha2-1-200", pump_sweep_transform(baseline_params(p=0.0), 1.0),
             200.0, 0.0, 1.0)):
        (b0,), _, e = drift_pencil(params, [delta1 / scale])
        if omega:
            a, b = b0 + 1j * omega / scale * np.eye(8), np.diag(e)
        else:
            a, b = (u @ b0 @ uh).real, ((u * e) @ uh).real
        shifts = build_classes(params, 0.0, params.field.delta2).shifts / scale
        rows[name] = (a, b, shifts)
    return rows


def qz_factors(a, b):
    """V, (A V)^-1 and theta from QZ, the theta = 0 of infinite eigenvalues."""
    lam, v = sla.eig(a, b)
    finite = np.isfinite(lam)
    theta = np.zeros(len(lam), dtype=complex)
    theta[finite] = 1.0 / lam[finite]
    v = v / np.linalg.norm(v, axis=0)
    return v, np.linalg.inv(a @ v), theta


def exact(a, b, shifts):
    """40-digit theta (the nonzero eigenvalues of A^-1 B), the shifts
    checked, and the inverses there."""
    with mpmath.workdps(DIGITS):
        am, bm = mpmath.matrix(a.tolist()), mpmath.matrix(b.tolist())
        theta = np.array(mpmath.eig(am ** -1 * bm, left=False, right=False), dtype=complex)
        theta = theta[np.abs(theta) > 1e-30]
        largest = np.abs(1.0 / (1.0 - shifts[:, None] * theta)).max(axis=1)
        picked = sorted(set(np.linspace(0, len(shifts) - 1, SPREAD_SHIFTS).astype(int).tolist())
                        | set(np.argsort(largest)[-NEAR_POLE_SHIFTS:].tolist()))
        inverses = [np.array(((am - mpmath.mpf(float(shifts[k])) * bm) ** -1).tolist(),
                             dtype=complex) for k in picked]
    return theta, shifts[picked], inverses


def errors(factors, theta_exact, shifts, inverses):
    """Largest relative error of the nonzero theta, and of the factored
    inverses at the shifts relative to each inverse's largest entry."""
    v, left, theta = factors
    got = theta[theta != 0.0]
    nearest = np.abs(got[:, None] - theta_exact).argmin(axis=1)
    assert sorted(nearest) == list(range(len(theta_exact)))
    theta_error = np.max(np.abs(got - theta_exact[nearest]) / np.abs(theta_exact[nearest]))
    inverse_error = max(np.max(np.abs(v @ np.diag(1.0 / (1.0 - s * theta)) @ left - f))
                        / np.max(np.abs(f)) for s, f in zip(shifts, inverses))
    return float(theta_error), float(inverse_error)


def measure(row):
    a, b, shifts = oracle_rows()[row]
    truth = exact(a, b, shifts)
    new = tuple(x[0] for x in numerics.factor_pencil(a[None], b)[:3])
    return {"factor_pencil": errors(new, *truth), "qz": errors(qz_factors(a, b), *truth)}


@pytest.mark.parametrize("row", sorted(MEASURED))
def test_pencil_layer_against_forty_digits(row):
    measured = measure(row)
    for method, (theta_error, inverse_error) in measured.items():
        theta_bound, inverse_bound = (10.0 * x for x in MEASURED[row][method])
        assert theta_error <= theta_bound, (method, theta_error)
        assert inverse_error <= inverse_bound, (method, inverse_error)
    # the factorization is no worse than QZ by more than 2x on any row
    assert measured["factor_pencil"][1] <= 2.0 * measured["qz"][1]


if __name__ == "__main__":
    for name in sorted(MEASURED):
        for method, (t, f) in measure(name).items():
            print(f"{name:22s} {method:14s} theta {t:.2g}  inverse {f:.2g}")
