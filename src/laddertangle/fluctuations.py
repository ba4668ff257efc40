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
medium is traversed in closed form.

Covariances are stored as Sigma_ij = <dA_i dA_j+> in shot-noise units, so
vacuum/coherent inputs give Sigma = diag(1, 0, 1, 0) and two uncorrelated
coherent beams give the Duan combination (du)^2 + (dv)^2 = 4.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import repeat

import numpy as np

from .bloch import (PROD, REDUCED_CONJ, REDUCED_LABELS,
                    SOP_O1, SOP_O1C, SOP_O2, SOP_O2C,
                    absorption_exact, absorption_exact_batch, decay_generator,
                    generator_matrix, reduce_generator, steady_state_batch,
                    steady_state_errors)
from .doppler import average, build_classes
from .errors import ContractError, DivergenceError, ResonanceError
from .model import C_M_MHZ, SystemParams
from .numerics import propagation_integral
from .tables import SpectrumTable

RIDX = {lab: k for k, lab in enumerate(REDUCED_LABELS)}

# field pairing involution (a1 <-> a1+, a2 <-> a2+)
FIELD_CONJ = (1, 0, 3, 2)

# Duan quadrature coefficient vectors: du = dx1 - dx2, dv = dp1 + dp2
_CU = np.array([1.0, 1.0, -1.0, -1.0], dtype=complex)
_CV = np.array([-1j, 1j, -1j, 1j], dtype=complex)

# one-hot product table: _PROD_ONEHOT[k, a, b] = 1 when sigma_a sigma_b = sigma_k
_PROD_ONEHOT = (PROD[None, :, :] == np.arange(9)[:, None, None]).astype(complex)

# field-coupling superoperators stacked as (component, reduced row, field)
# for the field order (da1, da1+, da2, da2+)
_FIELD_SOPS = np.stack([SOP_O1, SOP_O1C, SOP_O2, SOP_O2C], axis=-1)[1:].transpose(1, 0, 2)


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


def coupling_batch(params: SystemParams, means: np.ndarray) -> np.ndarray:
    """Field-coupling matrix C per class: Jacobian of the drift with
    respect to (da1, da1+, da2, da2+) at the steady state.

    C is linear in the steady state, so it is one product with a 9x32 map.
    """
    g1, g2 = params.couplings
    cmap = (_FIELD_SOPS * np.array([g1, g1, g2, g2])).reshape(9, 32)
    return (means @ cmap).reshape(-1, 8, 4)


def diffusion_correlator_batch(params: SystemParams, means: np.ndarray) -> np.ndarray:
    """Langevin correlators 2*D per class from the generalized Einstein
    relation, in the full 9-component basis.

    With Gdec the relaxation part of the drift,

        2 D_ab = (Gdec m)_[ab] - sum_l Gdec_al m_[lb] - sum_l Gdec_bl m_[al],

    where x_[ab] is the component of x at the product sigma_a sigma_b, or
    zero when that product vanishes.  Hamiltonian drift terms are derivations
    of the operator algebra and cancel identically.  Every term is linear
    in the steady state, so the kernel is one product with a 9x81 map.
    """
    gdec = decay_generator(params)
    dmap = (np.einsum("kab,kj->jab", _PROD_ONEHOT, gdec)
            - np.einsum("al,jlb->jab", gdec, _PROD_ONEHOT)
            - np.einsum("bl,jal->jab", gdec, _PROD_ONEHOT))
    return (means @ dmap.reshape(9, 81)).reshape(-1, 9, 9)


def _eliminate_batch(b, c, corr, kp, omega, n_atoms):
    """Per-class field generator M_v and noise density S_v at frequency w.

    With T = kp (-i w - B)^-1 the source response to the atomic
    fluctuations, M_v = T C and S_v = T <F F+> T+, where <F_mu F_nu+> is
    the correlator with its column index conjugated.  T is solved in
    transposed form, T^T = (B + i w)^-T (-kp^T), so the solve reads B
    through a transposed view and needs no conjugate copies; the
    conjugation of the noise column index becomes a row permutation of
    T^T.
    """
    resolvent_t = b.transpose(0, 2, 1)
    if omega != 0.0:
        resolvent_t = resolvent_t + (1j * omega) * np.eye(8)
    try:
        t_t = np.linalg.solve(resolvent_t, -kp.T)          # (K,8,4) = T^T
    except np.linalg.LinAlgError as exc:
        raise ResonanceError(f"singular atomic resolvent at omega={omega}: {exc}") from exc
    t = t_t.transpose(0, 2, 1)
    scale = n_atoms / C_M_MHZ
    mv = t @ c
    mv *= scale
    t_perm = t_t[:, list(REDUCED_CONJ), :]
    np.conjugate(t_perm, out=t_perm)
    sv = (t @ corr) @ t_perm
    sv *= scale
    return mv, sv


def propagate(m: np.ndarray, s: np.ndarray, length: float, sigma_in: np.ndarray) -> np.ndarray:
    """Traverse the medium: Sigma_out = T Sigma_in T+ + accumulated noise,
    with T = exp(M L)."""
    t, noise = propagation_integral(m, s, length)
    out = t @ sigma_in @ t.conj().T + noise
    if not np.all(np.isfinite(out.view(float))) or np.max(np.abs(out)) > 1e12:
        raise DivergenceError("field covariance diverged during propagation")
    return out


@dataclass(frozen=True)
class DuanResult:
    """Duan inseparability combination; v12 < 4 certifies entanglement."""

    v12: float
    du2: float
    dv2: float


def full_second_moments(sigma: np.ndarray) -> np.ndarray:
    """Matrix of plain products <dA_i dA_j> from the covariance layout."""
    return sigma[:, list(FIELD_CONJ)]


def duan_v12(sigma: np.ndarray) -> DuanResult:
    """(du)^2 and (dv)^2 with du = dx1 - dx2, dv = dp1 + dp2."""
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape != (4, 4):
        raise ContractError(f"expected 4x4 covariance, got {sigma.shape}")
    moments = full_second_moments(sigma)
    du2 = float(np.real(_CU @ moments @ _CU))
    dv2 = float(np.real(_CV @ moments @ _CV))
    return DuanResult(v12=du2 + dv2, du2=du2, dv2=dv2)


def covariance_hermiticity_error(sigma: np.ndarray) -> float:
    """Deviation from the pairing symmetry (a Gram matrix is Hermitian)."""
    return float(np.max(np.abs(sigma - sigma.conj().T)))


def quadrature_variances(sigma: np.ndarray) -> list[tuple[float, float]]:
    """Per-mode (Var x, Var p); vacuum gives (1, 1) for each mode."""
    moments = full_second_moments(sigma)
    out = []
    for k in (0, 2):
        cx = np.zeros(4, dtype=complex)
        cx[k] = cx[k + 1] = 1.0
        cp = np.zeros(4, dtype=complex)
        cp[k] = -1j
        cp[k + 1] = 1j
        out.append((float(np.real(cx @ moments @ cx)),
                    float(np.real(cp @ moments @ cp))))
    return out


@dataclass(frozen=True)
class PhysicalityReport:
    """Worst-case physicality diagnostics over a computed sweep."""

    trace_error: float = 0.0
    hermiticity_error: float = 0.0
    population_error: float = 0.0
    max_drift_eigenvalue: float = -np.inf
    covariance_error: float = 0.0

    def merged(self, other: "PhysicalityReport") -> "PhysicalityReport":
        return PhysicalityReport(**{f.name: max(getattr(self, f.name), getattr(other, f.name))
                                    for f in fields(self)})


def field_system_at(params: SystemParams, delta1: float, omega: float = 0.0,
                    collect: bool = False):
    """Maxwellian-averaged field generator M(w) and noise density S(w)
    at one probe detuning, plus exact absorption and diagnostics."""
    classes = build_classes(params, delta1, params.field.delta2)
    g = generator_matrix(params, classes.d1, classes.d2)
    means = steady_state_batch(g)
    absorption = absorption_exact_batch(params, means, classes)
    b = reduce_generator(g)
    # free the 9x9 drift stack before the noise kernels allocate, so they
    # can reuse its memory instead of faulting in fresh pages
    del g
    c = coupling_batch(params, means)
    corr = diffusion_correlator_batch(params, means)[:, 1:, 1:]
    kp = _source_projection(params)
    mv, sv = _eliminate_batch(b, c, corr, kp, omega, params.geometry.N)
    m_tot = average(mv, classes) + (1j * omega / C_M_MHZ) * np.eye(4)
    s_tot = average(sv, classes)
    report = None
    if collect:
        trace_err, herm_err, pop_err = steady_state_errors(means)
        top = float(np.max(np.linalg.eigvals(b).real))
        report = PhysicalityReport(trace_error=trace_err, hermiticity_error=herm_err,
                                   population_error=pop_err, max_drift_eigenvalue=top)
    return m_tot, s_tot, absorption, report


def _spectrum_point(params: SystemParams, delta1: float, omega: float, collect: bool,
                    v12: bool = True):
    """One sweep row: (v12, du2, dv2, absorption, report).  With v12 off
    only the absorption is computed; the Duan columns are NaN and there
    is no report."""
    if not v12:
        return np.nan, np.nan, np.nan, absorption_exact(params, delta1), None
    m_tot, s_tot, absorption, report = field_system_at(params, delta1, omega, collect)
    sigma = propagate(m_tot, s_tot, params.geometry.L, vacuum_covariance())
    duan = duan_v12(sigma)
    if report is not None:
        report = replace(report, covariance_error=covariance_hermiticity_error(sigma))
    return duan.v12, duan.du2, duan.dv2, absorption, report


def sweep_rows(rows, omega: float = 0.0, jobs: int = 1, collect: bool = False,
               v12: bool = True):
    """Evaluate independent sweep rows, each a (params, delta1) pair.

    With jobs > 1 the rows are spread over at most jobs worker processes
    in ordered chunks; results come back in row order, so they do not
    depend on the parallelism degree.

    Returns the v12, du2, dv2 and absorption columns and the merged
    PhysicalityReport, which is None unless both collect and v12 are set.
    """
    params_list = [params for params, _ in rows]
    delta1_list = [float(delta1) for _, delta1 in rows]
    args = (_spectrum_point, params_list, delta1_list,
            repeat(omega), repeat(collect), repeat(v12))
    n = len(rows)
    if jobs > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, n)) as pool:
            results = list(pool.map(*args, chunksize=max(1, n // (4 * jobs))))
    else:
        results = list(map(*args))
    v12s, du2, dv2, absorption = (np.array([r[k] for r in results]) for k in range(4))
    report = None
    if collect and v12:
        report = PhysicalityReport()
        for r in results:
            report = report.merged(r[4])
    return v12s, du2, dv2, absorption, report


def v12_spectrum(params: SystemParams, delta1_grid, omega: float = 0.0,
                 jobs: int = 1, collect: bool = False, v12: bool = True):
    """Sweep the probe detuning: correlation V12 and exact absorption.

    Rows are computed independently per detuning (each internally batched
    over velocity classes) and assembled in grid order, so results are
    identical at any parallelism degree.  With v12 off only the
    absorption column is computed and the Duan columns are NaN.

    Returns (SpectrumTable, PhysicalityReport | None).
    """
    grid = np.asarray(delta1_grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ContractError("delta1 grid must be a non-empty 1-d array")
    v12s, du2, dv2, absorption, report = sweep_rows(
        [(params, d) for d in grid], omega, jobs, collect, v12)
    table = SpectrumTable(delta1=grid, v12=v12s, du2=du2, dv2=dv2, absorption=absorption)
    return table, report
