import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import package_env, per_class_field_system, symmetrized_diffusion_min_eig
from laddertangle import bloch, fluctuations as fl, numerics
from laddertangle.bloch import PROD
from laddertangle.doppler import build_classes
from laddertangle.errors import NoSteadyStateError, ResonanceError
from laddertangle.experiments import all_scenarios, baseline_params, pump_sweep_transform
from laddertangle.model import (C_M_MHZ, DecayConfig, DopplerConfig, FieldConfig,
                                GeometryConfig, SystemParams)


def stationary(**kwargs):
    kwargs.setdefault("doppler", DopplerConfig(width=0.0, nodes=1, rule="trapezoid"))
    return baseline_params(**kwargs)


def two_mode_squeezed(r: float) -> np.ndarray:
    ch, sh = np.cosh(r), np.sinh(r)
    sigma = np.zeros((4, 4), dtype=complex)
    sigma[0, 0] = sigma[2, 2] = ch**2
    sigma[1, 1] = sigma[3, 3] = sh**2
    sigma[0, 3] = sigma[2, 1] = ch * sh   # <a1 a2>
    sigma[1, 2] = sigma[3, 0] = ch * sh   # <a1+ a2+>
    return sigma


class TestDuan:
    def test_vacuum_is_shot_noise(self):
        res = fl.duan_v12(fl.vacuum_covariance())
        assert res.v12 == pytest.approx(4.0)
        assert res.du2 == pytest.approx(2.0)
        assert res.dv2 == pytest.approx(2.0)

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.5])
    def test_two_mode_squeezed_analytic(self, r):
        res = fl.duan_v12(two_mode_squeezed(r))
        assert res.v12 == pytest.approx(4.0 * np.exp(-2.0 * r), rel=1e-12)

    def test_antisqueezed_pairing(self, rng):
        # flipping the sign of <a1 a2> must move the combination above 4
        sigma = two_mode_squeezed(0.7)
        sigma[0, 3] = sigma[2, 1] = -sigma[0, 3]
        sigma[1, 2] = sigma[3, 0] = -sigma[1, 2]
        assert fl.duan_v12(sigma).v12 == pytest.approx(4.0 * np.exp(1.4), rel=1e-12)


class TestPropagate:
    def test_zero_length_identity(self, rng):
        sigma = fl.vacuum_covariance()
        assert np.allclose(fl.propagate(np.zeros((4, 4)), np.zeros((4, 4)), 0.0, sigma), sigma)

    def test_loss_noise_fixed_point(self):
        # pure loss balanced by vacuum noise keeps the vacuum invariant
        kappa = 0.8
        m = -kappa * np.eye(4, dtype=complex)
        s = 2.0 * kappa * fl.vacuum_covariance()
        for length in (0.05, 1.0, 20.0):
            out = fl.propagate(m, s, length, fl.vacuum_covariance())
            assert np.max(np.abs(out - fl.vacuum_covariance())) < 1e-12


def class_kernels(params, d1, d2=0.0):
    """Steady state, drift B, field coupling C and correlator 2D of one
    velocity class through the batched kernels at K=1."""
    g = bloch.generator_matrix(params, [d1], [d2])
    means = bloch.steady_state_batch(g)
    b = bloch.reduce_generator(g)[0]
    c = fl.coupling_batch(params, means)[0]
    corr = fl.diffusion_correlator_batch(params, means)[0, 1:, 1:]
    return means[0], b, c, corr


def einsum_correlator(params, means):
    """Oracle: the three-term Einstein correlator built per class with two
    9x9x9 einsums over the product table."""
    gdec = bloch.decay_generator(params)
    mask = PROD >= 0
    safe = PROD.clip(min=0)
    gm = means @ gdec.T
    mp = means[:, safe] * mask
    term1 = gm[:, safe] * mask
    term2 = np.einsum("al,klb->kab", gdec, mp)
    term3 = np.einsum("bl,kal->kab", gdec, mp)
    return term1 - term2 - term3


def matmul_coupling(params, means):
    """Oracle: the field coupling C as one matmul per field component."""
    g1, g2 = params.couplings
    cols = [g1 * means @ bloch.SOP_O1.T,
            g1 * means @ bloch.SOP_O1C.T,
            g2 * means @ bloch.SOP_O2.T,
            g2 * means @ bloch.SOP_O2C.T]
    return np.stack(cols, axis=-1)[:, 1:, :]


def class_means(params, delta1=0.0):
    classes = build_classes(params, delta1, params.field.delta2)
    return bloch.steady_state_batch(bloch.generator_matrix(params, classes.d1, classes.d2))


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestLinearMaps:
    @pytest.mark.parametrize("p", [0.0, 6.0])
    @pytest.mark.parametrize("kernel,oracle", [
        (fl.diffusion_correlator_batch, einsum_correlator),
        (fl.coupling_batch, matmul_coupling)])
    def test_matches_oracle_on_steady_states(self, kernel, oracle, p, fast_params):
        params = fast_params(p=p)
        for delta1 in (0.0, 35.0):
            means = class_means(params, delta1)
            assert len(means) >= 50
            assert rel_err(kernel(params, means), oracle(params, means)) < 1e-13

    @pytest.mark.parametrize("kernel,oracle", [
        (fl.diffusion_correlator_batch, einsum_correlator),
        (fl.coupling_batch, matmul_coupling)])
    def test_matches_oracle_on_weak_pump_row(self, kernel, oracle, fast_doppler):
        params = pump_sweep_transform(baseline_params(p=0.0, doppler=fast_doppler), 1.0)
        means = class_means(params)
        assert rel_err(kernel(params, means), oracle(params, means)) < 1e-13

    @pytest.mark.parametrize("kernel", [fl.diffusion_correlator_batch, fl.coupling_batch])
    def test_linear_in_the_steady_state(self, kernel, rng, fast_params):
        params = fast_params(p=0.5)
        m1, m2 = (rng.normal(size=(60, 9)) + 1j * rng.normal(size=(60, 9))
                  for _ in range(2))
        a, b = 0.7 - 1.3j, -2.1 + 0.4j
        lhs = kernel(params, a * m1 + b * m2)
        rhs = a * kernel(params, m1) + b * kernel(params, m2)
        assert rel_err(lhs, rhs) < 1e-13


class TestLinearizedSystem:
    def test_conjugation_symmetry(self, rng):
        params = stationary(p=0.5)
        perm = list(fl.REDUCED_CONJ)
        for _ in range(10):
            d1, d2 = rng.uniform(-300, 300, size=2)
            _, b, c, _ = class_kernels(params, d1, d2)
            assert np.max(np.abs(b[np.ix_(perm, perm)] - np.conj(b))) < 1e-12
            assert np.max(np.abs(c[perm][:, list(fl.FIELD_CONJ)] - np.conj(c))) < 1e-12

    def test_drift_is_dissipative(self, rng):
        params = stationary(p=6.0)
        for _ in range(10):
            d1, d2 = rng.uniform(-500, 500, size=2)
            _, b, _, _ = class_kernels(params, d1, d2)
            assert np.max(np.linalg.eigvals(b).real) < 0.0

    def test_ground_state_coupling_structure(self):
        # fields off: only the probe polarization responds, driven by the
        # full ground-state population
        params = stationary(alpha1=0.0, alpha2=0.0)
        _, b, c, _ = class_kernels(params, 5.0, 0.0)
        g1, _ = params.couplings
        expect = np.zeros((8, 4), dtype=complex)
        expect[fl.RIDX[2, 1], 0] = 1j * g1
        expect[fl.RIDX[1, 2], 1] = -1j * g1
        assert np.allclose(c, expect, atol=1e-12)
        diag = b[fl.RIDX[2, 1], fl.RIDX[2, 1]]
        assert diag == pytest.approx(-(params.coherence.gamma12 + 1j * 5.0))


class TestEinsteinDiffusion:
    def test_ground_state_single_block(self):
        params = stationary(alpha1=0.0, alpha2=0.0, p=0.0)
        _, _, _, corr = class_kernels(params, 0.0, 0.0)
        r21, r12 = fl.RIDX[2, 1], fl.RIDX[1, 2]
        r31, r13 = fl.RIDX[3, 1], fl.RIDX[1, 3]
        # vacuum noise on the two coherences anchored to the populated
        # ground state: <F21 F12> = 2 gamma12, <F31 F13> = 2 gamma13
        assert corr[r21, r12] == pytest.approx(2.0 * params.coherence.gamma12)
        assert corr[r31, r13] == pytest.approx(2.0 * params.coherence.gamma13)
        rest = corr.copy()
        rest[r21, r12] = 0.0
        rest[r31, r13] = 0.0
        assert np.max(np.abs(rest)) < 1e-12

    def test_noise_kernel_positive(self, rng):
        params = stationary(p=6.0)
        for _ in range(10):
            d1, d2 = rng.uniform(-300, 300, size=2)
            _, _, _, corr = class_kernels(params, d1, d2)
            assert symmetrized_diffusion_min_eig(0.5 * corr) >= -1e-10

    @pytest.mark.parametrize("d1,p", [(0.0, 0.5), (2.0, 0.5), (-7.0, 0.5), (0.0, 6.0)])
    def test_regression_identity(self, d1, p):
        # steady-state covariance of the operator algebra must satisfy
        # B Cov + Cov B+ + <F F+> = 0, an independent consistency oracle
        # tying the diffusion matrix to the drift
        params = stationary(p=p)
        m, b, _, corr = class_kernels(params, d1, 0.0)

        second = np.zeros((9, 9), dtype=complex)  # <sigma_a sigma_b>
        for a in range(9):
            for c in range(9):
                k = PROD[a, c]
                if k >= 0:
                    second[a, c] = m[k]
        conj = list(fl.REDUCED_CONJ)
        red = second[1:, 1:]
        m8 = m[1:]
        cov = red[:, conj] - np.outer(m8, np.conj(m8))
        noise = corr[:, conj]
        residual = b @ cov + cov @ b.conj().T + noise
        assert np.max(np.abs(residual)) < 1e-12


class TestAdiabaticElimination:
    def test_batched_kernels_act_per_class(self, fast_params):
        # a stack of classes gives, class by class, what each class gives
        # alone at K=1: the batched path never mixes velocity classes
        params = fast_params(p=6.0)
        means = class_means(params, 12.0)[::40]
        for kernel, shape in ((fl.coupling_batch, (8, 4)),
                              (fl.diffusion_correlator_batch, (9, 9))):
            stacked = kernel(params, means)
            assert stacked.shape == (len(means), *shape)
            for k in range(len(means)):
                single = kernel(params, means[k:k + 1])
                assert np.max(np.abs(stacked[k] - single[0])) <= 1e-13 * np.max(np.abs(single))

    @pytest.mark.parametrize("omega", [0.0, 3.0])
    def test_matches_direct_inverse(self, omega, fast_params):
        # the factored class average against the oracle that inverts the
        # resolvent (-i w - B) of every class explicitly, for one
        # stationary class and for a Doppler-broadened row
        for params in (stationary(p=0.5), fast_params(p=0.5)):
            m, s, absorption, _ = fl.field_system_at(params, 3.0, omega=omega)
            m_direct, s_direct, abs_direct = per_class_field_system(params, 3.0, omega)
            assert rel_err(m, m_direct) < 1e-12
            assert rel_err(s, s_direct) < 1e-12
            assert absorption == pytest.approx(abs_direct, rel=1e-12)

    def test_singular_resolvent_raises(self, fast_params):
        # a drift eigenvalue at -i w makes the resolvent (-i w - B) singular
        omega = 3.0
        params = fast_params()
        classes = build_classes(params, 0.0, 0.0)
        means = np.zeros((len(classes), 9), dtype=complex)
        with pytest.raises(ResonanceError, match="singular atomic resolvent"):
            fl._eliminate(params, -1j * omega * np.eye(8), np.ones(8), means, classes, omega)

    def test_field_generator_matches_finite_difference(self):
        # M at omega=0 is the Jacobian of the polarization source with
        # respect to the field amplitudes, probed here by independent
        # perturbations of the probe drive and its conjugate
        params = stationary(p=0.5)
        d1, d2 = 3.0, params.field.delta2
        mv, _, _, _ = fl.field_system_at(params, d1, omega=0.0)

        g1, g2 = params.couplings
        o1 = params.rabi1
        o2 = params.rabi2
        kp = fl._source_projection(params)
        scale = params.geometry.N / C_M_MHZ
        h = 1e-6

        def source(o1v, o1cv):
            g = bloch.generator_matrix(
                params, np.array([d1]), np.array([d2]),
                o1=np.array([o1v]), o1c=np.array([o1cv]),
                o2=np.array([o2 + 0j]), o2c=np.array([o2 + 0j]),
            )
            vec = bloch.steady_state_batch(g)[0]
            return scale * (kp @ vec[1:])

        # d(source)/d(alpha1) with alpha1 entering through o1 = g1*alpha1
        fd_col0 = (source(o1 + g1 * h, o1) - source(o1 - g1 * h, o1)) / (2.0 * h)
        fd_col1 = (source(o1, o1 + g1 * h) - source(o1, o1 - g1 * h)) / (2.0 * h)
        assert np.max(np.abs(fd_col0 - mv[:, 0])) < 1e-5 * max(1.0, np.max(np.abs(mv)))
        assert np.max(np.abs(fd_col1 - mv[:, 1])) < 1e-5 * max(1.0, np.max(np.abs(mv)))


def oracle_cases():
    """One parameter set per distinct shipped spectrum base, fig3 rows at
    the ends of the alpha2 range for both collision rates, and a
    Gauss-Hermite rule."""
    cases = {}
    for scenario in all_scenarios().values():
        if scenario.kind == "spectrum" and scenario.base not in cases.values():
            cases[scenario.name] = scenario.base
    for p in (0.0, 20.0):
        for alpha2 in (1.0, 150.0):
            cases[f"fig3-p{p:g}-alpha2-{alpha2:g}"] = pump_sweep_transform(
                baseline_params(p=p), alpha2)
    cases["hermite-128"] = baseline_params(
        p=6.0, doppler=DopplerConfig(width=530.0, nodes=128, rule="hermite"))
    return cases


ORACLE_CASES = oracle_cases()


class TestFactoredAverage:
    @pytest.mark.parametrize("omega", [0.0, 3.0])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_per_class_oracle(self, case, omega):
        params = ORACLE_CASES[case]
        for delta1 in (params.field.delta1, 35.0):
            m, s, absorption, report = fl.field_system_at(params, delta1, omega, collect=True)
            m_ref, s_ref, abs_ref = per_class_field_system(params, delta1, omega)
            assert rel_err(m, m_ref) <= 1e-10
            assert rel_err(s, s_ref) <= 1e-10
            assert abs(absorption - abs_ref) <= 1e-10 * abs(abs_ref)
            assert bloch.absorption_exact(params, delta1) == absorption
            assert 1.0 <= report.eigenvector_condition < 1e3

    def test_singular_drift_has_no_steady_state(self):
        # no decay, no fields: the populations are conserved and the
        # reduced drift B0 is singular
        params = SystemParams(
            decay=DecayConfig(gamma1=0.0, gamma2=0.0, p=0.0),
            field=FieldConfig(alpha1=0.0, alpha2=0.0),
            geometry=GeometryConfig(r=4.5e-4, L=0.06, n=8.5e15),
            doppler=DopplerConfig(width=530.0, nodes=41, rule="trapezoid"))
        with pytest.raises(NoSteadyStateError, match="steady-state solve failed"):
            fl.field_system_at(params, 12.0)
        with pytest.raises(NoSteadyStateError):
            bloch.absorption_exact(params, 12.0)

    def test_ill_conditioned_factor_raises(self, fast_params, monkeypatch):
        # every eigenvector basis has condition number >= 1
        monkeypatch.setattr(numerics, "MAX_EIGENVECTOR_CONDITION", 0.5)
        with pytest.raises(ResonanceError, match="condition number"):
            fl.field_system_at(fast_params(), 0.0)
        with pytest.raises(ResonanceError, match="condition number"):
            bloch.absorption_exact(fast_params(), 0.0)


class TestFieldCovariance:
    def test_decoupled_probe_stays_vacuum(self, fast_params):
        params = fast_params(alpha1=0.0)
        tab, _ = fl.v12_spectrum(params, [12.0])
        assert tab.v12[0] == pytest.approx(4.0, abs=1e-9)

    def test_weak_probe_preserves_vacuum(self):
        params = stationary(alpha1=1e-4, alpha2=0.0)
        tab, _ = fl.v12_spectrum(params, [0.0, 2.0, -5.0])
        assert np.allclose(tab.v12, 4.0, atol=1e-6)

    def test_commutators_preserved(self, fast_params):
        # [a, a+] = 1 for both output modes regardless of parameters
        for p in (0.0, 6.0):
            params = fast_params(p=p)
            m, s, _, _ = fl.field_system_at(params, 1.0)
            sigma = fl.propagate(m, s, params.geometry.L, fl.vacuum_covariance())
            assert sigma[0, 0] - sigma[1, 1] == pytest.approx(1.0, abs=1e-10)
            assert sigma[2, 2] - sigma[3, 3] == pytest.approx(1.0, abs=1e-10)

    def test_covariance_conjugation_symmetry(self, fast_params):
        params = fast_params(p=0.5)
        m, s, _, _ = fl.field_system_at(params, 4.0)
        sigma = fl.propagate(m, s, params.geometry.L, fl.vacuum_covariance())
        assert fl.covariance_hermiticity_error(sigma) < 1e-10

    def test_quadrature_uncertainty_products(self, fast_params):
        params = fast_params(p=6.0)
        m, s, _, _ = fl.field_system_at(params, 0.0)
        sigma = fl.propagate(m, s, params.geometry.L, fl.vacuum_covariance())
        for var_x, var_p in fl.quadrature_variances(sigma):
            assert var_x * var_p >= 1.0 - 1e-8

    def test_spectrum_grid_order_independent_of_jobs(self, fast_params):
        params = fast_params(p=0.5)
        grid = [-10.0, 0.0, 10.0]
        a, _ = fl.v12_spectrum(params, grid, jobs=1)
        b, _ = fl.v12_spectrum(params, grid, jobs=4)
        assert np.array_equal(a.v12, b.v12)
        assert np.array_equal(a.absorption, b.absorption)

    def test_pool_sized_to_rows(self, fast_params, recording_pool):
        params = fast_params(p=0.5)
        fl.v12_spectrum(params, [-10.0, 0.0, 10.0], jobs=4)
        assert recording_pool == [3]
        fl.v12_spectrum(params, [0.0], jobs=4)
        assert recording_pool == [3]


# Prints the thread count of every loaded OpenBLAS before and after the
# pool-worker initializer runs.
_BLAS_THREADS_SCRIPT = """
import ctypes
import json
from laddertangle import fluctuations as fl

def counts():
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                        if "openblas" in line})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                     "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, name, None)
            if getter is not None:
                out.append(getter())
                break
    return out

before = counts()
fl._single_blas_thread()
print(json.dumps([before, counts()]))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs a process memory map")
def test_pool_worker_initializer_pins_blas_to_one_thread():
    # run in a fresh process so this one keeps its BLAS setting
    out = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SCRIPT],
                         env=package_env(OPENBLAS_NUM_THREADS="2"),
                         check=True, capture_output=True, text=True).stdout
    before, after = json.loads(out)
    assert before and set(before) == {2}
    assert after == [1] * len(before)


class TestPhysicalityReport:
    def test_population_error_reported(self, monkeypatch):
        real = fl.pencil_steady_states

        def negative_population(*args):
            means, cond = real(*args)
            means[:, bloch.POPULATIONS[2]] = -0.1
            return means, cond

        monkeypatch.setattr(fl, "pencil_steady_states", negative_population)
        _, report = fl.v12_spectrum(stationary(), [0.0], collect=True)
        assert report.population_error == 0.1

    def test_merge_takes_worst_value(self):
        a = fl.PhysicalityReport(trace_error=1e-12, population_error=0.2,
                                 max_drift_eigenvalue=-3.0, eigenvector_condition=40.0)
        b = fl.PhysicalityReport(hermiticity_error=1e-11, population_error=0.1,
                                 max_drift_eigenvalue=-1.0, covariance_error=1e-9,
                                 eigenvector_condition=3.0)
        assert a.merged(b) == fl.PhysicalityReport(
            trace_error=1e-12, hermiticity_error=1e-11, population_error=0.2,
            max_drift_eigenvalue=-1.0, covariance_error=1e-9, eigenvector_condition=40.0)
