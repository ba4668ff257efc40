import numpy as np
import pytest

from laddertangle import bloch, fluctuations as fl
from laddertangle.bloch import PROD
from laddertangle.doppler import build_classes
from laddertangle.errors import ResonanceError
from laddertangle.experiments import baseline_params, pump_sweep_transform
from laddertangle.model import C_M_MHZ, DopplerConfig


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
            assert fl.symmetrized_diffusion_min_eig(0.5 * corr) >= -1e-10

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
    def test_matches_direct_inverse(self, omega):
        # M = kp (-i w - B)^-1 C + i w / c and S = T <F F+> T+ with the
        # resolvent inverted explicitly and the conjugation as a matrix
        params = stationary(p=0.5)
        _, b, c, corr = class_kernels(params, 3.0, params.field.delta2)
        m, s, _, _ = fl.field_system_at(params, 3.0, omega=omega)
        scale = params.geometry.N / C_M_MHZ
        t = fl._source_projection(params) @ np.linalg.inv(-1j * omega * np.eye(8) - b)
        conj = np.eye(8)[list(fl.REDUCED_CONJ)]
        m_direct = scale * t @ c + (1j * omega / C_M_MHZ) * np.eye(4)
        s_direct = scale * t @ corr @ conj @ t.conj().T
        assert rel_err(m, m_direct) < 1e-12
        assert rel_err(s, s_direct) < 1e-12

    def test_singular_resolvent_raises(self):
        # a drift eigenvalue at -i w makes the resolvent (-i w - B) singular
        omega = 3.0
        b = np.broadcast_to(-1j * omega * np.eye(8), (2, 8, 8))
        with pytest.raises(ResonanceError):
            fl._eliminate_batch(b, np.zeros((2, 8, 4)), np.zeros((2, 8, 8)),
                                np.zeros((4, 8)), omega, 1.0)

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
