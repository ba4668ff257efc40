import numpy as np
import pytest
import scipy.linalg as sla

from laddertangle import numerics
from laddertangle.errors import ContractError, ResonanceError, UnsupportedOrderError


class TestMatrixExponential:
    def test_zero(self):
        assert np.allclose(numerics.matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        a = np.diag([1.0 + 2.0j, -0.5])
        assert np.allclose(numerics.matrix_exponential(a), np.diag(np.exp(a.diagonal())))

    def test_nilpotent(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(numerics.matrix_exponential(a), [[1.0, 1.0], [0.0, 1.0]])

    def test_commuting_product_rule(self, rng):
        for _ in range(10):
            d1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            d2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            u = rng.standard_normal((4, 4))
            q, _ = np.linalg.qr(u)
            a = q @ np.diag(d1) @ q.T.conj()
            b = q @ np.diag(d2) @ q.T.conj()
            lhs = numerics.matrix_exponential(a + b)
            rhs = numerics.matrix_exponential(a) @ numerics.matrix_exponential(b)
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(lhs)))

    def test_nonfinite_rejected(self):
        a = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(ContractError):
            numerics.matrix_exponential(a)

    def test_dimension_cap(self):
        with pytest.raises(ContractError):
            numerics.matrix_exponential(np.zeros((17, 17)))


class TestGaussHermite:
    def test_normalization(self):
        _, weights = numerics.gauss_hermite_rule(64, 530.0)
        assert abs(np.sum(weights) - 1.0) < 1e-12

    def test_second_moment(self):
        nodes, weights = numerics.gauss_hermite_rule(32, 1.0)
        assert abs(np.sum(weights * nodes**2) - 0.5) < 1e-12

    def test_nodes_symmetric(self):
        nodes, _ = numerics.gauss_hermite_rule(33, 2.0)
        assert np.allclose(np.sort(nodes), -np.sort(-nodes)[::-1])

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            numerics.gauss_hermite_rule(513, 1.0)

    def test_lorentzian_vs_trapezoid(self):
        # broad Lorentzian is smooth on the Gaussian scale, so 128 nodes suffice
        mu = 1.0
        nodes, weights = numerics.gauss_hermite_rule(128, mu)

        def f(v):
            return 50.0**2 / (50.0**2 + (v - 0.3) ** 2)

        gh = np.sum(weights * f(nodes))
        v = np.linspace(-6 * mu, 6 * mu, 200001)
        w = np.exp(-(v / mu) ** 2)
        dense = np.trapezoid(w * f(v), v) / np.trapezoid(w, v)
        assert abs(gh - dense) < 1e-8


class TestGaussianTrapezoid:
    def test_normalization(self):
        _, weights = numerics.gaussian_trapezoid_rule(401, 530.0)
        assert abs(np.sum(weights) - 1.0) < 1e-12

    def test_matches_hermite_on_polynomial(self):
        trap_nodes, trap_weights = numerics.gaussian_trapezoid_rule(4001, 1.0, span=6.0)
        gh_nodes, gh_weights = numerics.gauss_hermite_rule(16, 1.0)
        for f in (lambda v: v**2, lambda v: v**4 - v):
            a = np.sum(trap_weights * f(trap_nodes))
            b = np.sum(gh_weights * f(gh_nodes))
            assert abs(a - b) < 1e-6


class TestPropagationIntegral:
    def test_matches_quadrature(self, rng):
        def noise():
            s = rng.standard_normal((4, 4))
            return s @ s.T + 1e-3 * np.eye(4)

        cases = []
        for _ in range(5):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m -= 3.0 * np.eye(4)
            cases.append((m, noise()))
        # decoupled probe: the probe rows of M vanish, so M is singular
        m = np.zeros((4, 4), dtype=complex)
        m[2:, 2:] = rng.standard_normal((2, 2)) - 3.0 * np.eye(2)
        cases.append((m, noise()))
        # M = iH: each eigenvalue of M and its partner in -M^H sum to zero
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        cases.append((0.5j * (h + h.conj().T), noise()))
        # optically thick: min Re eig(M L) = -91, which one block
        # exponential over the whole cell resolves to no digits
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        m = q @ np.diag([-0.2 + 1j, -2.0 - 3j, -40.0 + 5j, -130.0]) @ q.conj().T
        cases.append((m, noise()))
        for m, s in cases:
            t, direct = numerics.propagation_integral(m, s, 0.7)
            quad = numerics._quadrature_propagation_integral(m, s, 0.7)
            assert np.max(np.abs(direct - quad)) < 1e-8 * max(1.0, np.max(np.abs(direct)))
            assert np.max(np.abs(t - sla.expm(0.7 * m))) < 1e-12

    def test_nonsquare_rejected(self):
        with pytest.raises(ContractError):
            numerics.propagation_integral(np.ones((2, 3)), np.ones((2, 2)), 0.7)


class TestShiftedInverse:
    def test_matches_direct_inverse(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) - 4.0 * np.eye(6)
        e = np.array([0.0, 0.0, 1.0j, -1.0j, 2.0j, 0.3j])   # zero on two components
        shifts = np.linspace(-50.0, 50.0, 11)
        v, left, factors, cond = numerics.shifted_inverse(a, e, shifts)
        assert factors.shape == (11, 6)
        assert cond >= 1.0
        for s, r in zip(shifts, factors):
            direct = np.linalg.inv(a - s * np.diag(e))
            assert np.max(np.abs(v @ np.diag(r) @ left - direct)) < 1e-12 * np.max(np.abs(direct))

    def test_singular_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            numerics.shifted_inverse(np.zeros((3, 3)), np.ones(3), [0.0])

    def test_shift_on_a_pole_raises(self):
        # 1 - s theta = 0 at s = 0.5 for A = 1, e = 2
        with pytest.raises(np.linalg.LinAlgError, match="pole"):
            numerics.shifted_inverse(np.eye(1), [2.0], [0.0, 0.5])

    def test_nearly_defective_pencil_raises(self):
        # K = A^-1 diag(e) = [[1, 1 + d], [0, 1 + d]]: two eigenvectors at
        # an angle of order d, so V has condition number of order 1/d
        a = np.array([[1.0, -1.0], [0.0, 1.0]])
        with pytest.raises(ResonanceError, match="condition number"):
            numerics.shifted_inverse(a, [1.0, 1.0 + 1e-9], [0.0])
        *_, cond = numerics.shifted_inverse(a, [1.0, 1.5], [0.0])
        assert cond < numerics.MAX_EIGENVECTOR_CONDITION
