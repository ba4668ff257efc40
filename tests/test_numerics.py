import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from laddertangle import numerics
from laddertangle.bloch import REAL_BASIS, drift_pencil, steady_state_pencil
from laddertangle.doppler import build_classes
from laddertangle.errors import ContractError, ResonanceError
from laddertangle.experiments import all_scenarios, baseline_params, pump_sweep_transform


def real_pencil(b0, e):
    """The drift pencils (B0, diag(e)) of a stack of rows in the real basis,
    as bloch factors them."""
    u, uh = REAL_BASIS, REAL_BASIS.conj().T
    return (u @ b0 @ uh).real, ((u * e) @ uh).real


def pencil_rows():
    """(params, delta1) rows with narrow and wide poles: fig2-a at line
    centre and at the sweep's edge, fig3 at alpha2 = 1, and fig4-c."""
    scenarios = all_scenarios()
    fig3 = pump_sweep_transform(baseline_params(p=0.0), 1.0)
    return {"fig2-a-0": (scenarios["fig2-a"].base, 0.0),
            "fig2-a-m800": (scenarios["fig2-a"].base, -800.0),
            "fig3-alpha2-1-200": (fig3, 200.0),
            "fig4-c-198": (scenarios["fig4-c"].base, 198.0)}


def checked_factors(a, b, shifts):
    """factor_pencil of (A, B), then refused for the shifts (check_shifts),
    as every caller in the package runs them."""
    factors = numerics.factor_pencil(a, b)
    numerics.check_shifts(factors, shifts)
    return factors


class TestMatrixExponential:
    def test_zero(self):
        assert np.allclose(numerics.matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        a = np.diag([1.0 + 2.0j, -0.5])
        assert np.allclose(numerics.matrix_exponential(a), np.diag(np.exp(a.diagonal())))

    def test_nilpotent(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(numerics.matrix_exponential(a), [[1.0, 1.0], [0.0, 1.0]])
        # a strictly upper triangular 5x5 (A^5 = 0) whose norm takes the
        # scaled degree-13 approximant: exp(A) is the finite series
        a = np.triu(np.arange(1.0, 26.0).reshape(5, 5) * (0.3 - 0.2j), k=1)
        series = sum(np.linalg.matrix_power(a, k) / np.prod(np.arange(1.0, k + 1.0))
                     for k in range(5))
        got = numerics.matrix_exponential(a)
        assert np.abs(a).sum(axis=0).max() > 10.0
        assert np.max(np.abs(got - series)) <= 1e-13 * np.max(np.abs(series))
        assert np.max(np.abs(got - sla.expm(a))) <= 1e-13 * np.max(np.abs(series))

    def test_matches_scipy_expm_where_scaling_is_needed(self, rng):
        # ||A||_1 = 50 takes degree 13 after 4 squarings
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a *= 50.0 / np.abs(a).sum(axis=0).max()
        expected = sla.expm(a)
        got = numerics.matrix_exponential(a)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_stacked_row_has_its_bytes_alone(self, rng):
        # one matrix at each degree and one that needs squarings: each row of
        # the mixed stack has the bytes it has alone, and matches scipy
        blocks = rng.standard_normal((6, 8, 8)) + 1j * rng.standard_normal((6, 8, 8))
        norms = np.array([0.01, 0.2, 0.9, 2.0, 5.0, 40.0])
        blocks *= (norms / np.abs(blocks).sum(axis=1).max(axis=1))[:, None, None]
        stack = numerics.matrix_exponential(blocks)
        for k, block in enumerate(blocks):
            alone = numerics.matrix_exponential(block[None])[0]
            assert stack[k].tobytes() == alone.tobytes()
            expected = sla.expm(block)
            assert np.max(np.abs(alone - expected)) <= 1e-13 * np.max(np.abs(expected))

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


class TestFactorPencil:
    def test_matches_direct_inverse(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) - 4.0 * np.eye(6)
        e = np.array([0.0, 0.0, 1.0j, -1.0j, 2.0j, 0.3j])   # zero on two components
        shifts = np.linspace(-50.0, 50.0, 11)
        (v,), (left,), (theta,), (cond,) = checked_factors(a[None], np.diag(e), shifts)
        assert theta.shape == (6,)
        assert cond >= 1.0
        for s in shifts:
            r = 1.0 / (1.0 - s * theta)
            direct = np.linalg.inv(a - s * np.diag(e))
            assert np.max(np.abs(v @ np.diag(r) @ left - direct)) < 1e-12 * np.max(np.abs(direct))

    def test_matches_extended_precision_near_a_narrow_pole(self):
        # fig3 at alpha2 = 1, p = 0, delta1 = 200: a pole 0.06 MHz wide
        # next to class nodes 1.24 MHz apart, and |theta| spanning 3e5.
        # The classes with the largest factors are checked against
        # 40-digit inverses of B0 - s diag(e).
        params = pump_sweep_transform(baseline_params(p=0.0), 1.0)
        classes = build_classes(params, 200.0, params.field.delta2)
        b0, _, e = drift_pencil(params, [200.0])
        (v,), (left,), (theta,), _ = checked_factors(b0, np.diag(e), classes.shifts)
        b0 = b0[0]
        factors = 1.0 / (1.0 - classes.shifts[:, None] * theta)
        with mpmath.workdps(40):
            a, diag_e = mpmath.matrix(b0.tolist()), mpmath.diag(e.tolist())
            for k in np.argsort(np.max(np.abs(factors), axis=1))[-16:]:
                pencil = a - float(classes.shifts[k]) * diag_e
                exact = np.array((pencil ** -1).tolist(), dtype=complex)
                got = v @ np.diag(factors[k]) @ left
                assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("row", ["fig2-a-0", "fig2-a-m800", "fig3-alpha2-1-200", "fig4-c-198"])
    def test_conjugate_pairs_made_exact(self, row):
        # the real-basis pencil pairs theta and columns exactly, with no
        # tolerance.  Its theta are within 1e-13 of 40-digit eigenvalues of
        # B0^-1 diag(e), and so are those of the component-basis pencil;
        # QZ (scipy.linalg.eig(B0, diag(e))) is within 2.8e-13 (fig3)
        params, delta1 = pencil_rows()[row]
        shifts = build_classes(params, delta1, params.field.delta2).shifts
        b0, h, e = drift_pencil(params, [delta1])
        (v,), _, (theta,), _ = checked_factors(*real_pencil(b0, e), shifts)
        assert np.array_equal(np.sort_complex(theta), np.sort_complex(theta.conj()))
        pair = np.flatnonzero(theta.imag)
        assert len(pair) >= 4
        partner = pair[np.argmax(theta[pair].conj()[:, None] == theta[pair], axis=1)]
        assert np.array_equal(v[:, partner], v[:, pair].conj())
        points = steady_state_pencil(b0, h, e, shifts).points[0]
        assert np.array_equal(np.sort_complex(points), np.sort_complex(points.conj()))
        complex_theta = checked_factors(b0, np.diag(e), shifts)[2][0]
        b0 = b0[0]
        assert np.count_nonzero(complex_theta == 0.0) == np.count_nonzero(theta == 0.0) == 2
        qz = 1.0 / sla.eig(b0, np.diag(e), right=False)
        with mpmath.workdps(40):
            k = mpmath.matrix(b0.tolist()) ** -1 * mpmath.diag(e.tolist())
            exact = np.array(mpmath.eig(k, left=False, right=False), dtype=complex)
        exact = exact[np.abs(exact) > 1e-20]
        for got, ref, rtol in ((theta, exact, 1e-13), (complex_theta, exact, 1e-13),
                               (theta, qz[qz != 0.0], 5e-13)):
            got = got[got != 0.0]
            nearest = np.abs(got[:, None] - ref).argmin(axis=1)
            assert sorted(nearest) == list(range(6))
            assert np.all(np.abs(got - ref[nearest]) <= rtol * np.abs(got))

    def test_condition_independent_of_the_kernel_basis(self):
        # fig4-a at delta1 = 586: the theta = 0 columns (the populations) are
        # unit vectors in both bases, and the real basis is unitary
        params = all_scenarios()["fig4-a"].base
        shifts = build_classes(params, 586.0, params.field.delta2).shifts
        b0, _, e = drift_pencil(params, [586.0])
        *_, (cond_real,) = checked_factors(*real_pencil(b0, e), shifts)
        *_, (cond,) = checked_factors(b0, np.diag(e), shifts)
        assert cond_real == pytest.approx(cond, rel=1e-10)

    @pytest.mark.parametrize("real", [True, False])
    def test_stack_factors_each_row_alone(self, real):
        # the real pencils of fig4-c rows, and their complex component-basis
        # forms: a stack gives each row the bytes it gets alone
        params = all_scenarios()["fig4-c"].base
        b0, _, e = drift_pencil(params, [-800.0, -3.0, 0.0, 198.0, 200.0, 650.0, 800.0])
        a, b = real_pencil(b0, e) if real else (b0, np.diag(e))
        stacked = numerics.factor_pencil(a, b)
        # every row has the two theta = 0 of the populations, and pairs
        assert np.all(np.count_nonzero(stacked[2] == 0.0, axis=1) == 2)
        assert np.all(np.count_nonzero(stacked[2].imag > 0.0, axis=1) >= 2)
        for r in range(len(a)):
            alone = numerics.factor_pencil(a[r:r + 1], b)
            for x, y in zip(stacked, alone):
                assert x[r].tobytes() == y[0].tobytes()

    def test_stack_refuses_any_bad_row(self):
        rows = np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            numerics.factor_pencil(rows, np.eye(2))
        with pytest.raises(ContractError, match="stack of square matrices"):
            numerics.factor_pencil(np.eye(2), np.eye(2))
        # the second row's condition number, 1e9, is refused
        a = np.array([[[1.0, -1.0], [0.0, 1.0]]] * 2)
        factors = list(numerics.factor_pencil(a, np.diag([1.0, 1.5])))
        factors[3] = np.array([2.0, 1e9])
        with pytest.raises(ResonanceError, match="condition number 1e\\+09"):
            numerics.check_shifts(factors, [0.0])

    def test_singular_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            checked_factors(np.zeros((1, 3, 3)), np.eye(3), [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        a = np.array([[[2.0, 1.0], [0.0, 3.0]]])
        for pencil in ((np.where(a == 1.0, bad, a), np.eye(2)),
                       (a, np.diag([1.0, bad])), (a + 1j * a, np.diag([1.0j, bad]))):
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                numerics.factor_pencil(*pencil)

    def test_singular_b_on_its_support_raises(self):
        # B is nonzero on every row and column, but singular: its kernel
        # holds no unit vector, so the pencil has no factorization here
        a = np.array([[[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 4.0]]])
        b = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix B"):
            numerics.factor_pencil(a, b)
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix B"):
            numerics.factor_pencil(a + 0j, b * 1j)
        # the same B with its kernel a unit vector factors
        factors = numerics.factor_pencil(a, np.diag([1.0, 1.0, 0.0]))
        assert np.count_nonzero(factors[2] == 0.0) == 1

    def test_support_worked_out_once_per_b(self):
        # the rows of a sweep share B: its support is found on the first
        # call, read-only, and each later call with the same bytes reuses it
        b0, _, e = drift_pencil(all_scenarios()["fig2-a"].base, [-800.0, 0.0, 3.0])
        a, b = real_pencil(b0, e)
        numerics._support.cache_clear()
        for r in range(len(a)):
            numerics.factor_pencil(a[r:r + 1], b)
        assert numerics._support.cache_info()[:2] == (2, 1)     # hits, misses
        p, q, b_p = numerics._support(b.tobytes(), 8, "d")
        assert list(q) == [0, 1] and list(p) == list(range(2, 8))
        assert b_p.tobytes() == np.ascontiguousarray(b[:, 2:]).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            b_p[0, 0] = 1.0

    def test_shift_on_a_pole_raises(self):
        # 1 - s theta = 0 at s = 0.5 for A = 1, e = 2
        with pytest.raises(np.linalg.LinAlgError, match="pole"):
            checked_factors(np.eye(1)[None], [[2.0]], [0.0, 0.5])
        # next to a zero theta, which is no pole
        with pytest.raises(np.linalg.LinAlgError, match="pole"):
            checked_factors(np.eye(2)[None], np.diag([0.0, 2.0]), [0.0, 0.5])

    def test_nearly_defective_pencil_raises(self):
        # K = A^-1 diag(e) = [[1, 1 + d], [0, 1 + d]]: two eigenvectors at
        # an angle of order d, so V has condition number of order 1/d
        a = np.array([[[1.0, -1.0], [0.0, 1.0]]])
        with pytest.raises(ResonanceError, match="condition number"):
            checked_factors(a, np.diag([1.0, 1.0 + 1e-9]), [0.0])
        *_, (cond,) = checked_factors(a, np.diag([1.0, 1.5]), [0.0])
        assert cond < numerics.MAX_EIGENVECTOR_CONDITION


class TestDivideRows:
    def test_each_part_divided_by_its_row_scale(self):
        # a scale of 1 leaves every bit, the sign of a zero part included
        z = np.array([[complex(-0.0, 1.0), complex(2.0, -0.0), -3e-300 + 0.1j],
                      [1.0 + 1.0j, complex(-0.0, -0.0), 7.0 + 0.3j]])
        got = numerics.divide_rows(z, [1.0, 3.0])
        assert got[0].tobytes() == z[0].tobytes()
        assert np.array_equal(got[1].real, z[1].real / 3.0)
        assert np.array_equal(got[1].imag, z[1].imag / 3.0)
        assert np.signbit(got[1, 1].real) and np.signbit(got[1, 1].imag)
        one_scale = numerics.divide_rows(z, 3.0)
        assert one_scale.tobytes() == numerics.divide_rows(z, [3.0, 3.0]).tobytes()
