import numpy as np
import pytest

from laddertangle import doppler
from laddertangle.errors import ContractError
from laddertangle.experiments import baseline_params
from laddertangle.model import DopplerConfig


def make_params(**doppler_kwargs):
    doppler_kwargs.setdefault("width", 530.0)
    doppler_kwargs.setdefault("nodes", 201)
    doppler_kwargs.setdefault("rule", "trapezoid")
    return baseline_params(doppler=DopplerConfig(**doppler_kwargs))


class TestBuildClasses:
    def test_zero_width_single_class(self):
        params = make_params(width=0.0, nodes=64)
        classes = doppler.build_classes(params, 12.0, -3.0)
        assert len(classes) == 1
        assert classes.d1[0] == pytest.approx(12.0)
        assert classes.d2[0] == pytest.approx(-3.0)
        assert classes.weights[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("rule", ["hermite", "trapezoid"])
    def test_one_node_is_stationary_class(self, rule):
        classes = doppler.build_classes(make_params(rule=rule, nodes=1), 12.0, -3.0)
        assert np.array_equal(classes.shifts, [0.0])
        assert np.array_equal(classes.weights, [1.0])

    def test_two_photon_sum_is_doppler_free(self):
        params = make_params(residual_mismatch=False)
        classes = doppler.build_classes(params, 37.0, -200.0)
        assert np.allclose(classes.d1 + classes.d2, 37.0 - 200.0, atol=1e-9)

    def test_counterpropagating_shifts_opposite(self):
        params = make_params(residual_mismatch=False)
        classes = doppler.build_classes(params, 0.0, 0.0)
        assert np.allclose(classes.d1, -classes.shifts)
        assert np.allclose(classes.d2, classes.shifts)

    def test_residual_mismatch_spread(self):
        params = make_params(residual_mismatch=True)
        classes = doppler.build_classes(params, 0.0, 0.0)
        k_ratio = params.field.lambda1 / params.field.lambda2  # k2 / k1
        expected = classes.shifts * (k_ratio - 1.0)
        assert np.allclose(classes.d1 + classes.d2, expected, atol=1e-9)
        spread = np.max(np.abs(classes.d1 + classes.d2)) / np.max(np.abs(classes.shifts))
        assert spread == pytest.approx(abs(1.0 - k_ratio), rel=1e-12)

    def test_weights_normalized(self):
        for rule in ("hermite", "trapezoid"):
            params = make_params(rule=rule, nodes=128)
            classes = doppler.build_classes(params, 0.0, 0.0)
            assert abs(np.sum(classes.weights) - 1.0) < 1e-12


class TestAverage:
    def test_constant(self):
        params = make_params()
        classes = doppler.build_classes(params, 0.0, 0.0)
        assert doppler.average(np.full(len(classes), 3.25), classes) == pytest.approx(3.25)

    def test_linear(self, rng):
        params = make_params()
        classes = doppler.build_classes(params, 0.0, 0.0)
        f = rng.standard_normal(len(classes))
        g = rng.standard_normal(len(classes))
        lhs = doppler.average(2.0 * f - 3.0 * g, classes)
        rhs = 2.0 * doppler.average(f, classes) - 3.0 * doppler.average(g, classes)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_antisymmetric_vanishes(self):
        params = make_params()
        classes = doppler.build_classes(params, 0.0, 0.0)
        assert abs(doppler.average(classes.shifts**3, classes)) < 1e-12 * 530.0**3

    def test_length_mismatch(self):
        params = make_params()
        classes = doppler.build_classes(params, 0.0, 0.0)
        with pytest.raises(ContractError):
            doppler.average(np.ones(len(classes) + 1), classes)

    def test_matrix_values(self):
        params = make_params(nodes=11)
        classes = doppler.build_classes(params, 0.0, 0.0)
        mats = np.array([w * np.eye(2) for w in range(len(classes))], dtype=float)
        out = doppler.average(mats, classes)
        assert out.shape == (2, 2)

    def test_voigt_against_dense_quadrature(self):
        # Lorentzian averaged over the Maxwellian must match brute force
        params = make_params(nodes=4001, span=6.0)
        classes = doppler.build_classes(params, 0.0, 0.0)
        gamma = 40.0
        vals = gamma**2 / (gamma**2 + classes.d1**2)
        got = doppler.average(vals, classes)

        mu = 530.0
        v = np.linspace(-6 * mu, 6 * mu, 400001)
        w = np.exp(-((v / mu) ** 2))
        ref = np.trapezoid(w * gamma**2 / (gamma**2 + v**2), v) / np.trapezoid(w, v)
        assert got == pytest.approx(ref, abs=1e-8)
