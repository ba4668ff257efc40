import numpy as np
import pytest

from laddertangle import bloch, doppler
from laddertangle.bloch import IDX, LABELS, PROD
from laddertangle.errors import NoSteadyStateError
from laddertangle.experiments import baseline_params
from laddertangle.model import (DecayConfig, DopplerConfig, FieldConfig,
                                GeometryConfig, SystemParams)


def op_matrix(label):
    """Dense 3x3 matrix of the operator whose mean is rho[label]."""
    i, j = label
    m = np.zeros((3, 3))
    m[j - 1, i - 1] = 1.0
    return m


class TestOperatorAlgebra:
    def test_product_table_matches_dense_products(self):
        for a in LABELS:
            for b in LABELS:
                dense = op_matrix(a) @ op_matrix(b)
                entry = PROD[IDX[a], IDX[b]]
                if entry < 0:
                    assert np.allclose(dense, 0.0)
                else:
                    assert np.allclose(dense, op_matrix(LABELS[entry]))

    def test_index_table_consistent(self):
        for k, label in enumerate(LABELS):
            assert IDX[label] == k


def class_steady_states(params, d1, d2):
    """Steady states of classes at atom-frame detunings d1, d2 (1-d arrays)."""
    return bloch.steady_state_batch(bloch.generator_matrix(params, d1, d2))


class TestSteadyState:
    def test_fields_off_ground_state(self, fast_params):
        params = fast_params(alpha1=0.0, alpha2=0.0)
        means = class_steady_states(params, [0.0], [0.0])
        expect = np.zeros(9)
        expect[IDX[1, 1]] = 1.0
        assert np.allclose(means[0], expect, atol=1e-12)

    def test_generator_annihilates_steady_state(self, fast_params, rng):
        params = fast_params(p=0.5)
        for _ in range(10):
            d1, d2 = rng.uniform(-400, 400, size=2)
            g = bloch.generator_matrix(params, np.array([d1]), np.array([d2]))[0]
            m = bloch.steady_state_batch(g[None])[0]
            # rows 1..8 of the generator are the actual dynamics; row 0 is
            # the trace constraint
            assert np.max(np.abs(g[1:] @ m)) < 1e-10

    def test_trace_and_hermiticity(self, fast_params, rng):
        params = fast_params(p=6.0)
        d1, d2 = rng.uniform(-800, 800, size=(2, 25))
        means = class_steady_states(params, d1, d2)
        trace_err, herm_err, pop_err = bloch.steady_state_errors(means)
        assert trace_err < 1e-10
        assert herm_err < 1e-10
        assert pop_err <= 1e-10
        assert np.max(np.abs(means[:, list(bloch.POPULATIONS)].imag)) < 1e-12

    def test_populations_vanish_without_fields(self, fast_params):
        params = fast_params(alpha1=1e-6, alpha2=1e-6)
        means = class_steady_states(params, [0.0], [0.0])
        assert abs(means[0, IDX[2, 2]]) < 1e-8
        assert abs(means[0, IDX[3, 3]]) < 1e-8

    def test_errors_flag_unphysical_states(self):
        state = np.zeros((2, 9), dtype=complex)
        state[:, IDX[1, 1]] = 1.0
        assert bloch.steady_state_errors(state) == (0.0, 0.0, 0.0)
        state[1, IDX[1, 1]] = 1.5
        state[1, IDX[2, 2]] = -0.5
        state[1, IDX[2, 1]] = 0.25j
        assert bloch.steady_state_errors(state) == (0.0, 0.25, 0.5)
        state[1, IDX[3, 3]] = 0.125
        assert bloch.steady_state_errors(state) == (0.125, 0.25, 0.5)

    def test_undamped_drift_has_no_steady_state(self):
        # no decay, no fields: every population is conserved, so the
        # trace condition cannot pick one state
        params = SystemParams(
            decay=DecayConfig(gamma1=0.0, gamma2=0.0, p=0.0),
            field=FieldConfig(alpha1=0.0, alpha2=0.0),
            geometry=GeometryConfig(r=4.5e-4, L=0.06, n=8.5e15),
            doppler=DopplerConfig(width=0.0, nodes=1, rule="trapezoid"))
        with pytest.raises(NoSteadyStateError):
            class_steady_states(params, [12.0], [0.0])


class TestAbsorption:
    def test_weak_probe_pump_off_lorentzian(self):
        # pump off, stationary atoms: Im<rho21> reduces to the bare Lorentzian
        params = baseline_params(
            alpha1=1e-4, alpha2=0.0,
            doppler=DopplerConfig(width=0.0, nodes=1, rule="trapezoid"),
        )
        got = [bloch.absorption_exact(params, d1) for d1 in (0.0, 3.0, -9.0)]
        g12 = params.coherence.gamma12
        want = [g12**2 / (g12**2 + d1**2) for d1 in (0.0, 3.0, -9.0)]
        assert np.allclose(got, want, atol=1e-7)

    def test_weak_probe_eit_formula(self):
        # pump on, stationary atoms: linear response of the ladder system
        params = baseline_params(
            alpha1=1e-4, alpha2=50.0,
            doppler=DopplerConfig(width=0.0, nodes=1, rule="trapezoid"),
        )
        o2 = params.rabi2
        c = params.coherence
        for d1 in (0.0, 1.0, -4.0, 25.0):
            denom = (c.gamma12 + 1j * d1) + o2**2 / (c.gamma13 + 1j * d1)
            want = c.gamma12 * np.real(1.0 / denom)
            got = bloch.absorption_exact(params, d1)
            assert got == pytest.approx(want, abs=1e-7)

    def test_perturbative_matches_exact_at_weak_probe(self):
        # pump off: both reduce to the one-photon line, agreement is exact
        params = baseline_params(
            alpha1=1e-4, alpha2=0.0, p=0.5,
            doppler=DopplerConfig(width=530.0, nodes=401, rule="trapezoid"),
        )
        for d1 in (0.0, 2.0, -30.0, 300.0):
            exact = bloch.absorption_exact(params, d1)
            pert = bloch.absorption_perturbative(params, d1)
            assert exact == pytest.approx(pert, abs=1e-10)

    def test_perturbative_matches_exact_with_pump_on(self):
        # the resummed weak-probe form keeps the pump to all orders, so
        # agreement holds with the pump driven hard
        doppler_cfg = DopplerConfig(width=530.0, nodes=401, rule="trapezoid")
        params = baseline_params(alpha1=1e-4, alpha2=50.0, p=0.5,
                                 doppler=doppler_cfg)
        for d1 in (0.0, 2.0, -30.0, 300.0):
            exact = bloch.absorption_exact(params, d1)
            pert = bloch.absorption_perturbative(params, d1)
            assert exact == pytest.approx(pert, abs=1e-8)

    def test_term_expansion_error_is_higher_order_in_pump(self):
        # the three-term expansion truncates the pump at second order, so
        # its residual against the resummed form shrinks as the fourth
        # power of the pump amplitude
        doppler_cfg = DopplerConfig(width=530.0, nodes=401, rule="trapezoid")
        gaps = []
        for alpha2 in (10.0, 5.0):
            params = baseline_params(alpha1=1e-4, alpha2=alpha2, doppler=doppler_cfg)
            classes = doppler.build_classes(params, 0.0, 0.0)
            t1, t2, t3 = bloch.eq1_terms(params, classes.d1, classes.d2)
            expanded = float(doppler.average(t1 + t2 + t3, classes))
            pert = bloch.absorption_perturbative(params, 0.0)
            gaps.append(abs(expanded - pert))
        assert gaps[1] < gaps[0] / 8.0

    def test_term_signs_at_line_center(self, fast_params):
        params = fast_params(p=0.0)
        t1, t2, t3 = bloch.eq1_terms(params, np.array([0.0]), np.array([0.0]))
        assert t1[0] == pytest.approx(1.0)
        assert np.real(t2[0]) < 0.0  # destructive pathway (transparency)
        assert t3[0] > 0.0  # two-step excitation adds absorption

    def test_doppler_averaged_profile_symmetric(self, fast_params):
        params = fast_params(p=6.0)
        left = [bloch.absorption_exact(params, -d) for d in (100.0, 400.0)]
        right = [bloch.absorption_exact(params, d) for d in (100.0, 400.0)]
        assert np.allclose(left, right, rtol=1e-9)
