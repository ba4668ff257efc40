import numpy as np
import pytest
import scipy.linalg as sla

from conftest import steady_state_errors
from laddertangle import bloch, doppler, fluctuations, numerics
from laddertangle.bloch import IDX, LABELS, PROD
from laddertangle.errors import ContractError, NoSteadyStateError, ResonanceError
from laddertangle.experiments import all_scenarios, baseline_params
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
        trace_err, herm_err, pop_err = steady_state_errors(means)
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
        assert steady_state_errors(state) == (0.0, 0.0, 0.0)
        state[1, IDX[1, 1]] = 1.5
        state[1, IDX[2, 2]] = -0.5
        state[1, IDX[2, 1]] = 0.25j
        assert steady_state_errors(state) == (0.0, 0.25, 0.5)
        state[1, IDX[3, 3]] = 0.125
        assert steady_state_errors(state) == (0.125, 0.25, 0.5)

    def test_pencil_refuses_a_drift_that_breaks_hermiticity(self, fast_params):
        # 0.5i from rho12 into rho21 maps Hermitian states to non-Hermitian
        # ones, so the pencil in the real basis is not real; in a stack the
        # rows that keep states Hermitian do not hide it
        b0, h, e = bloch.drift_pencil(fast_params(), [0.0, 1.0])
        b0 = b0.copy()
        b0[1] = -np.eye(8)
        b0[1, IDX[2, 1] - 1, IDX[1, 2] - 1] = 0.5j
        for rows in (slice(1, 2), slice(0, 2)):
            with pytest.raises(ContractError, match="does not keep states Hermitian"):
                bloch.steady_state_pencil(b0[rows], h[rows], e, [0.0])

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


def pencil_arrays(pencil):
    """Every array of a SteadyPencil, the condition numbers included."""
    return [np.asarray(a) for a in (pencil.points, pencil.states, *pencil.resolvent)]


def same_bytes(a, b):
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(pencil_arrays(a), pencil_arrays(b)))


class TestScaledPencil:
    # a row of scale c holds the classes at the shifts s / c as its points
    # and theta divided by c; the checks run on the scaled theta

    def test_rows_have_the_bytes_of_their_row_alone(self, fast_params, monkeypatch):
        # rows repeated, reordered and scaled: one factorization of the
        # distinct rows, and each row equals its row factored alone
        b0, h, e = bloch.drift_pencil(fast_params(p=0.5), [3.0, -40.0, 0.0])
        rows, scales = [1, 0, 2, 0, 1], [1.0, 3.0, 0.25, 1.0, 50.0 / 6.0]
        factored, factor = [], bloch.factor_pencil
        monkeypatch.setattr(bloch, "factor_pencil",
                            lambda a, b: factored.append(len(a)) or factor(a, b))
        stack = bloch.steady_state_pencil(b0, h, e, [0.0], rows, scales)
        assert factored == [3]
        for r, (k, c) in enumerate(zip(rows, scales)):
            alone = bloch.steady_state_pencil(b0[k:k + 1], h[k:k + 1], e, [0.0], scales=c)
            assert same_bytes(stack.take(slice(r, r + 1)), alone)
        # scale 1 is the unscaled pencil, bit for bit
        assert same_bytes(stack.take(slice(3, 4)), bloch._factor_rows(b0[:1], h[:1], e))
        # the scale divides each part of the points (numerics.divide_rows)
        points = bloch._factor_rows(b0, h, e).points[0]
        assert np.array_equal(stack.points[1].real, points.real / 3.0)
        assert np.array_equal(stack.points[1].imag, points.imag / 3.0)

    def test_scaled_stack_checks_the_condition_bound(self, fast_params, monkeypatch):
        pencil = bloch.drift_pencil(fast_params(), [0.0])
        monkeypatch.setattr(numerics, "MAX_EIGENVECTOR_CONDITION", 0.5)
        with pytest.raises(ResonanceError, match="condition number"):
            bloch.steady_state_pencil(*pencil, [0.0], [0, 0], [2.0, 0.5])

    def test_scaled_row_checks_its_shifts(self):
        # B0 = -1, diag(e) = 1: theta = -1 on every component, a pole at
        # s = -1, and at scale 2 theta / 2 = -0.5, a pole at s = -2
        b0 = -np.eye(8, dtype=complex)[None]
        h, e = np.ones((1, 8), dtype=complex), np.ones(8, dtype=complex)
        bloch.steady_state_pencil(b0, h, e, [0.0, -1.0], [0], [2.0])
        for scales, shifts in (([2.0], [0.0, -2.0]), ([1.0, 2.0], [0.0, -2.0]),
                               ([1.0, 2.0], [0.0, -1.0])):
            with pytest.raises(NoSteadyStateError, match="pole"):
                bloch.steady_state_pencil(b0, h, e, shifts, [0] * len(scales), scales)


def class_drift_max(b0, e, shifts):
    """Oracle: largest real part over the eigenvalues of every class drift."""
    b = b0 - np.asarray(shifts)[:, None, None] * np.diag(e)
    return float(np.max(np.linalg.eigvals(b).real))


class TestDriftBound:
    def test_bounds_every_class_on_random_draws(self, rng):
        # the validation suite's parameter ranges, on a 41-node Doppler rule:
        # every class of every draw is dissipative, and the bound says so
        for _ in range(300):
            params = SystemParams(
                decay=DecayConfig(gamma1=rng.uniform(0.5, 6.0), gamma2=rng.uniform(0.1, 2.0),
                                  p=rng.uniform(0.0, 25.0)),
                field=FieldConfig(alpha1=rng.uniform(0.1, 30.0), alpha2=rng.uniform(0.1, 120.0),
                                  delta2=rng.uniform(-300.0, 300.0)),
                doppler=DopplerConfig(width=530.0, nodes=41, rule="trapezoid"))
            (b0,), _, e = bloch.drift_pencil(params, [rng.uniform(-600.0, 600.0)])
            shifts, _ = doppler.maxwellian_rule(params.doppler)
            bound = bloch.drift_bound(params, b0, e, shifts, 1.0)
            assert class_drift_max(b0, e, shifts) - 1e-12 <= bound < 0.0
            # the Hamiltonian part is skew in the metric, so B0's own
            # logarithmic norm is the relaxation part's, once per parameter set
            top = bloch.relaxation_log_norm(params.decay, params.rates)
            assert top == pytest.approx(bloch.metric_log_norm(b0), rel=1e-13, abs=1e-15)
            assert top >= 0.0 or bound == top

    def test_falls_back_to_class_eigenvalues(self, fast_doppler):
        # at gamma1/gamma2 = 10.9 the metric bound is not negative, so the
        # bound is the largest real part of the class eigenvalues itself
        params = SystemParams(decay=DecayConfig(gamma1=5.45, gamma2=0.5),
                              doppler=fast_doppler)
        (b0,), _, e = bloch.drift_pencil(params, [20.0])
        shifts, _ = doppler.maxwellian_rule(params.doppler)
        exact = class_drift_max(b0, e, shifts)
        assert exact < 0.0
        assert bloch.metric_log_norm(b0) >= 0.0
        assert bloch.drift_bound(params, b0, e, shifts, 1.0) == exact
        # a row of scale c sees the shifts divided by c, in the fallback only
        assert (bloch.drift_bound(params, b0, e, shifts, 4.0)
                == class_drift_max(b0, e, shifts / 4.0) != exact)


    def test_metric_log_norm_is_the_generalized_eigenvalue(self, rng):
        # the Cholesky reduction against scipy's generalized Hermitian solver,
        # on the shipped drifts and on random ones
        drifts = [bloch.drift_pencil(s.base, [-800.0, 0.0, 200.0])[0]
                  for s in all_scenarios().values()]
        drifts.append(rng.standard_normal((20, 8, 8)) + 1j * rng.standard_normal((20, 8, 8)))
        for b in np.concatenate(drifts):
            pb = bloch.HS_METRIC @ b
            expected = sla.eigh(0.5 * (pb + pb.conj().T), bloch.HS_METRIC, eigvals_only=True)[-1]
            assert bloch.metric_log_norm(b) == pytest.approx(expected, rel=1e-13,
                                                             abs=1e-13 * np.abs(b).max())


class TestDecayGenerator:
    def test_cached_matrix_is_a_fresh_build_and_read_only(self):
        params = baseline_params(p=6.0)
        cached = bloch.decay_generator(params.decay, params.rates)
        fresh = bloch.decay_generator.__wrapped__(params.decay, params.rates)
        assert cached.tobytes() == fresh.tobytes()
        assert bloch.decay_generator(params.decay, params.rates) is cached
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 1.0

    def test_one_build_per_parameter_set_in_a_stack(self, fast_params):
        # a 16-row V12 stack builds the relaxation matrix once, for the drift
        # pencil and the Einstein correlators alike
        params = fast_params(p=0.5)
        bloch.decay_generator.cache_clear()
        fluctuations.v12_spectrum(params, np.linspace(-40.0, 40.0, 16), jobs=1)
        assert bloch.decay_generator.cache_info().misses == 1
        fluctuations.v12_spectrum(fast_params(p=6.0), np.linspace(-40.0, 40.0, 16), jobs=1)
        assert bloch.decay_generator.cache_info().misses == 2


class TestAbsorption:
    def test_weak_probe_pump_off_lorentzian(self):
        # pump off, stationary atoms: Im<rho21> reduces to the bare Lorentzian
        params = baseline_params(
            alpha1=1e-4, alpha2=0.0,
            doppler=DopplerConfig(width=0.0, nodes=1, rule="trapezoid"),
        )
        got = [bloch.absorption_exact(params, d1) for d1 in (0.0, 3.0, -9.0)]
        g12 = params.rates.gamma12
        want = [g12**2 / (g12**2 + d1**2) for d1 in (0.0, 3.0, -9.0)]
        assert np.allclose(got, want, atol=1e-7)

    def test_weak_probe_eit_formula(self):
        # pump on, stationary atoms: linear response of the ladder system
        params = baseline_params(
            alpha1=1e-4, alpha2=50.0,
            doppler=DopplerConfig(width=0.0, nodes=1, rule="trapezoid"),
        )
        o2 = params.rabi2
        c = params.rates
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


@pytest.fixture(scope="module")
def row_by_row():
    """name -> (base, grid, absorption_exact of each grid row, each row's
    pencil factored alone) on the fig2-g and fig4-d grids."""
    out = {}
    for name in ("fig2-g", "fig4-d"):
        scenario = all_scenarios()[name]
        base, grid = scenario.base, scenario.grid
        classes = doppler.build_classes(base, 0.0, base.field.delta2)
        pencils, absorption = [], []
        for delta1 in grid.tolist():
            absorption.append(bloch.absorption_exact(base, delta1))
            pencils.append(bloch.steady_state_pencil(*bloch.drift_pencil(base, [delta1]),
                                                     classes.shifts).take(0))
        out[name] = base, grid, np.array(absorption), pencils
    return out


class TestStackedRows:
    # a row's bytes do not depend on the rows stacked with it

    @pytest.mark.parametrize("rows", [1, 7, 16, 801])
    @pytest.mark.parametrize("name", ["fig2-g", "fig4-d"])
    def test_stack_matches_rows_bit_for_bit(self, row_by_row, name, rows):
        base, grid, absorption, pencils = row_by_row[name]
        # rows spread over the grid, and a contiguous run about the feature
        for pick in (np.linspace(0, len(grid) - 1, rows).round().astype(int),
                     np.arange(rows) + min(len(grid) - rows, 390)):
            stacked = bloch.absorption_rows(base, grid[pick])
            assert stacked.dtype == absorption.dtype
            assert stacked.tobytes() == absorption[pick].tobytes()
            shifts, _ = doppler.maxwellian_rule(base.doppler)
            pencil = bloch.steady_state_pencil(*bloch.drift_pencil(base, grid[pick]), shifts)
            for r, k in enumerate(pick):
                assert same_bytes(pencil.take(r), pencils[k])

    def test_absorption_exact_is_one_row(self, fast_params):
        params = fast_params(p=6.0)
        got = bloch.absorption_exact(params, 12.5)
        assert isinstance(got, float)
        assert got == bloch.absorption_rows(params, [12.5])[0]

    def test_pump_off_probe_has_no_absorption(self, fast_params):
        assert np.array_equal(bloch.absorption_rows(fast_params(alpha1=0.0), [0.0, 5.0]),
                              [0.0, 0.0])
