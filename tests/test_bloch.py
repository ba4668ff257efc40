import numpy as np
import pytest

from conftest import steady_state_errors
from laddertangle import bloch, doppler, numerics
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
            bloch._PENCILS.clear()
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


class TestPencilMemo:
    # steady_state_pencil keeps row factorizations keyed on each row's
    # bytes; the checks that depend on the call must still run on every hit

    @staticmethod
    def hit(monkeypatch, b0, h, e, shifts):
        """steady_state_pencil on rows factored just before, asserting that
        no row is factored again."""
        def factor_again(*args):
            raise AssertionError("a kept row was factored again")

        with monkeypatch.context() as patch:
            patch.setattr(bloch, "factor_pencil", factor_again)
            return bloch.steady_state_pencil(b0, h, e, shifts)

    def test_hit_is_bit_identical_to_miss(self, fast_params, monkeypatch):
        b0, h, e = bloch.drift_pencil(fast_params(p=0.5), [3.0, -40.0])
        bloch._PENCILS.clear()
        miss = bloch.steady_state_pencil(b0, h, e, [0.0])
        assert same_bytes(self.hit(monkeypatch, b0.copy(), h.copy(), e.copy(), [0.0]), miss)
        # a row of the stack hits alone, and rows in another order
        assert same_bytes(self.hit(monkeypatch, b0[1:], h[1:], e, [0.0]).take(0), miss.take(1))
        swapped = self.hit(monkeypatch, b0[::-1], h[::-1], e, [0.0])
        assert same_bytes(swapped.take(0), miss.take(1)) and same_bytes(swapped.take(1), miss.take(0))
        bloch._PENCILS.clear()
        assert same_bytes(bloch.steady_state_pencil(b0, h, e, [0.0]), miss)

    def test_stack_factors_only_its_missed_rows(self, fast_params, monkeypatch):
        # one row kept from before, and a missed row repeated in the stack
        b0, h, e = bloch.drift_pencil(fast_params(p=0.5), [-5.0, 0.0, 5.0, 0.0, 5.0])
        bloch._PENCILS.clear()
        alone = bloch.steady_state_pencil(b0[1:2], h[1:2], e, [0.0])
        factored, factor = [], bloch.factor_pencil
        monkeypatch.setattr(bloch, "factor_pencil",
                            lambda a, b: factored.append(len(a)) or factor(a, b))
        stack = bloch.steady_state_pencil(b0, h, e, [0.0])
        assert factored == [3]
        assert same_bytes(stack.take(1), alone.take(0)) and same_bytes(stack.take(3), alone.take(0))
        assert same_bytes(stack.take(2), stack.take(4))
        assert same_bytes(self.hit(monkeypatch, b0[4:], h[4:], e, [0.0]), stack.take(slice(4, 5)))

    def test_memo_keeps_the_last_rows(self, fast_params, monkeypatch):
        b0, h, e = bloch.drift_pencil(fast_params(), np.linspace(-50.0, 50.0, 12))
        bloch._PENCILS.clear()
        bloch.steady_state_pencil(b0, h, e, [0.0])
        assert len(bloch._PENCILS) == bloch.PENCIL_MEMO_SIZE
        self.hit(monkeypatch, b0[-bloch.PENCIL_MEMO_SIZE:], h[-bloch.PENCIL_MEMO_SIZE:], e, [0.0])

    def test_cached_arrays_are_read_only(self, fast_params):
        bloch._PENCILS.clear()
        bloch.steady_state_pencil(*bloch.drift_pencil(fast_params(), [0.0, 1.0]), [0.0])
        assert len(bloch._PENCILS) == 2
        for stack, _ in bloch._PENCILS.values():
            pencil = stack.take(0)
            v, left, theta, _ = pencil.resolvent
            for array in (pencil.points, pencil.states, v, left, theta):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0

    def test_cached_pencil_checks_the_condition_bound(self, fast_params, monkeypatch):
        pencil = bloch.drift_pencil(fast_params(), [0.0])
        bloch.steady_state_pencil(*pencil, [0.0])
        monkeypatch.setattr(numerics, "MAX_EIGENVECTOR_CONDITION", 0.5)
        with pytest.raises(ResonanceError, match="condition number"):
            self.hit(monkeypatch, *pencil, [0.0])

    def test_cached_pencil_checks_its_shifts(self, monkeypatch):
        # B0 = -c, diag(e) = 1: theta = -1/c on every component, a pole at s = -c
        b0 = -np.array([1.0, 2.0])[:, None, None] * np.eye(8, dtype=complex)
        h, e = np.ones((2, 8), dtype=complex), np.ones(8, dtype=complex)
        bloch.steady_state_pencil(b0, h, e, [0.0, 3.0])
        for rows, shifts in ((slice(0, 1), [0.0, -1.0]), (slice(0, 2), [0.0, -2.0])):
            with pytest.raises(NoSteadyStateError, match="pole"):
                self.hit(monkeypatch, b0[rows], h[rows], e, shifts)


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
            bound = bloch.drift_bound(params, b0, e, shifts)
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
        assert bloch.drift_bound(params, b0, e, shifts) == exact


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
            bloch._PENCILS.clear()
            absorption.append(bloch.absorption_exact(base, delta1))
            bloch._PENCILS.clear()
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
            bloch._PENCILS.clear()
            stacked = bloch.absorption_rows(base, grid[pick])
            assert stacked.dtype == absorption.dtype
            assert stacked.tobytes() == absorption[pick].tobytes()
            bloch._PENCILS.clear()
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
