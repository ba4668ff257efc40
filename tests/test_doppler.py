import itertools

import numpy as np
import pytest

from laddertangle import bloch, doppler, fluctuations
from laddertangle.doppler import maxwellian_rule
from laddertangle.errors import ContractError, ParameterError
from laddertangle.experiments import all_scenarios, baseline_params
from laddertangle.model import DopplerConfig


def make_params(**doppler_kwargs):
    doppler_kwargs.setdefault("width", 530.0)
    doppler_kwargs.setdefault("nodes", 201)
    doppler_kwargs.setdefault("rule", "trapezoid")
    return baseline_params(doppler=DopplerConfig(**doppler_kwargs))


def hermite(nodes, width):
    return maxwellian_rule(DopplerConfig(width=width, nodes=nodes, rule="hermite"))


def trapezoid(nodes, width, span=3.0):
    return maxwellian_rule(DopplerConfig(width=width, nodes=nodes, rule="trapezoid", span=span))


class TestGaussHermite:
    def test_normalization(self):
        _, weights = hermite(64, 530.0)
        assert abs(np.sum(weights) - 1.0) < 1e-12

    def test_second_moment(self):
        nodes, weights = hermite(32, 1.0)
        assert abs(np.sum(weights * nodes**2) - 0.5) < 1e-12

    def test_nodes_symmetric(self):
        nodes, _ = hermite(33, 2.0)
        assert np.allclose(np.sort(nodes), -np.sort(-nodes)[::-1])

    def test_order_cap(self):
        with pytest.raises(ParameterError):
            DopplerConfig(nodes=513, rule="hermite")
        with pytest.raises(ParameterError):
            DopplerConfig(nodes=0, rule="hermite")

    @pytest.mark.parametrize("n", [1, 64, 128])
    def test_cached_rule_is_bitwise_the_direct_one(self, n):
        # built once per config, read-only, and the same bytes
        x, w = np.polynomial.hermite.hermgauss(n)
        w = w / np.sqrt(np.pi)
        for mu in (530.0, 2.0, 530.0):
            nodes, weights = hermite(n, mu)
            assert np.array_equal(nodes, mu * x)
            assert np.array_equal(weights, w / w.sum())
            assert not nodes.flags.writeable and not weights.flags.writeable
            assert hermite(n, mu)[0] is nodes

    def test_lorentzian_vs_trapezoid(self):
        # broad Lorentzian is smooth on the Gaussian scale, so 128 nodes suffice
        mu = 1.0
        nodes, weights = hermite(128, mu)

        def f(v):
            return 50.0**2 / (50.0**2 + (v - 0.3) ** 2)

        gh = np.sum(weights * f(nodes))
        v = np.linspace(-6 * mu, 6 * mu, 200001)
        w = np.exp(-(v / mu) ** 2)
        dense = np.trapezoid(w * f(v), v) / np.trapezoid(w, v)
        assert abs(gh - dense) < 1e-8


class TestGaussianTrapezoid:
    def test_normalization(self):
        _, weights = trapezoid(401, 530.0)
        assert abs(np.sum(weights) - 1.0) < 1e-12

    def test_matches_hermite_on_polynomial(self):
        trap_nodes, trap_weights = trapezoid(4001, 1.0, span=6.0)
        gh_nodes, gh_weights = hermite(16, 1.0)
        for f in (lambda v: v**2, lambda v: v**4 - v):
            a = np.sum(trap_weights * f(trap_nodes))
            b = np.sum(gh_weights * f(gh_nodes))
            assert abs(a - b) < 1e-6

    @pytest.mark.parametrize("n, mu, span", [(2561, 530.0, 3.0), (401, 2.0, 5.0)])
    def test_cached_rule_is_bitwise_the_direct_one(self, n, mu, span):
        # built once per config, read-only, and the same bytes
        nodes = np.linspace(-span * mu, span * mu, n)
        w = np.exp(-((nodes / mu) ** 2))
        w[[0, -1]] *= 0.5
        for _ in range(2):
            got_nodes, got_weights = trapezoid(n, mu, span)
            assert np.array_equal(got_nodes, nodes)
            assert np.array_equal(got_weights, w / w.sum())
            assert not got_nodes.flags.writeable and not got_weights.flags.writeable
        assert trapezoid(n, mu, span)[0] is got_nodes


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


def moment_oracle(classes, points, ids):
    """<prod_j 1/(1 - s t_j)> and <prod_j |1/(1 - s t_j)|>, summed node by
    node in extended precision."""
    s = classes.shifts.astype(np.longdouble)[:, None, None]
    r = 1.0 / (1.0 - s * np.asarray(points).astype(np.clongdouble)[ids])
    w = classes.weights.astype(np.longdouble)[:, None]
    return ((w * r.prod(axis=-1)).sum(axis=0).astype(complex),
            (w * np.abs(r.prod(axis=-1))).sum(axis=0).astype(float))


def random_points(rng):
    """Random pencil-like points with their conjugates, 0, an exact repeat
    and near repeats down to 1e-12 relative; two lie 1e-4 of their modulus
    off the real axis, next to a pole of the rule."""
    base = (rng.uniform(-1.0, 1.0, 4) + 1j * rng.uniform(0.1, 1.0, 4)) * 10.0 ** rng.uniform(-4, 0, 4)
    base[:2] = 1.0 / rng.uniform(100.0, 1000.0, 2) * (1.0 + 1e-4j)
    near = base[[0, 1, 2, 3, 3]] * (1.0 + np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.05]) * (1 + 1j))
    return np.concatenate([base, base.conj(), [0.0, base[2]], near])


# a chain whose neighbours are close and whose ends are not, and three
# distinct mutually close points, each taken in every triple
CLOSE_SETS = [(0.002 + 0.004j) * (1.0 + np.arange(4) * 0.06 * np.exp(0.7j)),
              (0.002 + 0.004j) * (1.0 + np.array([0.0, 1e-7, 1e-7j]))]


class TestFactorMoments:
    @pytest.mark.parametrize("rule", [dict(nodes=401), dict(nodes=128, rule="hermite"),
                                      dict(width=0.0, nodes=1)])
    def test_match_direct_node_sums(self, rng, rule):
        classes = doppler.build_classes(make_params(**rule), 0.0, 0.0)
        random_sets = ((points, rng.integers(0, len(points), (400, 3)))
                       for points in (random_points(rng) for _ in range(3)))
        close_sets = ((points, np.array(list(itertools.product(range(len(points)), repeat=3))))
                      for points in CLOSE_SETS)
        for points, ids in itertools.chain(random_sets, close_sets):
            got, _ = doppler.factor_moments(classes, points, ids)
            want, scale = moment_oracle(classes, points, ids)
            # next to a pole the divided differences lose up to 4e-12 (the
            # worst of 40 seeds); without the Taylor series about close
            # points the error reaches 1e6 times the scale
            assert np.all(np.abs(got - want) <= 1e-11 * scale)

    def test_repeated_and_zero_points(self):
        # <r^3>, <r^2 conj r>, <r> and <1> on a single point and its conjugate
        classes = doppler.build_classes(make_params(nodes=401), 0.0, 0.0)
        points = np.array([0.0, 0.004 + 0.001j, 0.004 - 0.001j])
        ids = np.array([[1, 1, 1], [1, 2, 1], [0, 1, 0], [0, 0, 0], [2, 0, 2]])
        want, scale = moment_oracle(classes, points, ids)
        got, _ = doppler.factor_moments(classes, points, ids)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        assert got[3] == 1.0

    def test_stack_gives_the_bytes_of_its_rows_alone(self, rng):
        # rows whose points repeat alike run as one stack, the others apart;
        # one row has an extra exact repeat, and every row has close points
        classes = doppler.build_classes(make_params(nodes=401), 0.0, 0.0)
        stack = np.array([random_points(rng) for _ in range(5)])
        stack[3, 5] = stack[3, 0]
        ids = rng.integers(0, stack.shape[1], (400, 3))
        got, series = doppler.factor_moments(classes, stack, ids)
        assert got.shape == (5, 400)
        for row, row_series, points in zip(got, series, stack):
            alone, alone_series = doppler.factor_moments(classes, points, ids)
            assert np.array_equal(row, alone) and np.array_equal(row_series, alone_series)

    def test_any_order_of_a_triples_points_gives_the_same_bytes(self, rng):
        # each triple is averaged as the multiset of its points
        classes = doppler.build_classes(make_params(nodes=401), 0.0, 0.0)
        for points in (random_points(rng), *CLOSE_SETS):
            ids = rng.integers(0, len(points), (300, 3))
            want, series = doppler.factor_moments(classes, points, ids)
            for order in itertools.permutations(range(3)):
                got, got_series = doppler.factor_moments(classes, points, ids[:, order])
                assert got.tobytes() == want.tobytes()
                assert got_series.tobytes() == series.tobytes()

    def test_one_pattern_with_other_triples_takes_its_own_table(self, rng):
        # the multiset table is keyed on the triples as well as on the
        # points' equality pattern: two arrays of triples of one length over
        # the same points each build their own, and give their own bytes
        classes = doppler.build_classes(make_params(nodes=401), 0.0, 0.0)
        points = random_points(rng)
        ids = [rng.integers(0, len(points), (300, 3)) for _ in range(2)]
        doppler._multisets.cache_clear()
        got = [doppler.factor_moments(classes, points, each)[0] for each in ids * 2]
        assert doppler._multisets.cache_info()[:2] == (2, 2)     # hits, misses
        for each, value in zip(ids * 2, got):
            doppler._multisets.cache_clear()
            assert doppler.factor_moments(classes, points, each)[0].tobytes() == value.tobytes()

    def test_pole_distance_is_the_nearest_node_pole(self, rng):
        classes = doppler.build_classes(make_params(nodes=401), 0.0, 0.0)
        points = np.concatenate([random_points(rng), [0.0, 1e-3j, -2e-2 + 1e-9j]])
        with np.errstate(divide="ignore"):
            poles = 1.0 / classes.shifts
        want = np.min(np.abs(points[:, None] - poles), axis=1)
        assert np.allclose(doppler.pole_distance(classes, points), want, rtol=1e-12)


class TestResolventSeries:
    def test_zero_is_one_and_pairs_evaluated_once(self, monkeypatch):
        # a fig2-a row at w = 0: neither the absorption nor the elimination
        # evaluates g at 0 or at both members of a conjugate pair; a stack
        # of rows evaluates each row's points alone, in one call per row
        params = all_scenarios()["fig2-a"].base
        taylor, evaluated = doppler.resolvent_taylor, []

        def recording(classes, points, order):
            evaluated.append(np.array(points))
            return taylor(classes, points, order)

        monkeypatch.setattr(doppler, "resolvent_taylor", recording)
        stack = [-35.0, 0.0, 0.5, 200.0]
        for run, rows in ((lambda: bloch.absorption_exact(params, 0.0), 1),
                          (lambda: fluctuations.field_system_at(params, 0.0), None),
                          (lambda: bloch.absorption_rows(params, stack), len(stack))):
            evaluated.clear()
            run()
            if rows is not None:
                assert len(evaluated) == rows
            for points in evaluated if rows else [np.concatenate(evaluated)]:
                assert len(points) and np.all(points != 0.0)
                assert not np.isin(points[points.imag != 0.0].conj(), points).any()
        # every pencil point's <r> is the exact conjugate of its partner's
        classes = doppler.build_classes(params, 0.0, params.field.delta2)
        pencils = bloch.steady_state_pencil(*bloch.drift_pencil(params, stack), classes.shifts)
        for points, own in zip(pencils.points, evaluated):
            partner = np.argmax(points.conj()[:, None] == points, axis=1)
            assert np.array_equal(points[partner], points.conj())
            assert np.any(points.imag != 0.0)
            assert np.array_equal(own, points[(points != 0.0) & (points.imag >= 0.0)])
            r = doppler.resolvent_series(classes, points, 0)[0]
            assert np.array_equal(r[partner], r.conj())
            assert np.all(r[points == 0.0] == 1.0)

    def test_order_zero_has_the_bytes_of_the_point_alone(self, rng):
        # g(t) of a point does not depend on the points, the rows or the
        # orders it is evaluated with: the absorption reads it from either
        # the absorption rows or the V12 rows' moments
        params = all_scenarios()["fig2-a"].base
        classes = doppler.build_classes(params, 0.0, params.field.delta2)
        pencils = bloch.steady_state_pencil(*bloch.drift_pencil(params, [-35.0, 0.5, 200.0]),
                                            classes.shifts)
        stack = np.concatenate([pencils.points, [random_points(rng)[:9] for _ in range(3)]])
        orders = rng.integers(0, 9, stack.shape)
        together = doppler.resolvent_series(classes, stack, orders)[0]
        for t, g in zip(stack.ravel().tolist(), together.ravel().tolist()):
            assert doppler.resolvent_series(classes, [t], 0)[0, 0] == g
