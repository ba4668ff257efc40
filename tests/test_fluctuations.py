import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (package_env, pencil_class_states, per_class_field_system,
                      steady_state_errors, symmetrized_diffusion_min_eig)
from laddertangle import bloch, cli, doppler, fluctuations as fl, numerics
from laddertangle.bloch import PROD
from laddertangle.doppler import build_classes
from laddertangle.errors import (ContractError, DivergenceError, NoSteadyStateError,
                                 ResonanceError)
from laddertangle.experiments import all_scenarios, baseline_params, pump_sweep_transform
from laddertangle.model import (C_M_MHZ, CoherenceRates, DecayConfig, DopplerConfig,
                                FieldConfig, GeometryConfig, SystemParams, params_to_config)


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

    def test_runaway_gain_and_non_finite_entries_diverge(self):
        # one bound on |Sigma_out| catches a covariance above 1e12 and a NaN
        # entry alike
        gain = 0.8 * np.eye(4, dtype=complex)
        with pytest.raises(DivergenceError, match="diverged"):
            fl.propagate(gain, np.zeros((4, 4)), 40.0, fl.vacuum_covariance())
        for bad in (np.nan, complex(0.0, np.nan)):
            sigma = fl.vacuum_covariance()
            sigma[1, 2] = bad
            with pytest.raises(DivergenceError, match="diverged"):
                fl.propagate(-gain, np.zeros((4, 4)), 1.0, sigma)


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
    gdec = bloch.decay_generator(params.decay, params.rates)
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


def steady_state_covariance(m):
    """Cov_ab = <sigma_a sigma_b+> - <sigma_a><sigma_b>^* over the reduced
    components, from the product table applied to the steady state m."""
    second = np.zeros((9, 9), dtype=complex)  # <sigma_a sigma_b>
    for a in range(9):
        for c in range(9):
            k = PROD[a, c]
            if k >= 0:
                second[a, c] = m[k]
    m8 = m[1:]
    return second[1:, 1:][:, list(fl.REDUCED_CONJ)] - np.outer(m8, np.conj(m8))


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
        assert diag == pytest.approx(-(params.rates.gamma12 + 1j * 5.0))


class TestEinsteinDiffusion:
    def test_ground_state_single_block(self):
        params = stationary(alpha1=0.0, alpha2=0.0, p=0.0)
        _, _, _, corr = class_kernels(params, 0.0, 0.0)
        r21, r12 = fl.RIDX[2, 1], fl.RIDX[1, 2]
        r31, r13 = fl.RIDX[3, 1], fl.RIDX[1, 3]
        # vacuum noise on the two coherences anchored to the populated
        # ground state: <F21 F12> = 2 gamma12, <F31 F13> = 2 gamma13
        assert corr[r21, r12] == pytest.approx(2.0 * params.rates.gamma12)
        assert corr[r31, r13] == pytest.approx(2.0 * params.rates.gamma13)
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
        cov = steady_state_covariance(m)
        noise = corr[:, list(fl.REDUCED_CONJ)]
        residual = b @ cov + cov @ b.conj().T + noise
        assert np.max(np.abs(residual)) < 1e-12

    @pytest.mark.parametrize("d1,p,omega", [(0.0, 0.5, 1.0), (2.0, 0.5, 3.0),
                                            (-7.0, 6.0, 30.0)])
    def test_regression_theorem_at_nonzero_frequency(self, d1, p, omega):
        # with G = (-i w - B)^-1 the identity above gives
        # G <F F+> G+ = G Cov + Cov G+ at every w (quantum regression
        # theorem), so the noise density of one class follows from its
        # covariance alone, without the diffusion map
        params = stationary(p=p)
        m, b, _, _ = class_kernels(params, d1, 0.0)
        cov = steady_state_covariance(m)
        g = np.linalg.inv(-1j * omega * np.eye(8) - b)
        kp = fl._source_projection(params)
        want = (params.geometry.N / C_M_MHZ) * kp @ (g @ cov + cov @ g.conj().T) @ kp.conj().T
        _, s, _, _ = fl.field_system_at(params, d1, omega)
        assert rel_err(s, want) < 1e-12


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

    def test_singular_resolvent_raises(self, fast_params, monkeypatch):
        # B0 = -i w on rho21 makes B0 + i w, and so the resolvent (-i w - B)
        # of the stationary class, singular while the steady-state pencil
        # is not; +i w on its partner rho12 keeps B0 Hermiticity-preserving
        omega = 3.0
        b0 = np.diag([-1.0, -1.0, -1j * omega, 1j * omega, -1.0, -1.0, -1.0, -1.0])
        monkeypatch.setattr(fl, "drift_pencil",
                            lambda params, delta1s: (b0[None], np.ones((1, 8)), np.ones(8)))
        with pytest.raises(ResonanceError, match=f"singular atomic resolvent at omega={omega}"):
            fl.field_system_at(fast_params(), 0.0, omega)

    @pytest.mark.parametrize("omega,per_row", [(0.0, 1), (3.0, 2)])
    def test_zero_frequency_reuses_steady_state_factorization(self, omega, per_row,
                                                              fast_params, monkeypatch):
        # at w = 0 the resolvent is the steady-state pencil itself, so a
        # row factors it once; any other w factors B0 + i w once more.  At
        # jobs=1 the sweep runs its 3 rows as one chunk, factored as one stack
        calls = []
        factor = numerics.factor_pencil

        def counting(*args):
            calls.append(args)
            return factor(*args)

        monkeypatch.setattr(bloch, "factor_pencil", counting)
        monkeypatch.setattr(fl, "factor_pencil", counting)
        fl.v12_spectrum(fast_params(p=0.5), [-10.0, 0.0, 10.0], omega=omega, collect=True)
        assert len(calls) == per_row
        assert [len(a) for a, _ in calls] == [3] * per_row

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
        for delta1 in (params.field.delta1, 35.0, 200.0):
            m, s, absorption, report = fl.field_system_at(params, delta1, omega, collect=True)
            m_ref, s_ref, abs_ref = per_class_field_system(params, delta1, omega)
            assert rel_err(m, m_ref) <= 1e-10
            assert rel_err(s, s_ref) <= 1e-10
            assert abs(absorption - abs_ref) <= 1e-10 * abs(abs_ref)
            assert bloch.absorption_exact(params, delta1) == absorption
            assert 1.0 <= report.eigenvector_condition < 1e3

    @pytest.mark.parametrize("omega", [1e-12, 1e-9, 1e-6, 1e-3, 0.05, 3.0])
    @pytest.mark.parametrize("case", ["fig2-a", "fig4-c", "fig3-p0-alpha2-1"])
    def test_matches_per_class_oracle_at_small_frequency(self, case, omega):
        # as w -> 0 the resolvent's poles approach the steady state's, and
        # the moments must not divide by their vanishing gaps
        params = ORACLE_CASES[case]
        for delta1 in (0.0, 35.0, 200.0):
            m, s, absorption, _ = fl.field_system_at(params, delta1, omega)
            m_ref, s_ref, abs_ref = per_class_field_system(params, delta1, omega)
            assert rel_err(m, m_ref) <= 1e-10
            assert rel_err(s, s_ref) <= 1e-10
            assert abs(absorption - abs_ref) <= 1e-10 * abs(abs_ref)

    @pytest.mark.parametrize("omega", [0.0, 3.0])
    def test_no_class_steady_states_built(self, fast_params, monkeypatch, tmp_path, omega):
        # the collected diagnostics come from the pencil too, so neither a
        # sweep, collected or not, nor 'laddertangle run' builds per-class states
        def per_class(*args):
            raise AssertionError("per-class steady states built")

        monkeypatch.setattr(bloch, "steady_state_batch", per_class)
        fl.v12_spectrum(fast_params(p=0.5), [-10.0, 0.0], omega=omega)
        fl.v12_spectrum(fast_params(p=0.5), [0.0], omega=omega, collect=True)
        config = tmp_path / "params.json"
        config.write_text(json.dumps(params_to_config(fast_params(p=0.5))), encoding="utf-8")
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                         "--jobs", "1", "--omega", str(omega), "--delta1-min", "-10",
                         "--delta1-max", "10", "--delta1-points", "2"]) == 0

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


class TestPencilPhysicality:
    @pytest.mark.parametrize("omega", [0.0, 3.0])
    @pytest.mark.parametrize("case", ["fig2-a", "fig4-a", "fig4-c", "fig3-p0-alpha2-1",
                                      "fig3-p0-alpha2-150", "fig3-p20-alpha2-1",
                                      "fig3-p20-alpha2-150"])
    def test_matches_per_class_oracle(self, case, omega):
        # the collected errors, read from the pencil, against the per-class
        # states; the drift certificate against B0's own
        params = ORACLE_CASES[case]
        for delta1 in (params.field.delta1, 35.0, 200.0):
            report = fl.field_system_at(params, delta1, omega, collect=True)[3]
            classes = build_classes(params, delta1, params.field.delta2)
            b0, h, e = bloch.drift_pencil(params, [delta1])
            pencil = bloch.steady_state_pencil(b0, h, e, classes.shifts).take(0)
            states = pencil_class_states(pencil, classes.shifts)
            got = (report.trace_error, report.hermiticity_error, report.population_error)
            assert np.max(np.abs(np.subtract(got, steady_state_errors(states)))) <= 1e-15
            pops = bloch._pencil_check(pencil, classes.shifts)[2]
            assert np.max(np.abs(pops - states[:, list(bloch.POPULATIONS)].real.T)) <= 1e-15
            assert report.max_drift_eigenvalue == pytest.approx(bloch.metric_log_norm(b0[0]),
                                                                rel=1e-13)


def stacked_chunks():
    """Chunks of V12 rows (params, delta1, omega, scale, collect) that the
    sweep runs as stacks: fig2-a over +-800 MHz (line centre takes one more
    doubling step than its neighbours, and takes no Taylor series where
    they do), fig4-a, fig4-c around its relocated feature at 200 MHz, a
    sideband at omega = 50, fig3 rows of both p, each with its own
    parameter set, and the same rows as the pump sweep runs them: the
    alpha2 = 50 row of each p at the scale alpha2 / 50, one stack per p,
    at omega = 0 and at omega = 50 (omega / c per row)."""
    scenarios = all_scenarios()

    def rows(name, delta1s, omega=0.0):
        return [(scenarios[name].base, float(d), omega, 1.0, True) for d in delta1s]

    base = scenarios["fig3"].base
    bases = [pump_sweep_transform(replace(base, decay=replace(base.decay, p=p)), 50.0)
             for p in (0.0, 20.0)]
    return {"fig2-a": rows("fig2-a", np.linspace(-800.0, 800.0, 17)),
            "fig4-a": rows("fig4-a", np.linspace(-800.0, 800.0, 9)),
            "fig4-c": rows("fig4-c", [150.0, 190.0, 199.5, 200.0, 200.5, 210.0, 260.0]),
            "omega-50": rows("fig2-a", [-4.0, -0.5, 0.0, 0.25, 4.0, 200.0], omega=50.0),
            "fig3": [(pump_sweep_transform(replace(base, decay=replace(base.decay, p=p)), alpha2),
                      0.0, 0.0, 1.0, True) for alpha2 in (1.0, 6.0, 50.0, 150.0)
                     for p in (0.0, 20.0)],
            "fig3-scaled": [(params, 0.0, 0.0, alpha2 / 50.0, True) for params in bases
                            for alpha2 in (1.0, 6.0, 50.0, 150.0)],
            "fig3-scaled-omega-50": [(params, 0.0, 50.0 / (alpha2 / 50.0), alpha2 / 50.0, True)
                                     for params in bases for alpha2 in (1.0, 6.0, 50.0, 150.0)]}


STACKED_CHUNKS = stacked_chunks()


def stack_of_one_pole(monkeypatch, bad_delta1, bad_b0):
    """Replace the drift pencil of every row by -4 I, and that of the row
    at bad_delta1 by bad_b0, with h = 1 and diag(e) = I."""
    def pencil(params, delta1s):
        b0 = np.array([bad_b0 if d == bad_delta1 else -4.0 * np.eye(8) for d in delta1s],
                      dtype=complex)
        return b0, np.ones((len(delta1s), 8), dtype=complex), np.ones(8, dtype=complex)

    monkeypatch.setattr(fl, "drift_pencil", pencil)


# five classes at shifts -2, -1, 0, 1, 2: B0 = -I, diag(e) = I has its pole at s = -1
POLE_DOPPLER = DopplerConfig(width=2.0, nodes=5, rule="trapezoid", span=1.0)


class TestStackedRows:
    @pytest.mark.parametrize("chunk", sorted(STACKED_CHUNKS))
    def test_chunk_gives_the_bytes_of_its_rows_alone(self, chunk):
        rows = STACKED_CHUNKS[chunk]
        stacked = fl._spectrum_rows(rows)
        alone = [fl._spectrum_rows([row])[0] for row in rows]
        for column in range(4):     # v12, du2, dv2, absorption
            assert np.array_equal([r[column] for r in stacked], [r[column] for r in alone])
        for got, want in zip(stacked, alone):
            assert got[4] == want[4]    # every report field

    @pytest.mark.parametrize("chunk", ["fig2-a", "fig4-a", "fig4-c", "omega-50"])
    def test_stacked_field_system_is_the_one_row_field_system(self, chunk):
        (params, _, omega, _, _), *_ = rows = STACKED_CHUNKS[chunk]
        m, s, absorption, reports = fl._field_rows(params, [row[1] for row in rows],
                                                   [omega] * len(rows), [1.0] * len(rows), True)
        for r, (_, delta1, _, _, _) in enumerate(rows):
            m_r, s_r, absorption_r, report_r = fl.field_system_at(params, delta1, omega, True)
            assert np.array_equal(m[r], m_r) and np.array_equal(s[r], s_r)
            assert absorption[r] == absorption_r and reports[r] == report_r

    def test_repeated_detunings_are_factored_once(self, monkeypatch):
        # a stack that repeats detunings, at several scales, builds and
        # factors each distinct detuning's pencil once, and every row has
        # the bytes of its row alone
        params = STACKED_CHUNKS["fig3-scaled"][0][0]
        delta1s, scales = [0.0, 5.0, 0.0, 5.0, 0.0], [0.02, 1.0, 1.0, 3.0, 3.0]
        built, factored = [], []
        drift_pencil, factor = fl.drift_pencil, bloch.factor_pencil
        monkeypatch.setattr(fl, "drift_pencil",
                            lambda params, d: built.append(list(d)) or drift_pencil(params, d))
        monkeypatch.setattr(bloch, "factor_pencil",
                            lambda a, b: factored.append(len(a)) or factor(a, b))
        m, s, absorption, reports = fl._field_rows(params, delta1s, [0.0] * 5, scales, True)
        assert built == [[0.0, 5.0]] and factored == [2]
        for r, (delta1, c) in enumerate(zip(delta1s, scales)):
            m_r, s_r, absorption_r, (report_r,) = fl._field_rows(params, [delta1], [0.0], [c],
                                                                 True)
            assert m[r].tobytes() == m_r[0].tobytes() and s[r].tobytes() == s_r[0].tobytes()
            assert absorption[r] == absorption_r[0] and reports[r] == report_r

    def test_stacks_split_where_omega_turns_zero(self, monkeypatch):
        # contiguous rows of one parameter set stack whatever their omegas,
        # but rows at omega = 0 never share a stack with rows at omega != 0
        stacks, field_rows = [], fl._field_rows
        monkeypatch.setattr(fl, "_field_rows", lambda params, delta1s, omegas, scales, collect:
                            stacks.append(omegas) or field_rows(params, delta1s, omegas, scales,
                                                                collect))
        params = all_scenarios()["fig2-a"].base
        fl._spectrum_rows([(params, 0.0, omega, 1.0, False)
                           for omega in (0.0, 0.0, 3.0, 50.0, -50.0, 0.0)])
        assert stacks == [(0.0, 0.0), (3.0, 50.0, -50.0), (0.0,)]

    def test_fig2a_chunk_mixes_doubling_counts_and_taylor_branches(self, monkeypatch):
        # the chunk above covers both kinds of row: propagation groups its
        # rows by doubling count, and factor_moments expands some rows'
        # close points in a Taylor series (a resolvent order above 2)
        doubled, taylor, steps, orders = numerics._doubled, doppler.resolvent_taylor, [], []
        monkeypatch.setattr(numerics, "_doubled",
                            lambda f, k: steps.append((len(f), k)) or doubled(f, k))
        monkeypatch.setattr(doppler, "resolvent_taylor",
                            lambda c, t, order: orders.append(order) or taylor(c, t, order))
        rows = STACKED_CHUNKS["fig2-a"]
        fl._spectrum_rows(rows)
        assert len(steps) == 2 and sum(n for n, _ in steps) == len(rows)
        assert max(orders) > 2 and len(orders) < 3 * len(rows)

    def test_class_sums_taken_per_row(self, monkeypatch):
        # no (rows x points, classes) temporary: every resolvent_taylor call
        # gets points of one row of the stack the series was asked for
        series, taylor, stacks, calls = doppler.resolvent_series, doppler.resolvent_taylor, [], []

        def recording_series(classes, points, orders):
            stacks.append(np.atleast_2d(points))
            return series(classes, points, orders)

        monkeypatch.setattr(doppler, "resolvent_series", recording_series)
        monkeypatch.setattr(bloch, "resolvent_series", recording_series)
        monkeypatch.setattr(doppler, "resolvent_taylor",
                            lambda c, t, order: calls.append(np.array(t)) or taylor(c, t, order))
        for chunk in ("fig2-a", "omega-50"):
            fl._spectrum_rows(STACKED_CHUNKS[chunk])
        assert max(len(stack) for stack in stacks) > 1
        rows = [row for stack in stacks for row in stack]
        for points in calls:
            assert len(points) and any(np.isin(points, row).all() for row in rows)

    @pytest.mark.parametrize("omega, bad_b0, doppler_cfg, error, match", [
        (0.0, -np.eye(8), POLE_DOPPLER, NoSteadyStateError, "pole"),
        # shifts -2, -2/3, 2/3, 2 keep off the pole at -1
        (3.0, np.diag([-1.0, -1.0, -3j, 3j, -1.0, -1.0, -1.0, -1.0]),
         replace(POLE_DOPPLER, nodes=4), ResonanceError, "singular atomic resolvent at omega=3.0")])
    def test_bad_row_fails_in_a_chunk_as_alone(self, monkeypatch, omega, bad_b0, doppler_cfg,
                                               error, match):
        # a shift on a pole of the steady-state pencil, and B0 + i w singular
        stack_of_one_pole(monkeypatch, 0.0, bad_b0)
        params = baseline_params(doppler=doppler_cfg)
        failures = []
        for rows in ([0.0], [-1.0, 0.0, 1.0], [0.0, 2.0]):
            with pytest.raises(error, match=match) as caught:
                fl._spectrum_rows([(params, d, omega, 1.0, True) for d in rows])
            failures.append((type(caught.value), str(caught.value)))
        assert len(set(failures)) == 1
        fl._spectrum_rows([(params, 1.0, omega, 1.0, True)])     # the good rows alone pass

    def test_run_with_a_bad_row_exits_3(self, monkeypatch, tmp_path, capsys):
        stack_of_one_pole(monkeypatch, 0.0, -np.eye(8))
        config = tmp_path / "params.json"
        config.write_text(json.dumps(params_to_config(baseline_params(doppler=POLE_DOPPLER))),
                          encoding="utf-8")
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                         "--jobs", "1", "--delta1-min", "-2", "--delta1-max", "2",
                         "--delta1-points", "5"]) == 3
        assert "pole" in capsys.readouterr().err


class TestOneResolventPass:
    def test_each_multiset_of_points_averaged_once_in_one_series_call(self, monkeypatch):
        # a fig2-a row at omega = 0 has 7 distinct points (0 and the 6
        # nonzero theta), so its 648 elimination triples name 84 multisets;
        # the stack's moments and absorption take one resolvent_series call,
        # at omega = 50 too
        alike, series, triples, calls = doppler._alike_moments, doppler.resolvent_series, [], []
        monkeypatch.setattr(doppler, "_alike_moments", lambda classes, t, ids:
                            triples.append((len(t), len(ids[0]))) or alike(classes, t, ids))

        def recording_series(classes, points, orders):
            calls.append(np.shape(points))
            return series(classes, points, orders)

        monkeypatch.setattr(doppler, "resolvent_series", recording_series)
        monkeypatch.setattr(bloch, "resolvent_series", recording_series)
        for chunk, multisets in (("fig2-a", 84), ("omega-50", 343)):
            triples.clear()
            calls.clear()
            rows = STACKED_CHUNKS[chunk]
            fl._spectrum_rows(rows)
            assert triples == [(len(rows), multisets)]
            assert len(calls) == 1 and calls[0][0] == len(rows)
        assert len(fl._ELIMINATION_TRIPLES) == 648

    @pytest.mark.parametrize("chunk", ["fig2-a", "fig3-scaled"])
    def test_stacked_absorption_is_the_absorption_rows(self, chunk):
        # the V12 rows' absorption, from their moments' <r>, has the bytes
        # of absorption_rows, which evaluates <r> alone: at a row's scale c
        # both take the pencil's points divided by c
        rows = STACKED_CHUNKS[chunk]
        got = [row[3] for row in fl._spectrum_rows(rows)]
        want = []
        for params, group in itertools.groupby(rows, key=lambda row: row[0]):
            _, delta1s, _, scales, _ = zip(*group)
            classes = build_classes(params, 0.0, params.field.delta2)
            pencil = bloch.steady_state_pencil(*bloch.drift_pencil(params, delta1s),
                                               classes.shifts, scales=scales)
            part = bloch.averaged_absorption(
                params, pencil, doppler.resolvent_series(classes, pencil.points, 0)[0]).tolist()
            if set(scales) == {1.0}:
                assert bloch.absorption_rows(params, delta1s).tolist() == part
            want += part
        assert len(want) == len(rows) and got == want


# the read-only caches of structure that rows share: the multisets of an
# equality pattern and a set of triples, the real velocity diagonal, the
# reduced noise map, the relaxation matrix and the support of B
STRUCTURE_CACHES = (doppler._multisets, bloch._real_diagonal, fl._noise_map,
                    bloch.decay_generator, numerics._support)


def keyed_rows():
    """One-row V12 rows whose cache keys differ: fig2-a at p = 0, fig4-c,
    fig2-a without the residual mismatch (another velocity diagonal), a
    fig3 row as the pump sweep scales it, and fig2-a at omega = 50 (another
    equality pattern of the points)."""
    scenarios = all_scenarios()
    fig2a = scenarios["fig2-a"].base
    matched = replace(fig2a, doppler=replace(fig2a.doppler, residual_mismatch=False))
    return [(fig2a, 3.0, 0.0, 1.0, True), (scenarios["fig4-c"].base, 200.0, 0.0, 1.0, True),
            (matched, 3.0, 0.0, 1.0, True), STACKED_CHUNKS["fig3-scaled"][0],
            (fig2a, 0.5, 50.0, 1.0, True)]


class TestStructureCaches:
    def test_rows_alternating_over_keys_have_the_bytes_of_cleared_caches(self):
        rows = keyed_rows() * 2
        cached = [fl._spectrum_rows([row])[0] for row in rows]
        assert bloch._real_diagonal.cache_info().currsize >= 2
        assert doppler._multisets.cache_info().currsize >= 2
        for row, got in zip(rows, cached):
            for cache in STRUCTURE_CACHES:
                cache.cache_clear()
            want = fl._spectrum_rows([row])[0]
            assert np.array(got[:4]).tobytes() == np.array(want[:4]).tobytes()
            assert got[4] == want[4]

    def test_cached_structures_are_read_only_fresh_builds(self):
        params = all_scenarios()["fig2-a"].base
        _, _, e = bloch.drift_pencil(params, [3.0])
        noise = fl._noise_map(params.decay, params.rates)
        diagonal = bloch._real_diagonal(e.tobytes())
        pattern = np.array([0, 1, 1, 0], dtype=np.intp).tobytes()
        triples = np.array([[0, 1, 2], [3, 0, 1], [1, 1, 2]], dtype=np.intp).tobytes()
        table = doppler._multisets(pattern, triples)
        for cached, fresh in ((noise, fl._noise_map.__wrapped__(params.decay, params.rates)),
                              (diagonal, bloch._real_diagonal.__wrapped__(e.tobytes())),
                              *zip(table, doppler._multisets.__wrapped__(pattern, triples))):
            assert cached.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                cached.flat[0] = 0
        # points 0 and 3 are one value, and so are 1 and 2: the triples name
        # the multisets {0, 1, 1}, {0, 0, 1} and {1, 1, 1} of distinct points
        i, j, k, first, last, pairs, upper, distinct, at, gather = table
        assert (i.tolist(), j.tolist(), k.tolist()) == ([0, 0, 1], [0, 1, 1], [1, 1, 1])
        assert first.tolist() == [True, False, True] and last.tolist() == [False, True, True]
        assert distinct.tolist() == [0, 1] and at.tolist() == [0, 1, 1, 0]
        assert gather.tolist() == [1, 0, 2]

    def test_a_drift_diagonal_that_breaks_hermiticity_raises_on_every_call(self):
        # e_21 + 0.5 is no longer the conjugate of e_12; a raise is not
        # cached, so the second call checks again
        b0, h, e = bloch.drift_pencil(all_scenarios()["fig2-a"].base, [0.0])
        bad = e + 0.5 * np.eye(8)[fl.RIDX[2, 1]]
        bloch._real_diagonal.cache_clear()
        for calls in (1, 2):
            with pytest.raises(ContractError, match="diag\\(e\\) does not keep states Hermitian"):
                bloch.steady_state_pencil(b0, h, bad, [0.0])
            assert bloch._real_diagonal.cache_info().misses == calls

    @pytest.mark.parametrize("calls", [1, 16])
    def test_every_structure_built_once_per_sweep(self, calls):
        # a 16-row sweep, as one call or as 16 one-row calls, builds each
        # cached structure once; every row's bytes are its row alone
        # (TestStackedRows)
        params, grid = all_scenarios()["fig2-a"].base, np.linspace(-40.0, 40.0, 16)
        for cache in STRUCTURE_CACHES:
            cache.cache_clear()
        for part in np.split(grid, calls):
            fl.v12_spectrum(params, part)
        assert [cache.cache_info().misses for cache in STRUCTURE_CACHES] == [1, 1, 1, 1, 1]


def scaled(params: SystemParams, c: float) -> SystemParams:
    """params with every rate, Rabi frequency (through the amplitudes),
    detuning, the Doppler width and the density times c."""
    coherence = None if params.coherence is None else CoherenceRates(
        *(c * rate for rate in (params.coherence.gamma12, params.coherence.gamma13,
                                params.coherence.gamma23)))
    d, f = params.decay, params.field
    return replace(
        params, decay=DecayConfig(gamma1=c * d.gamma1, gamma2=c * d.gamma2, p=c * d.p),
        field=replace(f, alpha1=c * f.alpha1, alpha2=c * f.alpha2, delta1=c * f.delta1,
                      delta2=c * f.delta2),
        geometry=replace(params.geometry, n=c * params.geometry.n),
        doppler=replace(params.doppler, width=c * params.doppler.width), coherence=coherence)


class TestScalingSymmetry:
    def test_rows_invariant_under_frequency_scaling(self, rng):
        # every frequency scales the drift by c, and the density keeps the
        # gain N g^2 / rate, so the row (at omega times c) is unchanged
        for draw in range(12):
            params = SystemParams(
                decay=DecayConfig(gamma1=rng.uniform(0.5, 6.0), gamma2=rng.uniform(0.1, 2.0),
                                  p=rng.uniform(0.0, 10.0)),
                field=FieldConfig(alpha1=rng.uniform(0.5, 20.0), alpha2=rng.uniform(5.0, 80.0),
                                  delta2=rng.uniform(-100.0, 100.0)),
                doppler=DopplerConfig(width=rng.uniform(100.0, 600.0), nodes=201,
                                      rule="trapezoid"))
            if draw % 3 == 2:
                rates = params.rates
                params = replace(params, coherence=CoherenceRates(
                    rates.gamma12 + 1.0, rates.gamma13 + 2.0, rates.gamma23 + 0.5))
            delta1, omega = rng.uniform(-60.0, 60.0), rng.uniform(0.5, 20.0)
            c = rng.uniform(0.2, 5.0)
            for w in (0.0, omega):
                (v12, _, _, absorption, _), (v12_c, _, _, absorption_c, _) = fl._spectrum_rows(
                    [(params, delta1, w, 1.0, False),
                     (scaled(params, c), c * delta1, c * w, 1.0, False)])
                assert v12_c == pytest.approx(v12, rel=1e-12)
                assert absorption_c == pytest.approx(absorption, rel=1e-12)


class TestFieldCovariance:
    def test_decoupled_probe_stays_vacuum(self, fast_params):
        params = fast_params(alpha1=0.0)
        tab, _ = fl.v12_spectrum(params, [12.0])
        assert tab.v12[0] == pytest.approx(4.0, abs=1e-9)

    def test_sideband_entangled_row(self):
        # fig2-a at line centre gives V12 = 4.78 at w = 0 but is entangled
        # at w = 50 MHz (complex QZ path), converged: a 32769-node rule over
        # +-6 Doppler widths agrees to 1e-6
        params = all_scenarios()["fig2-a"].base
        v12 = fl.v12_spectrum(params, [0.0], omega=50.0)[0].v12[0]
        assert v12 == pytest.approx(3.895753, abs=1e-5)
        assert v12 < 4.0
        dense = replace(params, doppler=replace(params.doppler, nodes=32769, span=6.0))
        assert fl.v12_spectrum(dense, [0.0], omega=50.0)[0].v12[0] == pytest.approx(v12, abs=1e-6)

    @pytest.mark.parametrize("omega", [1e12, 1e14, 1e300])
    def test_far_sideband_is_vacuum(self, omega):
        # far off every atomic resonance the medium neither couples nor
        # adds noise; M leaves out the free-propagation phase, which would
        # otherwise swamp the atomic part of M at such frequencies
        params = all_scenarios()["fig2-a"].base
        assert fl.v12_spectrum(params, [1.0], omega=omega)[0].v12[0] == pytest.approx(4.0, abs=1e-9)

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

    def test_pool_sized_to_rows(self, fast_params, recording_pool, core_mask, eager_pool):
        # past the stack bound every row goes to the pool, so four rows make
        # four workers; one row runs here
        core_mask(8)
        params = fast_params(p=0.5)
        fl.v12_spectrum(params, [-10.0, 0.0, 10.0, 20.0], jobs=5)
        assert recording_pool == [(4, fl._set_blas_threads)]
        fl.v12_spectrum(params, [0.0], jobs=4)
        assert recording_pool == [(4, fl._set_blas_threads)]

    @pytest.mark.parametrize("cores", [2, 1, None])
    def test_pool_capped_at_the_core_count(self, fast_params, recording_pool, core_mask,
                                           eager_pool, cores):
        # the stand-in pool starts no process; an unknown core count is one,
        # and a single possible worker runs the rows here, without a pool
        core_mask(cores)
        fl.v12_spectrum(fast_params(p=0.5), [-10.0, 0.0, 10.0], jobs=5000)
        assert recording_pool == ([(2, fl._set_blas_threads)] if cores == 2 else [])

    def test_one_core_mask_runs_serially(self, fast_params, recording_pool, core_mask,
                                         monkeypatch, eager_pool):
        # taskset -c 0 on a 2-core host: the pool and the default --jobs
        # count the one core this process may run on, not the host's two
        monkeypatch.setattr(fl.os, "cpu_count", lambda: 2)
        monkeypatch.delenv("LADDERTANGLE_JOBS", raising=False)
        core_mask(1)
        fl.v12_spectrum(fast_params(p=0.5), [-10.0, 0.0, 10.0], jobs=2)
        assert recording_pool == []
        assert cli._default_jobs(None) == 1

    def test_short_sweep_runs_here(self, fast_params, recording_pool, core_mask):
        # two workers are possible, but a call within the stack bound runs
        # here as one stack
        core_mask(2)
        fl.v12_spectrum(fast_params(p=0.5), [-10.0, 0.0, 10.0], jobs=2)
        assert recording_pool == []

    @pytest.mark.parametrize("rows, jobs, cores, chunks", [
        (0, 2, 2, []), (1, 2, 2, [1]), (3, 2, 2, [3]), (64, 8, 8, [64]), (16, 1, 2, [16]),
        (65, 1, 2, [64, 1]), (801, 1, 2, [64] * 12 + [33]), (200, 4, 1, [64] * 3 + [8])])
    def test_rows_here_run_in_chunks_of_the_stack_bound(self, recording_pool, core_mask,
                                                         rows, jobs, cores, chunks):
        # a call within the bound is one chunk, and no rows make no chunk;
        # with one possible worker (jobs=1 or one core) a longer call runs
        # here in contiguous chunks of STACK_ROWS rows
        core_mask(cores)
        seen = []

        def record(chunk):
            seen.append(chunk)
            return [-k for k in chunk]

        assert fl.sweep_rows(record, list(range(rows)), jobs) == [-k for k in range(rows)]
        assert [len(chunk) for chunk in seen] == chunks
        assert sum(seen, []) == list(range(rows))
        assert recording_pool == []

    @pytest.mark.parametrize("rows, jobs, cores, workers, size", [
        (65, 4, 8, 4, 5), (200, 2, 2, 2, 25), (200, 8, 3, 3, 17), (801, 2, 2, 2, 64)])
    def test_long_sweep_goes_to_one_pool_in_contiguous_chunks(
            self, recording_pool, core_mask, rows, jobs, cores, workers, size):
        # past the stack bound every row runs in one pool of
        # min(jobs, cores, rows) workers, in chunks of
        # min(STACK_ROWS, ceil(rows / (4 workers))) rows, in order
        core_mask(cores)
        seen = []

        def record(chunk):
            seen.append((len(recording_pool), chunk))
            return [-k for k in chunk]

        assert fl.sweep_rows(record, list(range(rows)), jobs) == [-k for k in range(rows)]
        assert recording_pool == [(workers, fl._set_blas_threads)]
        assert seen == [(1, list(range(k, min(k + size, rows)))) for k in range(0, rows, size)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_stack_exceeds_the_bound(self, fast_params, recording_pool, core_mask,
                                        monkeypatch, jobs):
        # a spy on the V12 batch: 3 STACK_ROWS + 1 rows never reach it more
        # than STACK_ROWS at a time, here at jobs=1 or through the pool
        core_mask(2)
        sizes = []
        batch = fl._spectrum_rows

        def spy(chunk):
            sizes.append(len(chunk))
            return batch(chunk)

        monkeypatch.setattr(fl, "_spectrum_rows", spy)
        rows = 3 * fl.STACK_ROWS + 1
        fl.v12_spectrum(fast_params(p=0.5), np.linspace(-20.0, 20.0, rows), jobs=jobs)
        assert sum(sizes) == rows and max(sizes) <= fl.STACK_ROWS
        assert len(recording_pool) == jobs - 1

    def test_sweep_memory_does_not_grow_with_its_rows(self, fast_params, monkeypatch):
        # with stacks of 8, a 32-row sweep peaks near an 8-row one, where
        # one 32-row stack would hold about four times the memory
        monkeypatch.setattr(fl, "STACK_ROWS", 8)
        params = fast_params(p=0.5)
        fl.v12_spectrum(params, np.linspace(-20.0, 20.0, 8))   # fill the caches

        def peak(rows):
            tracemalloc.start()
            try:
                fl.v12_spectrum(params, np.linspace(-20.0, 20.0, rows))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(32) <= 1.5 * peak(8)

    def test_pool_sees_one_blas_thread_in_the_environment(self, recording_pool, core_mask,
                                                          eager_pool, monkeypatch):
        # the thread variables read 1 while the pool runs, and the caller's
        # values, or their absence, come back afterwards
        core_mask(2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

        def environment(chunk):
            return [tuple(os.environ.get(name) for name in names) for _ in chunk]

        rows = fl.sweep_rows(environment, [0, 1, 2], jobs=2)
        assert rows == [("1", "1", "1")] * 3
        assert environment([0]) == [("3", None, None)]


# Reads the thread count of every loaded OpenBLAS, independently of the
# program's own lookup.
_BLAS_COUNTS = """
import ctypes
import json
import os
from laddertangle import fluctuations as fl

real_cdll = ctypes.CDLL

def counts():
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                        if "openblas" in line})
    out = []
    for path in paths:
        lib = real_cdll(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                     "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, name, None)
            if getter is not None:
                out.append(getter())
                break
    return out
"""

# The counts before a serial sweep, inside its rows, after it, and after
# the pool-worker initializer; and the library loads of the program's
# lookup over two sweeps.
_BLAS_THREADS_SCRIPT = _BLAS_COUNTS + """
loads = []
def counting_cdll(path, *args, **kwargs):
    loads.append(path)
    return real_cdll(path, *args, **kwargs)

before = counts()
fl.ctypes.CDLL = counting_cdll
inside = fl.sweep_rows(lambda chunk: [counts() for _ in chunk], [0, 1], jobs=1)
fl.sweep_rows(lambda chunk: chunk, [0], jobs=1)
fl.ctypes.CDLL = real_cdll
after = counts()
fl._set_blas_threads()
print(json.dumps({"before": before, "inside": inside, "after": after,
                  "initialized": counts(), "loads": len(loads)}))
"""

# The counts before a pooled sweep at the start method argv[1], in its rows
# with the OS thread count and OPENBLAS_NUM_THREADS of the process that ran
# them, and after it; with stacks of one row the pool takes every row.  Spawned
# workers import it, so it runs from a file.
_POOL_THREADS_SCRIPT = _BLAS_COUNTS + """
import multiprocessing
import sys

def probe(chunk):
    return [(counts(), len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
            for _ in chunk]

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    fl.STACK_ROWS = 1
    before = counts()
    rows = fl.sweep_rows(probe, list(range(4)), jobs=2)
    print(json.dumps({"before": before, "rows": rows, "after": counts(),
                      "env": os.environ["OPENBLAS_NUM_THREADS"]}))
"""


def _blas_counts_run(script, directory, *args):
    # a fresh process, so this one keeps its BLAS setting
    path = directory / "blas_counts.py"
    path.write_text(script, encoding="utf-8")
    out = subprocess.run([sys.executable, str(path), *args],
                         env=package_env(OPENBLAS_NUM_THREADS="2"),
                         check=True, capture_output=True, text=True).stdout
    counts = json.loads(out)
    assert counts["before"] and set(counts["before"]) == {2}
    return counts


@pytest.fixture(scope="module")
def blas_threads(tmp_path_factory):
    if not Path("/proc/self/maps").exists():
        pytest.skip("needs a process memory map")
    return _blas_counts_run(_BLAS_THREADS_SCRIPT, tmp_path_factory.mktemp("blas"))


def test_serial_sweep_rows_run_on_one_blas_thread(blas_threads):
    n = len(blas_threads["before"])
    assert blas_threads["inside"] == [[1] * n, [1] * n]
    assert blas_threads["after"] == blas_threads["before"]
    # the libraries are looked up once per process, not once per sweep
    assert blas_threads["loads"] == n


def test_pool_worker_initializer_pins_blas_to_one_thread(blas_threads):
    assert blas_threads["initialized"] == [1] * len(blas_threads["before"])


def pool_thread_counts(method, directory):
    """_POOL_THREADS_SCRIPT's counts at the given start method, checked:
    every row runs in a worker that runs BLAS on one thread, started with
    OPENBLAS_NUM_THREADS=1, in a process of one OS thread; the parent's
    counts and environment come back afterwards."""
    if not Path("/proc/self/task").exists():
        pytest.skip("needs a process memory map and task list")
    if method not in multiprocessing.get_all_start_methods() or fl.usable_cores() < 2:
        pytest.skip(f"needs {method} pool workers on at least two cores")
    counts = _blas_counts_run(_POOL_THREADS_SCRIPT, directory, method)
    n = len(counts["before"])
    assert counts["rows"] == [[[1] * n, 1, "1"]] * 4
    assert counts["after"] == counts["before"]
    assert counts["env"] == "2"


def test_forked_pool_workers_inherit_one_blas_thread(tmp_path):
    # the parent is pinned before the pool forks, so a worker calls no
    # setter, which would start OpenBLAS's thread server in it
    pool_thread_counts("fork", tmp_path)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_started_pool_workers_load_one_blas_thread(method, tmp_path):
    # a worker that loads OpenBLAS afresh reads the thread variables the
    # pool was started with, so it never starts the thread server either
    pool_thread_counts(method, tmp_path)


class _FakeBlas:
    """A thread-count control pair that records its setter calls."""

    def __init__(self, count):
        self.count, self.set_calls = count, []

    def get(self):
        return self.count

    def set(self, count):
        self.set_calls.append(count)
        self.count = count


def test_set_blas_threads_skips_counts_already_set(monkeypatch):
    libs = [_FakeBlas(1), _FakeBlas(4)]
    monkeypatch.setattr(fl, "_blas_thread_controls",
                        lambda: tuple((lib.get, lib.set) for lib in libs))
    assert fl._set_blas_threads() == [1, 4]
    assert [lib.set_calls for lib in libs] == [[], [1]]
    assert fl._set_blas_threads([1, 4]) == [1, 1]
    assert [lib.set_calls for lib in libs] == [[], [1, 4]]
    assert fl._set_blas_threads([1, 4]) == [1, 4]
    assert [lib.set_calls for lib in libs] == [[], [1, 4]]


def corrupted_report(monkeypatch, params, delta1, corrupt):
    """The collected report of a row whose steady-state pencil passes
    through corrupt(pencil, shifts) before its diagnostics, the corrupted
    pencil and shifts, and the per-class oracle's errors of its states."""
    real, seen = fl.pencil_errors, []

    def corrupting(pencil, shifts):
        seen.append((corrupt(pencil, shifts), shifts))
        return real(*seen[-1])

    monkeypatch.setattr(fl, "pencil_errors", corrupting)
    report = fl.field_system_at(params, delta1, collect=True)[3]
    (pencil, shifts), = seen
    return report, pencil, shifts, steady_state_errors(pencil_class_states(pencil, shifts))


def with_states(pencil, change):
    states = pencil.states.copy()
    change(states)
    return pencil._replace(states=states)


class TestPhysicalityReport:
    def test_population_error_reported(self, monkeypatch):
        # rho33 = -0.1 in every class
        def negative_population(pencil, shifts):
            def change(states):
                states[bloch.IDX[3, 3]] = 0.0
                states[bloch.IDX[3, 3], 0] = -0.1
            return with_states(pencil, change)

        report, *_, oracle = corrupted_report(monkeypatch, stationary(), 0.0, negative_population)
        assert report.population_error == 0.1
        assert oracle[2] == 0.1

    def test_broken_conjugate_coefficient_reported(self, monkeypatch, fast_params):
        # rho12 at one point above the axis no longer mirrors rho21 at its
        # conjugate; the bound takes that factor's largest modulus over the
        # classes, at the point where it peaks highest
        def peak(pencil, shifts):
            factors = np.abs(1.0 / (1.0 - shifts[:, None] * pencil.points)).max(axis=0)
            k = int(np.argmax(np.where(pencil.points.imag > 0.0, factors, 0.0)))
            return k, factors[k]

        def broken(pencil, shifts):
            k = peak(pencil, shifts)[0]
            return with_states(pencil, lambda states: states.__setitem__(
                (bloch.IDX[1, 2], k), states[bloch.IDX[1, 2], k] + 1e-3))

        report, pencil, shifts, oracle = corrupted_report(monkeypatch, fast_params(p=0.5), 5.0,
                                                          broken)
        largest = peak(pencil, shifts)[1]
        assert largest > 2.0
        assert report.hermiticity_error == pytest.approx(1e-3 * largest, rel=1e-9)
        assert report.hermiticity_error == pytest.approx(oracle[1], rel=1e-9)
        assert report.trace_error < 1e-15 and report.population_error == 0.0

    def test_broken_trace_row_reported(self, monkeypatch, fast_params):
        def broken(pencil, shifts):
            return with_states(pencil, lambda states: states.__setitem__(
                (bloch.IDX[1, 1], 0), states[bloch.IDX[1, 1], 0] + 1e-3))

        report, *_, oracle = corrupted_report(monkeypatch, fast_params(p=0.5), 5.0, broken)
        assert report.trace_error == pytest.approx(1e-3, abs=1e-15)
        assert report.trace_error == pytest.approx(oracle[0], abs=1e-15)
        assert report.hermiticity_error < 1e-15

    def test_edge_class_population_reported(self, monkeypatch, fast_params):
        # a real point just beyond the edge class: 1 / (1 - s t) is 1e6 at
        # the edge and about 200 at its neighbour, and its coefficient takes
        # rho22 to -1e-3 at the edge alone (rho11 keeps the trace)
        def edge(pencil, shifts):
            k = int(np.flatnonzero(pencil.points == 0.0)[-1])
            t = 1.0 / (shifts.max() * (1.0 + 1e-6))
            edge_rho22 = bloch._pencil_check(pencil, shifts)[2][1, -1]
            weight = (edge_rho22 + 1e-3) * (1.0 - shifts.max() * t)
            points, states = pencil.points.copy(), pencil.states.copy()
            states[:, 0] += states[:, k]      # both factors are 1
            states[:, k] = 0.0
            states[bloch.IDX[2, 2], k], states[bloch.IDX[1, 1], k] = -weight, weight
            points[k] = t
            return pencil._replace(points=points, states=states)

        report, pencil, shifts, oracle = corrupted_report(monkeypatch, fast_params(p=0.5), 0.0,
                                                          edge)
        assert report.population_error == pytest.approx(1e-3, rel=1e-6)
        assert abs(report.population_error - oracle[2]) <= 1e-15
        assert bloch.pencil_errors(pencil, shifts[:-1])[2] == 0.0

    def test_merge_takes_worst_value(self):
        a = fl.PhysicalityReport(trace_error=1e-12, population_error=0.2,
                                 max_drift_eigenvalue=-3.0, eigenvector_condition=40.0)
        b = fl.PhysicalityReport(hermiticity_error=1e-11, population_error=0.1,
                                 max_drift_eigenvalue=-1.0, covariance_error=1e-9,
                                 eigenvector_condition=3.0)
        assert a.merged(b) == fl.PhysicalityReport(
            trace_error=1e-12, hermiticity_error=1e-11, population_error=0.2,
            max_drift_eigenvalue=-1.0, covariance_error=1e-9, eigenvector_condition=40.0)
