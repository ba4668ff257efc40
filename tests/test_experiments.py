"""Scenario catalog, pump-sweep transform and feature extraction tests."""

import json
from dataclasses import asdict, replace
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import pin_scenarios
from conftest import symmetrized_diffusion_min_eig
from laddertangle import bloch
from laddertangle import experiments as ex
from laddertangle import fluctuations as fl
from laddertangle.doppler import build_classes
from laddertangle.errors import ConfigError, ContractError
from laddertangle.model import CoherenceRates, derive_coherence_rates


def test_readme_api_imports():
    # the README's Python API example starts from these package-level names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for line in readme.splitlines() if line.startswith("from laddertangle")]
    assert lines
    for line in lines:
        exec(line, {})


class TestScenarioCatalog:
    def test_catalog_names(self):
        names = set(ex.all_scenarios())
        expected = {f"fig2-{c}" for c in "abcdefgh"}
        expected |= {"fig3", "fig4-a", "fig4-b", "fig4-c", "fig4-d"}
        assert names == expected

    def test_fig2_collision_rates(self):
        scenarios = {s.name: s for s in ex.fig2_scenarios()}
        for labels in ("abcd", "efgh"):
            ps = [scenarios[f"fig2-{c}"].base.decay.p for c in labels]
            assert ps == [0.0, 0.5, 6.0, 20.0]

    def test_fig2_output_split(self):
        scenarios = {s.name: s for s in ex.fig2_scenarios()}
        for c in "abcd":
            assert scenarios[f"fig2-{c}"].outputs == "v12"
        for c in "efgh":
            assert scenarios[f"fig2-{c}"].outputs == "absorption"

    def test_fig4_variants(self):
        scenarios = {s.name: s for s in ex.fig4_scenarios()}
        assert scenarios["fig4-a"].base.field.alpha2 == 300.0
        assert scenarios["fig4-a"].base.field.delta2 == 0.0
        assert scenarios["fig4-c"].base.field.delta2 == -200.0
        assert scenarios["fig4-c"].base.field.alpha2 == 50.0
        for s in scenarios.values():
            assert s.base.decay.p == 6.0

    def test_default_grid(self):
        grid = ex.default_delta1_grid()
        assert len(grid) == 801
        assert grid[0] == -800.0 and grid[-1] == 800.0
        assert np.allclose(np.diff(grid), 2.0)

    def test_bad_grid_rejected(self):
        base = ex.baseline_params()
        with pytest.raises(ContractError):
            ex.Scenario(name="x", base=base, kind="spectrum",
                        grid=np.array([0.0, 0.0, 1.0]), outputs="v12")
        with pytest.raises(ContractError):
            ex.Scenario(name="x", base=base, kind="nope",
                        grid=np.array([0.0, 1.0]), outputs="v12")
        with pytest.raises(ContractError):
            ex.Scenario(name="x", base=base, kind="spectrum",
                        grid=np.array([0.0, 1.0]), outputs="everything")

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ContractError):
            ex.run_pump_sweep_scenario(ex.fig2_scenarios()[0])

    def test_pump_sweep_refuses_a_pump_amplitude_it_cannot_scale(self):
        # each row runs at the width and detunings divided by alpha2 / 50
        scenario = replace(ex.fig3_scenario(), grid=np.array([0.0, 50.0]))
        with pytest.raises(ContractError, match="must be positive"):
            ex.run_pump_sweep_scenario(scenario)

    def test_pump_sweep_refuses_a_base_it_would_discard(self):
        # the sweep runs its own p = 0 and p = 20 bases
        scenario = replace(ex.fig3_scenario(), base=ex.baseline_params(p=6.0))
        with pytest.raises(ConfigError, match="discard decay.p"):
            ex.run_pump_sweep_scenario(scenario)


class TestPumpSweepTransform:
    @pytest.mark.parametrize("alpha2", [1.0, 25.0, 50.0, 150.0])
    def test_ratios_held_fixed(self, alpha2):
        base = ex.baseline_params(p=0.0)
        params = ex.pump_sweep_transform(base, alpha2)
        assert params.field.alpha2 == alpha2
        assert params.field.alpha1 == pytest.approx(alpha2 / 5.0)
        scale = params.field.alpha1 / 10.0
        assert params.geometry.n == pytest.approx(base.geometry.n * scale)
        coh0 = derive_coherence_rates(base.decay)
        assert params.rates.gamma12 == pytest.approx(coh0.gamma12 * scale)
        assert params.rates.gamma13 == pytest.approx(coh0.gamma13 * scale)
        assert params.rates.gamma23 == pytest.approx(coh0.gamma23 * scale)

    @pytest.mark.parametrize("p", [0.0, 20.0])
    @pytest.mark.parametrize("alpha2", [1.0, 25.0, 50.0, 150.0])
    def test_decay_rates_scale_with_coherence(self, alpha2, p):
        base = ex.baseline_params(p=p)
        params = ex.pump_sweep_transform(base, alpha2)
        scale = params.field.alpha1 / 10.0
        assert params.decay.gamma1 == pytest.approx(base.decay.gamma1 * scale)
        assert params.decay.gamma2 == pytest.approx(base.decay.gamma2 * scale)
        assert params.decay.p == pytest.approx(base.decay.p * scale)
        assert params.rates == derive_coherence_rates(params.decay)

    def test_custom_density_scaled(self):
        base = ex.baseline_params(p=0.0)
        base = replace(base, geometry=replace(base.geometry, n=1e15))
        assert ex.pump_sweep_transform(base, 50.0).geometry.n == 1e15
        assert ex.pump_sweep_transform(base, 5.0).geometry.n == pytest.approx(1e14)

    @pytest.mark.parametrize("p", [0.0, 20.0])
    @pytest.mark.parametrize("alpha2", [1.0, 150.0])
    def test_rows_meet_radiative_floor(self, alpha2, p):
        params = ex.pump_sweep_transform(ex.baseline_params(p=p), alpha2)
        c, d = params.rates, params.decay
        assert c.gamma12 >= d.gamma1
        assert c.gamma13 >= d.gamma2
        assert c.gamma23 >= d.gamma1 + d.gamma2

    @pytest.mark.parametrize("p", [0.0, 20.0])
    @pytest.mark.parametrize("alpha2", [1.0, 5.0, 150.0])
    def test_rows_have_positive_noise_kernel(self, alpha2, p, fast_doppler):
        base = ex.baseline_params(p=p, doppler=fast_doppler)
        params = ex.pump_sweep_transform(base, alpha2)
        classes = build_classes(params, 0.0, params.field.delta2)
        g = bloch.generator_matrix(params, classes.d1, classes.d2)
        corr = fl.diffusion_correlator_batch(params, bloch.steady_state_batch(g))
        worst = min(symmetrized_diffusion_min_eig(0.5 * c) for c in corr[:, 1:, 1:])
        assert worst >= -1e-10

    def test_baseline_is_fixed_point(self):
        base = ex.baseline_params(p=0.0)
        params = ex.pump_sweep_transform(base, 50.0)
        assert params.field.alpha1 == base.field.alpha1
        assert params.geometry.n == base.geometry.n
        assert params.rates == derive_coherence_rates(base.decay)
        assert params == base

    @pytest.mark.parametrize("p", [0.0, 20.0])
    @pytest.mark.parametrize("alpha2", [1.0, 6.0, 150.0])
    def test_row_is_base_row_with_scaled_width(self, alpha2, p, fast_doppler):
        # the transform scales every rate, Rabi frequency and the density by
        # alpha2 / 50 at zero detunings, which is the base with the Doppler
        # width scaled by 50 / alpha2, and so the base at scale alpha2 / 50
        base = ex.baseline_params(p=p, doppler=fast_doppler)
        wide = replace(base, doppler=replace(fast_doppler,
                                             width=fast_doppler.width * 50.0 / alpha2))
        (v12, _, _, absorption, _), *rows = fl._spectrum_rows(
            [(ex.pump_sweep_transform(base, alpha2), 0.0, 0.0, 1.0, False),
             (wide, 0.0, 0.0, 1.0, False), (base, 0.0, 0.0, alpha2 / 50.0, False)])
        for v12_wide, _, _, absorption_wide, _ in rows:
            assert v12 == pytest.approx(v12_wide, rel=1e-12)
            assert absorption == pytest.approx(absorption_wide, rel=1e-12)

    @pytest.mark.parametrize("alpha2", [5.0, 50.0, 150.0])
    def test_explicit_coherence_scaled(self, alpha2):
        coherence = CoherenceRates(gamma12=5.0, gamma13=4.0, gamma23=7.0)
        base = replace(ex.baseline_params(p=1.0), coherence=coherence)
        params = ex.pump_sweep_transform(base, alpha2)
        scale = params.field.alpha1 / 10.0
        assert params.coherence == params.rates
        assert params.rates.gamma12 == pytest.approx(5.0 * scale)
        assert params.rates.gamma13 == pytest.approx(4.0 * scale)
        assert params.rates.gamma23 == pytest.approx(7.0 * scale)


class TestRunScenario:
    def test_absorption_only_columns(self, fast_doppler):
        grid = np.linspace(-30.0, 30.0, 7)
        scenario = ex.Scenario(
            name="t", base=ex.baseline_params(p=0.5, doppler=fast_doppler),
            kind="spectrum", grid=grid, outputs="absorption")
        table, report = ex.run_scenario(scenario)
        assert report is None
        assert np.all(np.isfinite(table.absorption))
        assert np.all(np.isnan(table.v12))
        assert np.array_equal(table.delta1, grid)

    def test_pump_sweep_columns(self, fast_doppler):
        grid = np.array([10.0, 50.0])
        scenario = ex.Scenario(
            name="t", base=ex.baseline_params(p=0.0, doppler=fast_doppler),
            kind="pump-sweep", grid=grid, outputs="both")
        table, report = ex.run_scenario(scenario, collect=True)
        for col in ("v12_p0", "v12_p20", "absorption_p0", "absorption_p20"):
            assert np.all(np.isfinite(getattr(table, col)))
        assert report is not None
        assert report.trace_error < 1e-9
        assert report.population_error < 1e-9
        assert report.max_drift_eigenvalue < 0.0

    @pytest.mark.parametrize("omega", [0.0, 50.0])
    @pytest.mark.parametrize("detunings", [(0.0, 0.0), (7.0, -40.0)])
    @pytest.mark.parametrize("gamma1", [3.0, 5.45])
    def test_pump_sweep_rows_are_transform_rows(self, omega, detunings, gamma1, fast_doppler):
        # the sweep runs each row as the alpha2 = 50 row with the detunings
        # and omega divided by alpha2 / 50, at that scale; its columns and its
        # diagnostics are those of the pump_sweep_transform rows, here from a
        # base with alpha1 = 7 and both detunings set.  At gamma1/gamma2 =
        # 10.9 the drift bound falls back to the class eigenvalues, of the
        # classes at the scaled shifts
        delta1, delta2 = detunings
        base = ex.baseline_params(alpha1=7.0, delta2=delta2, doppler=fast_doppler)
        base = replace(base, decay=replace(base.decay, gamma1=gamma1),
                       field=replace(base.field, delta1=delta1))
        grid = np.array([1.0, 6.0, 150.0])
        scenario = ex.Scenario(name="t", base=base, kind="pump-sweep", grid=grid,
                               outputs="both")
        table, report = ex.run_scenario(scenario, omega=omega, collect=True)
        expected = fl.PhysicalityReport()
        for p in (0.0, 20.0):
            v12, absorption = [], []
            for alpha2 in grid:
                params = ex.pump_sweep_transform(replace(base, decay=replace(base.decay, p=p)),
                                                 alpha2)
                row, = fl._spectrum_rows([(params, params.field.delta1, omega, 1.0, True)])
                v12.append(row[0])
                absorption.append(row[3])
                expected = expected.merged(row[4])
            assert getattr(table, f"v12_p{p:g}") == pytest.approx(v12, rel=1e-12)
            assert getattr(table, f"absorption_p{p:g}") == pytest.approx(absorption, rel=1e-12)
        assert report.max_drift_eigenvalue == pytest.approx(expected.max_drift_eigenvalue,
                                                            rel=1e-12)
        assert report.eigenvector_condition == pytest.approx(expected.eigenvector_condition,
                                                             rel=1e-9)
        for name in ("trace_error", "hermiticity_error", "population_error",
                     "covariance_error"):
            assert getattr(report, name) == pytest.approx(getattr(expected, name), abs=1e-13)

    @pytest.mark.parametrize("omega", [0.0, 50.0])
    @pytest.mark.parametrize("points", [2, 9])
    def test_line_centre_pump_sweep_factors_one_pencil_per_p(self, points, omega, fast_doppler,
                                                             monkeypatch):
        # every row of one p has the same parameter set, so the rows of one
        # p in a sweep_rows chunk run as one stack, at omega = 0 and at
        # omega != 0 (omega / c per row): one dggev and one drift pencil row
        # per (chunk, p) run, and at omega != 0 one zggev per row; and
        # every row shares the relaxation part.  At jobs=1 every row is in
        # one chunk, so there is one run per p
        calls, built, runs = {"dggev": 0, "zggev": 0}, [], []
        batch = fl._spectrum_rows

        def counting(name):
            lapack = getattr(scipy.linalg.lapack, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return lapack(*args, **kwargs)
            return call

        def building(params, delta1s, drift_pencil=fl.drift_pencil):
            built.append(len(delta1s))
            return drift_pencil(params, delta1s)

        def chunk(rows):
            runs.append(len(list(groupby(rows, key=lambda row: row[0]))))
            return batch(rows)

        for name in calls:
            monkeypatch.setattr(scipy.linalg.lapack, name, counting(name))
        monkeypatch.setattr(fl, "drift_pencil", building)
        monkeypatch.setattr(fl, "_spectrum_rows", chunk)
        bloch.relaxation_log_norm.cache_clear()
        scenario = ex.Scenario(name="t", base=ex.baseline_params(doppler=fast_doppler),
                               kind="pump-sweep", grid=np.linspace(1.0, 150.0, points),
                               outputs="both")
        ex.run_scenario(scenario, omega=omega, collect=True)
        assert runs == [2]
        assert calls == {"dggev": 2, "zggev": 2 * points if omega else 0}
        assert built == [1, 1]
        assert bloch.relaxation_log_norm.cache_info().misses == 2

    @pytest.mark.parametrize("outputs", ["v12", "absorption", "pump-sweep"])
    def test_jobs_do_not_change_bytes(self, outputs, fast_doppler, tmp_path, eager_pool):
        # at jobs=2 a real pool runs every row, one row a chunk
        scenario = _small_scenario(outputs, fast_doppler)
        payloads = []
        for jobs in (1, 2):
            table, _ = ex.run_scenario(scenario, jobs=jobs)
            path = tmp_path / f"jobs{jobs}.csv"
            table.write_csv(path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("outputs", ["v12", "absorption", "pump-sweep"])
    def test_every_kind_uses_the_pool(self, outputs, fast_doppler, recording_pool, core_mask,
                                      eager_pool):
        core_mask(2)
        ex.run_scenario(_small_scenario(outputs, fast_doppler), jobs=2)
        assert recording_pool == [(2, fl._set_blas_threads)]


def _small_scenario(outputs, doppler):
    """A few-row spectrum with the given outputs, or a 3-point pump sweep."""
    if outputs == "pump-sweep":
        return ex.Scenario(name="t", base=ex.baseline_params(p=0.0, doppler=doppler),
                           kind="pump-sweep", grid=np.array([1.0, 50.0, 150.0]),
                           outputs="both")
    return ex.Scenario(name="t", base=ex.baseline_params(p=0.5, doppler=doppler),
                       kind="spectrum", grid=np.linspace(-30.0, 30.0, 5), outputs=outputs)


def _voigt_like(axis, center, amp, width):
    return amp * width ** 2 / (width ** 2 + (axis - center) ** 2)


class TestExtractFeature:
    def test_synthetic_dip(self):
        axis = np.linspace(-100.0, 100.0, 801)
        values = 5.0 - _voigt_like(axis, 0.0, 1.0, 3.0)
        rep = ex.extract_feature(axis, values, 0.0, half_width=10.0)
        assert rep.kind == "dip"
        assert abs(rep.location) < 0.5
        assert rep.extremum == pytest.approx(4.0, abs=1e-3)
        # Lorentzian tails bias the ring fit slightly low
        assert rep.background == pytest.approx(5.0, abs=5e-2)

    def test_synthetic_peak(self):
        axis = np.linspace(-100.0, 100.0, 801)
        values = 1.0 + _voigt_like(axis, 0.0, 2.0, 3.0)
        rep = ex.extract_feature(axis, values, 0.0, half_width=10.0)
        assert rep.kind == "peak"
        assert rep.extremum == pytest.approx(3.0, abs=1e-2)

    def test_flat_is_none(self):
        axis = np.linspace(-100.0, 100.0, 401)
        values = np.full_like(axis, 4.0)
        rep = ex.extract_feature(axis, values, 0.0, half_width=10.0)
        assert rep.kind == "none"

    def test_dip_on_broad_slope(self):
        # narrow dip riding a broad Gaussian shoulder: the quadratic
        # background fit must absorb the slope
        axis = np.linspace(-200.0, 200.0, 1601)
        broad = 3.0 * np.exp(-((axis - 120.0) / 300.0) ** 2)
        values = broad - _voigt_like(axis, 20.0, 0.4, 4.0)
        rep = ex.extract_feature(axis, values, 20.0, half_width=12.0)
        assert rep.kind == "dip"
        assert abs(rep.location - 20.0) < 1.0

    def test_offcenter_min_reported(self):
        axis = np.linspace(-100.0, 100.0, 801)
        values = 5.0 - _voigt_like(axis, 0.0, 0.5, 3.0) \
            - _voigt_like(axis, 60.0, 2.0, 5.0)
        rep = ex.extract_feature(axis, values, 0.0, half_width=10.0)
        assert rep.kind == "dip"
        assert rep.argmin == pytest.approx(60.0, abs=0.5)
        assert rep.min_value == pytest.approx(3.0, abs=1e-2)

    def test_window_outside_grid(self):
        axis = np.linspace(-10.0, 10.0, 41)
        values = np.ones_like(axis)
        with pytest.raises(ContractError):
            ex.extract_feature(axis, values, 500.0, half_width=5.0)
        with pytest.raises(ContractError):
            ex.extract_feature(axis, values, 0.0, half_width=-1.0)
        with pytest.raises(ContractError):
            ex.extract_feature(axis[:3], values[:3], 0.0, half_width=5.0)

    def test_report_round_trip(self):
        axis = np.linspace(-100.0, 100.0, 801)
        values = 5.0 - _voigt_like(axis, 0.0, 1.0, 3.0)
        rep = ex.extract_feature(axis, values, 0.0, half_width=10.0)
        d = asdict(rep)
        assert d["kind"] == "dip"
        assert set(d) == {"kind", "location", "extremum", "background",
                          "min_value", "argmin"}

    def test_default_half_width_positive(self):
        params = ex.baseline_params(p=6.0)
        hw = ex.default_feature_half_width(params)
        assert hw > 0.0
        assert hw >= 5.0 * params.rates.gamma12


PINNED = json.loads(pin_scenarios.PINNED.read_text(encoding="utf-8"))


class TestPinnedRows:
    # a few rows of every shipped scenario against the values that
    # tests/pin_scenarios.py recorded; a change that moves them regenerates
    # the file and states the move
    def test_every_scenario_pinned(self):
        assert sorted(PINNED["scenarios"]) == sorted(ex.all_scenarios())

    @pytest.mark.parametrize("name", sorted(PINNED["scenarios"]))
    def test_rows_match_the_pinned_values(self, name):
        assert_pinned(pin_scenarios.scenario_rows(name), PINNED["scenarios"][name])

    def test_every_sideband_pinned(self):
        assert {name: rows["omega"] for name, rows in PINNED["sidebands"].items()} \
            == pin_scenarios.SIDEBANDS

    @pytest.mark.parametrize("name", sorted(PINNED["sidebands"]))
    def test_sideband_rows_match_the_pinned_values(self, name):
        pinned = dict(PINNED["sidebands"][name])
        assert_pinned(pin_scenarios.scenario_rows(name, pinned.pop("omega")), pinned)


def assert_pinned(fresh, pinned):
    assert sorted(fresh) == sorted(pinned)
    for column, values in pinned.items():
        np.testing.assert_allclose(np.array(fresh[column], dtype=float),
                                   np.array(values, dtype=float), rtol=1e-12, atol=0.0)
