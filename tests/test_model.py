import json
import math
from dataclasses import asdict, fields, replace

import pytest

from laddertangle import bloch, cli, model
from laddertangle.errors import ConfigError, ParameterError
from laddertangle.experiments import (all_scenarios, baseline_params, fig3_scenario,
                                      pump_sweep_transform)
from laddertangle.fluctuations import v12_spectrum


class TestDecayConfig:
    def test_collision_rates_derived(self):
        d = model.DecayConfig(gamma1=3.0, gamma2=0.5, p=6.0)
        assert [f.name for f in fields(d)] == ["gamma1", "gamma2", "p"]
        assert model.SystemParams(decay=d).rates == model.CoherenceRates(
            gamma12=9.0, gamma13=12.5, gamma23=9.5)

    def test_negative_rate_rejected(self):
        with pytest.raises(ParameterError):
            model.DecayConfig(gamma1=-1.0, gamma2=0.5, p=0.0)


class TestCoherenceRates:
    @pytest.mark.parametrize("p", [0.0, 0.5, 6.0, 20.0])
    def test_composition(self, p):
        d = model.DecayConfig(gamma1=3.0, gamma2=0.5, p=p)
        c = model.derive_coherence_rates(d)
        assert c.gamma12 == pytest.approx(3.0 + p)
        assert c.gamma13 == pytest.approx(0.5 + 2.0 * p)
        assert c.gamma23 == pytest.approx(3.5 + p)

    def test_positive_with_radiative_decay(self):
        d = model.DecayConfig(gamma1=3.0, gamma2=0.5, p=0.0)
        c = model.derive_coherence_rates(d)
        assert c.gamma12 > 0 and c.gamma13 > 0 and c.gamma23 > 0


class TestCouplings:
    def test_direct_values_take_precedence(self):
        f = model.FieldConfig(alpha1=1.0, alpha2=1.0, g1=0.25, g2=0.125)
        g1, g2 = model.derive_couplings(f, model.GeometryConfig(r=4.5e-4, L=0.06, n=8.5e15))
        assert (g1, g2) == (0.25, 0.125)

    def test_resolved_on_construction(self):
        # like the rates: every construction, replace included, derives
        # them, and they take no part in equality, hashing or repr
        params = baseline_params()
        assert params.couplings == model.derive_couplings(params.field, params.geometry)
        moved = replace(params, field=replace(params.field, g1=0.25))
        assert moved.couplings == (0.25, params.couplings[1])
        assert params == baseline_params() and hash(params) == hash(baseline_params())
        assert "couplings" not in repr(params)

    def test_no_coupling_route_rejected_on_construction(self):
        with pytest.raises(ConfigError, match="field.g1: neither"):
            model.SystemParams(field=model.FieldConfig(g1=None, mu12=None))
        with pytest.raises(ConfigError, match="field.g2: interaction volume is zero"):
            model.SystemParams(field=model.FieldConfig(g1=0.5),
                               geometry=model.GeometryConfig(L=0.0))

    def test_zero_volume_rejected(self):
        with pytest.raises(ParameterError):
            model.GeometryConfig(r=0.0, L=0.0, n=8.5e15)

    @pytest.mark.parametrize("r, L", [(1e200, 0.06), (100.0, 1e308)])
    def test_infinite_atom_number_rejected(self, r, L):
        # r * r overflows, or a finite volume overflows once L multiplies it
        with pytest.raises(ParameterError, match="atom number"):
            model.GeometryConfig(r=r, L=L)

    def test_baseline_regime_condition(self):
        # pump Rabi coupling must exceed sqrt(gamma12 * gamma13) at baseline
        params = baseline_params(p=0.0)
        o2 = params.rabi2
        bound = math.sqrt(params.rates.gamma12 * params.rates.gamma13)
        assert o2 > bound
        assert o2 == pytest.approx(1.75, rel=0.02)

    def test_validate_regime_flags_weak_pump(self):
        params = baseline_params(p=0.0, alpha2=0.01)  # alpha1 = 10
        warnings = model.validate_regime(params)
        assert len(warnings) == 1
        assert "exceeds pump amplitude" in warnings[0]

    def test_shipped_scenarios_raise_no_regime_warning(self):
        for name, scenario in all_scenarios().items():
            assert model.validate_regime(scenario.base) == [], name


class TestConfigSchema:
    def test_round_trip(self, tmp_path):
        params = baseline_params(p=0.5, alpha2=37.0, delta2=-200.0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(model.params_to_config(params)), encoding="utf-8")
        loaded = model.load_config(path)
        assert model.params_to_config(loaded) == model.params_to_config(params)
        assert loaded == params

    def test_rejects_unknown_keys(self):
        cfg = model.params_to_config(baseline_params())
        cfg["unexpected"] = 1
        with pytest.raises(ConfigError):
            model.params_from_config(cfg)

    def test_rejects_wrong_schema_version(self):
        cfg = model.params_to_config(baseline_params())
        cfg["schema_version"] = 99
        with pytest.raises(ConfigError):
            model.params_from_config(cfg)

    def test_rejects_nonnumeric_rate(self):
        cfg = model.params_to_config(baseline_params())
        cfg["decay"]["gamma1"] = "fast"
        with pytest.raises(ConfigError):
            model.params_from_config(cfg)

    @pytest.mark.parametrize("key", ["gamma12p", "gamma23p", "gamma13p"])
    def test_per_channel_collision_rates_are_unknown(self, key, tmp_path, capsys):
        # a per-channel collision model is written as explicit coherence rates
        cfg = model.params_to_config(baseline_params())
        cfg["decay"][key] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"decay.{key}: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_json_serializable(self):
        cfg = model.params_to_config(baseline_params(p=6.0))
        json.dumps(cfg)  # must not raise

    def test_field_edit_in_config(self):
        params = baseline_params(p=0.0)
        cfg = model.params_to_config(params)
        cfg["field"]["alpha2"] = 300.0
        out = model.params_from_config(cfg)
        assert out.field.alpha2 == 300.0
        assert out.field.alpha1 == params.field.alpha1

    def test_coherence_follows_decay_override(self):
        cfg = model.params_to_config(baseline_params(p=0.5))
        assert "coherence" not in cfg
        assert set(cfg["decay"]) == {"gamma1", "gamma2", "p"}
        cfg["decay"]["p"] = 20.0
        out = model.params_from_config(cfg)
        assert out.coherence is None
        assert out.rates.gamma12 == pytest.approx(23.0)
        assert out.rates.gamma13 == pytest.approx(40.5)

    def test_explicit_rates_written_and_kept(self):
        decay = model.DecayConfig(gamma1=3.0, gamma2=0.5, p=1.0)
        coherence = model.CoherenceRates(gamma12=5.0, gamma13=4.0, gamma23=7.0)
        params = replace(baseline_params(), decay=decay, coherence=coherence)
        assert params.rates == coherence
        cfg = model.params_to_config(params)
        assert cfg["decay"] == {"gamma1": 3.0, "gamma2": 0.5, "p": 1.0}
        assert cfg["coherence"] == asdict(coherence)
        out = model.params_from_config(cfg)
        assert out == params and out.rates == coherence

    def test_replace_decay_moves_the_derived_rates(self):
        p0 = baseline_params(p=0.0)
        moved = replace(p0, decay=replace(p0.decay, p=20.0))
        fresh = baseline_params(p=20.0)
        assert moved == fresh
        assert moved.rates == fresh.rates
        assert bloch.absorption_exact(moved, 0.0) == bloch.absorption_exact(fresh, 0.0)

    def test_every_shipped_parameter_set_round_trips(self):
        bases = [s.base for s in all_scenarios().values()]
        fig3 = [pump_sweep_transform(baseline_params(p=p), float(alpha2))
                for p in (0.0, 20.0) for alpha2 in fig3_scenario().grid]
        for params in bases + fig3:
            cfg = model.params_to_config(params)
            assert model.params_from_config(cfg) == params
            assert model.params_from_config(json.loads(json.dumps(cfg))) == params

    def test_missing_doppler_section_is_the_shipped_rule(self):
        cfg = model.params_to_config(baseline_params())
        del cfg["doppler"]
        params = model.params_from_config(cfg)
        assert params == baseline_params()
        row, _ = v12_spectrum(params, [0.0])
        shipped, _ = v12_spectrum(baseline_params(), [0.0])
        assert (row.v12[0], row.absorption[0]) == (shipped.v12[0], shipped.absorption[0])

    @pytest.mark.parametrize("section, key, value", [
        ("doppler", "nodes", 12.7),
        ("field", "alpha1", True),
        ("doppler", "residual_mismatch", 1),
    ])
    def test_values_checked_against_declared_type(self, section, key, value, tmp_path,
                                                  capsys):
        cfg = model.params_to_config(baseline_params())
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            model.params_from_config(cfg)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"{section}.{key}: expected" in capsys.readouterr().err


class TestSystemParams:
    def test_rabi_scales_linearly_with_amplitude(self):
        a = baseline_params(alpha1=10.0)
        b = baseline_params(alpha1=20.0)
        assert b.rabi1 == pytest.approx(2.0 * a.rabi1)

    def test_coherence_at_radiative_floor_accepted(self):
        decay = model.DecayConfig(gamma1=3.0, gamma2=0.5, p=0.0)
        floor = model.derive_coherence_rates(decay)  # p = 0: all rates on the floor
        assert model.SystemParams(decay=decay, coherence=floor).coherence == floor

    @pytest.mark.parametrize("name", ["gamma12", "gamma13", "gamma23"])
    def test_coherence_below_radiative_floor_rejected(self, name):
        decay = model.DecayConfig(gamma1=3.0, gamma2=0.5, p=0.0)
        floor = model.derive_coherence_rates(decay)
        just_below = getattr(floor, name) * (1.0 - 1e-11)
        coherence = model.CoherenceRates(**{**asdict(floor), name: just_below})
        with pytest.raises(ParameterError, match=name):
            model.SystemParams(decay=decay, coherence=coherence)

    def test_doppler_rule_validated(self):
        with pytest.raises(ParameterError):
            model.DopplerConfig(width=530.0, nodes=128, rule="simpson")

    def test_hermite_order_checked_at_construction(self):
        model.DopplerConfig(nodes=512, rule="hermite")
        model.DopplerConfig(nodes=4097, rule="trapezoid")
        with pytest.raises(ParameterError, match="<= 512"):
            model.DopplerConfig(nodes=513, rule="hermite")
