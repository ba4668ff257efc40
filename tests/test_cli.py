"""CLI contract tests: outputs, manifests, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from conftest import package_env
from laddertangle import cli
from laddertangle.experiments import baseline_params
from laddertangle.model import params_to_config, validate_regime
from laddertangle.tables import SpectrumTable


@pytest.fixture()
def fast_config(tmp_path, fast_doppler):
    params = baseline_params(p=0.5, doppler=fast_doppler)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params_to_config(params)), encoding="utf-8")
    return path


def _run(args):
    return cli.main([str(a) for a in args])


class TestRun:
    def test_writes_csv_and_manifest(self, tmp_path, fast_config):
        out = tmp_path / "out"
        code = _run(["run", "--config", fast_config, "--out", out,
                     "--jobs", 1, "--delta1-min", -20, "--delta1-max", 20,
                     "--delta1-points", 5])
        assert code == 0
        csv_path = out / "custom.csv"
        manifest_path = out / "custom.manifest.json"
        assert csv_path.exists() and manifest_path.exists()
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert manifest["files"][csv_path.name] == digest
        assert manifest["grid"] == {"min": -20.0, "max": 20.0, "points": 5}
        assert manifest["jobs"] == 1
        table = SpectrumTable.read_csv(csv_path)
        assert len(table.delta1) == 5
        assert np.all(np.isfinite(table.v12))

    def test_manifest_records_regime_and_environment(self, tmp_path, fast_doppler,
                                                     monkeypatch, capsys):
        params = baseline_params(p=0.5, alpha2=1.0, doppler=fast_doppler)  # alpha1 = 10
        warnings = validate_regime(params)
        assert any("exceeds pump amplitude" in w for w in warnings)
        path = tmp_path / "weak-pump.json"
        path.write_text(json.dumps(params_to_config(params)), encoding="utf-8")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        out = tmp_path / "out"
        code = _run(["run", "--config", path, "--out", out, "--jobs", 1,
                     "--delta1-min", -20, "--delta1-max", 20, "--delta1-points", 3])
        assert code == 0
        manifest = json.loads((out / "custom.manifest.json").read_text(encoding="utf-8"))
        assert manifest["regime_warnings"] == warnings
        err = capsys.readouterr().err
        assert all(f"warning: {w}" in err for w in warnings)
        env = manifest["environment"]
        assert env["numpy"] == np.__version__
        assert set(env) == {"python", "numpy", "scipy", "laddertangle",
                            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["OMP_NUM_THREADS"] == "3"

    def test_csv_round_trips_exactly(self, tmp_path, fast_config):
        out = tmp_path / "out"
        _run(["run", "--config", fast_config, "--out", out, "--jobs", 1,
              "--delta1-min", -20, "--delta1-max", 20, "--delta1-points", 5])
        csv_path = out / "custom.csv"
        table = SpectrumTable.read_csv(csv_path)
        again = tmp_path / "again.csv"
        table.write_csv(again)
        assert again.read_bytes() == csv_path.read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path, fast_config):
        outs = []
        for jobs in (1, 3):
            out = tmp_path / f"out{jobs}"
            code = _run(["run", "--config", fast_config, "--out", out,
                         "--jobs", jobs, "--delta1-min", -20,
                         "--delta1-max", 20, "--delta1-points", 7])
            assert code == 0
            outs.append((out / "custom.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_scenario_exit_2(self, tmp_path, capsys):
        code = _run(["run", "--scenario", "fig9-z", "--out", tmp_path / "o"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_partial_grid_flags_exit_2(self, tmp_path, fast_config):
        code = _run(["run", "--config", fast_config, "--out", tmp_path / "o",
                     "--delta1-min", -20])
        assert code == 2

    def test_decreasing_grid_exit_2(self, tmp_path, fast_config):
        code = _run(["run", "--config", fast_config, "--out", tmp_path / "o",
                     "--delta1-min", 20, "--delta1-max", -20,
                     "--delta1-points", 5])
        assert code == 2

    def test_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1,
                                   "decay": {"gamma1": "fast"}}),
                       encoding="utf-8")
        code = _run(["run", "--config", bad, "--out", tmp_path / "o"])
        assert code == 2

    def test_coherence_below_radiative_floor_exit_2(self, tmp_path, capsys):
        params = baseline_params(p=0.0)
        cfg = params_to_config(params)
        cfg["coherence"] = {**asdict(params.coherence), "gamma12": 0.06}   # gamma1 = 3 MHz
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        code = _run(["run", "--config", bad, "--out", tmp_path / "o"])
        assert code == 2
        assert "radiative floor" in capsys.readouterr().err

    def test_undamped_atoms_exit_3(self, tmp_path, capsys):
        # no decay, no fields and no Doppler spread leave the populations
        # undetermined: a physics failure, not bad input
        cfg = params_to_config(baseline_params(alpha1=0.0, alpha2=0.0))
        cfg["decay"] = {"gamma1": 0.0, "gamma2": 0.0, "p": 0.0}
        cfg["coherence"] = {"gamma12": 0.0, "gamma13": 0.0, "gamma23": 0.0}
        cfg["doppler"]["width"] = 0.0
        path = tmp_path / "undamped.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code = _run(["run", "--config", path, "--out", tmp_path / "o", "--jobs", 1,
                     "--delta1-min", -20, "--delta1-max", 20, "--delta1-points", 3])
        assert code == 3
        assert "steady-state solve failed" in capsys.readouterr().err

    def test_grid_on_pump_sweep_exit_2(self, tmp_path):
        code = _run(["run", "--scenario", "fig3", "--out", tmp_path / "o",
                     "--delta1-min", -20, "--delta1-max", 20,
                     "--delta1-points", 5])
        assert code == 2

    def test_jobs_env_var(self, tmp_path, fast_config, monkeypatch):
        monkeypatch.setenv("LADDERTANGLE_JOBS", "2")
        out = tmp_path / "out"
        code = _run(["run", "--config", fast_config, "--out", out,
                     "--delta1-min", -20, "--delta1-max", 20,
                     "--delta1-points", 3])
        assert code == 0
        manifest = json.loads((out / "custom.manifest.json").read_text())
        assert manifest["jobs"] == 2

    def test_bad_jobs_env_var_exit_2(self, tmp_path, fast_config, monkeypatch):
        monkeypatch.setenv("LADDERTANGLE_JOBS", "many")
        code = _run(["run", "--config", fast_config, "--out", tmp_path / "o",
                     "--delta1-min", -20, "--delta1-max", 20,
                     "--delta1-points", 3])
        assert code == 2

    def test_hermite_order_above_cap_exit_2(self, tmp_path, capsys):
        cfg = params_to_config(baseline_params())
        cfg["doppler"].update(rule="hermite", nodes=1000)
        path = tmp_path / "hermite.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code = _run(["run", "--config", path, "--out", tmp_path / "o", "--jobs", 1])
        assert code == 2
        assert "doppler.nodes must be <= 512" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_pump_sweep_config_fields_not_dropped(self, tmp_path, fast_doppler, capsys):
        # fig3 sweeps its own p = 0 and p = 20 bases: a config asking for
        # another collision rate is refused, not silently replaced
        path = tmp_path / "p6.json"
        path.write_text(json.dumps(params_to_config(baseline_params(p=6.0))),
                        encoding="utf-8")
        code = _run(["run", "--scenario", "fig3", "--config", path,
                     "--out", tmp_path / "o", "--jobs", 1])
        assert code == 2
        err = capsys.readouterr().err
        assert "discard decay.p, decay.gamma12p, decay.gamma23p, decay.gamma13p" in err
        assert not (tmp_path / "o").exists()
        cfg = params_to_config(baseline_params(p=0.0))
        cfg["coherence"] = {"gamma12": 4.0, "gamma13": 0.5, "gamma23": 3.5}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert _run(["run", "--scenario", "fig3", "--config", path,
                     "--out", tmp_path / "o", "--jobs", 1]) == 2
        assert "discard coherence" in capsys.readouterr().err
        # a base the sweep keeps as it is runs
        path.write_text(json.dumps(params_to_config(baseline_params(p=0.0, doppler=fast_doppler))),
                        encoding="utf-8")
        assert _run(["run", "--scenario", "fig3", "--config", path,
                     "--out", tmp_path / "o", "--jobs", 1]) == 0

    @pytest.mark.parametrize("flag, env", [("0", None), ("-3", None), (None, "0")])
    def test_jobs_below_one_exit_2(self, tmp_path, fast_config, monkeypatch, capsys,
                                   flag, env):
        args = ["run", "--config", fast_config, "--out", tmp_path / "o",
                "--delta1-min", -20, "--delta1-max", 20, "--delta1-points", 3]
        if flag is not None:
            args += ["--jobs", flag]
        if env is not None:
            monkeypatch.setenv("LADDERTANGLE_JOBS", env)
        assert _run(args) == 2
        assert "at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestDeterminism:
    @pytest.mark.parametrize("scenario, grid", [
        ("fig2-c", ["--delta1-min", "-40", "--delta1-max", "40", "--delta1-points", "9"]),
        ("fig4-c", ["--delta1-min", "190", "--delta1-max", "210", "--delta1-points", "9"]),
        ("fig3", [])])
    def test_bytes_independent_of_blas_threads_and_jobs(self, tmp_path, scenario, grid):
        # each run is a fresh process, so the BLAS thread count applies
        # from the start; jobs=2 runs its rows in pool workers
        payloads = {}
        for threads in ("1", "2"):
            for jobs in ("1", "2"):
                out = tmp_path / f"t{threads}-j{jobs}"
                subprocess.run([sys.executable, "-m", "laddertangle.cli", "run",
                                "--scenario", scenario, "--out", str(out), "--jobs", jobs,
                                *grid], env=package_env(OPENBLAS_NUM_THREADS=threads),
                               check=True, capture_output=True)
                payloads[threads, jobs] = (out / f"{scenario}.csv").read_bytes()
        assert len(set(payloads.values())) == 1


class TestValidate:
    def test_validate_passes_and_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = _run(["validate", "--out", report_path])
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["passed"] is True

    def test_validate_failure_exit_1(self, monkeypatch, capsys):
        from laddertangle import validation

        failing = validation.CheckResult(name="forced", passed=False,
                                         detail="forced failure")
        monkeypatch.setattr(validation, "run_all", lambda: [failing])
        code = _run(["validate"])
        assert code == 1
        assert "[FAIL] forced" in capsys.readouterr().err


class TestFeatureReport:
    def test_classifies_dip(self, tmp_path, capsys):
        axis = np.linspace(-100.0, 100.0, 401)
        dip = 5.0 - 1.0 * 9.0 / (9.0 + axis ** 2)
        nan = np.full_like(axis, np.nan)
        table = SpectrumTable(delta1=axis, v12=dip, du2=dip, dv2=dip,
                              absorption=nan)
        csv_path = tmp_path / "spec.csv"
        table.write_csv(csv_path)
        code = _run(["feature-report", csv_path, "--half-width", 10])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "dip"
        assert abs(report["location"]) < 1.0

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = _run(["feature-report", tmp_path / "missing.csv"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_garbage_csv_exit_2(self, tmp_path):
        path = tmp_path / "garbage.csv"
        path.write_text("not,a,spectrum\n1,2,3\n", encoding="utf-8")
        assert _run(["feature-report", path]) == 2

    def test_nan_column_exit_2(self, tmp_path, capsys):
        axis = np.linspace(-50.0, 50.0, 101)
        nan = np.full_like(axis, np.nan)
        table = SpectrumTable(delta1=axis, v12=np.ones_like(axis),
                              du2=nan, dv2=nan, absorption=nan)
        csv_path = tmp_path / "spec.csv"
        table.write_csv(csv_path)
        code = _run(["feature-report", csv_path, "--column", "absorption"])
        assert code == 2
        assert "missing values" in capsys.readouterr().err


class TestListScenarios:
    def test_lists_all(self, capsys):
        assert _run(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2-a", "fig2-h", "fig3", "fig4-d"):
            assert name in out
        assert "pump-sweep" in out
