"""CLI contract tests: outputs, manifests, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest

from conftest import package_env
from laddertangle import cli
from laddertangle.experiments import baseline_params
from laddertangle.fluctuations import PhysicalityReport
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

    def test_manifest_records_physicality(self, tmp_path, fast_config):
        # a V12 sweep records its merged physicality report; an
        # absorption-only spectrum computes no fluctuations and records null
        grid = ["--delta1-min", -20, "--delta1-max", 20, "--delta1-points", 3]
        assert _run(["run", "--config", fast_config, "--out", tmp_path / "v12",
                     "--jobs", 1, *grid]) == 0
        manifest = json.loads((tmp_path / "v12" / "custom.manifest.json").read_text())
        report = manifest["physicality"]
        assert set(report) == {f.name for f in fields(PhysicalityReport)}
        assert report["max_drift_eigenvalue"] < 0.0
        assert report["trace_error"] < 1e-10
        assert _run(["run", "--scenario", "fig2-g", "--out", tmp_path / "abs",
                     "--jobs", 1, *grid]) == 0
        manifest = json.loads((tmp_path / "abs" / "fig2-g.manifest.json").read_text())
        assert manifest["physicality"] is None

    def test_csv_round_trips_exactly(self, tmp_path, fast_config):
        out = tmp_path / "out"
        _run(["run", "--config", fast_config, "--out", out, "--jobs", 1,
              "--delta1-min", -20, "--delta1-max", 20, "--delta1-points", 5])
        csv_path = out / "custom.csv"
        table = SpectrumTable.read_csv(csv_path)
        again = tmp_path / "again.csv"
        table.write_csv(again)
        assert again.read_bytes() == csv_path.read_bytes()

    @pytest.mark.parametrize("omega", [0, 50])
    def test_jobs_do_not_change_bytes(self, tmp_path, fast_config, eager_pool, omega):
        # at jobs=3 a real pool runs every row, one row a chunk;
        # at omega != 0 the rows take the complex-QZ resolvent
        outs = []
        for jobs in (1, 3):
            out = tmp_path / f"out{jobs}"
            code = _run(["run", "--config", fast_config, "--out", out,
                         "--jobs", jobs, "--delta1-min", -20,
                         "--delta1-max", 20, "--delta1-points", 7, "--omega", omega])
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
        cfg["coherence"] = {**asdict(params.rates), "gamma12": 0.06}   # gamma1 = 3 MHz
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
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("scenario", [["--scenario", "fig2-a"], []])
    def test_spectrum_config_delta1_refused(self, tmp_path, fast_doppler, capsys, scenario):
        # a spectrum takes delta1 from its grid: a config giving another
        # delta1 is refused, not silently replaced (fig3 keeps using it)
        cfg = params_to_config(baseline_params(doppler=fast_doppler))
        cfg["field"]["delta1"] = 37.0
        path = tmp_path / "delta1.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code = _run(["run", *scenario, "--config", path, "--out", tmp_path / "o", "--jobs", 1,
                     "--delta1-min", -2, "--delta1-max", 2, "--delta1-points", 3])
        assert code == 2
        assert "discard field.delta1 = 37.0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_absorption_only_omega_refused(self, tmp_path, capsys):
        # an absorption-only spectrum has no V12 to take omega: a nonzero
        # omega is refused, not silently dropped and recorded as run
        code = _run(["run", "--scenario", "fig2-e", "--omega", 50, "--out", tmp_path / "o",
                     *_RUN_GRID])
        assert code == 2
        assert "discard omega = 50.0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert _run(["run", "--scenario", "fig2-e", "--omega", 0, "--out", tmp_path / "o",
                     *_RUN_GRID]) == 0

    def test_pump_sweep_uses_config_delta1(self, tmp_path, fast_doppler):
        cfg = params_to_config(baseline_params(doppler=fast_doppler))
        tables = []
        for delta1 in (0.0, 37.0):
            cfg["field"]["delta1"] = delta1
            path = tmp_path / f"{delta1}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            out = tmp_path / f"o{delta1}"
            assert _run(["run", "--scenario", "fig3", "--config", path,
                         "--out", out, "--jobs", 1]) == 0
            tables.append((out / "fig3.csv").read_bytes())
        assert tables[0] != tables[1]

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
        assert "discard decay.p" in err
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

    @pytest.mark.parametrize("width, message", [(1e6, "alpha2 = 1 row at the Doppler width"),
                                                (1e307, "doppler.width must be")])
    def test_pump_sweep_refuses_a_width_its_rows_exceed(self, tmp_path, capsys, width,
                                                        message):
        # the rows run at the width times 50 / alpha2, up to 50 times the
        # config's, and are checked before any row runs
        cfg = params_to_config(baseline_params())
        cfg["doppler"]["width"] = width
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code = _run(["run", "--scenario", "fig3", "--config", path, "--out", tmp_path / "o",
                     "--jobs", 1])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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


# `run` flags after the explicit grid override it
_RUN_GRID = ["--jobs", "1", "--delta1-min", "-20", "--delta1-max", "20", "--delta1-points", "3"]


def _exit_code(args):
    """Exit code of the CLI, whether main returns it or argparse exits."""
    try:
        return _run(args)
    except SystemExit as exc:
        return exc.code


def _feature_csv(path):
    """A small dip on a +-40 MHz grid, a valid feature-report input."""
    axis = np.linspace(-40.0, 40.0, 81)
    ones = np.ones_like(axis)
    SpectrumTable(delta1=axis, v12=ones - 0.5 / (1.0 + axis ** 2), du2=ones, dv2=ones,
                  absorption=ones).write_csv(path)
    return path


def huge_integer_config(doc, path):
    doc["field"]["alpha1"] = 10**400   # an integer literal beyond the float range
    path.write_text(json.dumps(doc), encoding="utf-8")


def missing_config(doc, path):
    pass


def utf16_config(doc, path):
    path.write_bytes(json.dumps(doc).encode("utf-16"))


def trapezoid_nodes_config(doc, path):
    # refused at load: building this rule would exhaust memory first
    doc["doppler"].update(rule="trapezoid", nodes=10**12)
    path.write_text(json.dumps(doc), encoding="utf-8")


def wide_span_config(doc, path):
    # two nodes at +-40 widths: both weights underflow to 0, normalized NaN
    doc["doppler"].update(rule="trapezoid", nodes=2, span=40.0)
    path.write_text(json.dumps(doc), encoding="utf-8")


def no_coupling_route_config(doc, path):
    # neither a direct g1 nor a dipole moment to derive it from
    doc["field"].update(g1=None, mu12=None)
    path.write_text(json.dumps(doc), encoding="utf-8")


def huge_radius_config(doc, path):
    # r * r overflows the float range
    doc["geometry"].update(r=1e200)
    path.write_text(json.dumps(doc), encoding="utf-8")


def huge_volume_config(doc, path):
    # r and L are finite, their volume is not
    doc["geometry"].update(r=100.0, L=1e308)
    path.write_text(json.dumps(doc), encoding="utf-8")


def huge_width_fig2_config(doc, path):
    # squared velocity shifts overflow, and the absorption rounds to noise
    doc["doppler"].update(width=1e200)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["--scenario", "fig2-a"]


def wide_span_absorption_config(doc, path):
    wide_span_config(doc, path)
    return ["--scenario", "fig2-g"]


class TestBadInput:
    # a list is extra flags; a dotted name is a config field set to Infinity,
    # which json.loads accepts; a function writes (or not) the config file
    # from the valid document and may return extra flags
    @pytest.mark.parametrize("command, change", [
        ("run", ["--omega", "nan"]),
        ("run", ["--omega", "inf"]),
        ("run", ["--delta1-min", "nan"]),
        ("run", ["--delta1-max", "inf"]),
        ("run", "field.alpha1"),
        ("run", "geometry.L"),
        ("run", "doppler.width"),
        ("feature-report", ["--half-width", "-1"]),
        ("feature-report", ["--half-width", "nan"]),
        ("feature-report", ["--half-width", "1000"]),
        ("feature-report", ["--location", "500"]),
        ("run", huge_integer_config),
        ("run", missing_config),
        ("run", utf16_config),
        ("run", trapezoid_nodes_config),
        ("run", wide_span_config),
        ("run", wide_span_absorption_config),
        ("run", huge_width_fig2_config),
        ("run", no_coupling_route_config),
        ("run", huge_radius_config),
        ("run", huge_volume_config),
        ("run", ["--delta1-min", "0", "--delta1-max", "1", "--delta1-points", "1000000000000"]),
    ])
    def test_exit_2(self, tmp_path, fast_config, capsys, command, change):
        out = tmp_path / "out"
        if command == "feature-report":
            args = [command, _feature_csv(tmp_path / "spec.csv"), *change]
        elif callable(change):
            config = tmp_path / "bad.json"
            flags = change(json.loads(fast_config.read_text(encoding="utf-8")), config)
            args = [command, "--config", config, "--out", out, *_RUN_GRID, *(flags or [])]
        elif isinstance(change, str):
            section, key = change.split(".")
            doc = json.loads(fast_config.read_text(encoding="utf-8"))
            doc[section][key] = float("inf")
            config = tmp_path / "infinite.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            assert "Infinity" in config.read_text(encoding="utf-8")
            args = [command, "--config", config, "--out", out, *_RUN_GRID]
        else:
            args = [command, "--config", fast_config, "--out", out, *_RUN_GRID, *change]
        assert _exit_code(args) == 2
        assert "physics error" not in capsys.readouterr().err
        assert not out.exists()

    def test_valid_feature_input_passes(self, tmp_path, capsys):
        # the inputs above fail only through the changed flag
        assert _run(["feature-report", _feature_csv(tmp_path / "spec.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "dip"


class TestOutPath:
    # an --out under an existing file could never be written; it is
    # rejected before the sweep, and the file is left as it was
    @pytest.mark.parametrize("under", ["", "sub"])
    def test_run_rejects_a_file_before_sweeping(self, tmp_path, fast_config, monkeypatch,
                                                capsys, under):
        blocker = tmp_path / "F"
        blocker.write_text("kept\n", encoding="utf-8")

        def no_sweep(*args, **kwargs):
            raise AssertionError("swept")

        monkeypatch.setattr(cli.experiments, "run_scenario", no_sweep)
        args = ["run", "--config", fast_config, "--out", blocker / under, *_RUN_GRID]
        assert _run(args) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert blocker.read_text(encoding="utf-8") == "kept\n"

    def test_validate_rejects_a_file_before_checking(self, tmp_path, monkeypatch, capsys):
        from laddertangle import validation

        blocker = tmp_path / "F"
        blocker.write_text("kept\n", encoding="utf-8")
        monkeypatch.setattr(validation, "run_all", lambda: pytest.fail("checks ran"))
        assert _run(["validate", "--out", blocker / "x.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert blocker.read_text(encoding="utf-8") == "kept\n"

    def test_validate_rejects_a_directory_before_checking(self, tmp_path, monkeypatch,
                                                          capsys):
        from laddertangle import validation

        report = tmp_path / "report"
        report.mkdir()
        monkeypatch.setattr(validation, "run_all", lambda: pytest.fail("checks ran"))
        assert _run(["validate", "--out", report]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert report.is_dir() and not any(report.iterdir())

    def test_write_failure_exit_2(self, tmp_path, fast_config, monkeypatch, capsys):
        def full_disk(self, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(SpectrumTable, "write_csv", full_disk)
        args = ["run", "--config", fast_config, "--out", tmp_path / "out", *_RUN_GRID]
        assert _run(args) == 2
        assert "error: cannot write outputs" in capsys.readouterr().err


_DETERMINISM_RUNS = [
    ("fig2-c", ["--delta1-min", "-40", "--delta1-max", "40", "--delta1-points", "9"]),
    ("fig4-c", ["--delta1-min", "190", "--delta1-max", "210", "--delta1-points", "9"]),
    ("fig3", []),
    ("fig2-a", ["--omega", "50", "--delta1-min", "-4", "--delta1-max", "4",
                "--delta1-points", "9"]),
    # absorption only: stacked chunks here at --jobs 1, and pooled stacked
    # chunks at --jobs 2
    ("fig2-g", ["--delta1-min", "-400", "--delta1-max", "400", "--delta1-points", "801"]),
    # V12 rows in stacked chunks, and at --jobs 2 pooled stacked chunks
    # (TestDeterminism.test_long_v12_window_opens_the_pool)
    ("fig2-b", ["--delta1-min", "-400", "--delta1-max", "400", "--delta1-points", "401"])]

# runs the cli.main argument lists of argv[1] (JSON) in order, and stops at
# the first nonzero exit
_RUN_IN_ORDER = """import json, sys
from laddertangle import cli
for args in json.loads(sys.argv[1]):
    if cli.main(args) != 0:
        sys.exit(f"nonzero exit of {args}")
"""


@pytest.fixture(scope="module")
def determinism_csvs(tmp_path_factory):
    """CSV bytes of every _DETERMINISM_RUNS scenario, keyed by (scenario,
    OPENBLAS_NUM_THREADS, --jobs).  Each (threads, jobs) pair is one fresh
    interpreter, so the BLAS thread count applies from the start; it runs
    the scenarios in a fixed order, and jobs=2 lets a long sweep hand rows
    to pool workers."""
    csvs = {}
    for threads in ("1", "2"):
        for jobs in ("1", "2"):
            out = tmp_path_factory.mktemp(f"t{threads}-j{jobs}")
            runs = [["run", "--scenario", scenario, "--out", str(out), "--jobs", jobs, *grid]
                    for scenario, grid in _DETERMINISM_RUNS]
            done = subprocess.run([sys.executable, "-c", _RUN_IN_ORDER, json.dumps(runs)],
                                  env=package_env(OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, text=True)
            if done.returncode != 0:
                pytest.fail(f"threads={threads} jobs={jobs}: {done.stderr}")
            for scenario, _ in _DETERMINISM_RUNS:
                csvs[scenario, threads, jobs] = (out / f"{scenario}.csv").read_bytes()
    return csvs


class TestDeterminism:
    @pytest.mark.parametrize("scenario, grid", _DETERMINISM_RUNS)
    def test_bytes_independent_of_blas_threads_and_jobs(self, determinism_csvs, scenario,
                                                         grid):
        payloads = {determinism_csvs[scenario, threads, jobs]
                    for threads in ("1", "2") for jobs in ("1", "2")}
        assert len(payloads) == 1


    def test_long_v12_window_opens_the_pool(self, tmp_path, recording_pool, core_mask):
        core_mask(2)
        scenario, grid = _DETERMINISM_RUNS[-1]
        assert _run(["run", "--scenario", scenario, "--out", tmp_path, "--jobs", 2, *grid]) == 0
        assert [workers for workers, _ in recording_pool] == [2]


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
