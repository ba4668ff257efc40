"""Tests of the benchmark itself: seeded inputs, metric names, the
correctness gate, the speed calibration and the tracer's clean-up.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import ast
import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402

import laddertangle  # noqa: E402
from laddertangle.tables import SpectrumTable  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    w = W.WORKLOADS[name]
    assert W.take_calls(w, 7, 12) == W.take_calls(w, 7, 12)
    assert W.pick_rows(name, 7, "accuracy", 40, 3) == W.pick_rows(name, 7, "accuracy", 40, 3)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_different_seed_gives_different_inputs(name):
    w = W.WORKLOADS[name]
    assert W.take_calls(w, 7, 12) != W.take_calls(w, 8, 12)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_inputs_are_valid_grids(name):
    w = W.WORKLOADS[name]
    calls = W.take_calls(w, 3, 20)
    if w.kind == "cli":
        for lo, hi, points in calls:
            grid = np.linspace(lo, hi, points)
            assert 0.0 in grid and 200.0 in grid
        return
    if w.kind == "row":
        assert [c[0] for c in calls[:len(w.anchors)]] == list(w.anchors)
    else:
        assert set(w.anchors) <= set(calls[0])
    for values in calls:
        assert len(values) == w.chunk
        assert all(b > a for a, b in zip(values, values[1:]))


def test_metric_names_are_well_formed():
    spec = _spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)


def test_tracer_emits_every_listed_per_layer_metric():
    tr = tracer.Tracer(laddertangle)
    with tr:
        wrapped = set(tr.wrapped)
    emitted = set(tracer.layer_metrics({}, wrapped, rows=1)) | {"trace.overhead_frac"}
    assert emitted == {m["name"] for m in _spec()["per_layer"]}


def test_missing_function_gives_absent_metric():
    tr = tracer.Tracer(laddertangle)
    with tr:
        wrapped = set(tr.wrapped)
    wrapped.discard("numerics._quadrature_propagation_integral")
    wrapped.discard("bloch.generator_matrix")
    metrics = tracer.layer_metrics({}, wrapped, rows=1)
    assert "numerics.propagation_fallback_frac" not in metrics
    assert "bloch.generator_matrix.us_per_class" not in metrics
    assert "bloch.steady_state_batch.us_per_class" in metrics


def _attributes(tr):
    owners = [tr.package, *tr.modules.values()]
    owners += [obj for m in tr.modules.values() for obj in vars(m).values()
               if isinstance(obj, type) and obj.__module__ == m.__name__]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_every_attribute_it_wrapped():
    tr = tracer.Tracer(laddertangle)
    before = _attributes(tr)
    original = laddertangle.bloch.generator_matrix
    with tr:
        assert laddertangle.bloch.generator_matrix is not original
        # the alias bound by "from .bloch import generator_matrix" is wrapped too
        assert laddertangle.fluctuations.generator_matrix is laddertangle.bloch.generator_matrix
        laddertangle.experiments.baseline_params(p=1.0)
    after = _attributes(tr)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {span[0] for span in tr.spans}
    assert {"experiments.baseline_params", "model.derive_coherence_rates"} <= names


def test_span_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, 5], ["c", 5.0, 6.0, 0, None]]
    summary = tracer.summarize(spans)
    assert summary["a"]["self_s"] == pytest.approx(6.0)
    assert summary["b"]["work"] == 5


def _cli_output(tmp_path):
    table = SpectrumTable(delta1=np.array([0.0, 10.0]), v12=np.array([4.1, 4.2]),
                          du2=np.array([2.0, 2.1]), dv2=np.array([2.1, 2.1]),
                          absorption=np.array([0.5, 0.25]))
    path = tmp_path / "fig4-c.csv"
    table.write_csv(path)
    manifest = {"files": {path.name: checks.sha256_bytes(path.read_bytes())}}
    return table, path, manifest


def test_gate_rejects_tampered_csv(tmp_path):
    _, path, manifest = _cli_output(tmp_path)
    assert checks.manifest_errors(path.read_bytes(), manifest, path.name) == []
    tampered = path.read_bytes().replace(b"4.2", b"4.3")
    assert checks.manifest_errors(tampered, manifest, path.name)
    assert checks.manifest_errors(path.read_bytes(), {"files": {}}, path.name)


def test_gate_rejects_perturbed_v12(tmp_path):
    table, path, _ = _cli_output(tmp_path)
    header, rows = checks.csv_rows(path.read_text())

    def recompute(perturbed_row):
        def fn(delta1):
            k = int(np.flatnonzero(table.delta1 == delta1)[0])
            v12 = table.v12[k]
            if k == perturbed_row:
                v12 = np.nextafter(v12, np.inf)   # one unit in the last place
            return {"v12": v12, "du2": table.du2[k], "dv2": table.dv2[k],
                    "absorption": table.absorption[k]}
        return fn

    assert checks.recompute_mismatches(header, rows, [0, 1], recompute(None)) == []
    assert checks.recompute_mismatches(header, rows, [0, 1], recompute(1)) == [1]


def test_finite_check():
    assert checks.all_finite([1.0, 2.0])
    assert not checks.all_finite([1.0, float("nan")])
    assert not checks.all_finite([float("inf")])


def _imported_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").split(".")[0])
    return names


def test_calibration_kernel_is_independent_of_the_program():
    assert _imported_modules(Path(speed.__file__)) <= {"__future__", "bisect", "numpy",
                                                        "statistics", "time"}
    kernel = speed.Kernel()
    assert kernel.run() == kernel.run()


class _SleepKernel:
    def run(self):
        time.sleep(0.001)
        return 0.0


def test_calibrator_keeps_its_share_and_follows_the_kernel_around_each_call():
    cal = speed.Calibrator(_SleepKernel())
    cal.after_call(0.02)
    assert cal.kernel_s >= speed.KERNEL_SHARE * 0.02 and len(cal.samples) == len(cal.times) >= 1
    # the host runs twice as slow in the second half of a sweep
    cal.times = [float(t) for t in range(40)]
    cal.samples = [0.048] * 20 + [0.096] * 20
    assert cal.factor_at(5.0) == pytest.approx(speed.KERNEL_REF_MS / 48.0)
    assert cal.factor_at(35.0) == pytest.approx(speed.KERNEL_REF_MS / 96.0)
    assert cal.factor_at(-1.0) == cal.factor_at(5.0)
    assert cal.factor_at(99.0) == cal.factor_at(35.0)


def test_timing_pools_calls_and_scales_only_when_asked():
    import run
    calls = [[0.10, 0.5, 1], [0.20, 0.5, 1], [0.40, 1.0, 2]]   # seconds, factor, rows
    raw = run.timing(4, calls, scaled=False)
    assert raw["points_per_s"] == pytest.approx(4 / 0.70)
    assert raw["point_ms_p50"] == pytest.approx(200.0)
    scaled = run.timing(4, calls, scaled=True)
    assert scaled["points_per_s"] == pytest.approx(4 / 0.55)
    assert scaled["point_ms_p50"] == pytest.approx(100.0)
    assert scaled["point_ms_p90"] == pytest.approx(180.0)
