"""The installed package must pass its own invariant suite."""

import json

import numpy as np
import pytest

from laddertangle import validation


def test_run_all_passes():
    results = validation.run_all()
    assert len(results) >= 7
    failures = [r for r in results if not r.passed]
    assert not failures, "\n".join(f"{r.name}: {r.detail}" for r in failures)


def test_results_serialize():
    for result in validation.run_all():
        d = result.to_dict()
        assert set(d) == {"name", "passed", "detail", "metrics"}
        json.dumps(d)


def test_check_names_unique():
    names = [r.name for r in validation.run_all()]
    assert len(names) == len(set(names))


def test_physicality_check_certifies_dissipative_drift(monkeypatch):
    result = validation.check_steady_state_physicality(draws=3)
    assert result.passed
    assert result.metrics["max_drift_eigenvalue"] < 0.0
    # a drift with a growing mode fails the check instead of raising
    monkeypatch.setattr(validation.bloch, "reduce_generator",
                        lambda g: 0.5 * np.eye(8)[None])
    result = validation.check_steady_state_physicality(draws=3)
    assert not result.passed
    assert result.metrics["max_drift_eigenvalue"] == pytest.approx(0.5)
