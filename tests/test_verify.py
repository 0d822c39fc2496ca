"""The acceptance gate of ``wassray.verify``: a NaN residual fails its check, never passes it."""

import numpy as np

from wassray import verify


def test_bounded_gates_on_the_largest_value_and_fails_nan():
    limit = 1e-9
    at_limit = verify._bounded("c", [0.0, limit], limit, "{worst} (limit {limit})")
    assert at_limit.passed
    assert at_limit.detail == "1.000000e-09 (limit 1e-09)"
    assert not verify._bounded("c", [np.nextafter(limit, np.inf)], limit, "{worst}").passed
    nan = verify._bounded("c", [np.nan, 0.0], limit, "{worst} (limit {limit})")
    assert not nan.passed
    assert nan.detail == "nan (limit 1e-09)"


def test_metric_axioms_fail_on_nan_distances(monkeypatch):
    monkeypatch.setattr(verify, "wasserstein_distance", lambda *args: float("nan"))
    results = {r.name: r for r in verify.ot_checks(1)}
    for name, shown in (
        ("distance is symmetric", "max asymmetry nan over 50 pairs"),
        ("triangle inequality holds", "max violation nan over 50 triples"),
    ):
        assert not results[name].passed
        assert results[name].detail.startswith(shown)
