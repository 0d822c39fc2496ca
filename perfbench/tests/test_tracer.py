"""The outside-in tracer and the benchmark's output checks."""

import numpy as np
import pytest

import wassray
import wassray.coray
import wassray.ot
import wassray.paths
import wassray.verify
from tracer import SOLVE_CALLERS, Tracer, layer_metrics
from workloads import (
    OK,
    RaySchedules,
    Transport,
    assignment_cost,
    coray_section_gap,
    monotone_cost,
)


def _measure(rng, n, d):
    w = rng.random(n) + 0.1
    return wassray.DiscreteMeasure(rng.uniform(-1.0, 1.0, size=(n, d)), w / w.sum())


def test_coray_solves_by_caller_add_up():
    rng = np.random.default_rng(0)
    ray = wassray.make_translation_ray(_measure(rng, 3, 2), (1.0, 0.0), p=2.0)
    schedule = (2.0, 4.0, 8.0, 16.0)
    tracer = Tracer()
    with tracer:
        wassray.construct_coray(ray, _measure(rng, 3, 2), schedule=schedule)
    metrics = layer_metrics(tracer.take())
    by_caller = {c: metrics[f"ot.solves.{c}"] for c in SOLVE_CALLERS}
    assert metrics["ot.solve_calls"] > 0
    assert sum(by_caller.values()) == metrics["ot.solve_calls"]
    # one target solve and one re-solve inside lift_geodesic per schedule step
    assert by_caller["paths.lift_geodesic"] == len(schedule)
    assert metrics["coray.construct_calls"] == 1
    assert metrics["coray.solves_per_construct"] == metrics["ot.solve_calls"]


def test_install_patches_every_binding_and_uninstall_restores():
    original = wassray.ot.solve_ot
    suite = wassray.verify._SUITES["ot"]
    with Tracer():
        for module in (wassray, wassray.ot, wassray.paths, wassray.coray, wassray.verify):
            assert module.solve_ot is not original
        assert wassray.verify._SUITES["ot"] is not suite
    for module in (wassray, wassray.ot, wassray.paths, wassray.coray, wassray.verify):
        assert module.solve_ot is original
    assert wassray.verify._SUITES["ot"] is suite


def test_failed_lp_is_recorded_and_spans_close():
    # far sections at p = 16 overflow the LP at the seed commit; whichever
    # way the solve ends, every span must be closed and the stack empty
    rng = np.random.default_rng(1)
    ray = wassray.make_translation_ray(_measure(rng, 4, 2), (0.0, 1.0), p=16.0)
    tracer = Tracer()
    with tracer:
        try:
            wassray.busemann_value(ray, _measure(rng, 4, 2))
        except RuntimeError:
            pass
    spans = tracer.take()
    assert all(end >= start for _, _, start, end, _ in spans)
    metrics = layer_metrics(spans)
    errors = sum(1 for s in spans if s[0] == "ot._solve_lp" and "error" in (s[4] or {}))
    assert metrics["ot.lp_failures"] == errors


@pytest.mark.parametrize("p", [1.5, 2.0, 8.0])
def test_one_dimensional_oracle_matches_assignment(p):
    rng = np.random.default_rng(2)
    x, y = rng.random((7, 1)), rng.random((7, 1))
    w = np.full(7, 1.0 / 7)
    assert monotone_cost(x[:, 0], w, y[:, 0], w, p) == pytest.approx(
        assignment_cost(x, y, p), rel=1e-12
    )


def test_coray_gap_of_the_translated_start_is_zero_and_detects_drift():
    nu0 = wassray.DiscreteMeasure([[0.0, 0.0], [1.0, 2.0]], [0.25, 0.75])
    v = np.array([0.6, 0.8])
    exact = wassray.make_translation_ray(nu0, v, p=2.0)
    from wassray.io import format_ray

    assert coray_section_gap(format_ray(exact), nu0, v, 2.0) == 0.0
    tilted = wassray.make_translation_ray(nu0, [0.8, 0.6], p=2.0)
    assert coray_section_gap(format_ray(tilted), nu0, v, 2.0) > 1e-3


@pytest.mark.parametrize("workload", [Transport, RaySchedules])
def test_every_operation_of_a_block_succeeds(workload, tmp_path):
    ops = workload(3, tmp_path).block(0)
    assert [op.check(op.run()) for op in ops] == [OK] * len(ops)
