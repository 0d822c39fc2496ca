"""BENCHMARK.json lists exactly the metrics the runner prints."""

import json
from pathlib import Path

from run import END_TO_END, WORKLOAD_NAMES
from tracer import LAYER_METRICS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END


def test_per_layer_metrics_match_the_tracer():
    expected = {m.name: m.unit for m in LAYER_METRICS}
    expected["trace_overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == expected


def test_workloads_match_the_runner():
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(WORKLOAD_NAMES)
