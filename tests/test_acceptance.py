"""Acceptance suite: the seeded checks of ``wassray.verify``, run under pytest.

Every acceptance criterion is one or more named checks in ``wassray.verify``,
which holds its bound. This file only picks the seeds, bounds the wall time
of three suites, and pins the bytes of the ``all`` report. Run
``pytest tests/test_acceptance.py -v -s`` to see one ``PASS name | detail``
line per check and seed.
"""

import functools
import hashlib
import time

from wassray.verify import format_report, run_suite

# More seeds, not bigger loops, give each criterion its sample count: ot at
# 8 seeds checks 400 metric triples and the tail bound on 800 plans, ray at
# 10 seeds checks 500 pairs of geodesic sections.
SEEDS = {"ot": range(1, 9), "ray": range(1, 11), "busemann": (1,), "coray": (1,)}

ALL_REPORT_SEED_1_SHA256 = "9276a3f5c0dbd84d2cc0d38f569221453db7699f681dbea9742a4196c7c1d231"

# acceptance criterion -> its suite and the names of the checks that carry it
CRITERIA = {
    1: ("ot", ["exact solver matches the exhaustive permutation oracle"]),
    2: ("ot", ["distance is symmetric", "triangle inequality holds"]),
    3: ("ray", ["lifted geodesics run at unit speed between sections"]),
    4: ("ot", ["tail mass beyond radius R stays under (cost/R)**p"]),
    5: (
        "ray",
        [
            "single-atom ray passes pair-coupling validation",
            "translation rays pass pair-coupling validation",
            "crossing ray family is rejected with a positive gap",
        ],
    ),
    6: ("busemann", ["every recorded schedule is non-increasing and above its lower bound"]),
    7: ("busemann", ["single-atom values match the Euclidean closed form"]),
    8: ("busemann", ["values along the ray itself decrease at unit rate"]),
    9: ("busemann", ["value differences stay under the distance between arguments"]),
    10: ("coray", ["Busemann values fall at unit rate along constructed co-rays"]),
    11: ("coray", ["rebuilding from a later section reproduces the shifted co-ray"]),
    12: ("coray", ["value solves the metric eikonal fixed point"]),
    13: ("coray", ["geodesic lengths track target times within the start offset"]),
}


@functools.cache
def timed_run(suite, seed):
    started = time.perf_counter()
    results = run_suite(suite, seed)
    return results, time.perf_counter() - started


def assert_passed(suite, seed, result):
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name} | {result.detail}")
    assert result.passed, f"{suite} seed {seed}: {result.name} | {result.detail}"


def assert_criterion(number, max_seconds=None):
    """Assert the criterion's checks, and the run time of their whole suite, at every seed."""
    suite, names = CRITERIA[number]
    for seed in SEEDS[suite]:
        results, elapsed = timed_run(suite, seed)
        assert sorted(r.name for r in results if r.name in names) == sorted(names)
        for result in results:
            if result.name in names:
                assert_passed(suite, seed, result)
        if max_seconds is not None:
            assert elapsed < max_seconds, f"{suite} seed {seed} took {elapsed:.2f}s"


def test_criterion_01_oracle_equivalence():
    assert_criterion(1, max_seconds=5.0)


def test_criterion_02_metric_axioms():
    assert_criterion(2)


def test_criterion_03_geodesic_speed_identity():
    assert_criterion(3)


def test_criterion_04_tail_mass_bound():
    assert_criterion(4)


def test_criterion_05_ray_validation():
    assert_criterion(5)


def test_criterion_06_busemann_monotonicity():
    assert_criterion(6)


def test_criterion_07_closed_form_busemann():
    assert_criterion(7, max_seconds=1.0)


def test_criterion_08_along_ray_identity():
    assert_criterion(8)


def test_criterion_09_lipschitz():
    assert_criterion(9)


def test_criterion_10_coray_gradient():
    assert_criterion(10, max_seconds=30.0)


def test_criterion_11_subray_uniqueness():
    assert_criterion(11)


def test_criterion_12_viscosity():
    assert_criterion(12)


def test_criterion_13_schedule_ratio():
    assert_criterion(13)


def test_criterion_14_deterministic_verify_report():
    report = format_report("all", 1, run_suite("all", 1))
    print(report, end="")
    assert "checks: 28 run, 0 failed" in report.splitlines()
    assert hashlib.sha256(report.encode()).hexdigest() == ALL_REPORT_SEED_1_SHA256


def test_checks_outside_the_criteria():
    claimed = {name for _, names in CRITERIA.values() for name in names}
    for suite, seeds in SEEDS.items():
        for seed in seeds:
            for result in timed_run(suite, seed)[0]:
                if result.name not in claimed:
                    assert_passed(suite, seed, result)
