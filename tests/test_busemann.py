import numpy as np
import pytest

import wassray as w
from wassray.errors import MonotonicityError, UnitSpeedError

from conftest import (
    GENUINE_RAY_KINDS,
    genuine_ray_case,
    random_measure,
    unit_speed,
    weighted_translation_setup,
)


@pytest.fixture
def line_ray():
    return w.make_dirac_ray((0.0, 0.0), (1.0, 0.0))


def test_along_ray_value_is_minus_one_at_every_time(line_ray):
    nu = w.ray_section(line_ray, 1.0)
    est = w.busemann_value(line_ray, nu)
    assert est.value == pytest.approx(-1.0, abs=1e-12)
    for t, v in est.schedule:
        if t >= 1.0:
            assert v == pytest.approx(-1.0, abs=1e-12)


def test_closed_form_offset_point(line_ray):
    # lim sqrt(t^2 + 1) - t = 0
    est = w.busemann_value(line_ray, w.dirac((0.0, 1.0)))
    assert abs(est.value) <= 1e-4
    assert est.converged


def test_closed_form_general_point(line_ray):
    # closed form -<x, v> = -2; cross-check by a direct far evaluation
    est = w.busemann_value(line_ray, w.dirac((2.0, 5.0)))
    assert est.value == pytest.approx(-2.0, abs=1e-4)
    far = 2.0**20
    direct = np.hypot(far - 2.0, 5.0) - far
    assert direct == pytest.approx(-2.0, abs=1e-4)
    # truncations decrease toward the limit from above, and the estimate
    # ran past t = 2^20
    assert -2.0 - 1e-9 <= est.value <= direct + 1e-9


def test_schedule_monotone_and_bounded(line_ray, rng):
    for _ in range(5):
        nu = random_measure(rng, max_atoms=3)
        est = w.busemann_value(line_ray, nu)
        values = [v for _, v in est.schedule]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        assert all(v >= est.lower_bound - 1e-9 for v in values)
        assert est.value >= est.lower_bound - 1e-9
        assert est.last_decrement >= 0.0


def test_lower_bound_is_distance_to_origin_section(line_ray):
    nu = w.dirac((3.0, 4.0))
    est = w.busemann_value(line_ray, nu)
    assert est.lower_bound == -5.0


def test_non_unit_speed_rejected():
    fast = w.make_dirac_ray((0.0, 0.0), (2.0, 0.0))
    with pytest.raises(UnitSpeedError):
        w.busemann_value(fast, w.dirac((0.0, 0.0)))


def test_parameter_validation(line_ray):
    nu = w.dirac((0.0, 1.0))
    with pytest.raises(ValueError):
        w.busemann_value(line_ray, nu, t0=0.0)
    with pytest.raises(ValueError):
        w.busemann_value(line_ray, nu, tol=0.0)
    with pytest.raises(ValueError):
        w.busemann_value(line_ray, nu, max_doublings=0)


def test_schedule_exhaustion_reported(line_ray):
    est = w.busemann_value(line_ray, w.dirac((0.0, 1.0)), tol=1e-15, max_doublings=3)
    assert not est.converged
    assert est.t_final == 8.0


def test_unit_speed_translation_ray_value(rng):
    # along a translation ray the value at its own section is -s too
    mu0 = random_measure(rng, max_atoms=3)
    ray = w.make_translation_ray(mu0, (0.0, 1.0))
    for s in (0.0, 2.0):
        est = w.busemann_value(ray, w.ray_section(ray, s))
        assert est.value == pytest.approx(-s, abs=1e-9)


def test_lipschitz_identical_arguments(line_ray):
    nu = w.dirac((1.0, 2.0))
    report = w.lipschitz_check(line_ray, nu, nu)
    assert report.difference == 0.0
    assert report.distance == 0.0
    assert report.passed


def test_lipschitz_dirac_closed_forms(line_ray):
    # values are -a1 and -a2, so the difference is |a2 - a1| <= distance
    report = w.lipschitz_check(line_ray, w.dirac((1.0, 2.0)), w.dirac((-0.5, 3.0)))
    assert report.passed
    assert report.difference == pytest.approx(1.5, abs=1e-4)
    assert report.distance == pytest.approx(np.hypot(1.5, 1.0), abs=1e-12)


def test_lipschitz_random_pairs(line_ray, rng):
    for _ in range(20):
        report = w.lipschitz_check(line_ray, random_measure(rng), random_measure(rng))
        assert report.passed


def test_doubling_reuses_certified_plans(lp_shapes):
    # weighted multi-atom translation ray: every solve of the schedule takes
    # the LP branch, but once the plan settles its certificate holds at each
    # later time, so nearly all of the 21 solves skip the LP
    rng = np.random.default_rng(7)
    mu0 = w.DiscreteMeasure(rng.normal(size=(4, 2)), [0.1, 0.2, 0.3, 0.4])
    nu = w.DiscreteMeasure(rng.normal(size=(3, 2)), [0.5, 0.3, 0.2])
    ray = w.make_translation_ray(mu0, (1.0, 0.0))
    est = w.busemann_value(ray, nu)
    assert est.converged and len(est.schedule) == 20
    assert len(lp_shapes) <= 3
    # p = 2 closed form for a translation ray: <mean(mu0) - mean(nu), v>
    closed = float((mu0.weights @ mu0.atoms - nu.weights @ nu.atoms)[0])
    assert est.value == pytest.approx(closed, abs=1e-4)


@pytest.mark.parametrize("p", [3.0, 4.0, 8.0, 16.0])
def test_high_order_translation_ray_matches_closed_form(p):
    # far sections give costs far beyond 1e15, past the reach of a solver
    # with absolute tolerances, which the certified simplex handles;
    # b(nu) = <mean(mu0) - mean(nu), v> for a translation ray at every p
    mu0, nu, v = weighted_translation_setup()
    est = w.busemann_value(w.make_translation_ray(mu0, v, p=p), nu)
    closed = float((mu0.weights @ mu0.atoms - nu.weights @ nu.atoms) @ v)
    assert est.converged
    assert est.value == pytest.approx(closed, abs=1e-4)


@pytest.mark.parametrize("kind,p", GENUINE_RAY_KINDS)
def test_exact_value_bounds_the_truncation(kind, p):
    # the truncation is non-increasing toward the limit, so it stays above
    # it (the verify check's bound); from above it meets the limit within
    # the 1e-4 the closed-form tests allow, which is no theorem
    ray, probes = genuine_ray_case(kind, p)
    assert w.validate_ray(ray).passed
    for nu in probes:
        exact = w.busemann_exact(ray, nu)
        est = w.busemann_value(ray, nu)
        assert est.converged
        assert est.value >= exact.value - 1e-9
        assert est.value == pytest.approx(exact.value, abs=1e-4)
        assert exact.lower_bound == est.lower_bound


@pytest.mark.parametrize("kind,p", GENUINE_RAY_KINDS)
def test_exact_plan_attains_the_value(kind, p):
    ray, probes = genuine_ray_case(kind, p)
    for nu in probes:
        exact = w.busemann_exact(ray, nu)
        assert np.all(exact.masses > 0.0)
        rows = np.bincount(exact.left, exact.masses, len(nu))
        columns = np.bincount(exact.right, exact.masses, len(ray))
        assert np.max(np.abs(rows - nu.weights)) <= 1e-12
        assert np.max(np.abs(columns - ray.weights)) <= 1e-12
        # S(pi) from the expansion, summed entry by entry
        v = ray.velocities[exact.right]
        offsets = nu.atoms[exact.left] - ray.origins[exact.right]
        gain = np.linalg.norm(v, axis=1) ** (p - 2.0) * np.sum(offsets * v, axis=1)
        assert exact.value == pytest.approx(-float(exact.masses @ gain), abs=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_exact_value_with_a_resting_ray(p):
    # a ray with v = 0 adds nothing to the limiting cost, also at p < 2
    # where |v|**(p - 2) is infinite; half the mass, from 0.5, rides the ray
    # leaving 1 at speed s = 2**(1/p), at cost -s**(p - 2) (0.5 - 1) s each
    ray = unit_speed([[0.0], [1.0]], [[0.0], [1.0]], [0.5, 0.5], p)
    nu = w.DiscreteMeasure([[-1.0], [0.5]], [0.3, 0.7])
    exact = w.busemann_exact(ray, nu)
    assert exact.value == pytest.approx(0.25 * 2.0 ** ((p - 1.0) / p), abs=1e-15)
    est = w.busemann_value(ray, nu)
    assert exact.value - 1e-9 <= est.value
    if p > 2.0:  # below p = 2 the truncation error decays only like t**(1 - p)
        assert est.value == pytest.approx(exact.value, abs=1e-4)


def test_exact_value_along_the_ray_and_at_dirac_probes(line_ray):
    for s in (0.0, 1.0, 5.0):
        assert w.busemann_exact(line_ray, w.ray_section(line_ray, s)).value == -s
    assert w.busemann_exact(line_ray, w.dirac((2.0, 5.0))).value == -2.0
    assert w.busemann_exact(line_ray, w.dirac((3.0, 4.0))).lower_bound == -5.0


def test_exact_value_rejects_non_rays_and_bad_input(line_ray):
    crossing = w.RayMeasure([[0.0], [10.0]], [[1.0], [-1.0]], [0.5, 0.5], 2.0)
    with pytest.raises(MonotonicityError):
        w.busemann_exact(crossing, w.ray_section(crossing, 0.0))
    with pytest.raises(UnitSpeedError):
        w.busemann_exact(w.make_dirac_ray((0.0, 0.0), (2.0, 0.0)), w.dirac((0.0, 0.0)))
    with pytest.raises(w.DimensionMismatchError):
        w.busemann_exact(line_ray, w.dirac((0.0,)))
