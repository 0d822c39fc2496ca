import collections
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wassray as w
from wassray import busemann, paths
from wassray.errors import CostOverflowError, MonotonicityError, NotARayError, UnitSpeedError
from wassray.ot import _segment_cost

from conftest import (
    GENUINE_RAY_KINDS,
    genuine_ray_case,
    random_measure,
    step_chain,
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
    # NaN fails the checks too, and each message names its argument
    for t0 in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="t0"):
            w.busemann_value(line_ray, nu, t0=t0)
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            w.busemann_value(line_ray, nu, tol=tol)
    with pytest.raises(ValueError):
        w.busemann_value(line_ray, nu, max_doublings=0)
    for max_doublings in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match="max_doublings must be an integer"):
            w.busemann_value(line_ray, nu, max_doublings=max_doublings)


def test_the_schedule_stops_at_the_last_finite_doubling(line_ray):
    # t0 = 1 doubles past the largest double at the 1,024th doubling, and no
    # cap beyond that changes the schedule: these stop where the default does
    nu = w.dirac((3.0, 4.0))
    default = w.busemann_value(line_ray, nu)
    for max_doublings in (1100, 10**9):
        est = w.busemann_value(line_ray, nu, max_doublings=max_doublings)
        assert as_bits((est.schedule, est.lower_bound)) == as_bits(
            (default.schedule, default.lower_bound)
        )
        assert est.converged and est.value == default.value
    # t0 = 2 doubles to inf at the 1,023rd doubling, long after it converges
    est = w.busemann_value(line_ray, nu, t0=2.0, max_doublings=1023)
    assert est.converged and len(est.schedule) == 23


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


@pytest.fixture
def verdict(monkeypatch, solves):
    """``busemann_exact``'s verdict at (ray, nu), asserted to be the non-ray rule's on W_p(nu, mu_0).

    The rule fires when the value falls below -W - 1e-9 max(1, W) for the
    solved W = ``wasserstein_distance(nu, ray_section(ray, 0), p)``. A spy
    records each limiting LP's value, with ``busemann_exact``'s own
    expression, so a rejected family's value is known too. ``busemann_exact``
    must solve W_p exactly when that value is below -1e-9, and a returned
    plan's lower bound must have -W's bits. Returns whether the family was
    rejected and whether ``busemann_exact`` solved W_p to decide.
    """
    values = []
    transport_plan = busemann.transport_plan

    def spy(a, b, cost):
        left, right, masses, basis = transport_plan(a, b, cost)
        values.append(float(np.add.reduce(masses * cost[left, right])))
        return left, right, masses, basis

    monkeypatch.setattr(busemann, "transport_plan", spy)

    def check(ray, nu):
        before = len(solves)
        try:
            plan = w.busemann_exact(ray, nu)
        except NotARayError:
            plan = None
        solved = len(solves) > before
        assert solved == (values[-1] < -busemann.LOWER_BOUND_ATOL)
        distance = w.wasserstein_distance(nu, w.ray_section(ray, 0.0), ray.p)
        fires = values[-1] < -distance - busemann.LOWER_BOUND_ATOL * max(1.0, distance)
        assert (plan is None) == fires
        if plan is not None:
            assert plan.value == values[-1]
            assert np.float64(plan.lower_bound).tobytes() == np.float64(-distance).tobytes()
        return fires, solved

    return check


@pytest.mark.parametrize("kind, p", GENUINE_RAY_KINDS)
def test_non_ray_rule_on_genuine_rays(kind, p, verdict):
    # no probe is rejected; mu_0 has value 0 and passes with no solve, and
    # the section at 3 has value -3 = -W_p, on the threshold's edge, which
    # it meets on the solved distance
    ray, probes = genuine_ray_case(kind, p)
    for nu in probes:
        assert not verdict(ray, nu)[0]
    assert verdict(ray, w.ray_section(ray, 0.0)) == (False, False)
    assert verdict(ray, w.ray_section(ray, 3.0)) == (False, True)


def test_non_ray_rule_on_the_crossing_family(verdict):
    # origins 0 and 10, velocities +-1: rejected from mu_0 (value -10,
    # W_2 = 0); from the Dirac at 0.5 the value -5 is not below
    # -W_2 = -6.73, so the family passes there on the solve
    crossing = w.RayMeasure([[0.0], [10.0]], [[1.0], [-1.0]], [0.5, 0.5], 2.0)
    assert verdict(crossing, w.ray_section(crossing, 0.0)) == (True, True)
    assert verdict(crossing, w.dirac((0.5,))) == (False, True)
    assert w.busemann_exact(crossing, w.dirac((0.5,))).value == -5.0


def test_non_ray_rule_on_random_families(verdict):
    # 800 random families of 2-4 rays in d <= 2, half of them rejected, at
    # their time-0 and time-1 sections and at a random measure
    rng = np.random.default_rng(7)
    outcomes = collections.Counter()
    for _ in range(800):
        k, d = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        weights = rng.random(k) + 0.1
        ray = unit_speed(
            rng.normal(size=(k, d)), rng.normal(size=(k, d)), weights / weights.sum(), p
        )
        for nu in (
            w.ray_section(ray, 0.0),
            w.ray_section(ray, 1.0),
            random_measure(rng, max_atoms=3, dim=d),
        ):
            outcomes[verdict(ray, nu)] += 1
    # a rejection always solves; passes come both ways
    assert outcomes[True, False] == 0
    assert min(outcomes[True, True], outcomes[False, True], outcomes[False, False]) > 300


def test_non_ray_rule_with_coincident_origins(verdict):
    # two rays share an origin, and two more sit 3e-13 apart, which the
    # time-0 section pools at the first one's coordinates
    weights = np.full(4, 0.25)
    origins = [[1.0, 2.0], [1.0, 2.0], [0.5, -1.0], [0.5 + 3e-13, -1.0]]
    velocities = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.3, -0.2]]
    ray = unit_speed(origins, velocities, weights, 2.0)
    assert len(w.ray_section(ray, 0.0)) == 2
    rng = np.random.default_rng(3)
    probes = [w.ray_section(ray, 0.0), w.dirac((1.0, 2.0)), w.dirac((0.5, -1.0))]
    probes += [random_measure(rng, max_atoms=3) for _ in range(20)]
    outcomes = [verdict(ray, nu) for nu in probes]
    assert outcomes[0] == (True, True) and (False, False) in outcomes


def test_non_ray_rule_where_the_value_is_minus_the_distance(verdict):
    # nu is mu_0 moved by 5 v along a translation ray: W_2 = 5 and the
    # value is -5, on the threshold's edge, which it meets on the solve
    mu0 = w.DiscreteMeasure([[0.0, 0.0], [1.0, 3.0], [-2.0, 1.0]], [0.2, 0.3, 0.5])
    v = np.array([0.6, 0.8])
    ray = w.make_translation_ray(mu0, v)
    nu = mu0.translate(5.0 * v)
    assert verdict(ray, nu) == (False, True)
    assert w.busemann_exact(ray, nu).value == pytest.approx(-5.0, abs=1e-12)


def test_exact_value_solves_its_lower_bound_on_first_read(solves):
    # busemann_exact solves W_p only for a value below -1e-9; otherwise the
    # first read of the lower bound solves it. Either way it is solved once
    ray, probes = genuine_ray_case("comonotone", 2.0)
    below = []
    for nu in [*probes, w.ray_section(ray, 0.0), w.ray_section(ray, 3.0)]:
        solves.clear()
        plan = w.busemann_exact(ray, nu)
        below.append(plan.value < -busemann.LOWER_BOUND_ATOL)
        assert len(solves) == below[-1]
        lower_bound = plan.lower_bound
        assert len(solves) == 1
        assert plan.lower_bound == lower_bound and len(solves) == 1
    assert True in below and False in below


def test_exact_value_of_a_far_measure_needs_no_distance():
    # W_16 of a Dirac 1e20 from mu_0 overflows; the limiting LP does not,
    # and its value 0 clears the non-ray rule at any distance. The
    # distance, and its error, come when the lower bound is read
    ray = w.make_dirac_ray((0.0, 0.0), (1.0, 0.0), p=16.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = w.busemann_exact(ray, w.dirac((0.0, 1e20)))
        assert plan.value == 0.0
        with pytest.raises(CostOverflowError):
            plan.lower_bound
        # farther out the limiting costs overflow too, and the distance's
        # error, naming the squared distance, still comes first
        with pytest.raises(CostOverflowError, match="squared distance"):
            w.busemann_exact(w.make_dirac_ray((-1e308,), (1.0,)), w.dirac((1e308,)))


def test_exact_value_below_zero_raises_where_the_distance_overflows():
    # the value -1e20 is decided on W_16 of a Dirac 1e20 from mu_0, whose
    # cost overflows, as ``wassray busemann`` on the same inputs does
    ray = w.make_dirac_ray((0.0, 0.0), (1.0, 0.0), p=16.0)
    with pytest.raises(CostOverflowError, match="p = 16"):
        w.busemann_exact(ray, w.dirac((1e20, 0.0)))
    assert w.busemann_exact(ray, w.dirac((-1e20, 0.0))).value == 1e20


def far_rounding_case():
    """A one-ray case whose far truncations rise by rounding alone.

    The exact truncations fall toward b = -1.73, but from t = 1e3 2^22 the
    computed ones rise by an ulp or two of t (2.9e-6 at t = 1e3 2^24),
    past the absolute bound of 1e-6 alone.
    """
    ray = w.make_dirac_ray((0.0, 0.0), (0.6, 0.8), p=16.0)
    nu = w.uniform_measure([[-6.0, -0.7], [8.3, 3.3]])
    return ray, nu


def test_far_rounding_is_not_a_monotonicity_error():
    ray, nu = far_rounding_case()
    est = w.busemann_value(ray, nu, t0=1e3, tol=1e-9)
    values = [value for _, value in est.schedule]
    rises = [b - a for a, b in zip(values, values[1:]) if b > a]
    assert max(rises) > busemann.MONOTONE_ATOL  # the case still shows the rounding
    assert est.converged and est.t_final == 1e3 * 2.0**24
    assert w.busemann_exact(ray, nu).value <= est.value <= -1.7299


def test_an_increase_past_the_rounding_allowance_still_raises(monkeypatch):
    ray, nu = far_rounding_case()
    t = 1e3 * 2.0**24
    allowance = busemann.monotone_allowance(ray, nu, (t / 2 - 1.73) + (t - 1.73))
    assert busemann.MONOTONE_ATOL < allowance < 1e-4
    # the lower bound, then section distances whose truncations rise by
    # twice the allowance from t / 2 to t; a plan with no basis keeps no run
    # of later steps, so each step is solved
    lower = w.solve_ot(nu, w.ray_section(ray, 0.0), ray.p)
    costs = iter([lower.cost, t / 2 - 1.73, t - 1.73 + 2.0 * allowance])

    def fake_solve(*args, **kwargs):
        return SimpleNamespace(cost=next(costs), _basis=None)

    # the lower bound is solved in busemann, the steps in the chain of paths
    monkeypatch.setattr(busemann, "solve_ot", fake_solve)
    monkeypatch.setattr(paths, "solve_ot", fake_solve)
    with pytest.raises(MonotonicityError, match=f"truncation increased by .* at t={t}"):
        w.busemann_value(ray, nu, t0=t / 2, tol=1e-9)


def outcome(run):
    """('ok', result) or ('raised', exception type, message) of a call."""
    try:
        return ("ok", run())
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return ("raised", type(exc), str(exc))


@pytest.fixture
def section_times(monkeypatch):
    """Times of the sections the schedule's chain builds to solve a step."""
    times = []
    ray_section = paths.ray_section

    def spy(ray, t):
        times.append(t)
        return ray_section(ray, t)

    monkeypatch.setattr(paths, "ray_section", spy)
    return times


@pytest.mark.parametrize(
    "p,t0,nu_atom,error",
    [
        # decrements stay large until d**16 overflows at t = 1e13 2^21
        (16.0, 1e13, (0.0, 1e12), CostOverflowError),
        # the squared distance overflows at t = 1e150 2^14: inf, which the
        # cost check names, with no numpy warning
        (1.5, 1e150, (0.0, 1e149), CostOverflowError),
        # t0 must be positive and finite: refused before any section
        (2.0, float("inf"), (0.0, 0.0), ValueError),
        (2.0, float("nan"), (0.0, 0.0), ValueError),
        # d**16 overflows at the first step
        (16.0, 1e20, (0.0, 0.0), CostOverflowError),
    ],
)
def test_far_step_raises_as_the_section_solve_does(p, t0, nu_atom, error, section_times):
    ray = w.make_dirac_ray((0.0, 0.0), (1.0, 0.0), p=p)
    nu = w.dirac(nu_atom)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(lambda: w.busemann_value(ray, nu, t0=t0))
        assert got[1] is error
        if error is ValueError:
            assert "initial time t0" in got[2] and section_times == []
            return
        # the last section built is a schedule step, and solving it alone
        # raises the same error with the same message
        t = section_times[-1]
        assert t in [t0 * 2.0**j for j in range(busemann.DEFAULT_MAX_DOUBLINGS + 1)]
        assert outcome(lambda: w.solve_ot(nu, w.ray_section(ray, t), p)) == got


def test_two_ray_family_solves_every_section(line_ray, solves):
    """Only the lower bound is solved when a side has one atom, for one ray and for two.

    The lower bound's plan is a single atom's star, which holds whatever
    the costs, so the run keeps it at every step with no solve.
    """
    mu0 = w.DiscreteMeasure([[0.0, 0.0], [1.0, 2.0]], [0.4, 0.6])
    for ray, nu in (
        (line_ray, w.DiscreteMeasure([[2.0, 5.0], [-1.0, 0.5]], [0.3, 0.7])),
        (w.make_translation_ray(mu0, (0.6, 0.8)), w.dirac((2.0, -1.0))),
    ):
        solves.clear()
        est = w.busemann_value(ray, nu)
        assert len(est.schedule) > 10
        assert len(solves) == 1
        assert as_bits((est.schedule, est.lower_bound)) == as_bits(chained_truncation(ray, nu))


def test_a_dirac_truncation_makes_one_solve(line_ray, solves):
    # a 21-step schedule on a point ray from a point: the lower bound alone
    est = w.busemann_value(line_ray, w.dirac((0.0, 1.2)))
    assert est.converged and len(est.schedule) == 21
    assert len(solves) == 1


def test_a_multi_atom_truncation_solves_where_its_plan_changes(solves):
    # both sides weighted, at p = 1.5: the simplex plan changes at two
    # steps, which are solved, and holds on the other 23, which are not
    mu0 = w.DiscreteMeasure(
        [[9.6, -0.1], [-4.7, -3.0], [-0.5, -5.5], [10.8, 1.3]], [0.25, 0.35, 0.1, 0.3]
    )
    nu = w.DiscreteMeasure([[-5.2, -8.7], [10.7, -9.6], [-10.9, 15.7]], [0.45, 0.38, 0.17])
    ray = w.make_translation_ray(mu0, (-0.28, 0.96), p=1.5)
    est = w.busemann_value(ray, nu)
    assert len(est.schedule) == 25 and len(solves) == 3
    assert as_bits(truncated(ray, nu)) == as_bits(chained_truncation(ray, nu))


def chained_truncation(ray, nu, t0=busemann.DEFAULT_T0):
    """``busemann_value``'s schedule and lower bound, one ``schedule_step`` a time.

    The chain starts from the lower bound's plan (``step_chain``), and the
    checks follow each step; an error comes back as its type and message.
    """
    try:
        times = [t0 * 2.0**j for j in range(busemann.DEFAULT_MAX_DOUBLINGS + 1)]
        chain = step_chain(ray, nu, times)
        lower_bound = -next(chain).cost
        schedule = []
        for j, (t, plan) in enumerate(zip(times, chain)):
            schedule.append((t, plan.cost - t))
            if j:
                (s, previous), (_, value) = schedule[-2:]
                decrement = previous - value
                allowance = busemann.monotone_allowance(ray, nu, (previous + s) + (value + t))
                if decrement < -allowance:
                    raise MonotonicityError(
                        f"truncation increased by {-decrement:.3e} at t={t}; "
                        "it is provably non-increasing"
                    )
                if decrement < busemann.DEFAULT_TOL:
                    break
        if schedule[-1][1] < lower_bound - busemann.LOWER_BOUND_ATOL:
            raise MonotonicityError(
                f"truncation {schedule[-1][1]!r} fell below its lower bound {lower_bound!r}"
            )
    except Exception as error:  # compared with busemann_value's own error
        return type(error), str(error)
    return tuple(schedule), lower_bound


def truncated(ray, nu):
    """``busemann_value``'s schedule and lower bound, or the type and message of its error."""
    try:
        est = w.busemann_value(ray, nu)
    except Exception as error:  # compared with the chain's own error
        return type(error), str(error)
    return est.schedule, est.lower_bound


def as_bits(outcome):
    """A schedule and lower bound as bytes, so that equal means equal bit for bit."""
    if isinstance(outcome[0], type):
        return outcome
    schedule, lower_bound = outcome
    return np.array(schedule).tobytes(), np.float64(lower_bound).tobytes()


TRUNCATION_KINDS = ("one-atom ray", "one-atom nu", "weighted")


def truncation_case(kind, d, p, seed):
    """A unit-speed family of 1-4 weighted rays in R^d and a weighted measure of 1-4 atoms.

    - ``one-atom ray``: a single ray, and 2-4 atoms;
    - ``one-atom nu``: 2-4 rays, and a single atom;
    - ``weighted``: 2-4 of each.

    The families are drawn at random, so not every one is a ray; a
    truncation that rises then raises on both sides alike.
    """
    rng = np.random.default_rng(seed)
    k, n = (int(x) for x in rng.integers(2, 5, size=2))
    if kind == "one-atom ray":
        k = 1
    if kind == "one-atom nu":
        n = 1
    weights = rng.random(k) + 0.1
    ray = unit_speed(rng.normal(size=(k, d)), rng.normal(size=(k, d)), weights / weights.sum(), p)
    start = rng.random(n) + 0.1
    return ray, w.DiscreteMeasure(3.0 * rng.normal(size=(n, d)), start / start.sum())


@settings(max_examples=100)
@given(
    kind=st.sampled_from(TRUNCATION_KINDS),
    d=st.sampled_from((1, 2, 3, 8)),
    p=st.sampled_from((1.5, 2.0, 3.0, 8.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_truncation_is_the_warm_chain_bit_for_bit(kind, d, p, seed):
    # runs of kept plans make no solve; every value must have the bits of
    # taking the times one at a time, and every error must be the chain's
    ray, nu = truncation_case(kind, d, p, seed)
    assert as_bits(truncated(ray, nu)) == as_bits(chained_truncation(ray, nu))


def test_one_atom_lengths_take_the_cost_matrix_bits_at_d8():
    # at d = 8 scipy's cdist and numpy's norm formula (numpy sums 8 squares
    # pairwise) can differ in the last bit. A star's run, the per-step
    # chain, a cold single-atom solve and a segment cost all read cdist's,
    # as every other length does
    rng = np.random.default_rng(0)
    ray = unit_speed(rng.normal(size=(1, 8)), rng.normal(size=(1, 8)), [1.0], 2.0)
    nu = w.uniform_measure(3.0 * rng.normal(size=(3, 8)))
    assert as_bits(truncated(ray, nu)) == as_bits(chained_truncation(ray, nu))
    times = [busemann.DEFAULT_T0 * 2.0**j for j in range(busemann.DEFAULT_MAX_DOUBLINGS + 1)]
    start = w.solve_ot(nu, w.ray_section(ray, 0.0), ray.p)
    run, _ = paths._kept_plan_lengths(ray, start, times)
    _, *chain = step_chain(ray, nu, times)
    solved = [w.solve_ot(nu, w.ray_section(ray, t), ray.p) for t in times]
    assert len(run) == len(times)
    assert np.array(run).tobytes() == np.array([plan.cost for plan in chain]).tobytes()
    assert np.array(run).tobytes() == np.array([plan.cost for plan in solved]).tobytes()
    # the segment costs of the same entries, whose lengths come from the
    # same kernel, have those bits too
    formula = [
        _segment_cost(plan.mu.atoms[plan.left], plan.nu.atoms[plan.right], plan.masses, ray.p)
        for plan in solved
    ]
    assert np.array(run).tobytes() == np.array(formula).tobytes()


def test_a_long_schedule_is_priced_a_chunk_at_a_time(monkeypatch):
    # a weighted translation ray of 64 atoms in the square [-1, 1]^2 and 63
    # start atoms converges at step 17. The stacked pass is handed the
    # first 32 times, not the 1,001 that max_doublings = 1000 offers, and
    # the schedule has the bits of the default cap's
    rng = np.random.default_rng(0)

    def weighted(k):
        weights = rng.random(k) + 0.1
        return w.DiscreteMeasure(rng.uniform(-1.0, 1.0, size=(k, 2)), weights / weights.sum())

    mu0, nu = weighted(64), weighted(63)
    ray = w.make_translation_ray(mu0, (0.6, 0.8))
    handed = []
    kept_plan_lengths = paths._kept_plan_lengths

    def spy(ray, plan, times):
        handed.append(len(times))
        return kept_plan_lengths(ray, plan, times)

    monkeypatch.setattr(paths, "_kept_plan_lengths", spy)
    long = w.busemann_value(ray, nu, max_doublings=1000)
    assert long.converged and len(long.schedule) == 17
    assert handed and max(handed) <= 32
    default = w.busemann_value(ray, nu)
    assert np.array(long.schedule).tobytes() == np.array(default.schedule).tobytes()
