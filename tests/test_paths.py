import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wassray as w
from wassray import paths
from wassray.errors import (
    CostOverflowError,
    EmptyMeasureError,
    MarginalMismatchError,
    NonOptimalCouplingError,
)
from wassray.ot import Coupling, _segment_cost, p_mean, pairwise_distances
from wassray.measures import _merge_keys
from wassray.paths import _checked_lift

from conftest import random_measure, same_bits, small_measures, uniform_pairs


def two_atom_plan():
    mu = w.DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    nu = w.DiscreteMeasure([[2.0], [3.0]], [0.5, 0.5])
    return w.brute_force_ot(mu, nu, 2.0)


def crossing_coupling():
    # feasible but non-optimal: pairs 0->3 and 1->2, cost sqrt(5)
    mu = w.DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    nu = w.DiscreteMeasure([[2.0], [3.0]], [0.5, 0.5])
    cost = (0.5 * 9.0 + 0.5 * 1.0) ** 0.5
    return Coupling(mu, nu, [0, 1], [1, 0], [0.5, 0.5], 2.0, cost)


def test_lift_dirac_pair():
    plan = w.solve_ot(w.dirac((0.0, 0.0)), w.dirac((3.0, 4.0)), 2.0)
    lift = w.lift_geodesic(plan)
    assert lift.length == 5.0
    assert len(lift.weights) == 1 and lift.weights[0] == 1.0


def test_lift_diagonal_is_constant():
    mu = w.uniform_measure([[0.0, 0.0], [1.0, 1.0]])
    lift = w.lift_geodesic(w.solve_ot(mu, mu, 2.0))
    assert lift.length == 0.0
    for t in (0.0, 0.5, 3.0):
        assert w.same_measure(w.section(lift, t), mu, weight_atol=1e-12)


def test_lift_two_atom_monotone():
    lift = w.lift_geodesic(two_atom_plan())
    assert lift.length == pytest.approx(2.0, abs=1e-12)
    assert np.array_equal(lift.starts.ravel(), [0.0, 1.0])
    assert np.array_equal(lift.ends.ravel(), [2.0, 3.0])
    assert np.allclose(lift.weights, 0.5)


def test_lift_rejects_non_optimal_coupling():
    with pytest.raises(NonOptimalCouplingError):
        w.lift_geodesic(crossing_coupling())


def sorted_coupling(mu, nu, p):
    """The sorted (north-west corner) plan of two measures on the line: optimal for p >= 1."""
    rows, cols = np.argsort(mu.atoms[:, 0]), np.argsort(nu.atoms[:, 0])
    a, b = mu.weights.tolist(), nu.weights.tolist()
    i = j = 0
    entries = []
    while i < len(rows) and j < len(cols):
        r, c = rows[i], cols[j]
        mass = min(a[r], b[c])
        entries.append((r, c, mass))
        a[r] -= mass
        b[c] -= mass
        if a[r] <= b[c]:
            i += 1
        else:
            j += 1
    left, right, masses = zip(*sorted(e for e in entries if e[2] > 0.0))
    return Coupling(mu, nu, left, right, masses, p)


def test_lift_accepts_a_plan_cheaper_than_the_solver_s():
    # weighted, d = 1, p = 16, in a box of side 10: the largest cost is near
    # 1e16, and the simplex's certificate, whose tolerance grows with it,
    # stops on a plan 4.5% above the sorted one in W_16. The check against
    # the solver is one-sided: the sorted plan, cheaper than the solver's
    # reference, is lifted, at its own cost
    rng = np.random.default_rng(25)
    x, y = 10.0 * rng.random(25), 10.0 * rng.random(25)
    a, b = rng.random(25) + 0.05, rng.random(25) + 0.05
    mu = w.DiscreteMeasure(x[:, None], a / a.sum())
    nu = w.DiscreteMeasure(y[:, None], b / b.sum())
    optimal = sorted_coupling(mu, nu, 16.0)
    assert w.solve_ot(mu, nu, 16.0).cost > 1.04 * optimal.cost
    lift = w.lift_geodesic(optimal)
    assert lift.length == optimal.cost
    assert same_bits(lift.weights, optimal.masses)


def test_lift_raises_on_an_overflowing_off_support_cost():
    # the crossing plan's own entries are 1 apart (cost 0.975, the identity
    # costs 0), but the atom at 1e20 puts d**16 past the largest double off
    # its support: the certificate cannot judge the plan, so the lift
    # raises as solve_ot does on the same instance, without numpy's warning
    mu = w.uniform_measure([[0.0], [1.0], [1e20]])
    crossing = Coupling(mu, mu, [0, 1, 2], [1, 0, 2], [1.0 / 3.0] * 3, 16.0)
    assert crossing.cost == pytest.approx(0.975, abs=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CostOverflowError):
            w.solve_ot(mu, mu, 16.0)
        with pytest.raises(CostOverflowError):
            w.lift_geodesic(crossing)


def test_overflowing_lengths_raise_before_the_power():
    # a segment or velocity 1e20 long has a 16th power past the largest
    # double: each p-mean raises the typed error, where it once returned a
    # length or speed of inf under numpy's overflow warning
    ray = w.make_dirac_ray((0.0,), (1.0,), p=16.0)
    with pytest.raises(CostOverflowError, match="p = 16"):
        w.restrict_to_geodesic(ray, 0.0, 1e20)
    with pytest.raises(CostOverflowError, match="p = 16"):
        w.GeodesicLift([[0.0]], [[1e20]], [1.0], 16.0, np.inf)
    fast = w.RayMeasure([[0.0]], [[1e20]], [1.0], 16.0)
    with pytest.raises(CostOverflowError, match="p = 16"):
        fast.speed


FAR = 1.6e154  # its square passes the largest double


def read_speed_twice(ray):
    """Read ``ray.speed`` twice; the first read must raise, and errors are not cached."""
    with pytest.raises(CostOverflowError, match="squared distance"):
        ray.speed
    return ray.speed


@pytest.mark.parametrize(
    "call",
    [
        lambda ray: Coupling(w.dirac((0.0, 0.0)), w.dirac((FAR, 0.0)), [0], [0], [1.0], ray.p),
        lambda ray: w.validate_ray(ray, [(0.0, FAR)]),
        lambda ray: w.restrict_to_geodesic(ray, 0.0, FAR),
        lambda ray: w.GeodesicLift([[0.0, 0.0]], [[FAR, 0.0]], [1.0], ray.p, np.inf),
        lambda ray: read_speed_twice(w.RayMeasure([[0, 0]], [[1e200, 0]], [1], 2)),
        lambda ray: w.validate_ray(w.RayMeasure([[0, 0]], [[1e200, 0]], [1], 2)),
    ],
    ids=[
        "Coupling",
        "validate_ray",
        "restrict_to_geodesic",
        "GeodesicLift",
        "speed",
        "validate_ray-speed",
    ],
)
def test_a_squared_length_past_the_largest_double_raises_without_a_warning(call):
    # segments 1.6e154 long at p = 1.5, or a velocity 1e200 long at p = 2:
    # the squared length is inf, formed without numpy's overflow warning,
    # and the p-mean's check raises the typed error that names it
    ray = w.make_dirac_ray((0.0, 0.0), (1.0, 0.0), p=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CostOverflowError, match="squared distance"):
            call(ray)


def test_families_in_dimension_zero_are_rejected():
    empty = np.zeros((1, 0))
    with pytest.raises(ValueError, match="ambient dimension must be at least 1"):
        w.RayMeasure(empty, empty, [1.0], 2.0)
    with pytest.raises(ValueError, match="ambient dimension must be at least 1"):
        w.GeodesicLift(empty, empty, [1.0], 2.0, 0.0)


@pytest.mark.parametrize("empty", [[], np.zeros((0, 2))])
def test_empty_families_are_rejected_as_empty(empty):
    # an empty list once became one member in R^0 and was reported as a
    # dimension error; a family without members fails as an empty one
    with pytest.raises(EmptyMeasureError, match="a ray family needs at least one ray"):
        w.RayMeasure(empty, empty, [], 2.0)
    with pytest.raises(EmptyMeasureError, match="a segment family needs at least one segment"):
        w.GeodesicLift(empty, empty, [], 2.0, 0.0)


def lift_fields(lift):
    return (lift.starts, lift.ends, lift.weights, np.float64(lift.length), np.float64(lift.p))


@pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0, 16.0])
def test_library_lift_has_the_bits_of_the_public_constructor(d, p):
    # solver plans of every path: weighted LP, uniform assignment, equal
    # marginals moved a little (the identity), single atom
    rng = np.random.default_rng([d, int(10 * p)])
    mu = random_measure(rng, max_atoms=6, dim=d)
    pairs = [
        (mu, random_measure(rng, max_atoms=6, dim=d)),
        (w.uniform_measure(rng.normal(size=(5, d))), w.uniform_measure(rng.normal(size=(5, d)))),
        (mu, w.DiscreteMeasure(mu.atoms + 1e-3 * rng.normal(size=mu.atoms.shape), mu.weights)),
        (w.dirac(rng.normal(size=d)), mu),
    ]
    for left, right in pairs:
        pi = w.solve_ot(left, right, p)
        fast = w.lift_geodesic(pi)
        public = w.GeodesicLift(
            pi.mu.atoms[pi.left], pi.nu.atoms[pi.right], pi.masses, pi.p, pi.cost
        )
        assert type(fast) is w.GeodesicLift
        for x, y in zip(lift_fields(fast), lift_fields(public)):
            assert same_bits(x, y)
        for arr in (fast.starts, fast.ends, fast.weights):
            assert not arr.flags.writeable
        # the length check's lengths are the cost matrix's entries, and the
        # lift's length is their cost, bit for bit at every d
        distances = pairwise_distances(pi.mu.atoms, pi.nu.atoms)[pi.left, pi.right]
        segments = _segment_cost(fast.starts, fast.ends, fast.weights, p)
        assert same_bits(np.float64(segments), np.float64(p_mean(fast.weights, distances, p)))
        assert same_bits(np.float64(fast.length), np.float64(segments))


def public_lift(first, second, weights):
    return w.GeodesicLift(first, second, weights, 2.0, 0.0)


def library_lift(first, second, weights):
    first, second, weights = (np.array(x, dtype=float) for x in (first, second, weights))
    return _checked_lift(first, second, weights, 2.0, 0.0)


def public_rays(first, second, weights):
    return w.RayMeasure(first, second, weights, 2.0)


BAD_FAMILIES = [
    ([[0.0], [np.nan]], [[0.0], [0.0]], [0.5, 0.5], "{item} coordinates must be finite"),
    ([[np.nan], [0.0]], [[0.0], [0.0]], [0.5, 0.5], "{item} coordinates must be finite"),
    ([[-np.inf], [0.0]], [[0.0], [0.0]], [0.5, 0.5], "{item} coordinates must be finite"),
    ([[0.0], [0.0]], [[np.inf], [0.0]], [0.5, 0.5], "{item} coordinates must be finite"),
    ([[0.0], [0.0]], [[0.0], [-np.inf]], [0.5, 0.5], "{item} coordinates must be finite"),
    ([[0.0], [1.0]], [[0.0], [1.0]], [-0.5, 1.5], "{item} weights must be nonnegative"),
    ([[0.0], [1.0]], [[0.0], [1.0]], [np.nan, 1.0], "{item} weights must be finite"),
    ([[0.0], [1.0]], [[0.0], [1.0]], [np.inf, 1.0], "{item} weights must be finite"),
    ([[0.0], [1.0]], [[0.0], [1.0]], [-np.inf, 1.0], "{item} weights must be finite"),
    ([[0.0], [1.0]], [[0.0], [1.0]], [1.0, np.nan], "{item} weights must be finite"),
    (
        [[0.0], [1.0]],
        [[0.0], [1.0]],
        [0.5, 0.6],
        "{item} weights must sum to 1 within 1e-12, got 1.1",
    ),
    ([[0.0], [1.0]], [[0.0], [1.0]], [0.0, 0.0], "every {item} has zero mass"),
    (
        [[0.0], [1.0]],
        [[0.0], [1.0]],
        [1.0, 0.0, 0.0],
        "got 2 {item}s but weight array of shape (3,)",
    ),
    # a nonempty 3-D pair, once reported as "a nonempty (n, d) array pair"
    (
        np.ones((2, 2, 2)),
        np.ones((2, 2, 2)),
        [0.5, 0.5],
        "{item}s must form an (n, d) array, got shape (2, 2, 2)",
    ),
]


@pytest.mark.parametrize(
    "build, item",
    [(public_lift, "segment"), (library_lift, "segment"), (public_rays, "ray")],
)
def test_every_family_check_keeps_its_message(build, item):
    # the same messages on the public and the library path, with no numpy
    # warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for first, second, weights, message in BAD_FAMILIES:
            message = message.format(item=item)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(first, second, weights)
        # zero-mass members are dropped, not rejected
        family = build([[0.0], [1.0]], [[0.0], [1.0]], [0.0, 1.0])
        weights = family.weights
        assert weights.tolist() == [1.0] and not weights.flags.writeable


def test_lift_checks_a_plan_against_one_cold_solve(lp_shapes, solves):
    # a simplex plan that kept its basis was solved on its own instance, so
    # it lifts with no solve; the same entries as a public Coupling, which
    # keeps none, prove themselves against one cold solve (one LP), and a
    # costlier coupling of the instance fails that comparison
    rng = np.random.default_rng(2)
    mu = w.DiscreteMeasure(rng.normal(size=(4, 2)), [0.1, 0.2, 0.3, 0.4])
    nu = w.DiscreteMeasure(rng.normal(size=(3, 2)), [0.5, 0.3, 0.2])
    plan = w.solve_ot(mu, nu, 2.0)
    assert plan._basis is not None
    solves.clear()
    lp_shapes.clear()
    lift = w.lift_geodesic(plan)
    assert solves == [] and lp_shapes == []
    assert lift.length == plan.cost
    public = Coupling(mu, nu, plan.left, plan.right, plan.masses, 2.0)
    assert public._basis is None
    twin = w.lift_geodesic(public)
    assert solves == [(mu, nu, 2.0)] and lp_shapes == [(4, 3)]
    for a, b in ((twin.starts, lift.starts), (twin.ends, lift.ends), (twin.weights, lift.weights)):
        assert same_bits(a, b)
    assert twin.length == lift.length
    product = Coupling(
        mu, nu, np.repeat(np.arange(4), 3), np.tile(np.arange(3), 4),
        np.outer(mu.weights, nu.weights).ravel(), 2.0,
    )
    assert product.cost > plan.cost * (1.0 + 1e-6)
    with pytest.raises(NonOptimalCouplingError):
        w.lift_geodesic(product)
    assert len(solves) == 2 and lp_shapes == [(4, 3)] * 2


def test_section_endpoints_reproduce_marginals():
    plan = two_atom_plan()
    lift = w.lift_geodesic(plan)
    assert w.same_measure(w.section(lift, 0.0), plan.mu, weight_atol=1e-12)
    assert w.same_measure(w.section(lift, lift.length), plan.nu, weight_atol=1e-12)


def test_section_midpoint_by_hand():
    # halfway along each unit-weight segment of length 2: 0 -> 1, 1 -> 2
    lift = w.lift_geodesic(two_atom_plan())
    mid = w.section(lift, 1.0)
    assert w.same_measure(
        mid, w.DiscreteMeasure([[1.0], [2.0]], [0.5, 0.5]), weight_atol=1e-12
    )


def test_section_clamps_past_the_end():
    lift = w.lift_geodesic(two_atom_plan())
    at_end = w.section(lift, lift.length)
    for t in (lift.length, lift.length + 0.5, 100.0):
        later = w.section(lift, t)
        assert np.array_equal(later.atoms, at_end.atoms)
        assert np.array_equal(later.weights, at_end.weights)


def test_section_rejects_negative_time():
    lift = w.lift_geodesic(two_atom_plan())
    with pytest.raises(ValueError):
        w.section(lift, -0.1)


def test_nan_and_infinite_times_fail_by_name():
    """NaN fails every time bound by name, and inf every one but a lift section's.

    The ray's zero velocity component would turn an infinite time into NaN
    coordinates, with numpy's invalid-value warning, past the bound; the
    public ``RayMeasure.positions`` holds the bound itself.
    """
    lift = w.lift_geodesic(two_atom_plan())
    ray = w.make_dirac_ray((0.0, 0.0), (1.0, 0.0))
    nan, inf = float("nan"), float("inf")
    calls = [
        (lambda: w.section(lift, nan), "section time t must be nonnegative, got nan"),
        (lambda: w.ray_section(ray, nan), "ray time t must be nonnegative and finite, got nan"),
        (lambda: w.ray_section(ray, inf), "ray time t must be nonnegative and finite, got inf"),
        (lambda: ray.positions(nan), "ray time t must be nonnegative and finite, got nan"),
        (lambda: ray.positions(inf), "ray time t must be nonnegative and finite, got inf"),
        (lambda: ray.positions(-1.0), "ray time t must be nonnegative and finite, got -1.0"),
        (lambda: w.restrict_to_geodesic(ray, 0.0, inf), "need 0 <= t1 < t2 < inf, got (0.0, inf)"),
        (lambda: w.restrict_to_geodesic(ray, nan, 1.0), "need 0 <= t1 < t2 < inf, got (nan, 1.0)"),
        (lambda: w.validate_ray(ray, [(0.0, inf)]), "time pairs need 0 <= t1 < t2 < inf"),
        (lambda: w.validate_ray(ray, [(nan, 1.0)]), "time pairs need 0 <= t1 < t2 < inf"),
        (
            lambda: w.validate_ray(ray, [(0.0, 1.0, 2.0)]),
            "time pairs need 0 <= t1 < t2 < inf, got (0.0, 1.0, 2.0)",
        ),
        (lambda: w.validate_ray(ray, [1.0]), "time pairs need 0 <= t1 < t2 < inf, got 1.0"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, message in calls:
            with pytest.raises(ValueError, match=re.escape(message)):
                call()
        at_end = w.section(lift, lift.length)
        assert w.same_measure(w.section(lift, inf), at_end, weight_atol=0.0)


def test_section_merges_colliding_atoms():
    # coincident atoms are kept separate by the solver but pooled by sections
    mu = w.DiscreteMeasure([[0.0], [0.0]], [0.5, 0.5])
    nu = w.dirac((1.0,))
    lift = w.lift_geodesic(w.solve_ot(mu, nu, 2.0))
    for t in (0.0, lift.length / 2.0, lift.length):
        snap = w.section(lift, t)
        assert len(snap) == 1
        assert snap.weights[0] == pytest.approx(1.0, abs=1e-15)
    assert w.section(lift, lift.length / 2.0).atoms[0, 0] == 0.5


def test_ray_section_examples():
    ray = w.make_dirac_ray((0.0, 0.0), (1.0, 0.0))
    assert w.same_measure(w.ray_section(ray, 0.0), w.dirac((0.0, 0.0)), weight_atol=0.0)
    assert w.same_measure(w.ray_section(ray, 7.0), w.dirac((7.0, 0.0)), weight_atol=0.0)
    with pytest.raises(ValueError):
        w.ray_section(ray, -1.0)


def test_translation_ray_sections_translate():
    mu0 = w.uniform_measure([[0.0, 0.0], [1.0, 2.0]])
    ray = w.make_translation_ray(mu0, (0.0, 1.0))
    shifted = w.ray_section(ray, 3.0)
    assert w.same_measure(shifted, mu0.translate((0.0, 3.0)), weight_atol=1e-15)


def test_make_dirac_ray_speeds():
    assert w.make_dirac_ray((0.0, 0.0), (1.0, 0.0)).speed == 1.0
    assert w.make_dirac_ray((0.0, 0.0), (0.0, 2.0)).speed == 2.0
    with pytest.raises(ValueError):
        w.make_dirac_ray((0.0, 0.0), (0.0, 0.0))


def test_speed_is_computed_once_per_ray(monkeypatch):
    means = []

    def spy(*args):
        means.append(args)
        return p_mean(*args)

    monkeypatch.setattr(paths, "p_mean", spy)
    rays = [
        w.RayMeasure([[0.0, 0.0], [1.0, 0.0]], [[0.3, 0.4], [1.0, 2.0]], [0.25, 0.75], 1.5),
        w.RayMeasure([[0.0], [2.0], [5.0]], [[1.0], [-2.0], [0.5]], [0.5, 0.2, 0.3], 3.0),
    ]
    for k, ray in enumerate(rays, start=1):
        first = ray.speed
        assert ray.speed is first and ray.speed is first
        assert len(means) == k
        want = p_mean(ray.weights, paths._lengths(ray.velocities), ray.p)
        assert first.hex() == want.hex()


def test_make_translation_ray_speed_is_velocity_norm():
    mu0 = w.DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    ray = w.make_translation_ray(mu0, (1.0,), p=3.0)
    assert ray.speed == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        w.make_translation_ray(mu0, (0.0,))


def test_a_velocity_whose_squared_length_underflows_is_nonzero():
    # (1e-200)**2 underflows to 0, so a length test would take it for a
    # resting ray; the constructors test the coordinates instead
    v = (1e-200, 0.0)
    assert w.make_dirac_ray((0.0, 0.0), v).velocities.tolist() == [list(v)]
    mu0 = w.DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    assert w.make_translation_ray(mu0, v).velocities.tolist() == [list(v)] * 2


@pytest.mark.parametrize(
    "velocity, p",
    [
        ((1e-200, 0.0), 2.0),
        ((1e-25, 0.0), 16.0),
        ((1e-160, 1e-160), 2.0),
        ((1e-160, 0.0), 1.5),
        ((3e-20, 0.0), 16.0),
    ],
)
def test_a_tiny_velocity_gets_its_speed(velocity, p):
    # the squares of the coordinates, or the p-th power of the length, leave
    # the normal range; the speed of one ray is its velocity's length, which
    # math.hypot takes without forming the squares
    speed = w.make_dirac_ray((0.0, 0.0), velocity, p=p).speed
    assert speed == pytest.approx(math.hypot(*velocity), rel=1e-15, abs=0.0)
    # a family far below the normal range has its speed at unit scale, 2**-600 times
    origins = [[0.0, 0.0], [1.0, 0.0]]
    velocities = np.array([[0.3, 0.4], [1.0, 2.0]])
    unit = w.RayMeasure(origins, velocities, [0.25, 0.75], p).speed
    tiny = w.RayMeasure(origins, velocities * 2.0**-600, [0.25, 0.75], p).speed
    assert tiny == pytest.approx(unit * 2.0**-600, rel=1e-15, abs=0.0)


def test_validate_dirac_ray_passes():
    report = w.validate_ray(w.make_dirac_ray((0.0, 0.0), (1.0, 0.0)))
    assert report.passed
    assert max(report.relative_gaps) <= 1e-7


def test_validate_translation_rays_pass(rng):
    for _ in range(5):
        mu0 = random_measure(rng, max_atoms=3)
        v = rng.normal(size=2)
        report = w.validate_ray(w.make_translation_ray(mu0, v))
        assert report.passed
    # the induced plan's segments and the solved plan's cost matrix take
    # their lengths from one kernel, so a translation's gaps are exactly 0,
    # also where d has 8 or more terms to sum
    for d in (8, 16):
        for _ in range(5):
            mu0 = random_measure(rng, max_atoms=6, dim=d)
            report = w.validate_ray(w.make_translation_ray(mu0, rng.normal(size=d)))
            assert report.passed and set(report.gaps) == {0.0}


def test_validate_crossing_rays_fails_with_positive_gap():
    # two unit-speed lines on R aimed at each other: at times (0, 10) the
    # sections coincide as measures, so the optimal cost is 0 while the
    # induced coupling still pays 10 per atom
    crossing = w.RayMeasure([[0.0], [10.0]], [[1.0], [-1.0]], [0.5, 0.5], 2.0)
    report = w.validate_ray(crossing)
    assert not report.passed
    at_ten = report.pairs.index((0.0, 10.0))
    assert report.gaps[at_ten] == pytest.approx(10.0, abs=1e-9)


def test_validate_rejects_malformed_pairs():
    ray = w.make_dirac_ray((0.0,), (1.0,))
    with pytest.raises(ValueError):
        w.validate_ray(ray, [(2.0, 1.0)])
    with pytest.raises(ValueError):
        w.validate_ray(ray, [(-1.0, 1.0)])


def test_validated_ray_restriction_is_geodesic(rng):
    mu0 = random_measure(rng, max_atoms=3)
    ray = w.make_translation_ray(mu0, (0.6, 0.8))
    piece = w.restrict_to_geodesic(ray, 1.0, 3.0)
    assert piece.length == pytest.approx(2.0 * ray.speed, rel=1e-12)
    endpoint_cost = w.wasserstein_distance(
        w.section(piece, 0.0), w.section(piece, piece.length), ray.p
    )
    assert endpoint_cost == pytest.approx(piece.length, rel=1e-8)
    # restricted sections agree with the ray's own sections
    assert w.same_measure(w.section(piece, 0.0), w.ray_section(ray, 1.0))
    assert w.same_measure(w.section(piece, piece.length), w.ray_section(ray, 3.0))


def test_glue_single_segment_single_pair():
    plan = w.solve_ot(w.dirac((0.0,)), w.dirac((1.0,)), 2.0)
    alpha = w.lift_geodesic(plan)
    beta = w.solve_ot(w.dirac((1.0,)), w.dirac((5.0,)), 2.0)
    joint = w.glue(alpha, beta)
    assert joint == [(0, 0, 1.0)]


def test_glue_point_endpoint_gives_product():
    # both segments end at the same point, so each pairs with beta's
    # conditional, which here is the full row
    mu = w.DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
    nu = w.dirac((1.0,))
    alpha = w.lift_geodesic(w.solve_ot(mu, nu, 2.0))
    lam = w.DiscreteMeasure([[0.0], [4.0]], [0.25, 0.75])
    beta = w.solve_ot(nu, lam, 2.0)
    joint = w.glue(alpha, beta)
    expected = {
        (0, 0): 0.5 * 0.25,
        (0, 1): 0.5 * 0.75,
        (1, 0): 0.5 * 0.25,
        (1, 1): 0.5 * 0.75,
    }
    assert {(i, j): m for i, j, m in joint} == pytest.approx(expected)


def test_glue_identity_pairing_keeps_own_endpoint():
    alpha = w.lift_geodesic(two_atom_plan())  # endpoints 2 and 3
    ends = w.section(alpha, alpha.length)
    beta = w.solve_ot(ends, ends, 2.0)  # identity pairing on the endpoints
    joint = w.glue(alpha, beta)
    assert len(joint) == 2
    for i, j, m in joint:
        assert m == pytest.approx(0.5, abs=1e-12)
        assert ends.atoms[j, 0] == alpha.ends[i, 0]


def test_glue_projections(rng):
    def row_key(position):
        return tuple(_merge_keys(position).tolist())

    for _ in range(5):
        mu = random_measure(rng, max_atoms=3)
        nu = random_measure(rng, max_atoms=3)
        lam = random_measure(rng, max_atoms=3)
        alpha = w.lift_geodesic(w.solve_ot(mu, nu, 2.0))
        beta = w.solve_ot(w.section(alpha, alpha.length), lam, 2.0)
        joint = w.glue(alpha, beta)
        seg_mass = np.zeros(len(alpha.weights))
        for i, j, m in joint:
            seg_mass[i] += m
        assert np.max(np.abs(seg_mass - alpha.weights)) <= 1e-9
        # (endpoint position, partner) projection recovers beta
        recovered: dict[tuple, float] = {}
        for i, j, m in joint:
            key = (row_key(alpha.ends[i]), j)
            recovered[key] = recovered.get(key, 0.0) + m
        expected: dict[tuple, float] = {}
        for a, j, m in zip(beta.left, beta.right, beta.masses):
            key = (row_key(beta.mu.atoms[a]), int(j))
            expected[key] = expected.get(key, 0.0) + float(m)
        assert set(recovered) == set(expected)
        for key in expected:
            assert abs(recovered[key] - expected[key]) <= 1e-9


def test_glue_rejects_marginal_mismatch():
    alpha = w.lift_geodesic(two_atom_plan())
    beta = w.solve_ot(w.dirac((7.0,)), w.dirac((9.0,)), 2.0)
    with pytest.raises(MarginalMismatchError):
        w.glue(alpha, beta)


def test_glue_rejects_weights_that_differ_at_one_position():
    # endpoints on beta's positions, with weights 1e-6 off beta's
    starts, ends, weights = [[0.0], [1.0]], [[2.0], [3.0]], [0.5 + 1e-6, 0.5 - 1e-6]
    length = _segment_cost(np.array(starts), np.array(ends), np.array(weights), 2.0)
    alpha = w.GeodesicLift(starts, ends, weights, 2.0, length)
    beta = w.solve_ot(w.DiscreteMeasure(ends, [0.5, 0.5]), w.dirac((5.0,)), 2.0)
    with pytest.raises(MarginalMismatchError, match=r"differ by 1\.000e-06 at position \("):
        w.glue(alpha, beta)


@given(pair=uniform_pairs(max_atoms=4, max_dim=2))
def test_section_speed_identity(pair):
    mu, nu = pair
    lift = w.lift_geodesic(w.solve_ot(mu, nu, 2.0))
    if lift.length == 0.0:
        return
    rng = np.random.default_rng(11)
    for _ in range(4):
        s, t = np.sort(rng.uniform(0.0, lift.length, size=2))
        gap = abs(
            w.wasserstein_distance(w.section(lift, s), w.section(lift, t), 2.0) - (t - s)
        )
        assert gap <= 1e-6


@given(pair=uniform_pairs(max_atoms=4, max_dim=2))
def test_section_mass_conservation(pair):
    mu, nu = pair
    lift = w.lift_geodesic(w.solve_ot(mu, nu, 2.0))
    for t in (0.0, lift.length / 3.0, lift.length, lift.length + 1.0):
        assert abs(w.section(lift, t).weights.sum() - 1.0) <= 1e-12


def same_measure_bits(a: w.DiscreteMeasure, b: w.DiscreteMeasure) -> bool:
    return same_bits(a.atoms, b.atoms) and same_bits(a.weights, b.weights)


@given(
    pair=st.one_of(
        uniform_pairs(max_atoms=4, max_dim=2), st.tuples(small_measures(), small_measures())
    ),
    p=st.sampled_from((1.5, 2.0, 8.0)),
    fraction=st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.5)),
)
def test_sections_match_public_constructor(pair, p, fraction):
    # sections skip only the public constructor's conversions; building the
    # same positions through DiscreteMeasure(*merge_atoms(...)) gives the same bits
    mu, nu = pair
    lift = w.lift_geodesic(w.solve_ot(mu, nu, p))
    t = fraction * lift.length
    if t == 0.0 or lift.length == 0.0:
        positions = lift.starts
    elif t >= lift.length:
        positions = lift.ends
    else:
        positions = lift.starts + (t / lift.length) * (lift.ends - lift.starts)
    built = w.section(lift, t)
    assert same_measure_bits(built, w.DiscreteMeasure(*w.merge_atoms(positions, lift.weights)))
    assert not built.atoms.flags.writeable and not built.weights.flags.writeable

    ray = w.RayMeasure(lift.starts, lift.ends - lift.starts, lift.weights, p)
    built = w.ray_section(ray, fraction)
    public = w.DiscreteMeasure(*w.merge_atoms(ray.positions(fraction), ray.weights))
    assert same_measure_bits(built, public)
