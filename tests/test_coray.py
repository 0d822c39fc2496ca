import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wassray as w
from wassray import ot, paths
from wassray.busemann import CHECK_ATOL
from wassray.coray import DEFAULT_SCHEDULE, DEFAULT_TEST_TIMES, DEFAULT_TOL, _glued_movement
from wassray.errors import CostOverflowError, UnitSpeedError

from conftest import (
    GENUINE_RAY_KINDS,
    comonotone_ray,
    genuine_ray_case,
    psd_gradient_ray,
    random_measure,
    step_chain,
    unit_speed,
    weighted_translation_setup,
)

LONG_SCHEDULE = tuple(2.0**n for n in range(1, 21))


@pytest.fixture(scope="module")
def parallel(line_ray):
    return w.construct_coray(line_ray, w.dirac((0.0, 1.0)))


@pytest.fixture(scope="module")
def translation_setup():
    rng = np.random.default_rng(21)
    mu = w.make_translation_ray(random_measure(rng, max_atoms=3), (1.0, 0.0))
    nu0 = random_measure(rng, max_atoms=3)
    return mu, nu0, w.construct_coray(mu, nu0, schedule=LONG_SCHEDULE)


def test_coray_from_own_origin_is_the_ray(line_ray):
    result = w.construct_coray(line_ray, w.dirac((0.0, 0.0)))
    assert result.converged
    assert np.allclose(result.ray.origins, [[0.0, 0.0]], atol=1e-12)
    assert np.allclose(result.ray.velocities, [[1.0, 0.0]], atol=1e-12)
    # the first step still clamps at the largest test time; once the targets
    # pass it, every geodesic lies on the ray and the sections stop moving
    assert all(d <= 1e-12 for d in result.diagnostics[1:])


def test_coray_from_offset_point_is_parallel(parallel):
    # segment directions from (0,1) to (t,0) converge to the first axis, so
    # the limit is the parallel line through (0,1)
    assert parallel.converged
    for t in (0.0, 1.0, 2.0, 4.0):
        gap = w.wasserstein_distance(
            w.ray_section(parallel.ray, t), w.dirac((t, 1.0)), 2.0
        )
        assert gap <= 1e-3


def test_constructed_coray_is_unit_speed_and_validates(translation_setup):
    _, _, result = translation_setup
    assert result.converged
    assert abs(result.ray.speed - 1.0) <= 1e-6
    assert w.validate_ray(result.ray).passed


def test_length_over_time_ratio_bound(parallel, translation_setup):
    _, _, built = translation_setup
    for result in (parallel, built):
        for t_n, length in zip(result.schedule, result.lengths):
            assert abs(length / t_n - 1.0) <= result.start_offset / t_n + 1e-9


def test_construction_is_deterministic(translation_setup):
    mu, nu0, first = translation_setup
    second = w.construct_coray(mu, nu0, schedule=LONG_SCHEDULE)
    assert np.array_equal(first.ray.origins, second.ray.origins)
    assert np.array_equal(first.ray.velocities, second.ray.velocities)
    assert np.array_equal(first.ray.weights, second.ray.weights)
    assert first.diagnostics == second.diagnostics
    assert first.lengths == second.lengths


def test_non_convergence_reported_not_raised(line_ray):
    result = w.construct_coray(line_ray, w.dirac((0.0, 1.0)), schedule=(2.0, 4.0))
    assert not result.converged
    assert result.diagnostics[-1] > 1e-4


def test_schedule_validation(line_ray):
    nu0 = w.dirac((0.0, 1.0))
    with pytest.raises(ValueError):
        w.construct_coray(line_ray, nu0, schedule=(4.0,))
    with pytest.raises(ValueError):
        w.construct_coray(line_ray, nu0, schedule=(4.0, 2.0))
    with pytest.raises(ValueError):
        w.construct_coray(line_ray, nu0, schedule=(-1.0, 2.0))
    with pytest.raises(UnitSpeedError):
        w.construct_coray(w.make_dirac_ray((0.0, 0.0), (2.0, 0.0)), nu0)
    # NaN fails every comparison, so each bound is written to reject it
    nan, inf = float("nan"), float("inf")
    for schedule in ((2.0, nan), (nan, 2.0), (2.0, inf), (0.0, 2.0)):
        with pytest.raises(ValueError, match="schedule entries must be positive and finite"):
            w.construct_coray(line_ray, nu0, schedule=schedule)
    for test_times in ((0.0, nan), (inf,), (-1.0,), ()):
        with pytest.raises(ValueError, match="test times must be nonnegative and finite"):
            w.construct_coray(line_ray, nu0, schedule=(2.0, 4.0), test_times=test_times)
    for tol in (nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="convergence tolerance tol must be positive"):
            w.construct_coray(line_ray, nu0, schedule=(2.0, 4.0), tol=tol)


def test_construction_reuses_certified_plans(lp_shapes, solves):
    # 16 steps of weighted measures: 16 target couplings and one start
    # offset. The chain starts from the start offset's plan, whose simplex
    # basis stays certified on all 16 targets, found in one stacked pass,
    # so no step makes a solve_ot call. The movement between steps is read
    # off the two plans glued at nu0's atoms, with no transport problem.
    # The one LP is the offset's. Solving every target coupling cold took
    # 17 LP solves: 1 offset and 16 targets; certifying each step's plan in
    # its own solve_ot call took 17 solve_ot calls.
    rng = np.random.default_rng(7)
    mu0 = w.DiscreteMeasure(rng.normal(size=(4, 2)), [0.1, 0.2, 0.3, 0.4])
    nu0 = w.DiscreteMeasure(rng.normal(size=(3, 2)), [0.5, 0.3, 0.2])
    result = w.construct_coray(w.make_translation_ray(mu0, (1.0, 0.0)), nu0)
    assert result.converged
    assert len(result.lengths) == 16
    assert len(solves) == 1
    assert len(lp_shapes) == 1


def test_a_point_start_to_a_point_ray_makes_one_solve(solves):
    # verify's parallel co-ray: a single atom's one feasible plan keeps its
    # star as basis, so after the start offset the stacked pass takes all
    # 16 targets with no solve. Solving each target took 17 solve_ot calls
    ray, nu0 = w.make_dirac_ray((0.0, 0.0), (1.0, 0.0)), w.dirac((0.0, 1.0))
    result = w.construct_coray(ray, nu0)
    assert result.converged and len(result.lengths) == 16
    assert len(solves) == 1
    assert constructed(ray, nu0, DEFAULT_SCHEDULE) == chained(ray, nu0, DEFAULT_SCHEDULE)


def test_a_run_past_the_first_chunk_goes_on_from_the_same_plan(solves):
    # 40 targets: the stacked pass takes the first 32 and then the other 8
    # from the start offset's plan, so the offset is the only solve. The
    # glue from the first run's last target to the second run's first has
    # the bits of the per-step chain's, for a simplex basis and a star
    schedule = tuple(2.0**j for j in range(1, 41))
    rng = np.random.default_rng(7)
    mu0 = w.DiscreteMeasure(rng.normal(size=(4, 2)), [0.1, 0.2, 0.3, 0.4])
    weighted = w.DiscreteMeasure(rng.normal(size=(3, 2)), [0.5, 0.3, 0.2])
    for ray, nu0 in (
        (w.make_translation_ray(mu0, (1.0, 0.0)), weighted),
        (w.make_dirac_ray((0.0, 0.0), (1.0, 0.0)), w.dirac((0.0, 1.0))),
    ):
        solves.clear()
        outputs = constructed(ray, nu0, schedule)
        assert len(solves) == 1
        assert outputs == chained(ray, nu0, schedule)


MOVING_TIMES = tuple(tau for tau in DEFAULT_TEST_TIMES if tau > 0.0)


def construction_steps(ray, nu0, schedule):
    """Each step's plan and its lifted geodesic's sections at the positive test times.

    The plans are ``construct_coray``'s, taken one target at a time
    (``step_chain``). The lift is built as it stands, since at high p the plan may
    be the simplex's and not optimal; its sections are still those the
    construction's diagnostics compare.
    """
    plans, sections = [], []
    _, *targets = step_chain(ray, nu0, schedule)
    for plan in targets:
        lift = w.GeodesicLift(
            plan.mu.atoms[plan.left], plan.nu.atoms[plan.right], plan.masses, plan.p, plan.cost
        )
        plans.append(plan)
        sections.append([w.section(lift, tau) for tau in MOVING_TIMES])
    return plans, sections


def output_bits(lengths, diagnostics, start_offset, converged, ray):
    """A construction's outputs as bytes, so that equal means equal bit for bit."""
    return (
        np.array(lengths).tobytes(),
        np.array(diagnostics).tobytes(),
        np.float64(start_offset).tobytes(),
        converged,
        ray.origins.tobytes(),
        ray.velocities.tobytes(),
        ray.weights.tobytes(),
        ray.p,
    )


def constructed(ray, nu0, schedule):
    """``construct_coray``'s outputs as bytes, or the type and message of the error it raises."""
    try:
        result = w.construct_coray(ray, nu0, schedule=schedule)
    except Exception as error:  # compared with the chain's own error
        return type(error), str(error)
    return output_bits(
        result.lengths, result.diagnostics, result.start_offset, result.converged, result.ray
    )


def chained(ray, nu0, schedule):
    """The construction's outputs from the step chain, one target at a time, or its error.

    The start offset first, from the plan that starts the chain, then each
    step's plan and its glued movement from the step before, and the
    candidate ray from the last plan.
    """
    try:
        chain = step_chain(ray, nu0, schedule)
        start_offset = next(chain).cost
        lengths, diagnostics, previous = [], [], None
        for plan in chain:
            lengths.append(plan.cost)
            if previous is not None:
                diagnostics.append(_glued_movement(previous, plan, np.array(MOVING_TIMES)))
            previous = plan
        if plan.cost <= 0.0:
            raise ValueError("the final geodesic is degenerate; extend the schedule")
        origins = plan.mu.atoms[plan.left]
        velocities = (plan.nu.atoms[plan.right] - origins) / plan.cost
        candidate = w.RayMeasure(origins, velocities, plan.masses, ray.p)
    except Exception as error:  # compared with the construction's own error
        return type(error), str(error)
    converged = diagnostics[-1] < DEFAULT_TOL
    return output_bits(lengths, diagnostics, start_offset, converged, candidate)


CHAIN_KINDS = ("weighted", "wide", "meeting", "far", "equal-weights", "one-atom")


def chain_case(kind, d, p, seed, steps):
    """A unit-speed ray family in R^d, a weighted start and a doubling schedule of ``steps`` steps.

    - ``weighted``: 2-4 rays and 2-4 start atoms;
    - ``wide``: 9-12 rays and start atoms together, so a basic plan has 8
      or more entries;
    - ``meeting``: rays from 0 and 1 along the first axis with velocities
      1 and 0.5 (scaled to unit speed by a factor s), which meet at time
      2 / s, a target of the schedule: that section merges two atoms;
    - ``far``: the schedule ends at t = 1e20, where at p = 16 the
      distances pass the overflow limit and the step raises;
    - ``equal-weights``: the start carries the ray's weights, so the
      identity branch may take a step;
    - ``one-atom``: a single-atom start.
    """
    rng = np.random.default_rng(seed)
    k, n = (int(x) for x in rng.integers(2, 5, size=2))
    if kind == "wide":
        k, n = int(rng.integers(4, 7)), int(rng.integers(5, 7))
    origins, velocities = rng.normal(size=(k, d)), rng.normal(size=(k, d))
    if kind == "meeting":
        origins[:2], velocities[:2] = 0.0, 0.0
        origins[1, 0], velocities[0, 0], velocities[1, 0] = 1.0, 1.0, 0.5
    weights = rng.random(k) + 0.1
    ray = unit_speed(origins, velocities, weights / weights.sum(), p)
    schedule = [2.0**j for j in range(1, steps + 1)]
    if kind == "meeting":
        meeting = 1.0 / (ray.velocities[0, 0] - ray.velocities[1, 0])
        schedule = sorted(set(schedule) | {meeting})
    if kind == "far":
        schedule.append(1e20)
    if kind == "one-atom":
        n = 1
    atoms = 3.0 * rng.normal(size=(n, d))
    start = rng.random(n) + 0.1
    if kind == "equal-weights":
        atoms, start = 3.0 * rng.normal(size=(k, d)), ray.weights
    return ray, w.DiscreteMeasure(atoms, start / start.sum()), tuple(schedule)


@settings(max_examples=150)
@given(
    kind=st.sampled_from(CHAIN_KINDS),
    d=st.sampled_from((1, 2, 3, 8)),
    p=st.sampled_from((1.5, 2.0, 3.0, 8.0, 16.0)),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(2, 14),
)
def test_construction_is_the_warm_chain_bit_for_bit(kind, d, p, seed, steps):
    # the construction certifies a kept basis on all the targets after it
    # at once; every output must have the bits of taking the targets one
    # at a time
    ray, nu0, schedule = chain_case(kind, d, p, seed, steps)
    assert constructed(ray, nu0, schedule) == chained(ray, nu0, schedule)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0, 16.0])
def test_the_chain_cases_reach_their_branches(d, p):
    # each case of the bit-identity property meets what it is there for
    for seed in range(3):
        ray, nu0, schedule = chain_case("wide", d, p, seed, 6)
        plans = list(step_chain(ray, nu0, schedule))
        assert len(plans[-1].masses) >= 8
        assert constructed(ray, nu0, schedule) == chained(ray, nu0, schedule)
        ray, nu0, schedule = chain_case("meeting", d, p, seed, 6)
        meeting = next(t for t in schedule if len(w.ray_section(ray, t)) < len(ray))
        assert len(w.ray_section(ray, meeting)) == len(ray) - 1
        assert constructed(ray, nu0, schedule) == chained(ray, nu0, schedule)
        ray, nu0, schedule = chain_case("far", d, p, seed, 6)
        outputs = constructed(ray, nu0, schedule)
        assert outputs == chained(ray, nu0, schedule)
        assert (outputs[0] is CostOverflowError) == (p == 16.0)
    # a run of a kept plan ends where its certificate fails: at p = 3 the
    # plan solved at the third step holds for eight more and changes at the
    # last one
    ray, nu0, schedule = far_start_translation(3.0)
    _, *plans = step_chain(ray, nu0, schedule)
    kept = [same_entries(a, b) for a, b in zip(plans, plans[1:])]
    assert kept == [True, False] + [True] * 8 + [False]
    assert constructed(ray, nu0, schedule) == chained(ray, nu0, schedule)


def test_a_run_s_end_is_solved_cold_without_repricing(monkeypatch, solves):
    # the stacked pass prices the basis of each plan it keeps once, on all
    # the targets after it: the start offset's on all 12, which holds at
    # the first two and fails at the third, and the third's on the 9 after
    # it, which holds for eight steps and fails at the last. The target
    # that ends a run is solved cold, so no target is priced twice, and
    # the solves are the start offset, the third target and the last
    stacks = []
    certified_prefix = ot._certified_prefix

    def spy(cost_stack, basis):
        stacks.append(len(cost_stack))
        return certified_prefix(cost_stack, basis)

    # the name the stacked pass calls it by
    monkeypatch.setattr(paths, "_certified_prefix", spy)
    ray, nu0, schedule = far_start_translation(3.0)
    w.construct_coray(ray, nu0, schedule=schedule)
    assert stacks == [12, 9]
    assert len(solves) == 3


def test_a_start_with_the_ray_s_weights_is_solved_every_step(solves):
    # a start with the ray's weights is left to solve_ot, which tries the
    # identity plan before the LP, so no step is taken from a stacked
    # certificate. Here the simplex plans of the first three steps give way
    # to the identity at the fourth
    ray, nu0, schedule = chain_case("equal-weights", 1, 1.5, 6, 10)
    _, *plans = step_chain(ray, nu0, schedule)
    assert [plan._basis is not None for plan in plans] == [True] * 3 + [False] * 7
    solves.clear()
    outputs = constructed(ray, nu0, schedule)
    # the start offset and every target
    assert len(solves) == len(schedule) + 1
    assert outputs == chained(ray, nu0, schedule)


def sorted_plan_distance(a, b, p):
    """W_p between two measures on the line: the north-west plan on sorted atoms.

    Paired on raw masses, so equal weights in the same order pair each
    atom with one atom at its own mass. A remainder below 1e-14 is the
    rounding of a pooled weight, and is dropped rather than carried to
    the next atom, where at p = 16 it could outweigh the movement.
    """
    order_a, order_b = (np.argsort(m.atoms[:, 0], kind="stable") for m in (a, b))
    xa, xb = a.atoms[order_a, 0], b.atoms[order_b, 0]
    wa, wb = a.weights[order_a].tolist(), b.weights[order_b].tolist()
    total = 0.0
    i = j = 0
    rest_a, rest_b = wa[0], wb[0]
    while True:
        mass = min(rest_a, rest_b)
        total += mass * abs(xa[i] - xb[j]) ** p
        rest_a -= mass
        rest_b -= mass
        if rest_a < 1e-14:
            i += 1
            if i == len(wa):
                break
            rest_a = wa[i]
        if rest_b < 1e-14:
            j += 1
            if j == len(wb):
                break
            rest_b = wb[j]
    return total ** (1.0 / p)


def same_entries(first, second):
    return all(
        getattr(first, name).tobytes() == getattr(second, name).tobytes()
        for name in ("left", "right", "masses")
    )


def weighted_start(rng, n, d):
    """A weighted start of n atoms, spread wide enough that some target plans change."""
    weights = rng.random(n) + 0.1
    return w.DiscreteMeasure(3.0 * rng.normal(size=(n, d)), weights / weights.sum())


def check_glued_bound(ray, nu0, schedule, movement):
    """The diagnostics bound ``movement`` between sections; the verdict is the solved one's.

    ``movement(a, b, p)`` is the reference distance between two sections.
    Each diagnostic is at least the largest reference movement over the
    positive test times, within 1e-12 relative, and equals it within 1e-9
    on every step whose plan did not change. ``converged`` is the verdict
    the construction gave when it solved the last step's section
    movements. Returns the verdict.
    """
    result = w.construct_coray(ray, nu0, schedule=schedule)
    plans, sections = construction_steps(ray, nu0, schedule)
    assert result.lengths == tuple(plan.cost for plan in plans)
    for k, diagnostic in enumerate(result.diagnostics):
        reference = max(movement(a, b, ray.p) for a, b in zip(sections[k], sections[k + 1]))
        assert diagnostic >= reference * (1.0 - 1e-12)
        if same_entries(plans[k], plans[k + 1]):
            assert diagnostic == pytest.approx(reference, rel=1e-9)
    solved = max(
        w.wasserstein_distance(a, b, ray.p) for a, b in zip(sections[-2], sections[-1])
    )
    assert result.converged == (solved < DEFAULT_TOL)
    return result.converged


@pytest.mark.parametrize("p", [1.5, 3.0, 8.0, 16.0])
def test_glued_diagnostics_bound_the_exact_movement_on_the_line(p):
    # comonotone rays in d = 1, where the sorted plan is the exact W_p; on
    # the default schedule some constructions converge and some do not
    rng = np.random.default_rng(2021)
    verdicts = set()
    for k in (3, 5):
        ray = comonotone_ray(rng, k, p)
        for n in (3, 5):
            nu0 = weighted_start(rng, n, 1)
            verdicts.add(check_glued_bound(ray, nu0, DEFAULT_SCHEDULE, sorted_plan_distance))
    assert verdicts == {False, True}


@pytest.mark.parametrize(
    "kind,p",
    [("psd-gradient", 2.0), ("translation", 1.5), ("translation", 2.0), ("translation", 3.0)],
)
def test_glued_diagnostics_bound_the_solved_movement_in_the_plane(kind, p):
    # the simplex is exact at p <= 3, so solve_ot on the two sections is
    # the reference movement; from starts this far, some target plans
    # change along the schedule
    rng = np.random.default_rng(2022)
    for _ in range(2):
        if kind == "psd-gradient":
            ray = psd_gradient_ray(rng, 4)
        else:
            ray = w.make_translation_ray(weighted_start(rng, 4, 2), (0.6, 0.8), p=p)
        for n in (3, 5):
            nu0 = weighted_start(rng, n, 2)
            assert check_glued_bound(ray, nu0, LONG_SCHEDULE, w.wasserstein_distance)


def test_glued_movement_pairs_no_mass_across_start_atoms():
    # nu0 = 0.3 at 0 and 0.7 at 1 on the line. The two plans send the same
    # masses to targets 2e-6 apart, except that the second plan's atom-0
    # entries carry 5.6e-17 more, a rounding-level remainder. Past both
    # lengths the sections are the targets, so the movement is 2e-6 up to
    # the dropped remainder. Carried to atom 1's entry, 0.5 away, that
    # remainder would add (5.6e-17 * 0.5**8) ** (1/8) = 4.6e-3 at p = 8.
    nu0 = w.DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7])
    targets = np.array([[10.0], [10.5], [11.0]])
    weights = [0.1, 0.2, 0.7]
    before = w.Coupling(nu0, w.DiscreteMeasure(targets, weights), [0, 0, 1], [0, 1, 2], weights, 8.0)
    heavier = [0.1, 0.20000000000000004, 0.7]
    assert heavier[1] - weights[1] == pytest.approx(5.6e-17, rel=0.01)
    after = w.Coupling(
        nu0, w.DiscreteMeasure(targets + 2e-6, weights), [0, 0, 1], [0, 1, 2], heavier, 8.0
    )
    assert _glued_movement(before, after, np.array([100.0])) == pytest.approx(2e-6, rel=1e-9)
    # a plan glued to itself pairs each entry with itself at its own mass
    assert _glued_movement(after, after, np.array([0.5, 100.0])) == 0.0


def far_start_translation(p):
    """A weighted translation ray and a far weighted start, with a 12-step schedule.

    At p = 3 the kept plan holds for ten steps and changes at the last one.
    """
    mu0 = w.DiscreteMeasure(
        [[9.6, -0.1], [-4.7, -3.0], [-0.5, -5.5], [10.8, 1.3]], [0.25, 0.35, 0.1, 0.3]
    )
    nu0 = w.DiscreteMeasure([[-5.2, -8.7], [10.7, -9.6], [-10.9, 15.7]], [0.45, 0.38, 0.17])
    ray = w.make_translation_ray(mu0, (-0.28, 0.96), p=p)
    return ray, nu0, tuple(2.0**k for k in range(1, 13))


@pytest.mark.parametrize("p", [3.0, 8.0, 16.0])
def test_time0_section_never_moves(p):
    # every step's geodesic starts at nu0, so its time-0 section moves by
    # exactly 0, however the step's plan changes
    ray, nu0, schedule = far_start_translation(p)
    result = w.construct_coray(ray, nu0, schedule=schedule, test_times=(0.0,))
    assert result.diagnostics == (0.0,) * (len(schedule) - 1)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 16.0])
def test_time0_adds_nothing_to_the_diagnostics(p):
    ray, nu0, schedule = far_start_translation(p)
    default = w.construct_coray(ray, nu0, schedule=schedule)
    positive = w.construct_coray(ray, nu0, schedule=schedule, test_times=(0.5, 1.0, 2.0, 4.0))
    assert default.lengths == positive.lengths
    assert default.diagnostics == positive.diagnostics
    assert default.converged == positive.converged
    for name in ("origins", "velocities", "weights"):
        assert getattr(default.ray, name).tobytes() == getattr(positive.ray, name).tobytes()


def translated_start_gap(ray, nu0, v, times=(0.0, 1.0, 2.0, 4.0)):
    """Bound on W_p between the ray's sections and nu0 + t v.

    Each ray entry is paired with the nu0 atom nearest its origin; when the
    pairs carry nu0's weights, the largest pair distance bounds W_p.
    """
    offsets = np.linalg.norm(ray.origins[:, None, :] - nu0.atoms[None, :, :], axis=2)
    match = np.argmin(offsets, axis=1)
    pooled = np.bincount(match, weights=ray.weights, minlength=len(nu0))
    assert np.max(np.abs(pooled - nu0.weights)) <= 1e-9
    drift = np.linalg.norm(ray.velocities - v, axis=1)
    start = offsets[np.arange(len(match)), match]
    return max(float(np.max(start + t * drift)) for t in times)


def test_high_order_movement_gaps_halve_to_convergence():
    # p = 8 on the line: a weighted 6-atom translation ray and a weighted
    # 7-atom start. Each step's gap is about half the last. When the gaps
    # were solved movements, a certificate whose tolerance grows with the
    # largest cost could not tell their identity plan from a wrong plan at
    # p = 8: accepting wrong movement plans, the gaps stalled at 1.58e-3
    # from t = 2048 on
    mu0 = w.DiscreteMeasure(
        [[0.242], [0.442], [-0.968], [0.351], [0.82], [-0.728]],
        [0.147, 0.255, 0.066, 0.346, 0.054, 0.132],
    )
    nu0 = w.DiscreteMeasure(
        [[0.567], [0.569], [-0.833], [0.23], [-0.377], [-0.26], [0.988]],
        [0.157, 0.075, 0.122, 0.105, 0.179, 0.144, 0.218],
    )
    ray = w.make_translation_ray(mu0, (-1.0,), p=8)
    result = w.construct_coray(ray, nu0, schedule=LONG_SCHEDULE)
    gaps = result.diagnostics
    assert result.converged
    assert gaps[-1] == pytest.approx(2.0e-6, rel=0.01)
    for before, after in zip(gaps[-4:], gaps[-3:]):
        assert 0.45 < after / before < 0.55


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_high_order_translation_coray(p):
    # the co-ray from nu0 toward a translation ray is nu0 translated along
    # the ray; at p >= 3 the target sections' costs pass 1e15
    mu0, nu0, v = weighted_translation_setup()
    result = w.construct_coray(w.make_translation_ray(mu0, v, p=p), nu0, schedule=LONG_SCHEDULE)
    assert result.converged
    assert result.ray.p == p
    assert translated_start_gap(result.ray, nu0, v) <= 1e-3


@pytest.mark.parametrize("kind,p", GENUINE_RAY_KINDS)
def test_exact_coray_is_a_ray_along_which_values_fall_at_unit_rate(kind, p):
    ray, probes = genuine_ray_case(kind, p)
    for nu0 in probes:
        coray = w.coray_exact(ray, nu0)
        assert coray.p == p
        assert coray.speed == pytest.approx(1.0, abs=1e-12)
        assert w.same_measure(w.ray_section(coray, 0.0), nu0, weight_atol=1e-12)
        assert w.validate_ray(coray).passed
        report = w.coray_gradient_check(ray, coray, tol=1e-8)
        assert report.passed
        assert max(report.residuals) <= 1e-8
        # the other theorem checks hold to rounding on an exact co-ray
        assert w.subray_uniqueness_check(ray, coray, tau=1.0, tol=1e-9).passed
        for lam in probes:
            assert w.busemann_subadditivity_check(ray, coray, lam, tol=1e-9).passed
            assert w.lipschitz_check(ray, nu0, lam).passed
        assert w.viscosity_check(ray, coray, tol=1e-9).passed


@pytest.mark.parametrize("kind,p", GENUINE_RAY_KINDS)
def test_the_widest_pair_decides_the_gradient_identity(kind, p):
    # the sampled form stays as the oracle: on real candidates, whose
    # residuals are not 0, the largest of the residuals over all pairs of
    # (0, 1, 2, 4) is the one-pair residual, bit for bit, and the viscosity
    # residual lies in [0, h(1)] with h(s) = s + b(nu_s) - b(nu_0)
    ray, probes = genuine_ray_case(kind, p)
    times = (0.0, 1.0, 2.0, 4.0)
    for nu0 in probes:
        for schedule in ((1.0, 2.0), (2.0, 4.0, 8.0), (4.0, 16.0, 64.0)):
            candidate = w.construct_coray(ray, nu0, schedule=schedule).ray
            values = {t: w.busemann_exact(ray, w.ray_section(candidate, t)).value for t in times}
            sampled = [
                abs((values[t] - values[s]) - (s - t))
                for s, t in itertools.combinations(times, 2)
            ]
            report = w.coray_gradient_check(ray, candidate, times=times)
            assert report.pairs == ((0.0, 4.0),)
            assert report.residuals == (max(sampled),)
            h1 = 1.0 + values[1.0] - values[0.0]
            residual = w.viscosity_check(ray, candidate).equality_residual
            assert 0.0 <= residual <= h1 + 1e-12


def test_exact_coray_from_an_offset_point_is_the_parallel_ray(line_ray, parallel):
    coray = w.coray_exact(line_ray, w.dirac((0.0, 1.0)))
    assert coray.origins.tolist() == [[0.0, 1.0]]
    assert coray.velocities.tolist() == [[1.0, 0.0]]
    # the limit construction approaches it from its last finite target
    for t in (0.0, 1.0, 2.0, 4.0):
        gap = w.wasserstein_distance(w.ray_section(parallel.ray, t), w.ray_section(coray, t), 2.0)
        assert gap <= 1e-3


def test_gradient_along_the_ray_itself(line_ray):
    report = w.coray_gradient_check(line_ray, line_ray, times=(0.0, 3.0))
    assert report.passed
    assert report.pairs == ((0.0, 3.0),)
    assert report.residuals[0] <= 1e-9


def test_gradient_parallel_coray(line_ray, parallel):
    report = w.coray_gradient_check(line_ray, parallel.ray)
    assert report.passed
    assert max(report.residuals) <= 1e-3


def test_gradient_translation_coray(translation_setup):
    mu, _, built = translation_setup
    report = w.coray_gradient_check(mu, built.ray)
    assert report.passed


def test_subadditivity_at_the_start_measure(line_ray, parallel):
    # lambda equal to the co-ray start: the along-ray value vanishes and the
    # inequality is an equality
    nu0 = w.ray_section(parallel.ray, 0.0)
    report = w.busemann_subadditivity_check(line_ray, parallel.ray, nu0)
    assert report.passed
    assert abs(report.margin) <= 1e-3


def test_subadditivity_along_the_coray(line_ray, parallel):
    lam = w.ray_section(parallel.ray, 2.0)
    report = w.busemann_subadditivity_check(line_ray, parallel.ray, lam)
    assert report.passed
    assert abs(report.margin) <= 1e-3


def test_subadditivity_random_probes(line_ray, parallel, rng):
    for _ in range(10):
        lam = random_measure(rng, max_atoms=3)
        report = w.busemann_subadditivity_check(line_ray, parallel.ray, lam)
        assert report.passed


def test_subray_collinear_exact(line_ray):
    report = w.subray_uniqueness_check(line_ray, line_ray, tau=1.0)
    assert report.passed
    assert report.max_gap <= 1e-9


def test_subray_parallel(line_ray, parallel):
    report = w.subray_uniqueness_check(line_ray, parallel.ray, tau=2.0)
    assert report.passed
    assert report.max_gap <= 1e-3


def test_subray_translation(translation_setup):
    mu, _, built = translation_setup
    report = w.subray_uniqueness_check(mu, built.ray, tau=1.0)
    assert report.passed


def test_subray_rejects_bad_tau(line_ray):
    with pytest.raises(ValueError):
        w.subray_uniqueness_check(line_ray, line_ray, tau=0.0)


def test_nan_and_infinite_check_times_fail_by_name(line_ray):
    nan, inf = float("nan"), float("inf")
    calls = [
        (lambda: w.coray_gradient_check(line_ray, line_ray, times=(0.0, nan)), "check times"),
        (lambda: w.coray_gradient_check(line_ray, line_ray, times=(0.0, inf)), "check times"),
        (lambda: w.coray_gradient_check(line_ray, line_ray, times=(2.0, 2.0)), "check times"),
        (lambda: w.subray_uniqueness_check(line_ray, line_ray, tau=nan), "subray shift tau"),
        (lambda: w.subray_uniqueness_check(line_ray, line_ray, tau=inf), "subray shift tau"),
        (
            lambda: w.subray_uniqueness_check(line_ray, line_ray, tau=1.0, test_times=(0.0, nan)),
            "test times",
        ),
        # no test time at all: once an unnamed "max() arg is an empty sequence"
        (
            lambda: w.subray_uniqueness_check(line_ray, line_ray, tau=1.0, test_times=()),
            "test times",
        ),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, named in calls:
            with pytest.raises(ValueError, match=named):
                call()


def test_checks_fail_a_ray_that_is_no_coray(line_ray):
    # from (0, 1) the co-ray of the line ray runs parallel to it; along the
    # unit-speed ray in direction (0.6, 0.8) b = -x falls at rate 0.6, so
    # the residual over times 0..4 is 0.4 * 4, the rebuild from (0.6,
    # 1.8) parts from it by |(0.4, -0.8)| t, up to t = 4, and the time-1
    # section lies 1 away with b = -0.6, so |0 - (1 - 0.6)| = 0.4
    candidate = w.make_dirac_ray((0.0, 1.0), (0.6, 0.8))
    gradient = w.coray_gradient_check(line_ray, candidate)
    assert not gradient.passed
    assert max(gradient.residuals) == pytest.approx(1.6, abs=1e-12)
    subray = w.subray_uniqueness_check(line_ray, candidate, tau=1.0)
    assert not subray.passed
    assert subray.max_gap == pytest.approx(4.0 * np.hypot(0.4, 0.8), abs=1e-12)
    viscosity = w.viscosity_check(line_ray, candidate)
    assert not viscosity.passed
    assert viscosity.equality_residual == pytest.approx(0.4, abs=1e-12)


def viscosity_margin(report):
    """W_p(nu_0, lambda) + b(lambda) - b(nu_0) of a ``lipschitz_check(ray, nu_0, lambda)``."""
    return report.distance + report.value2 - report.value1


def test_viscosity_dirac_closed_forms(line_ray, parallel):
    # the parallel co-ray's time-1 section sits at (1,1): 0 = 1 + (-1)
    section = w.ray_section(parallel.ray, 1.0)
    assert w.wasserstein_distance(section, w.dirac((1.0, 1.0)), 2.0) <= 1e-3
    report = w.viscosity_check(line_ray, parallel.ray)
    assert report.passed
    assert report.equality_residual <= 1e-3
    lipschitz = w.lipschitz_check(line_ray, w.dirac((0.0, 1.0)), w.dirac((1.0, 1.0)))
    assert abs(viscosity_margin(lipschitz)) <= 1e-3


def test_viscosity_far_probe_has_large_margin(line_ray):
    far = w.dirac((0.0, 50.0))
    report = w.lipschitz_check(line_ray, w.dirac((0.0, 1.0)), far)
    assert report.passed
    assert viscosity_margin(report) > 10.0


def test_viscosity_random_probes(line_ray, rng):
    for _ in range(10):
        lam = random_measure(rng, max_atoms=3)
        report = w.lipschitz_check(line_ray, w.dirac((0.0, 1.0)), lam)
        assert report.passed
        assert viscosity_margin(report) >= -CHECK_ATOL
