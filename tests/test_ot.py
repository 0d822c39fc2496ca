import itertools
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog

import wassray as w
from wassray import coray, measures, ot, paths
from wassray.errors import (
    CostOverflowError,
    DimensionMismatchError,
    EmptyMeasureError,
    InvalidExponentError,
    TransportSolveError,
)
from wassray.ot import (
    BRUTE_FORCE_MAX_ATOMS,
    Coupling,
    _solve_lp,
    pairwise_distances,
    transport_plan,
)

from conftest import coords, random_uniform_pair, same_bits, small_measures, uniform_pairs


def two_atom_instance():
    mu = w.DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    nu = w.DiscreteMeasure([[2.0], [3.0]], [0.5, 0.5])
    return mu, nu


def test_dirac_pair_single_entry():
    plan = w.solve_ot(w.dirac((0.0, 0.0)), w.dirac((3.0, 4.0)), 2.0)
    assert plan.cost == 5.0
    assert len(plan.masses) == 1 and plan.masses[0] == 1.0


def test_identical_measures_zero_cost():
    mu = w.uniform_measure([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    plan = w.solve_ot(mu, mu, 2.0)
    assert plan.cost == 0.0
    assert np.array_equal(plan.left, plan.right)


def test_two_atom_monotone_matching():
    # both permutation couplings by hand: monotone costs 0.5*4 + 0.5*4 = 4,
    # crossing costs 0.5*9 + 0.5*1 = 5, so the monotone plan wins with W = 2
    mu, nu = two_atom_instance()
    plan = w.solve_ot(mu, nu, 2.0)
    assert plan.cost == pytest.approx(2.0, abs=1e-12)
    assert list(zip(plan.left, plan.right)) == [(0, 0), (1, 1)]
    crossing_cost = (0.5 * 9.0 + 0.5 * 1.0) ** 0.5
    assert plan.cost < crossing_cost


def test_distinct_error_types():
    mu = w.dirac((0.0, 0.0))
    nu = w.dirac((1.0,))
    with pytest.raises(DimensionMismatchError):
        w.solve_ot(mu, nu, 2.0)
    with pytest.raises(InvalidExponentError):
        w.solve_ot(mu, w.dirac((1.0, 1.0)), 1.0)
    with pytest.raises(InvalidExponentError):
        w.solve_ot(mu, w.dirac((1.0, 1.0)), 17.0)
    with pytest.raises(EmptyMeasureError):
        w.DiscreteMeasure(np.zeros((0, 2)), np.zeros(0))


def test_wasserstein_distance_is_cost_field():
    mu, nu = two_atom_instance()
    assert w.wasserstein_distance(mu, nu, 2.0) == w.solve_ot(mu, nu, 2.0).cost


def test_brute_force_single_atom():
    plan = w.brute_force_ot(w.dirac((1.0, 1.0)), w.dirac((4.0, 5.0)), 2.0)
    assert plan.cost == 5.0


def test_brute_force_two_atom_instance():
    mu, nu = two_atom_instance()
    plan = w.brute_force_ot(mu, nu, 2.0)
    assert plan.cost == pytest.approx(2.0, abs=1e-12)
    assert list(zip(plan.left, plan.right)) == [(0, 0), (1, 1)]


def test_brute_force_matches_solver_on_five_atoms():
    rng = np.random.default_rng(42)
    mu, nu = random_uniform_pair(rng, 5, 3)
    fast = w.solve_ot(mu, nu, 3.0)
    slow = w.brute_force_ot(mu, nu, 3.0)
    assert fast.cost == pytest.approx(slow.cost, rel=1e-8)


def test_brute_force_input_guards():
    rng = np.random.default_rng(0)
    mu, nu = random_uniform_pair(rng, 9, 2)
    with pytest.raises(ValueError, match="capped"):
        w.brute_force_ot(mu, nu, 2.0)
    uneven = w.DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7])
    with pytest.raises(ValueError, match="uniform"):
        w.brute_force_ot(uneven, w.uniform_measure([[0.0], [1.0]]), 2.0)
    with pytest.raises(ValueError, match="equal-size"):
        w.brute_force_ot(w.uniform_measure([[0.0]]), w.uniform_measure([[0.0], [1.0]]), 2.0)


def test_coupling_rejects_bad_marginals():
    mu, nu = two_atom_instance()
    with pytest.raises(ValueError, match="marginal"):
        Coupling(mu, nu, [0, 1], [0, 1], [0.7, 0.3], 2.0, 2.0)


def test_coupling_rejects_wrong_cost():
    mu, nu = two_atom_instance()
    with pytest.raises(ValueError, match="cost"):
        Coupling(mu, nu, [0, 1], [0, 1], [0.5, 0.5], 2.0, 3.0)


def test_coupling_rejects_nonpositive_mass():
    mu, nu = two_atom_instance()
    with pytest.raises(ValueError, match="positive"):
        Coupling(mu, nu, [0, 1, 0], [0, 1, 1], [0.5, 0.5, 0.0], 2.0, 2.0)


@pytest.mark.parametrize(
    ("left", "right", "match"),
    [
        ([0, 2], [0, 1], "left index out of range"),
        ([-1, 1], [0, 1], "left index out of range"),
        ([0, 1], [0, 2], "right index out of range"),
        ([0, 1], [-1, 1], "right index out of range"),
        # bincount sizes its output by the largest index, so a huge one must
        # be rejected before it can ask for terabytes
        ([2**40, 1], [0, 1], "left index out of range"),
        ([0, 1], [0, 2**40], "right index out of range"),
        ([-(2**40), 1], [0, 1], "left index out of range"),
    ],
)
def test_coupling_rejects_index_out_of_range(left, right, match):
    mu, nu = two_atom_instance()
    with pytest.raises(ValueError, match=match):
        Coupling(mu, nu, left, right, [0.5, 0.5], 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.5])
def test_coupling_rejects_nonfinite_mass(bad):
    mu, nu = two_atom_instance()
    # first and not first: argmin and argmax stop at the first NaN
    for masses in ([0.5, bad], [bad, 0.5]):
        with pytest.raises(ValueError, match="finite and positive"):
            Coupling(mu, nu, [0, 1], [0, 1], masses, 2.0)


@pytest.mark.parametrize("left", [[-1, 1], [0, 2]])
@pytest.mark.parametrize("bad", [np.nan, -0.5])
def test_coupling_reports_a_bad_index_before_a_bad_mass(left, bad):
    mu, nu = two_atom_instance()
    with pytest.raises(ValueError, match="left index out of range"):
        Coupling(mu, nu, left, [0, 1], [0.5, bad], 2.0)


def test_coupling_rejects_unequal_entry_lengths():
    mu, nu = two_atom_instance()
    with pytest.raises(ValueError, match="equal length"):
        Coupling(mu, nu, [0, 1], [0, 1], [1.0], 2.0)


@pytest.mark.parametrize("shape", [(2, 1), (1, 2)])
@pytest.mark.parametrize("field", ["left", "right", "masses"])
def test_coupling_rejects_entry_arrays_that_are_not_one_dimensional(field, shape):
    # bincount would reject them too, under a message about index range
    mu, nu = two_atom_instance()
    entries = {"left": [0, 1], "right": [0, 1], "masses": [0.5, 0.5]}
    entries[field] = np.reshape(entries[field], shape)
    with pytest.raises(ValueError, match="one-dimensional"):
        Coupling(mu, nu, **entries, p=2.0)


def test_coupling_rejects_no_entries():
    mu, nu = two_atom_instance()
    with pytest.raises(ValueError, match="at least one entry"):
        Coupling(mu, nu, [], [], [], 2.0)


@pytest.mark.parametrize(
    "corrupt,message",
    [("offset", "row sums"), ("nan", "finite and positive")],
    ids=["offset", "nan"],
)
def test_solver_plans_are_still_checked(monkeypatch, corrupt, message):
    # solver-built plans skip only the conversions of the public
    # constructor: entries off their marginals, or with a NaN mass, are
    # still rejected
    solve_lp = ot._solve_lp

    def broken(a, b, cost_matrix):
        left, right, masses, basis = solve_lp(a, b, cost_matrix)
        masses[0] = masses[0] + 1e-6 if corrupt == "offset" else np.nan
        return left, right, masses, basis

    monkeypatch.setattr(ot, "_solve_lp", broken)
    mu = w.DiscreteMeasure([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], [0.2, 0.3, 0.5])
    nu = w.DiscreteMeasure([[1.0, 1.0], [2.0, 0.5]], [0.6, 0.4])
    with pytest.raises(ValueError, match=message):
        w.solve_ot(mu, nu, 2.0)


def test_solver_deterministic_bit_for_bit():
    rng = np.random.default_rng(7)
    mu, nu = random_uniform_pair(rng, 5, 2)
    a = w.solve_ot(mu, nu, 2.0)
    b = w.solve_ot(mu, nu, 2.0)
    assert np.array_equal(a.left, b.left)
    assert np.array_equal(a.right, b.right)
    assert np.array_equal(a.masses, b.masses)
    assert a.cost == b.cost


def test_tail_bound_examples():
    plan = w.solve_ot(w.dirac((0.0, 0.0)), w.dirac((3.0, 4.0)), 2.0)
    report = w.tail_mass_bound_check(plan, 6.0)
    assert report.tail_mass == 0.0 and report.passed

    mu, nu = two_atom_instance()
    plan = w.solve_ot(mu, nu, 2.0)
    report = w.tail_mass_bound_check(plan, 1.5)
    assert report.tail_mass == pytest.approx(1.0, abs=1e-12)
    assert report.bound == pytest.approx((2.0 / 1.5) ** 2, rel=1e-12)
    assert report.passed

    # radius beyond the largest displacement: empty tail
    report = w.tail_mass_bound_check(plan, 2.5)
    assert report.tail_mass == 0.0 and report.passed


@pytest.mark.parametrize("radius", [1e-300, 5e-324])
def test_tail_bound_past_the_largest_double_is_infinite(radius):
    # (3 / radius) ** 2 passes the largest double: Python's float pow raised
    # a bare OverflowError; the bound is +inf, which every tail passes
    plan = w.solve_ot(w.dirac((0.0,)), w.dirac((3.0,)), 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = w.tail_mass_bound_check(plan, radius)
    assert report.radius == radius and report.tail_mass == 1.0
    assert report.bound == np.inf and report.passed


def test_tail_bound_rejects_bad_radius():
    plan = w.solve_ot(*two_atom_instance(), 2.0)
    with pytest.raises(ValueError):
        w.tail_mass_bound_check(plan, 0.0)
    # NaN fails the bound by name rather than giving a failed report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="radius must be positive, got nan"):
            w.tail_mass_bound_check(plan, float("nan"))


@given(pair=uniform_pairs(max_atoms=5))
def test_solver_agrees_with_exhaustive_oracle(pair):
    mu, nu = pair
    fast = w.solve_ot(mu, nu, 2.0)
    slow = w.brute_force_ot(mu, nu, 2.0)
    assert fast.cost == pytest.approx(slow.cost, rel=1e-8, abs=1e-12)


@given(pair=uniform_pairs(max_atoms=5))
def test_marginals_reproduced(pair):
    mu, nu = pair
    plan = w.solve_ot(mu, nu, 2.0)
    row = np.bincount(plan.left, weights=plan.masses, minlength=len(mu))
    col = np.bincount(plan.right, weights=plan.masses, minlength=len(nu))
    assert np.max(np.abs(row - mu.weights)) <= 1e-9
    assert np.max(np.abs(col - nu.weights)) <= 1e-9


@given(pair=uniform_pairs(max_atoms=4))
def test_symmetry(pair):
    mu, nu = pair
    assert abs(
        w.wasserstein_distance(mu, nu, 2.0) - w.wasserstein_distance(nu, mu, 2.0)
    ) <= 1e-10


@given(pair=uniform_pairs(max_atoms=3), extra=uniform_pairs(max_atoms=3))
def test_triangle_inequality(pair, extra):
    mu, nu = pair
    lam, _ = extra
    if lam.dim != mu.dim:
        lam = w.uniform_measure(np.resize(lam.atoms, (len(lam), mu.dim)))
    w_ml = w.wasserstein_distance(mu, lam, 2.0)
    w_mn = w.wasserstein_distance(mu, nu, 2.0)
    w_nl = w.wasserstein_distance(nu, lam, 2.0)
    assert w_ml <= w_mn + w_nl + 1e-7


@settings(max_examples=50)  # about 25 uniform and 25 weighted pairs
@given(
    pair=st.one_of(uniform_pairs(max_atoms=4), st.tuples(small_measures(), small_measures()))
)
def test_tail_bound_property(pair):
    mu, nu = pair
    plan = w.solve_ot(mu, nu, 2.0)
    if plan.cost == 0.0:
        return
    for radius in (plan.cost / 2.0, plan.cost, 2.0 * plan.cost):
        assert w.tail_mass_bound_check(plan, radius).passed


@settings(max_examples=50)  # about 25 uniform and 25 weighted pairs
@given(
    pair=st.one_of(uniform_pairs(max_atoms=5), st.tuples(small_measures(), small_measures())),
    p=st.sampled_from((1.5, 2.0, 8.0)),
)
def test_solver_plans_match_public_constructor(pair, p):
    # solve_ot checks its plans without the public constructor's conversions;
    # the public constructor must rebuild them bit for bit
    mu, nu = pair
    plan = w.solve_ot(mu, nu, p)
    public = Coupling(mu, nu, plan.left, plan.right, plan.masses, p)
    for name in ("left", "right", "masses"):
        assert same_bits(getattr(plan, name), getattr(public, name))
        assert not getattr(plan, name).flags.writeable
    assert plan.cost == public.cost and plan.p == public.p == p


def reference_brute_force(mu, nu, p):
    """The exhaustive oracle as a loop over permutations: its (right, cost).

    Each permutation's total is its own 1-D sum and the first strictly
    smaller total wins, so ties go to the lexicographically first one.
    """
    n = len(mu)
    cost_matrix = pairwise_distances(mu.atoms, nu.atoms) ** p
    rows = np.arange(n)
    best_total, best_perm = np.inf, None
    for perm in itertools.permutations(range(n)):
        total = float(cost_matrix[rows, perm].sum())
        if total < best_total:
            best_total, best_perm = total, perm
    right = np.array(best_perm, dtype=np.intp)
    return right, ot._segment_cost(mu.atoms[rows], nu.atoms[right], np.full(n, 1.0 / n), p)


def test_brute_force_matches_the_permutation_loop_bit_for_bit():
    # half the pairs sit on the grid {0, 1, 2}^d, where totals tie often
    rng = np.random.default_rng(9)
    for k in range(2 * BRUTE_FORCE_MAX_ATOMS):
        n = 1 + k % BRUTE_FORCE_MAX_ATOMS
        d = int(rng.integers(1, 4))
        p = (1.5, 2.0, 3.0, 8.0)[k % 4]
        if k % 2:
            mu = w.uniform_measure(rng.integers(0, 3, size=(n, d)))
            nu = w.uniform_measure(rng.integers(0, 3, size=(n, d)))
        else:
            mu, nu = random_uniform_pair(rng, n, d)
        plan = w.brute_force_ot(mu, nu, p)
        right, cost = reference_brute_force(mu, nu, p)
        assert same_bits(plan.right, right)
        assert same_bits(np.float64(plan.cost), np.float64(cost))
        assert same_bits(plan.left, np.arange(n, dtype=np.intp))


def test_brute_force_tie_goes_to_the_lexicographically_first_permutation():
    # nu's atoms 1 and 2 coincide: the matchings (1, 2, 0) and (2, 1, 0)
    # both cost 0 + 1 + 0, below every other, and (1, 2, 0) comes first
    mu = w.uniform_measure([[0.0], [1.0], [5.0]])
    nu = w.uniform_measure([[5.0], [0.0], [0.0]])
    plan = w.brute_force_ot(mu, nu, 2.0)
    assert plan.right.tolist() == [1, 2, 0]
    assert plan.cost == (1.0 / 3.0) ** 0.5


def test_permutation_couplings_all_feasible():
    # sanity for the oracle itself: every permutation plan is feasible, and
    # the oracle picks the cheapest one
    rng = np.random.default_rng(5)
    mu, nu = random_uniform_pair(rng, 4, 2)
    costs = []
    dmat = np.linalg.norm(mu.atoms[:, None, :] - nu.atoms[None, :, :], axis=2) ** 2
    for perm in itertools.permutations(range(4)):
        costs.append(sum(dmat[i, perm[i]] for i in range(4)) / 4.0)
    assert w.brute_force_ot(mu, nu, 2.0).cost == pytest.approx(
        min(costs) ** 0.5, rel=1e-12
    )


def test_unit_interval_high_order_matches_sorted_plan():
    # on the line the monotone (sorted) matching is optimal for convex costs;
    # at p = 8 on [0, 1] the cost gaps fall below the LP's absolute 1e-7
    # reduced-cost tolerance, so only an exact method finds this plan
    rng = np.random.default_rng(0)
    x, y = rng.random(8), rng.random(8)
    plan = w.solve_ot(w.uniform_measure(x), w.uniform_measure(y), 8.0)
    sorted_cost = np.mean(np.abs(np.sort(x) - np.sort(y)) ** 8.0) ** (1.0 / 8.0)
    assert plan.cost == pytest.approx(sorted_cost, rel=1e-8)


@given(
    pair=uniform_pairs(max_atoms=BRUTE_FORCE_MAX_ATOMS),
    p=st.sampled_from((1.5, 2.0, 3.0)),
)
def test_assignment_agrees_with_lp_and_exhaustive_oracle(pair, p):
    # uniform pairs in a box of side 10: solve_ot takes the assignment path,
    # and HiGHS, called directly, stays checked against the oracle
    mu, nu = pair
    fast = w.solve_ot(mu, nu, p)
    cost_matrix = pairwise_distances(mu.atoms, nu.atoms) ** p
    plan = highs_plan(mu.weights, nu.weights, cost_matrix)
    lp_cost = float(np.sum(plan * cost_matrix)) ** (1.0 / p)
    slow = w.brute_force_ot(mu, nu, p)
    assert fast.cost == pytest.approx(lp_cost, rel=1e-8, abs=1e-12)
    assert fast.cost == pytest.approx(slow.cost, rel=1e-8, abs=1e-12)


def test_uniform_square_takes_assignment(lp_shapes):
    rng = np.random.default_rng(3)
    mu, nu = random_uniform_pair(rng, 6, 2)
    plan = w.solve_ot(mu, nu, 2.0)
    assert lp_shapes == []
    assert np.array_equal(plan.left, np.arange(6))
    assert sorted(plan.right) == list(range(6))
    assert np.array_equal(plan.masses, mu.weights)


def weighted_square():
    mu = w.DiscreteMeasure([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.2, 0.3, 0.5])
    return mu, w.uniform_measure([[2.0, 0.0], [2.0, 1.0], [3.0, 3.0]])


def uniform_unequal_sizes():
    mu = w.uniform_measure([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return mu, w.uniform_measure([[2.0, 0.0], [2.0, 1.0]])


def merged_pushforward():
    # two target atoms coincide, so the endpoint section pools their mass:
    # three atoms again, but with weights 1/2, 1/4, 1/4
    mu = w.uniform_measure([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    nu = w.uniform_measure([[4.0, 0.0], [4.0, 0.0], [5.0, 1.0], [5.0, 2.0]])
    end = w.section(w.lift_geodesic(w.solve_ot(mu, nu, 2.0)), 100.0)
    assert sorted(end.weights) == [0.25, 0.25, 0.5]
    return end, w.uniform_measure([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("build", [weighted_square, uniform_unequal_sizes, merged_pushforward])
def test_other_instances_take_lp(lp_shapes, build):
    mu, nu = build()
    lp_shapes.clear()
    w.solve_ot(mu, nu, 2.0)
    assert lp_shapes == [(len(mu), len(nu))]


def highs_plan(a, b, cost_matrix):
    """Transport plan from HiGHS through linprog, with dense constraints."""
    m, n = cost_matrix.shape
    rows = np.kron(np.eye(m), np.ones(n))
    cols = np.kron(np.ones(m), np.eye(n))
    res = linprog(
        cost_matrix.ravel(),
        A_eq=np.vstack([rows, cols[:-1]]),
        b_eq=np.concatenate([a, b[:-1]]),
        method="highs",
    )
    assert res.status == 0
    return res.x.reshape(m, n)


def lp_cost(mu, nu, p):
    """Optimal cost from HiGHS called directly, bypassing every solve_ot path."""
    cost_matrix = pairwise_distances(mu.atoms, nu.atoms) ** p
    plan = highs_plan(mu.weights, nu.weights, cost_matrix)
    return float(np.sum(plan * cost_matrix)) ** (1.0 / p)


@st.composite
def weighted_schedule_steps(draw, max_atoms=4, dim=2):
    """A weighted pair (mu, nu) and nu's atoms moved by a drawn displacement."""

    def points(n, values=coords):
        return np.asarray(
            draw(st.lists(st.lists(values, min_size=dim, max_size=dim), min_size=n, max_size=n))
        )

    def weighted(n):
        weights = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        return points(n), weights / weights.sum()

    mu = w.DiscreteMeasure(*weighted(draw(st.integers(2, max_atoms))))
    atoms, weights = weighted(draw(st.integers(2, max_atoms)))
    scale = draw(st.sampled_from((0.0, 1e-3, 1.0, 1e3)))
    moved = atoms + scale * points(len(atoms), st.floats(-1.0, 1.0))
    return mu, w.DiscreteMeasure(atoms, weights), w.DiscreteMeasure(moved, weights)


@given(step=weighted_schedule_steps(), p=st.sampled_from((1.5, 2.0, 3.0)))
def test_warm_solve_matches_cold_lp(step, p):
    # a previous plan is kept on new costs only where its basis is
    # certified there, so a kept plan is optimal on them, as a cold solve is
    mu, nu, moved = step
    previous = w.solve_ot(mu, nu, p)
    costs = ot._cost_matrix(mu.atoms, moved.atoms, p)
    if previous._basis is not None and ot._certified_prefix(costs[None], previous._basis):
        kept = Coupling(mu, moved, previous.left, previous.right, previous.masses, p)
        assert kept.cost == pytest.approx(lp_cost(mu, moved, p), rel=1e-8, abs=1e-12)
    plan = w.solve_ot(mu, moved, p)
    assert plan.cost == pytest.approx(lp_cost(mu, moved, p), rel=1e-8, abs=1e-12)


def weighted_pair():
    mu = w.DiscreteMeasure([[0.0], [1.0]], [0.4, 0.6])
    nu = w.DiscreteMeasure([[2.0], [3.0]], [0.4, 0.6])
    return mu, nu


def bellman_ford_certifies(left, right, cost_matrix):
    """Whether Bellman-Ford potentials certify the support (left, right): the reference oracle.

    Shortest-path distances in the residual graph (an arc i -> j of length
    C[i, j] for every cell, and j -> i of length -C[i, j] for every support
    cell) from a virtual source at distance 0 to every node, converged by
    ``np.array_equal``, then the library's own test ``_dual_certificate``.
    It needs no spanning tree, so it judges forests and any other support.
    """
    m, n = cost_matrix.shape
    tol = ot._certificate_tolerance(cost_matrix)
    support_cost = cost_matrix[left, right]
    u = np.zeros(m)
    v = np.zeros(n)
    for _ in range(m + n):
        v_next = np.minimum(v, np.minimum.reduce(u[:, None] + cost_matrix, axis=0))
        u_next = u.copy()
        np.minimum.at(u_next, left, v_next[right] - support_cost)
        if np.array_equal(u_next, u) and np.array_equal(v_next, v):
            break
        u, v = u_next, v_next
    return ot._dual_certificate(cost_matrix, u, v, left, right, tol)[2]


def certified(plan, target, p):
    """Whether ``plan``'s kept basis is certified on the costs to ``target``: a stack of one."""
    costs = ot._cost_matrix(plan.mu.atoms, target.atoms, p)
    return ot._certified_prefix(costs[None], plan._basis) == 1


def test_certificate_accepts_optimal_and_rejects_crossing_support(lp_shapes):
    # a simplex plan's basis is certified on its own costs; with the
    # target's atoms swapped the plan crosses, its basis fails, and the LP
    # solves
    mu, nu = unequal_pair()
    plan = w.solve_ot(mu, nu, 2.0)
    assert lp_shapes == [(2, 2)] and plan._basis is not None
    assert certified(plan, nu, 2.0)
    swapped = w.DiscreteMeasure(nu.atoms[::-1], nu.weights)
    assert not certified(plan, swapped, 2.0)
    assert lp_shapes == [(2, 2)]
    crossed = w.solve_ot(mu, swapped, 2.0)
    assert lp_shapes == [(2, 2)] * 2
    assert crossed.cost == pytest.approx(lp_cost(mu, swapped, 2.0), rel=1e-12)
    assert crossed.cost < (0.3 * 9.0 + 0.1 * 4.0 + 0.6 * 1.0) ** 0.5  # the crossing plan


def degenerate_pair():
    """Weights 0.1-0.4 against 0.5/0.3/0.2: sums tie (0.1 + 0.4 = 0.5), so plans can be forests."""
    rng = np.random.default_rng(7)
    mu0 = w.DiscreteMeasure(rng.normal(size=(4, 2)), [0.1, 0.2, 0.3, 0.4])
    nu = w.DiscreteMeasure(rng.normal(size=(3, 2)), [0.5, 0.3, 0.2])
    return nu, mu0


def test_certificate_handles_forest_supports(lp_shapes):
    # a forest plan, fewer than m + n - 1 positive entries, keeps its whole
    # basis tree, zero-mass cells included, so it is certified as a tree on
    # a moved target; the oracle agrees
    nu, mu0 = degenerate_pair()
    target = mu0.translate((64.0, 0.0))
    plan = w.solve_ot(nu, target, 2.0)
    rows, cols = plan._basis
    assert len(plan.left) < len(rows) == 3 + 4 - 1
    assert np.isin(plan.left * 4 + plan.right, rows * 4 + cols).all()
    moved = mu0.translate((128.0, 0.0))
    assert certified(plan, moved, 2.0)
    assert lp_shapes == [(3, 4)]
    costs = ot._cost_matrix(nu.atoms, moved.atoms, 2.0)
    assert bellman_ford_certifies(plan.left, plan.right, costs)


def test_user_built_warm_plan_gives_the_cold_entries(lp_shapes):
    # a coupling built by hand has no simplex basis, so even an optimal one
    # keeps no run along a schedule: the step after it is solved cold. The
    # solver's own plan, with the same entries, keeps the next section
    mu, nu = unequal_pair()
    cold = w.solve_ot(mu, nu, 2.0)
    user = Coupling(mu, nu, cold.left, cold.right, cold.masses, 2.0)
    assert user._basis is None
    ray = w.make_translation_ray(nu, (1.0,))
    assert paths._kept_plan_lengths(ray, user, [0.5]) == ([], None)
    lengths, _ = paths._kept_plan_lengths(ray, cold, [0.5])
    assert len(lengths) == 1
    assert lp_shapes == [(2, 2)]


def unequal_pair():
    """``weighted_pair`` with other target weights, so no identity plan is feasible."""
    mu = w.DiscreteMeasure([[0.0], [1.0]], [0.4, 0.6])
    nu = w.DiscreteMeasure([[2.0], [3.0]], [0.3, 0.7])
    return mu, nu


def test_warm_crossing_plan_is_rejected(lp_shapes):
    # the crossing plan's three cells span the 2 x 2 bipartite graph, so
    # they can stand as a basis, and the certificate rejects it; the
    # sorted plan moves 0.3 by 2, 0.1 by 3 and 0.6 by 2: W_2**2 = 4.5
    mu, nu = unequal_pair()
    cost = (0.4 * 9.0 + 0.3 * 1.0 + 0.3 * 4.0) ** 0.5
    crossing = Coupling(mu, nu, [0, 1, 1], [1, 0, 1], [0.4, 0.3, 0.3], 2.0, cost)
    object.__setattr__(crossing, "_basis", (crossing.left, crossing.right))
    assert not certified(crossing, nu, 2.0)
    plan = w.solve_ot(mu, nu, 2.0)
    assert lp_shapes == [(2, 2)]
    assert plan.cost == pytest.approx(4.5**0.5, abs=1e-12)
    assert list(zip(plan.left, plan.right)) == [(0, 0), (0, 1), (1, 1)]


def test_warm_crossing_plan_gives_way_to_the_identity(lp_shapes):
    # equal marginals: the certificate rejects the crossing plan's tree, and
    # the solver takes the identity, with no LP
    mu, nu = weighted_pair()
    cost = (0.4 * 9.0 + 0.4 * 1.0 + 0.2 * 4.0) ** 0.5
    crossing = Coupling(mu, nu, [0, 1, 1], [1, 0, 1], [0.4, 0.4, 0.2], 2.0, cost)
    object.__setattr__(crossing, "_basis", (crossing.left, crossing.right))
    assert not certified(crossing, nu, 2.0)
    plan = w.solve_ot(mu, nu, 2.0)
    assert lp_shapes == []
    assert plan.cost == pytest.approx(2.0, abs=1e-12)
    assert list(zip(plan.left, plan.right)) == [(0, 0), (1, 1)]
    assert same_bits(plan.masses, mu.weights)


def test_certified_warm_plan_skips_lp(lp_shapes):
    # unequal marginals: the plan's basis is certified on a moved target,
    # so its entries are an optimal plan there, with no second LP
    mu, nu = unequal_pair()
    previous = w.solve_ot(mu, nu, 2.0)
    moved = w.DiscreteMeasure(nu.atoms + 0.5, nu.weights)
    lp_shapes.clear()
    assert certified(previous, moved, 2.0)
    assert lp_shapes == []
    kept = Coupling(mu, moved, previous.left, previous.right, previous.masses, 2.0)
    assert kept.cost == pytest.approx(lp_cost(mu, moved, 2.0), rel=1e-12)


def test_certified_warm_plan_keeps_its_entries_and_passes_the_public_constructor():
    # a plan kept on a moved target keeps its entries, with the cost solve_ot
    # derives for them on the new cost matrix; the public constructor, which
    # runs every entry check again, accepts them with that cost
    mu, nu = unequal_pair()
    previous = w.solve_ot(mu, nu, 2.0)
    moved = w.DiscreteMeasure(nu.atoms + 0.5, nu.weights)
    costs = ot._cost_matrix(mu.atoms, moved.atoms, 2.0)
    assert ot._certified_prefix(costs[None], previous._basis) == 1
    kept = ot._checked_coupling(
        mu, moved, previous.left, previous.right, previous.masses, 2.0, cost_matrix=costs
    )
    assert kept.left is previous.left and kept.right is previous.right and kept.masses is previous.masses
    assert kept.cost == pytest.approx(lp_cost(mu, moved, 2.0), rel=1e-12)
    public = Coupling(mu, moved, kept.left, kept.right, kept.masses, 2.0, kept.cost)
    assert public.cost == kept.cost


def test_measure_onto_itself_takes_the_identity(lp_shapes):
    # weighted, so not the assignment path; the identity costs exactly 0
    mu = w.DiscreteMeasure([[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5]], [0.2, 0.5, 0.3])
    plan = w.solve_ot(mu, mu, 3.0)
    assert lp_shapes == []
    assert plan.left.tolist() == plan.right.tolist() == [0, 1, 2]
    assert same_bits(plan.masses, mu.weights)
    assert plan.cost == 0.0


def test_identity_needs_nonnegative_costs():
    # a zero diagonal with one negative cost: moving mass from row 0 to
    # column 1 and back pays -1 + 0.5 per unit, so the identity is not optimal
    a = np.array([0.4, 0.6])
    cost_matrix = np.array([[0.0, -1.0], [0.5, 0.0]])
    left, right, masses, _ = transport_plan(a, a.copy(), cost_matrix)
    assert not np.array_equal(left, right)
    assert float(masses @ cost_matrix[left, right]) == pytest.approx(-0.2, abs=1e-15)


def moved_copy(n, d, p, scale, seed):
    """Weights and d**p costs of a weighted measure in a box of side 10 and a moved copy.

    The copy is moved by normal steps of 10**scale box sides: seeded
    continuous data, so no costs tie and the optimal plan is unique.
    """
    rng = np.random.default_rng(seed)
    xs = 10.0 * rng.random((n, d))
    ys = xs + 10.0 * 10.0**scale * rng.normal(size=(n, d))
    a = rng.random(n) + 0.05
    a /= a.sum()
    return a, ot._cost_matrix(xs, ys, p)


def is_identity(left, right, n):
    return np.array_equal(left, np.arange(n)) and np.array_equal(right, np.arange(n))


MOVED_COPIES = dict(
    n=st.integers(2, 12),
    d=st.integers(1, 3),
    p=st.sampled_from((1.5, 2.0, 3.0, 8.0)),
    scale=st.floats(-6.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)


@given(**MOVED_COPIES)
def test_equal_marginal_plan_has_the_bits_of_the_lp(n, d, p, scale, seed):
    # moves of 1e-6 to 1 box sides: the identity, when taken, is the LP's plan
    a, cost_matrix = moved_copy(n, d, p, scale, seed)
    plan = transport_plan(a, a.copy(), cost_matrix)
    for fast, lp in zip(plan[:3], _solve_lp(a, a.copy(), cost_matrix)[:3]):
        assert same_bits(fast, lp)


def certified_identity(a, cost_matrix):
    """The identity rule ``transport_plan`` used before it asked the assignment solver.

    A zero diagonal on nonnegative costs, or Bellman-Ford's certificate on
    the identity when its bound, 2 ``_certificate_tolerance`` in summed cost,
    is at most ``COST_RTOL`` of the identity's own summed cost.
    """
    identity = np.arange(len(a))
    diagonal = np.diagonal(cost_matrix)
    return bool(cost_matrix.min() >= 0.0 and not diagonal.any()) or (
        2.0 * ot._certificate_tolerance(cost_matrix) <= ot.COST_RTOL * float(a @ diagonal)
        and bellman_ford_certifies(identity, identity, cost_matrix)
    )


@settings(max_examples=300)
@given(**MOVED_COPIES)
def test_every_certified_identity_is_still_taken(n, d, p, scale, seed):
    # about one instance in six passes the old rule; each is decided
    # before the LP, by the assignment solver or the zero-cost rule
    a, cost_matrix = moved_copy(n, d, p, scale, seed)
    if certified_identity(a, cost_matrix):
        with mock.patch.object(ot, "_solve_lp", side_effect=AssertionError("reached the LP")):
            left, right, _, _ = transport_plan(a, a.copy(), cost_matrix)
        assert is_identity(left, right, n)


@settings(max_examples=300)
@given(**{**MOVED_COPIES, "p": st.sampled_from((1.5, 2.0, 3.0))})
def test_identity_costs_no_more_than_the_lp_plan(n, d, p, scale, seed):
    # at p <= 3 the LP's certificate resolves these costs, so its plan is a
    # fair yardstick for the identity the assignment solver accepts
    a, cost_matrix = moved_copy(n, d, p, scale, seed)
    left, right, masses, _ = transport_plan(a, a.copy(), cost_matrix)
    if is_identity(left, right, n):
        lp_left, lp_right, lp_masses, _ = _solve_lp(a, a.copy(), cost_matrix)
        lp_cost = float(lp_masses @ cost_matrix[lp_left, lp_right])
        assert float(masses @ cost_matrix[left, right]) <= lp_cost * (1.0 + 1e-12)


def array_equal_plan(a, b, cost_matrix):
    """``transport_plan`` past its uniform branch, with its former ``np.array_equal`` tests."""
    m, n = len(a), len(b)
    if m == n and np.array_equal(a, b):
        identity = np.arange(n, dtype=np.intp)
        if (cost_matrix.min() >= 0.0 and not np.diagonal(cost_matrix).any()) or np.array_equal(
            linear_sum_assignment(cost_matrix)[1], identity
        ):
            return identity, identity, a.copy(), None
    return ot._solve_lp(a, b, cost_matrix)


@settings(max_examples=300)
@given(**MOVED_COPIES)
def test_byte_comparisons_pick_the_branch_of_array_equal(n, d, p, scale, seed):
    # weights and permutations compared as bytes pick the branch the
    # np.array_equal tests picked, with the same bits
    a, cost_matrix = moved_copy(n, d, p, scale, seed)
    results = []
    for plan in (transport_plan, array_equal_plan):
        with mock.patch.object(ot, "_solve_lp", wraps=ot._solve_lp) as lp:
            entries = plan(a, a.copy(), cost_matrix)
        results.append((entries, lp.call_count))
    (new, new_lps), (old, old_lps) = results
    assert new_lps == old_lps
    for fast, reference in zip(new[:3], old[:3]):
        assert same_bits(fast, reference)
    assert (new[3] is None) == (old[3] is None)
    if new[3] is not None:
        assert all(same_bits(x, y) for x, y in zip(new[3], old[3]))


@pytest.mark.parametrize(
    "cost_matrix",
    [
        # the atoms 0 and 1 against 1.1 and -0.1: the identity crosses
        pairwise_distances([[0.0], [1.0]], [[1.1], [-0.1]]) ** 2.0,
        # a Busemann-like matrix with a negative entry and a positive
        # diagonal: moving s from the diagonal saves 3.5 s
        np.array([[1.0, -1.0], [0.5, 2.0]]),
    ],
)
def test_identity_that_is_not_optimal_goes_to_the_lp(lp_shapes, cost_matrix):
    a = np.array([0.4, 0.6])
    left, right, masses, _ = transport_plan(a, a.copy(), cost_matrix)
    assert lp_shapes == [(2, 2)]
    assert not np.array_equal(left, right)
    assert float(masses @ cost_matrix[left, right]) < float(a @ np.diagonal(cost_matrix))


def sorted_plan_cost(x, a, y, b, p):
    """Summed |x - y|**p of the sorted (north-west corner) plan on the line: optimal for p >= 1."""
    rows, cols = np.argsort(x), np.argsort(y)
    x, y, a, b = x[rows], y[cols], a[rows].tolist(), b[cols].tolist()
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        mass = min(a[i], b[j])
        total += mass * abs(x[i] - y[j]) ** p
        a[i] -= mass
        b[j] -= mass
        if a[i] <= b[j]:
            i += 1
        else:
            j += 1
    return total


def test_high_order_identity_follows_the_sorted_order(lp_shapes):
    # d = 1 atoms in a box of side 10 moved by N(0, 1e-3) or N(0, 1e-2) at
    # p = 12 and 16: the largest cost is near 1e16, so the certificate's
    # tolerance (about 1e3) dwarfs the identity's own summed cost and cannot
    # decide it. On the line the sorted plan is the one optimal plan, so the
    # identity is optimal exactly when the move keeps the atoms' order. The
    # assignment solver decides just that: it takes the identity, at the
    # sorted plan's cost, exactly then, and leaves every other instance to
    # the LP. No plan is farther from the optimum than the LP's
    taken = 0
    for seed in range(96):
        rng = np.random.default_rng(seed)
        p = (12.0, 16.0)[seed % 2]
        x = 10.0 * rng.random(24)
        y = x + rng.normal(0.0, (1e-3, 1e-2)[seed // 2 % 2], 24)
        a = rng.random(24) + 0.05
        a /= a.sum()
        cost_matrix = ot._cost_matrix(x[:, None], y[:, None], p)
        lp_shapes.clear()
        left, right, masses, _ = transport_plan(a, a.copy(), cost_matrix)
        order_kept = np.array_equal(np.argsort(x), np.argsort(y))
        assert (lp_shapes == []) == order_kept
        cost = float(masses @ cost_matrix[left, right])
        optimum = sorted_plan_cost(x, a, y, a, p)
        if order_kept:
            taken += 1
            assert is_identity(left, right, 24)
            assert abs(cost - optimum) <= 1e-12 * optimum
        lp_left, lp_right, lp_masses, _ = _solve_lp(a, a.copy(), cost_matrix)
        lp_cost = float(lp_masses @ cost_matrix[lp_left, lp_right])
        assert cost - optimum <= lp_cost - optimum + 1e-12 * optimum
    assert 0 < taken < 96


def test_integer_grid_ties_keep_the_lp_cost():
    # atoms on an integer grid, moved by integer steps: costs tie, so the
    # identity may be a different optimal plan than the LP's, at its cost
    rng = np.random.default_rng(5)
    differ = 0
    for _ in range(300):
        n, d = rng.integers(2, 13), rng.integers(1, 4)
        p = float(rng.choice((1.5, 2.0, 3.0, 8.0)))
        xs = rng.integers(-2, 3, size=(n, d)).astype(float)
        ys = xs + rng.integers(-1, 2, size=(n, d))
        a = rng.random(n) + 0.05
        a /= a.sum()
        cost_matrix = ot._cost_matrix(xs, ys, p)
        left, right, masses, _ = transport_plan(a, a.copy(), cost_matrix)
        lp_left, lp_right, lp_masses, _ = _solve_lp(a, a.copy(), cost_matrix)
        lp_cost = float(lp_masses @ cost_matrix[lp_left, lp_right])
        cost = float(masses @ cost_matrix[left, right])
        assert abs(cost - lp_cost) <= 1e-15 * lp_cost
        differ += not np.array_equal(left * n + right, lp_left * n + lp_right)
    assert differ > 0


def far_section_instance():
    # at p = 8 a section 1024 units out gives costs near 1.2e24, far past
    # the reach of a solver with absolute tolerances
    mu0 = w.DiscreteMeasure(
        [[0.1, -0.54], [0.36, 1.3], [0.95, -0.7]], [0.591, 0.296, 0.113]
    )
    nu = w.DiscreteMeasure(
        [[-0.22, -1.25], [-0.73, -0.54], [-0.32, 0.41], [1.04, -0.13]],
        [0.344, 0.304, 0.034, 0.318],
    )
    return nu, w.ray_section(w.make_translation_ray(mu0, [1, 0], p=8), 2**10)


def test_far_section_high_order_solves_certified(lp_shapes):
    # the plan's basis passes the certificate again on its own costs, with
    # no second LP
    nu, far = far_section_instance()
    plan = w.solve_ot(nu, far, 8)
    cost_matrix = pairwise_distances(nu.atoms, far.atoms) ** 8
    assert cost_matrix.max() > 1e24
    assert certified(plan, far, 8)
    assert lp_shapes == [(4, 3)]
    # every atom moves about 1024 to the right, so W_8 is close to that
    assert 1020.0 < plan.cost < 1028.0


def weighted_instance(rng, m, n, d=2):
    a, b = rng.random(m) + 0.1, rng.random(n) + 0.1
    cost_matrix = pairwise_distances(rng.normal(size=(m, d)), rng.normal(size=(n, d))) ** 2
    return a / a.sum(), b / b.sum(), cost_matrix


def test_solver_failure_raises_typed_error(monkeypatch):
    # the simplex cannot cycle, so its two ways to end uncertified are
    # rounding faults: the pivot cap, and a certificate that fails with no
    # improving cell; each raises an error naming it and the cost range
    a, b, cost_matrix = weighted_instance(np.random.default_rng(0), 6, 5)
    with monkeypatch.context() as patch:
        patch.setattr(ot, "SIMPLEX_PIVOTS_PER_NODE", 0)
        with pytest.raises(TransportSolveError, match=r"pivot cap.*cost range \[\d"):
            _solve_lp(a, b, cost_matrix)
    dual_certificate = ot._dual_certificate

    def never_certified(*args):
        cell, lowest, _ = dual_certificate(*args)
        return cell, lowest, False

    monkeypatch.setattr(ot, "_dual_certificate", never_certified)
    with pytest.raises(TransportSolveError, match=r"no improving cell.*cost range \[\d"):
        _solve_lp(a, b, cost_matrix)


@st.composite
def transport_instances(draw, max_atoms=7, kinds=("box", "grid", "coincident", "uniform")):
    """Weighted marginals and a cost matrix, often degenerate.

    Kinds: atoms anywhere in the box; atoms on an integer grid, so costs
    tie; some target atoms on source atoms, so costs vanish; and uniform
    marginals of unequal sizes, whose plans split mass.
    """
    kind = draw(st.sampled_from(kinds))
    m, n = draw(st.integers(2, max_atoms)), draw(st.integers(2, max_atoms))
    d = draw(st.integers(1, 3))
    values = st.integers(-2, 2).map(float) if kind == "grid" else coords

    def points(k):
        return np.asarray(
            draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=k, max_size=k))
        )

    def weights(k):
        if kind == "uniform":
            return np.full(k, 1.0 / k)
        raw = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
        return raw / raw.sum()

    xs, ys = points(m), points(n)
    if kind == "coincident":
        shared = draw(st.integers(1, min(m, n)))
        ys[:shared] = xs[:shared]
    p = draw(st.sampled_from((1.5, 2.0, 3.0, 8.0)))
    return weights(m), weights(n), pairwise_distances(xs, ys) ** p


def assert_certified_entries(a, b, cost_matrix, entries):
    """Entries and basis of a plan of (a, b): row-major, positive, marginals to 1e-12, certified.

    The entries lie on the m + n - 1 basis cells, which the potentials of a
    walk of the tree certify; the Bellman-Ford oracle certifies the entries.
    """
    left, right, masses, (rows, cols) = entries
    m, n = cost_matrix.shape
    assert np.all(np.diff(left * n + right) > 0) and masses.min() > 0.0
    assert np.max(np.abs(np.bincount(left, masses, minlength=m) - a)) <= 1e-12
    assert np.max(np.abs(np.bincount(right, masses, minlength=n) - b)) <= 1e-12
    assert len(rows) == len(cols) == m + n - 1
    assert np.isin(left * n + right, rows * n + cols).all()
    u_v = walked_potentials(cost_matrix, rows, cols)
    tol = ot._certificate_tolerance(cost_matrix)
    assert ot._dual_certificate(cost_matrix, u_v[:m], u_v[m:], rows, cols, tol)[2]
    assert bellman_ford_certifies(left, right, cost_matrix)


@settings(max_examples=100)
@given(instance=transport_instances(), shift=st.sampled_from((0.0, 0.5, 1.0)))
def test_simplex_matches_highs(instance, shift):
    # C - shift * max C - mean C: of both signs, or all negative at shift 1;
    # no method assumes a sign, so the plan minimises these costs like HiGHS's
    a, b, base = instance
    cost_matrix = base - shift * base.max() - base.mean()
    m, n = cost_matrix.shape
    left, right, masses, _ = entries = _solve_lp(a, b, cost_matrix)
    assert_certified_entries(a, b, cost_matrix, entries)
    reference = float(np.sum(highs_plan(a, b, cost_matrix) * cost_matrix))
    total = float(masses @ cost_matrix[left, right])
    # certified to 8 (m + n) eps max|C|; HiGHS is within its own 1e-7
    assert total <= reference + 8 * (m + n) * np.finfo(float).eps * np.abs(cost_matrix).max()
    assert total == pytest.approx(reference, rel=1e-8, abs=1e-7)
    # transport_plan, which may take the assignment path instead, agrees
    left, right, masses, _ = transport_plan(a, b, cost_matrix)
    assert float(masses @ cost_matrix[left, right]) == pytest.approx(reference, rel=1e-8, abs=1e-7)


@settings(max_examples=200)
@given(
    instance=transport_instances(),
    noise=st.sampled_from((0.0, 1e-3, 0.1, 1.0)),
    seed=st.integers(0, 2**16),
)
def test_basis_certificate_accepts_no_plan_bellman_ford_rejects(instance, noise, seed):
    # a simplex plan's basis is certified on its own costs; on perturbed
    # costs, as after a schedule step, a plan whose basis is certified is
    # one the Bellman-Ford oracle certifies too
    a, b, cost_matrix = instance
    left, right, _, basis = _solve_lp(a, b, cost_matrix)
    rng = np.random.default_rng(seed)
    costs = cost_matrix + rng.uniform(-noise, noise, cost_matrix.shape) * cost_matrix.std()
    kept = ot._certified_prefix(costs[None], basis) == 1
    if kept:
        assert bellman_ford_certifies(left, right, costs)
    if noise == 0.0:
        assert kept


# decimal weights whose partial sums tie (0.1 + 0.4 = 0.5 = 0.2 + 0.3)
DECIMAL_WEIGHTS = (
    (0.1, 0.2, 0.3, 0.4),
    (0.5, 0.3, 0.2),
    (0.25, 0.25, 0.5),
    (0.2, 0.2, 0.2, 0.4),
    (0.1, 0.1, 0.3, 0.5),
)


@settings(max_examples=50, deadline=None)
@given(
    weights=st.tuples(st.sampled_from(DECIMAL_WEIGHTS), st.sampled_from(DECIMAL_WEIGHTS)),
    p=st.sampled_from((1.5, 2.0, 3.0)),
    seed=st.integers(0, 2**16),
)
def test_degenerate_schedules_reuse_no_plan_bellman_ford_rejects(weights, p, seed):
    # tied partial sums make forest plans, whose bases carry zero-mass
    # cells. Along a doubling schedule of translated targets, as Busemann
    # doubling takes it, every plan kept on its certified basis is one the
    # Bellman-Ford oracle certifies on the new costs; every other step is
    # solved cold
    rng = np.random.default_rng(seed)
    nu = w.DiscreteMeasure(rng.normal(size=(len(weights[0]), 2)), weights[0])
    mu0 = w.DiscreteMeasure(rng.normal(size=(len(weights[1]), 2)), weights[1])
    velocity = rng.normal(size=2)
    velocity /= np.linalg.norm(velocity)
    plan = None
    for k in range(1, 13):
        target = mu0.translate(2.0**k * velocity)
        if plan is not None and plan._basis is not None and certified(plan, target, p):
            costs = ot._cost_matrix(nu.atoms, target.atoms, p)
            assert bellman_ford_certifies(plan.left, plan.right, costs)
        else:
            plan = w.solve_ot(nu, target, p)


def test_simplex_prices_once_per_pivot(monkeypatch):
    # each pivot reads the cell to enter off the certificate's own pricing
    # pass, so the m x n reduced costs are reduced to their least entry once
    # per pivot, and once more for the certified stop
    a, b, cost_matrix = weighted_instance(np.random.default_rng(3), 12, 10)
    events = []
    hang, dual_certificate = ot._hang, ot._dual_certificate

    def hang_spy(*args):
        events.append("hang")
        return hang(*args)

    def price_spy(*args):
        events.append("price")
        return dual_certificate(*args)

    class MinimumReduction:
        """A ufunc whose ``reduce`` counts reductions of an m x n array."""

        def __init__(self, ufunc):
            self.ufunc = ufunc

        def __getattr__(self, name):
            return getattr(self.ufunc, name)

        def __call__(self, *args, **kwargs):
            return self.ufunc(*args, **kwargs)

        def reduce(self, array, *args, **kwargs):
            if np.shape(array) == cost_matrix.shape:
                events.append("pass")
            return self.ufunc.reduce(array, *args, **kwargs)

    class CountingNumpy:
        """numpy, with every ``minimum.reduce`` of an m x n array logged as a pass."""

        minimum = MinimumReduction(np.minimum)

        def __getattr__(self, name):
            return getattr(np, name)

    class CountingArray(np.ndarray):
        """The cost matrix, whose m x n results log their own argmin and min as passes.

        The reduced costs derive from it, so a pass is logged whether it
        calls the array's method or numpy's function, which calls the method.
        """

        def argmin(self, *args, **kwargs):
            if self.shape == cost_matrix.shape:
                events.append("pass")
            return np.asarray(self).argmin(*args, **kwargs)

        def min(self, *args, **kwargs):
            if self.shape == cost_matrix.shape:
                events.append("pass")
            return np.asarray(self).min(*args, **kwargs)

    monkeypatch.setattr(ot, "_hang", hang_spy)
    monkeypatch.setattr(ot, "_dual_certificate", price_spy)
    monkeypatch.setattr(ot, "np", CountingNumpy())
    entries = _solve_lp(a, b, cost_matrix.view(CountingArray))
    monkeypatch.undo()
    assert_certified_entries(a, b, cost_matrix, entries)
    # the start tree hangs from row 0 before the first pricing pass; then
    # every pivot re-hangs one subtree between two passes
    start = events.index("price")
    assert set(events[:start]) == {"hang"}
    pivots = events[start:].count("hang")
    assert pivots >= 5
    assert events[start:] == ["price", "pass"] + ["hang", "price", "pass"] * pivots


def test_full_array_min_and_max_skip_the_ufunc_reduction(monkeypatch):
    # every full-array minimum and maximum on the check and solve paths goes
    # through argmin or argmax: no ufunc reduce at all
    rng = np.random.default_rng(5)
    calls = []

    class LoggedReduction:
        """A ufunc whose ``reduce`` logs every call."""

        def __init__(self, ufunc):
            self.ufunc = ufunc

        def __getattr__(self, name):
            return getattr(self.ufunc, name)

        def __call__(self, *args, **kwargs):
            return self.ufunc(*args, **kwargs)

        def reduce(self, array, *args, **kwargs):
            calls.append((self.ufunc.__name__, np.shape(array)))
            return self.ufunc.reduce(array, *args, **kwargs)

    class LoggingNumpy:
        """numpy, with every full-array maximum and minimum reduction logged."""

        maximum = LoggedReduction(np.maximum)
        minimum = LoggedReduction(np.minimum)

        def __getattr__(self, name):
            return getattr(np, name)

    for module in (ot, measures, paths, coray):
        monkeypatch.setattr(module, "np", LoggingNumpy())
    # the measures are built under the spy too, so their checks are covered
    a = rng.random(5) + 0.1
    mu = w.DiscreteMeasure(rng.normal(size=(5, 2)), a / a.sum())
    nu = w.DiscreteMeasure(rng.normal(size=(4, 2)), [0.1, 0.2, 0.3, 0.4])
    assert w.solve_ot(mu, nu, 2.0).cost > 0.0
    w.solve_ot(w.dirac((0.0, 1.0)), w.uniform_measure(rng.normal(size=(3, 2))), 2.0)
    square = (w.uniform_measure(rng.normal(size=(4, 2))) for _ in range(2))
    w.solve_ot(*square, 2.0)
    mu0 = w.DiscreteMeasure([[0.0, 0.0], [1.0, 0.5]], [0.4, 0.6])
    ray = w.make_translation_ray(mu0, (1.0, 0.0))
    start = w.DiscreteMeasure([[0.3, -0.4], [-1.0, 0.8]], [0.6, 0.4])
    w.busemann_exact(ray, start)
    w.construct_coray(ray, start, schedule=(2.0, 4.0, 8.0))
    monkeypatch.undo()
    assert calls == []


@given(pair=uniform_pairs(max_atoms=BRUTE_FORCE_MAX_ATOMS), p=st.sampled_from((1.5, 2.0, 3.0)))
def test_simplex_matches_exhaustive_oracle(pair, p):
    mu, nu = pair
    cost_matrix = pairwise_distances(mu.atoms, nu.atoms) ** p
    left, right, masses, _ = _solve_lp(mu.weights, nu.weights, cost_matrix)
    cost = float(masses @ cost_matrix[left, right]) ** (1.0 / p)
    assert cost == pytest.approx(w.brute_force_ot(mu, nu, p).cost, rel=1e-8, abs=1e-12)


def test_simplex_is_deterministic():
    a, b, cost_matrix = weighted_instance(np.random.default_rng(2), 9, 7)
    first, second = (_solve_lp(a, b, cost_matrix) for _ in range(2))
    # the entries, then the basis rows and columns
    assert all(same_bits(x, y) for x, y in zip(first[:3] + first[3], second[:3] + second[3]))


def uniform_instance(rng, m, n, d=2):
    cost_matrix = pairwise_distances(rng.normal(size=(m, d)), rng.normal(size=(n, d))) ** 2
    return np.full(m, 1.0 / m), np.full(n, 1.0 / n), cost_matrix


def walked_potentials(cost_matrix, left, right):
    """Potentials (u, v) from a walk of the whole basis tree from row 0.

    The simplex's former loop, which rebuilt every potential on every pivot.
    """
    m, n = cost_matrix.shape
    cost = cost_matrix.tolist()
    neighbours = [[] for _ in range(m + n)]
    for i, j in zip(left.tolist(), right.tolist()):
        neighbours[i].append(m + j)
        neighbours[m + j].append(i)
    potential = [0.0] * (m + n)
    parent = [-1] * (m + n)
    order = [0]
    for x in order:
        for y in neighbours[x]:
            if y != parent[x]:
                parent[y] = x
                if x < m:
                    potential[y] = potential[x] + cost[x][y - m]
                else:
                    potential[y] = potential[x] - cost[y][x - m]
                order.append(y)
    assert len(order) == m + n  # the basis spans every row and column
    return np.array(potential)


def assert_kept_potentials_are_walked(a, b, cost_matrix):
    """Every pivot's kept potentials have the bits of a walk of its whole basis tree.

    The pricing pass on them returns the first cell of least reduced cost
    C + u - v in row-major order, and that cost.
    """
    pivots = []
    dual_certificate = ot._dual_certificate

    def spy(cost_matrix, u, v, left, right, tol):
        walked = walked_potentials(cost_matrix, left, right)
        pivots.append(same_bits(np.concatenate([u, v]), walked))
        cell, lowest, certified = dual_certificate(cost_matrix, u, v, left, right, tol)
        reduced = cost_matrix + u[:, None] - v
        pivots.append(cell == np.argmin(reduced) and same_bits(np.float64(lowest), reduced.min()))
        return cell, lowest, certified

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ot, "_dual_certificate", spy)
        _solve_lp(a, b, cost_matrix)
    assert pivots and all(pivots)


@settings(max_examples=50)
@given(instance=transport_instances(max_atoms=12))
def test_kept_potentials_have_the_bits_of_a_full_walk(instance):
    assert_kept_potentials_are_walked(*instance)


@pytest.mark.parametrize(
    "build,m,n",
    [(weighted_instance, 40, 40), (uniform_instance, 30, 45)],
    ids=["weighted-40x40", "uniform-30x45"],
)
def test_large_instances_solve_certified(build, m, n):
    a, b, cost_matrix = build(np.random.default_rng(1), m, n)
    assert_certified_entries(a, b, cost_matrix, _solve_lp(a, b, cost_matrix))
    assert_kept_potentials_are_walked(a, b, cost_matrix)


@settings(max_examples=100)
@given(instance=transport_instances(kinds=("grid", "coincident", "uniform")))
def test_start_basis_is_a_nondegenerate_tree(instance):
    # under Orden's perturbation every basis mass is lexicographically
    # positive, which makes every pivot strictly improving
    a, b, cost_matrix = instance
    m, n = cost_matrix.shape
    basis = ot._matrix_minimum_basis(a, b, cost_matrix)
    assert len(basis) == m + n - 1
    assert all(mass > (0.0, 0) for mass in basis.values())


def path_tree():
    """Neighbour lists of the 2 x 2 tree on cells (0, 0), (1, 0), (1, 1); columns are nodes 2, 3."""
    return [[2], [2, 3], [0, 1], [1]]


def test_peeling_rejects_cycles_and_reports_imbalance():
    a = np.array([0.5, 0.5])
    left, right, masses = ot._peel_masses(a, np.array([0.7, 0.3]), path_tree())
    assert left.tolist() == [0, 1, 1] and right.tolist() == [0, 0, 1]
    assert np.allclose(masses, [0.5, 0.2, 0.3])
    # the same support cannot carry (0.3, 0.7): the mass of cell (1, 0)
    # comes out negative, so it is dropped and the column sums miss b
    b = np.array([0.3, 0.7])
    left, right, masses = ot._peel_masses(a, b, path_tree())
    assert left.tolist() == [0, 1] and right.tolist() == [0, 1]
    assert masses.min() > 0.0
    assert not np.allclose(np.bincount(right, masses, minlength=2), b)


@given(
    pair=st.one_of(st.tuples(small_measures(), small_measures()), uniform_pairs()),
    p=st.sampled_from((1.5, 2.0, 3.0, 8.0)),
)
def test_solve_ot_is_transport_plan_on_the_cost_matrix(pair, p):
    # single-atom, assignment and simplex paths alike
    mu, nu = pair
    plan = w.solve_ot(mu, nu, p)
    cost_matrix = pairwise_distances(mu.atoms, nu.atoms) ** p
    left, right, masses, basis = transport_plan(mu.weights, nu.weights, cost_matrix)
    assert same_bits(plan.left, left)
    assert same_bits(plan.right, right)
    assert same_bits(plan.masses, masses)
    # the basis too: a simplex plan's tree, or a single atom's star
    assert (plan._basis is None) == (basis is None)
    if basis is not None:
        assert all(same_bits(x, y) for x, y in zip(plan._basis, basis))


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (5, 1)])
def test_a_single_atom_plan_keeps_its_star_as_basis(m, n):
    # its m + n - 1 entries span the bipartite graph, so they are the basis,
    # and every cell is a tree cell: certified on any costs, alone or stacked
    rng = np.random.default_rng(m + 10 * n)
    weights = rng.random(max(m, n)) + 0.1
    many = w.DiscreteMeasure(rng.normal(size=(max(m, n), 2)), weights / weights.sum())
    mu, nu = (w.dirac((0.5, -1.0)), many) if m == 1 else (many, w.dirac((0.5, -1.0)))
    plan = w.solve_ot(mu, nu, 2.0)
    rows, cols = plan._basis
    assert len(rows) == m + n - 1
    assert rows is plan.left and cols is plan.right
    stack = rng.normal(size=(3, m, n)) * 10.0 ** rng.integers(-3, 4, size=(3, 1, 1))
    assert ot._certified_prefix(stack[:1], plan._basis) == 1
    assert ot._certified_prefix(stack, plan._basis) == 3


@settings(max_examples=100)
@given(
    instance=transport_instances(),
    noise=st.sampled_from((0.0, 1e-3, 0.1)),
    seed=st.integers(0, 2**16),
    count=st.integers(2, 6),
)
def test_a_stack_is_certified_as_matrix_by_matrix(instance, noise, seed, count):
    # a stack is priced in one vectorised pass; it must count the leading
    # matrices that the simplex's own one-matrix stop certifies one at a
    # time, on the potentials of a walk of the tree. The perturbation grows
    # along the stack, so runs end at every length
    a, b, cost_matrix = instance
    m = len(a)
    rows, cols = basis = _solve_lp(a, b, cost_matrix)[3]
    rng = np.random.default_rng(seed)
    growth = noise * np.arange(count)[:, None, None]
    stack = cost_matrix + rng.uniform(-1.0, 1.0, (count, *cost_matrix.shape)) * growth
    one_by_one = []
    for costs in stack:
        u_v = walked_potentials(costs, rows, cols)
        tol = ot._certificate_tolerance(costs)
        one_by_one.append(ot._dual_certificate(costs, u_v[:m], u_v[m:], rows, cols, tol)[2])
    assert ot._certified_prefix(stack, basis) == ot._leading(np.array(one_by_one))
    for k, costs in enumerate(stack):
        assert ot._certified_prefix(costs[None], basis) == int(one_by_one[k])


def test_transport_plan_rejects_a_cost_matrix_of_the_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        transport_plan(np.array([0.5, 0.5]), np.array([1.0]), np.zeros((2, 2)))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0, 16.0])
def test_solver_cost_is_the_entries_cost_bit_for_bit(p):
    # solve_ot reads the entries' d**p from its cost matrix; the public
    # constructor recomputes them from the atoms: the same bits, on every
    # path, at every d, and for a plan kept on a moved target whose costs
    # certify its basis
    kept_any = []
    rng = np.random.default_rng(int(10 * p))
    for d in (1, 2, 3, 8, 16):
        for kind in ("uniform", "weighted", "unequal"):
            scale = (1e-3, 1.0, 1e2)[int(rng.integers(0, 3))]

            def measure(k):
                atoms = rng.normal(size=(k, d)) * scale
                if kind != "weighted":
                    return w.uniform_measure(atoms)
                weights = rng.random(k) + 0.1
                return w.DiscreteMeasure(atoms, weights / weights.sum())

            m = int(rng.integers(2, 7))
            mu = measure(m)
            nu = measure(m if kind != "unequal" else m + int(rng.integers(1, 3)))
            cold = w.solve_ot(mu, nu, p)
            public = Coupling(mu, nu, cold.left, cold.right, cold.masses, p)
            assert same_bits(np.float64(public.cost), np.float64(cold.cost))
            moved = nu.translate(rng.normal(size=d) * 1e-3 * scale)
            plans = [(cold, nu)]
            costs = ot._cost_matrix(mu.atoms, moved.atoms, p)
            if cold._basis is not None and ot._certified_prefix(costs[None], cold._basis):
                kept = ot._checked_coupling(
                    mu, moved, cold.left, cold.right, cold.masses, p, cost_matrix=costs
                )
                plans.append((kept, moved))
            kept_any.append(len(plans) == 2)
            for plan, target in plans:
                starts, ends = mu.atoms[plan.left], target.atoms[plan.right]
                entries = ot._segment_cost(starts, ends, plan.masses, p)
                assert same_bits(np.float64(plan.cost), np.float64(entries))
    assert any(kept_any)  # some plans were kept


@pytest.mark.parametrize(
    "shape", [(7, 3), (5, 1), (4, 12), (3, 4, 6, 2), (2, 5, 9, 8), (6, 16), (3, 2, 50)]
)
def test_lengths_have_the_bits_of_numpy_norm(shape):
    # segment lengths, pair distances, ray speeds and co-ray movements all
    # go through ot._lengths, and cost matrices through pairwise_distances:
    # _lengths(Y - X) must have pairwise_distances(X, Y)'s bits, on (k, d)
    # entry arrays and (S, T, K, d) position stacks, also on a strided
    # view, at every d. Below d = 8 numpy sums the squares in order too, so
    # np.linalg.norm has the same bits there; from d = 8 it sums pairwise
    rng = np.random.default_rng(sum(shape))
    for scale in (1e-150, 1e-3, 1.0, 1e150):
        X, Y = rng.normal(size=(2,) + shape) * scale
        for x, y in ((X, Y), (X[::-1, ..., ::2], Y[::-1, ..., ::2])):
            d = x.shape[-1]
            pairs = pairwise_distances(x.reshape(-1, d), y.reshape(-1, d))
            lengths = ot._lengths(y - x)
            assert same_bits(lengths, np.diagonal(pairs).reshape(x.shape[:-1]))
            if d < 8:
                assert same_bits(lengths, np.linalg.norm(y - x, axis=-1))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0, 16.0])
def test_the_entry_p_mean_is_solve_ot_s_cost_bit_for_bit(p):
    # the schedules' stacked pass takes a kept plan's lengths with the one
    # helper that gives a solved plan its cost: a row of a stack has the bits
    # of the same entries alone, and those the bits of solve_ot's cost,
    # whose 1/p root on a numpy scalar agrees with the Python float's
    rng = np.random.default_rng(int(10 * p))
    for m, n, d in [(1, 4, 2), (3, 1, 1), (3, 3, 1), (4, 6, 3), (9, 7, 2), (12, 12, 8)]:
        weights = rng.random(m) + 0.1
        mu = w.DiscreteMeasure(rng.normal(size=(m, d)), weights / weights.sum())
        weights = rng.random(n) + 0.1
        nu = w.DiscreteMeasure(rng.normal(size=(n, d)), weights / weights.sum())
        plan = w.solve_ot(mu, nu, p)
        stack = np.stack([
            ot._cost_matrix(mu.atoms, nu.atoms + shift, p) for shift in rng.normal(size=(5, d))
        ])
        stack[2] = ot._cost_matrix(mu.atoms, nu.atoms, p)
        entries = stack[:, plan.left, plan.right]
        rows = ot._entry_p_mean(plan.masses, entries, p)
        assert len(rows) == 5
        for row, alone in zip(rows, entries):
            assert type(row) is float
            assert same_bits(np.float64(row), np.float64(ot._entry_p_mean(plan.masses, alone, p)))
        numpy_root = np.add.reduce(plan.masses * entries[2]) ** (1.0 / p)
        assert same_bits(np.float64(rows[2]), np.float64(plan.cost))
        assert same_bits(np.float64(rows[2]), numpy_root)


def test_pairwise_distances_pins_the_kernel_summation_order():
    # cdist sums the squared differences in order, as numpy's add.reduce does
    # over fewer than 8 terms: bit for bit up to d = 7. Numpy sums 8 terms or
    # more pairwise, so from d = 8 only rounding may differ. A scipy whose
    # kernel sums in another order fails the first half.
    rng = np.random.default_rng(2026)
    eps = np.finfo(float).eps
    for d in range(1, 21):
        for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
            m, n = (int(k) for k in rng.integers(1, 41, size=2))
            X = rng.normal(size=(m, d)) * scale
            Y = rng.normal(size=(n, d)) * scale
            diff = X[:, None, :] - Y[None, :, :]
            reference = np.sqrt(np.add.reduce(diff * diff, axis=2))
            distances = pairwise_distances(X, Y)
            if d <= 7:
                assert same_bits(distances, reference), (d, scale)
            else:
                assert distances.shape == reference.shape
                assert np.all(np.abs(distances - reference) <= 2 * d * eps * reference)


FAR = [[3e20], [-1e20]]  # d**16 passes the largest double: about 1.8e19 apart


@pytest.mark.parametrize(
    "solve",
    [
        lambda: w.solve_ot(w.uniform_measure([[0.0], [1e20]]), w.uniform_measure(FAR), 16),
        lambda: w.solve_ot(
            w.DiscreteMeasure([[0.0], [1e20]], [0.3, 0.7]), w.uniform_measure(FAR), 16
        ),
        lambda: w.brute_force_ot(w.uniform_measure([[0.0], [1e20]]), w.uniform_measure(FAR), 16),
        lambda: w.solve_ot(w.dirac((0.0,)), w.uniform_measure(FAR), 16),
    ],
    ids=["uniform", "weighted", "brute_force", "single_atom"],
)
def test_overflowing_costs_raise_a_typed_error(solve):
    # the distances are checked before they are raised to p: no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CostOverflowError, match="p = 16"):
            solve()


def test_a_squared_distance_overflow_is_named_as_one():
    # finite atoms 1e160 apart: d**1.5 would be finite, but the squared
    # distance overflows, so the distance is inf. The message named "atoms
    # inf apart" and a limit of about 3.19e+205 before
    mu, nu = w.uniform_measure([[0.0], [1.0]]), w.uniform_measure([[1e160], [2e160]])
    message = (
        "at p = 1.5: the squared distance of two atoms passes the largest double "
        "once they lie about 1.34e+154 apart"
    )
    with pytest.raises(CostOverflowError, match=re.escape(message)):
        w.solve_ot(mu, nu, 1.5)
    # a finite distance past the limit of d**p is named as before
    far = w.uniform_measure([[1e150], [2e150]])
    with pytest.raises(CostOverflowError, match=r"p = 2.5 \(atoms 2e\+150 apart\)"):
        w.solve_ot(mu, far, 2.5)


def test_costs_just_below_overflow_still_solve():
    near = [[3e17], [-1e17]]
    assert 0.0 < w.solve_ot(w.dirac((0.0,)), w.uniform_measure(near), 16).cost < np.inf
    plan = w.solve_ot(w.uniform_measure([[0.0], [1e17]]), w.uniform_measure(near), 16)
    assert 0.0 < plan.cost < np.inf


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_transport_plan_rejects_a_cost_matrix_that_is_not_finite(bad):
    # the second has a single-atom marginal, whose plan ignores the costs
    a = np.array([0.5, 0.5])
    for b, cost_matrix in (
        (a, np.array([[0.0, bad], [1.0, 0.0]])),
        (a, np.array([[bad, 0.0], [1.0, 0.0]])),
        (np.array([1.0]), np.array([[bad], [0.0]])),
    ):
        with pytest.raises(CostOverflowError):
            transport_plan(a, b, cost_matrix)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_coupling_rejects_a_stored_cost_that_is_not_finite(bad):
    mu, nu = two_atom_instance()
    with pytest.raises(CostOverflowError, match="stored cost"):
        Coupling(mu, nu, [0, 1], [0, 1], [0.5, 0.5], 2.0, bad)


def test_overflow_error_is_exported_as_an_input_error():
    assert w.CostOverflowError is CostOverflowError
    assert issubclass(CostOverflowError, ValueError)
