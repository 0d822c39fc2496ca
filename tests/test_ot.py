import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog

import wassray as w
from wassray import ot
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
    with pytest.raises(ValueError, match="finite and positive"):
        Coupling(mu, nu, [0, 1], [0, 1], [0.5, bad], 2.0)


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
        left, right, masses = solve_lp(a, b, cost_matrix)
        masses[0] = masses[0] + 1e-6 if corrupt == "offset" else np.nan
        return left, right, masses

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
    # the public constructor must rebuild them bit for bit, warm plans included
    mu, nu = pair
    cold = w.solve_ot(mu, nu, p)
    for plan in (cold, w.solve_ot(mu, nu, p, warm=cold)):
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
    return right, ot._entries_cost(mu, nu, rows, right, np.full(n, 1.0 / n), p)


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
    # the previous plan is reused only when certified on the new costs, so
    # the result is optimal whether or not the certificate held
    mu, nu, moved = step
    warm = w.solve_ot(mu, nu, p)
    plan = w.solve_ot(mu, moved, p, warm=warm)
    assert plan.cost == pytest.approx(lp_cost(mu, moved, p), rel=1e-8, abs=1e-12)


def weighted_pair():
    mu = w.DiscreteMeasure([[0.0], [1.0]], [0.4, 0.6])
    nu = w.DiscreteMeasure([[2.0], [3.0]], [0.4, 0.6])
    return mu, nu


def test_certificate_accepts_optimal_and_rejects_crossing_support():
    mu, nu = weighted_pair()
    cost_matrix = pairwise_distances(mu.atoms, nu.atoms) ** 2.0
    assert ot.certify_support([0, 1], [0, 1], cost_matrix)
    assert not ot.certify_support([0, 1, 1], [1, 0, 1], cost_matrix)


def test_certificate_handles_forest_supports():
    # assignment plans have n entries, not 2n - 1: a forest of n components
    rng = np.random.default_rng(4)
    mu, nu = random_uniform_pair(rng, 6, 2)
    plan = w.solve_ot(mu, nu, 2.0)
    cost_matrix = pairwise_distances(mu.atoms, nu.atoms) ** 2.0
    assert len(plan.left) == 6
    assert ot.certify_support(plan.left, plan.right, cost_matrix)
    swapped = plan.right.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert not ot.certify_support(plan.left, swapped, cost_matrix)


def unequal_pair():
    """``weighted_pair`` with other target weights, so no identity plan is feasible."""
    mu = w.DiscreteMeasure([[0.0], [1.0]], [0.4, 0.6])
    nu = w.DiscreteMeasure([[2.0], [3.0]], [0.3, 0.7])
    return mu, nu


def test_warm_crossing_plan_is_rejected(lp_shapes):
    # the sorted plan moves 0.3 by 2, 0.1 by 3 and 0.6 by 2: W_2**2 = 4.5
    mu, nu = unequal_pair()
    cost = (0.4 * 9.0 + 0.3 * 1.0 + 0.3 * 4.0) ** 0.5
    crossing = Coupling(mu, nu, [0, 1, 1], [1, 0, 1], [0.4, 0.3, 0.3], 2.0, cost)
    plan = w.solve_ot(mu, nu, 2.0, warm=crossing)
    assert lp_shapes == [(2, 2)]
    assert plan.cost == pytest.approx(4.5**0.5, abs=1e-12)
    assert list(zip(plan.left, plan.right)) == [(0, 0), (0, 1), (1, 1)]


def test_warm_crossing_plan_gives_way_to_the_identity(lp_shapes):
    # equal marginals: the rejected warm plan leaves the certified identity
    mu, nu = weighted_pair()
    cost = (0.4 * 9.0 + 0.4 * 1.0 + 0.2 * 4.0) ** 0.5
    crossing = Coupling(mu, nu, [0, 1, 1], [1, 0, 1], [0.4, 0.4, 0.2], 2.0, cost)
    plan = w.solve_ot(mu, nu, 2.0, warm=crossing)
    assert lp_shapes == []
    assert plan.cost == pytest.approx(2.0, abs=1e-12)
    assert list(zip(plan.left, plan.right)) == [(0, 0), (1, 1)]
    assert same_bits(plan.masses, mu.weights)


def test_certified_warm_plan_skips_lp(lp_shapes):
    mu, nu = weighted_pair()
    warm = w.solve_ot(mu, nu, 2.0)
    moved = w.DiscreteMeasure(nu.atoms + 0.5, nu.weights)
    lp_shapes.clear()
    plan = w.solve_ot(mu, moved, 2.0, warm=warm)
    assert lp_shapes == []
    assert plan.cost == pytest.approx(lp_cost(mu, moved, 2.0), rel=1e-12)


def test_certified_warm_plan_keeps_its_entries_and_passes_the_public_constructor():
    # a warm hit hands back the warm plan's own frozen entries with the cost
    # derived anew on the new costs; the public constructor, which runs
    # every entry check again, accepts them with that cost
    mu, nu = weighted_pair()
    warm = w.solve_ot(mu, nu, 2.0)
    moved = w.DiscreteMeasure(nu.atoms + 0.5, nu.weights)
    plan = w.solve_ot(mu, moved, 2.0, warm=warm)
    assert plan.left is warm.left and plan.right is warm.right and plan.masses is warm.masses
    assert plan.cost == pytest.approx(lp_cost(mu, moved, 2.0), rel=1e-12)
    public = Coupling(mu, moved, plan.left, plan.right, plan.masses, 2.0, plan.cost)
    assert public.cost == plan.cost


def test_warm_identity_hands_back_its_own_arrays(lp_shapes, monkeypatch):
    # along a translation ray's doubling schedule, a probe taken from the
    # ray's own section keeps the identity plan from step to step: when the
    # identity is still optimal, the warm plan's frozen arrays come back, so
    # solve_ot re-checks none of its entries
    mu = w.DiscreteMeasure([[0.0], [1.0], [3.0]], [0.2, 0.5, 0.3])
    warm = w.solve_ot(mu, w.DiscreteMeasure(mu.atoms + 0.1, mu.weights), 2.0)
    assert warm.left.tolist() == warm.right.tolist() == [0, 1, 2]
    checked = []
    monkeypatch.setattr(ot, "_check_entries", lambda *args: checked.append(args))
    moved = w.DiscreteMeasure(mu.atoms + 0.2, mu.weights)
    plan = w.solve_ot(mu, moved, 2.0, warm=warm)
    assert plan.left is warm.left and plan.right is warm.right and plan.masses is warm.masses
    assert lp_shapes == [] and checked == []
    assert plan.cost == pytest.approx(0.2, rel=1e-12)


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
    left, right, masses = transport_plan(a, a.copy(), cost_matrix)
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
    for fast, lp in zip(plan, _solve_lp(a, a.copy(), cost_matrix)):
        assert same_bits(fast, lp)


def certified_identity(a, cost_matrix):
    """The identity rule ``transport_plan`` used before it asked the assignment solver.

    A zero diagonal on nonnegative costs, or ``certify_support`` on the
    identity when its bound, 2 ``_certificate_tolerance`` in summed cost,
    is at most ``COST_RTOL`` of the identity's own summed cost.
    """
    identity = np.arange(len(a))
    diagonal = np.diagonal(cost_matrix)
    return bool(cost_matrix.min() >= 0.0 and not diagonal.any()) or (
        2.0 * ot._certificate_tolerance(cost_matrix) <= ot.COST_RTOL * float(a @ diagonal)
        and ot.certify_support(identity, identity, cost_matrix)
    )


@settings(max_examples=300)
@given(**MOVED_COPIES)
def test_every_certified_identity_is_still_taken(n, d, p, scale, seed):
    # about one instance in six passes the old rule; each is decided
    # before the LP, by the assignment solver or the zero-cost rule
    a, cost_matrix = moved_copy(n, d, p, scale, seed)
    if certified_identity(a, cost_matrix):
        with mock.patch.object(ot, "_solve_lp", side_effect=AssertionError("reached the LP")):
            left, right, _ = transport_plan(a, a.copy(), cost_matrix)
        assert is_identity(left, right, n)


@settings(max_examples=300)
@given(**{**MOVED_COPIES, "p": st.sampled_from((1.5, 2.0, 3.0))})
def test_identity_costs_no_more_than_the_lp_plan(n, d, p, scale, seed):
    # at p <= 3 the LP's certificate resolves these costs, so its plan is a
    # fair yardstick for the identity the assignment solver accepts
    a, cost_matrix = moved_copy(n, d, p, scale, seed)
    left, right, masses = transport_plan(a, a.copy(), cost_matrix)
    if is_identity(left, right, n):
        lp_left, lp_right, lp_masses = _solve_lp(a, a.copy(), cost_matrix)
        lp_cost = float(lp_masses @ cost_matrix[lp_left, lp_right])
        assert float(masses @ cost_matrix[left, right]) <= lp_cost * (1.0 + 1e-12)


def array_equal_plan(a, b, cost_matrix, warm):
    """``transport_plan`` past its uniform branch, with its former ``np.array_equal`` tests."""
    m, n = len(a), len(b)
    warm_fits = (
        warm is not None
        and np.array_equal(warm.mu.weights, a)
        and np.array_equal(warm.nu.weights, b)
    )
    if m == n and np.array_equal(a, b):
        identity = np.arange(n, dtype=np.intp)
        if (cost_matrix.min() >= 0.0 and not np.diagonal(cost_matrix).any()) or np.array_equal(
            linear_sum_assignment(cost_matrix)[1], identity
        ):
            if warm_fits and all(np.array_equal(e, identity) for e in (warm.left, warm.right)):
                return warm.left, warm.right, warm.masses
            return identity, identity, a.copy()
    if warm_fits and ot.certify_support(warm.left, warm.right, cost_matrix):
        return warm.left, warm.right, warm.masses
    return ot._solve_lp(a, b, cost_matrix)


def warm_plan(kind, a, d, p, seed):
    """A warm plan of the given kind for weights ``a``, or None."""
    if kind == "none":
        return None
    rng = np.random.default_rng(seed)
    n = len(a)
    other = a * rng.uniform(0.5, 1.5, n)
    other /= other.sum()
    weights = other if kind.endswith("on other weights") else a
    mu = w.DiscreteMeasure(10.0 * rng.random((n, d)), weights)
    nu_weights = other if kind == "plan to other weights" else weights
    nu = w.DiscreteMeasure(10.0 * rng.random((n, d)), nu_weights)
    if kind.startswith("identity"):
        return Coupling(mu, nu, np.arange(n), np.arange(n), weights, p)
    return w.solve_ot(mu, nu, p)


WARM_KINDS = (
    "none",
    "identity",
    "plan",
    "identity on other weights",
    "plan on other weights",
    "plan to other weights",
)


@settings(max_examples=300)
@given(**MOVED_COPIES, kind=st.sampled_from(WARM_KINDS))
def test_byte_comparisons_pick_the_branch_of_array_equal(n, d, p, scale, seed, kind):
    # weights and permutations compared as bytes pick the branch the
    # np.array_equal tests picked, with the same bits, and a warm identity
    # hit still hands back the warm plan's own arrays
    a, cost_matrix = moved_copy(n, d, p, scale, seed)
    warm = warm_plan(kind, a, d, p, seed)
    results = []
    for plan in (transport_plan, array_equal_plan):
        with mock.patch.object(ot, "_solve_lp", wraps=ot._solve_lp) as lp:
            entries = plan(a, a.copy(), cost_matrix, warm)
        results.append((entries, lp.call_count))
    (new, new_lps), (old, old_lps) = results
    assert new_lps == old_lps
    for fast, reference in zip(new, old):
        assert same_bits(fast, reference)
    if warm is not None:
        own = (warm.left, warm.right, warm.masses)
        assert [x is y for x, y in zip(new, own)] == [x is y for x, y in zip(old, own)]


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
    left, right, masses = transport_plan(a, a.copy(), cost_matrix)
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
        left, right, masses = transport_plan(a, a.copy(), cost_matrix)
        order_kept = np.array_equal(np.argsort(x), np.argsort(y))
        assert (lp_shapes == []) == order_kept
        cost = float(masses @ cost_matrix[left, right])
        optimum = sorted_plan_cost(x, a, y, a, p)
        if order_kept:
            taken += 1
            assert is_identity(left, right, 24)
            assert abs(cost - optimum) <= 1e-12 * optimum
        lp_left, lp_right, lp_masses = _solve_lp(a, a.copy(), cost_matrix)
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
        left, right, masses = transport_plan(a, a.copy(), cost_matrix)
        lp_left, lp_right, lp_masses = _solve_lp(a, a.copy(), cost_matrix)
        lp_cost = float(lp_masses @ cost_matrix[lp_left, lp_right])
        cost = float(masses @ cost_matrix[left, right])
        assert abs(cost - lp_cost) <= 1e-15 * lp_cost
        differ += not np.array_equal(left * n + right, lp_left * n + lp_right)
    assert differ > 0


# warm plans whose target differs from both pairs' targets
MISMATCHED_WARM_TARGETS = [
    w.DiscreteMeasure([[2.0], [3.0], [4.0]], [0.4, 0.3, 0.3]),  # wrong size
    w.DiscreteMeasure([[2.0], [3.0]], [0.5, 0.5]),  # other weights
]


@pytest.mark.parametrize("other", MISMATCHED_WARM_TARGETS)
def test_mismatched_warm_plan_is_ignored(lp_shapes, other):
    mu, nu = unequal_pair()
    warm = w.solve_ot(mu, other, 2.0)
    lp_shapes.clear()
    plan = w.solve_ot(mu, nu, 2.0, warm=warm)
    assert lp_shapes == [(2, 2)]
    assert plan.cost == pytest.approx(4.5**0.5, abs=1e-12)


@pytest.mark.parametrize("other", MISMATCHED_WARM_TARGETS)
def test_mismatched_warm_plan_gives_way_to_the_identity(lp_shapes, other):
    mu, nu = weighted_pair()
    warm = w.solve_ot(mu, other, 2.0)
    lp_shapes.clear()
    plan = w.solve_ot(mu, nu, 2.0, warm=warm)
    assert lp_shapes == []
    assert plan.left.tolist() == plan.right.tolist() == [0, 1]
    assert plan.cost == pytest.approx(2.0, abs=1e-12)


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


def test_far_section_high_order_solves_certified():
    nu, far = far_section_instance()
    plan = w.solve_ot(nu, far, 8)
    cost_matrix = pairwise_distances(nu.atoms, far.atoms) ** 8
    assert cost_matrix.max() > 1e24
    assert ot.certify_support(plan.left, plan.right, cost_matrix)
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
        return dual_certificate(*args)[0], False

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
    """Entries of a plan of (a, b): row-major, positive, marginals to 1e-12, certified."""
    left, right, masses = entries
    m, n = cost_matrix.shape
    assert np.all(np.diff(left * n + right) > 0) and masses.min() > 0.0
    assert np.max(np.abs(np.bincount(left, masses, minlength=m) - a)) <= 1e-12
    assert np.max(np.abs(np.bincount(right, masses, minlength=n) - b)) <= 1e-12
    assert ot.certify_support(left, right, cost_matrix)


@settings(max_examples=100)
@given(instance=transport_instances(), shift=st.sampled_from((0.0, 0.5, 1.0)))
def test_simplex_matches_highs(instance, shift):
    # C - shift * max C - mean C: of both signs, or all negative at shift 1;
    # no method assumes a sign, so the plan minimises these costs like HiGHS's
    a, b, base = instance
    cost_matrix = base - shift * base.max() - base.mean()
    m, n = cost_matrix.shape
    left, right, masses = entries = _solve_lp(a, b, cost_matrix)
    assert_certified_entries(a, b, cost_matrix, entries)
    reference = float(np.sum(highs_plan(a, b, cost_matrix) * cost_matrix))
    total = float(masses @ cost_matrix[left, right])
    # certified to 8 (m + n) eps max|C|; HiGHS is within its own 1e-7
    assert total <= reference + 8 * (m + n) * np.finfo(float).eps * np.abs(cost_matrix).max()
    assert total == pytest.approx(reference, rel=1e-8, abs=1e-7)
    # transport_plan, which may take the assignment path instead, agrees
    left, right, masses = transport_plan(a, b, cost_matrix)
    assert float(masses @ cost_matrix[left, right]) == pytest.approx(reference, rel=1e-8, abs=1e-7)


def array_equal_certify_support(left, right, cost_matrix):
    """``certify_support`` with its former convergence test, two ``np.array_equal`` calls."""
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
    return ot._dual_certificate(cost_matrix, u, v, left, right, tol)[1]


@settings(max_examples=200)
@given(
    instance=transport_instances(),
    change=st.sampled_from(("none", "costs", "support")),
    noise=st.sampled_from((1e-3, 0.1, 1.0)),
    seed=st.integers(0, 2**16),
)
def test_certificate_verdict_matches_the_array_equal_loop(instance, change, noise, seed):
    # an optimal support on its own costs, the same support on perturbed
    # costs (a warm plan after a schedule step), or a support with its
    # columns permuted (usually not optimal)
    a, b, cost_matrix = instance
    left, right, _ = _solve_lp(a, b, cost_matrix)
    rng = np.random.default_rng(seed)
    if change == "costs":
        cost_matrix = cost_matrix + rng.uniform(-noise, noise, cost_matrix.shape) * cost_matrix.std()
    elif change == "support":
        right = rng.permutation(cost_matrix.shape[1])[right]
    verdict = ot.certify_support(left, right, cost_matrix)
    assert verdict is array_equal_certify_support(left, right, cost_matrix)
    if change == "none":
        assert verdict


@given(pair=uniform_pairs(max_atoms=BRUTE_FORCE_MAX_ATOMS), p=st.sampled_from((1.5, 2.0, 3.0)))
def test_simplex_matches_exhaustive_oracle(pair, p):
    mu, nu = pair
    cost_matrix = pairwise_distances(mu.atoms, nu.atoms) ** p
    left, right, masses = _solve_lp(mu.weights, nu.weights, cost_matrix)
    cost = float(masses @ cost_matrix[left, right]) ** (1.0 / p)
    assert cost == pytest.approx(w.brute_force_ot(mu, nu, p).cost, rel=1e-8, abs=1e-12)


def test_simplex_is_deterministic():
    a, b, cost_matrix = weighted_instance(np.random.default_rng(2), 9, 7)
    first = _solve_lp(a, b, cost_matrix)
    second = _solve_lp(a, b, cost_matrix)
    assert all(same_bits(x, y) for x, y in zip(first, second))


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
    """Every pivot's kept potentials have the bits of a walk of its whole basis tree."""
    pivots = []
    dual_certificate = ot._dual_certificate

    def spy(cost_matrix, u, v, left, right, tol):
        walked = walked_potentials(cost_matrix, left, right)
        pivots.append(same_bits(np.concatenate([u, v]), walked))
        return dual_certificate(cost_matrix, u, v, left, right, tol)

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


def test_peeling_rejects_cycles_and_reports_imbalance():
    a = np.array([0.5, 0.5])
    masses = ot._peel_masses(a, np.array([0.7, 0.3]), [0, 1, 1], [0, 0, 1])
    assert np.allclose(masses, [0.5, 0.2, 0.3])
    # the same support cannot carry (0.3, 0.7): one mass comes out negative
    masses = ot._peel_masses(a, np.array([0.3, 0.7]), [0, 1, 1], [0, 0, 1])
    assert masses.min() < 0.0


@given(
    pair=st.one_of(st.tuples(small_measures(), small_measures()), uniform_pairs()),
    p=st.sampled_from((1.5, 2.0, 3.0, 8.0)),
)
def test_solve_ot_is_transport_plan_on_the_cost_matrix(pair, p):
    # single-atom, assignment and simplex paths alike
    mu, nu = pair
    plan = w.solve_ot(mu, nu, p)
    cost_matrix = pairwise_distances(mu.atoms, nu.atoms) ** p
    left, right, masses = transport_plan(mu.weights, nu.weights, cost_matrix)
    assert same_bits(plan.left, left)
    assert same_bits(plan.right, right)
    assert same_bits(plan.masses, masses)


def test_transport_plan_rejects_a_cost_matrix_of_the_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        transport_plan(np.array([0.5, 0.5]), np.array([1.0]), np.zeros((2, 2)))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0, 16.0])
def test_solver_cost_is_the_entries_cost_bit_for_bit(monkeypatch, p):
    # solve_ot reads the entries' d**p from its cost matrix; the public
    # constructor recomputes them from the atoms: the same bits, on every path
    certified = []
    certify = ot.certify_support

    def spy(left, right, cost_matrix):
        certified.append(certify(left, right, cost_matrix))
        return certified[-1]

    monkeypatch.setattr(ot, "certify_support", spy)
    rng = np.random.default_rng(int(10 * p))
    for d in (1, 2, 3):
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
            moved = nu.translate(rng.normal(size=d) * 1e-3 * scale)
            warm = w.solve_ot(mu, moved, p, warm=cold)
            for plan, target in ((cold, nu), (warm, moved)):
                entries = ot._entries_cost(mu, target, plan.left, plan.right, plan.masses, p)
                assert same_bits(np.float64(plan.cost), np.float64(entries))
    assert any(certified)  # some warm plans were reused


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
