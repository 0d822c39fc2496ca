"""Exact optimal transport between discrete measures on R^d.

Transport cost is d(x, y)**p with p in (1, 16]; the upper cap keeps d**p
representable in doubles at desk scale. Past it (atoms about 1.8e19 apart
at p = 16) a cost overflows to inf, and every path raises
``CostOverflowError`` naming p instead of solving on it; the distances
are checked before they are raised to p, so numpy warns of nothing. Every
Euclidean length, a cost matrix's or any other, comes from one kernel,
scipy's compiled ``cdist`` (``pairwise_distances``), with one set of bits
at every d. ``solve_ot`` hands its cost matrix to ``transport_plan``,
which takes any finite real cost matrix (the exact Busemann function
solves one with negative entries) and picks an exact method from the
input alone, trying in order:

- a single-atom marginal has one feasible coupling, built directly. Its
  m + n - 1 entries form a star, a spanning tree, so they are its basis;
- equal marginals (equal sizes, the same weights on both sides) ask the
  Jonker-Volgenant assignment solver once. With every weight equal, a
  permutation is among the optimal plans (Birkhoff-von Neumann), so its
  answer is the plan. With unequal weights, as between two sections of
  one ray, its answer is taken only when it is the identity: with
  positive weights the identity is optimal for (a, a) exactly when it is
  an optimal assignment, whatever the weights, so this is exact at every
  p. Any other permutation leaves the instance to the LP;
- everything else, including weighted measures, unequal sizes and merged
  pushforwards whose weights are no longer equal, is the transportation
  linear program on the complete bipartite graph. A primal transportation
  simplex solves it and stops on a dual certificate on its basis tree.
  Orden's perturbation of the marginals makes every basis nondegenerate,
  so it cannot cycle; its pivot cap is only a safety net against
  rounding, and reaching it raises ``TransportSolveError``. It keeps the
  basis tree and its potentials between pivots, re-hanging only the
  subtree a pivot cuts off, and prices the cells once per pivot. It
  returns a basic (vertex) plan.

Every call solves its instance from scratch. A plan the simplex returned
keeps, privately, the basis tree it stopped on, and a single-atom plan its
star; assignment, identity and user-built plans have none. One rule,
``_kept_basis``, says when such a basis may stand in for ``transport_plan``
on a later instance with the same marginals: only where ``transport_plan``
would run the LP or build the star, never where it would ask the
assignment solver. Two places use it. The schedules (Busemann doubling,
the co-ray construction) couple one measure to section after section of a
ray, whose optimal plan settles, along one chain of plans from the time-0
section (``paths._plan_chain``). From each plan,
``paths._kept_plan_lengths`` passes the costs of a chunk of the remaining
sections to ``_certified_prefix`` as one stack. That runs the simplex's
own stopping test on every matrix of the stack in one vectorised pass,
with the simplex's own tree walk (``_hang_tree``) and ``_reduced_costs``,
and the chain keeps the plan, its lengths ``_entry_p_mean`` as a solved
plan's cost is, on the leading run of sections it certifies, with no
solve for them. The exact Busemann limit is that chain's member at
t = infinity, and the CLI's default ``busemann``, which solves the time-0
plan to print its cost, tries that plan on the limiting costs
(``busemann._limit_plan``) with ``_basis_certified``, the same test on one
matrix, which is ``_solve_lp``'s first stop test; a plan it certifies is
the limit plan, with no second solve. Both tests pass a star unseen,
since a single atom's one feasible plan ignores the costs.

On every path marginals are reproduced to machine precision, the optimal
value is exact in double arithmetic, and identical inputs give
bit-identical plans. Validation sits at one boundary: the public
``Coupling`` constructor converts and copies its input, and the plans
``solve_ot`` builds itself skip only that conversion; both run the same
checks, from one helper, and ``measures._frozen`` writes the checked
fields, as it writes every frozen value type. Entropic or otherwise
approximate solvers would poison every downstream geometry check, so none
is offered.

``brute_force_ot`` is the independent oracle: an exhaustive minimum over
permutation matchings, valid for equal-size uniform marginals, sharing no
code with the assignment or simplex paths.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import (
    CostOverflowError,
    DimensionMismatchError,
    EmptyMeasureError,
    InvalidExponentError,
    TransportSolveError,
)
from .measures import DiscreteMeasure, _array_max, _array_min, _frozen

P_MIN = 1.0
P_MAX = 16.0
MARGINAL_ATOL = 1e-9
COST_RTOL = 1e-10
BRUTE_FORCE_MAX_ATOMS = 8
TAIL_BOUND_SLACK = 1e-12
CERTIFICATE_ROUNDINGS = 4
SIMPLEX_PIVOTS_PER_NODE = 20
DBL_MAX = float(np.finfo(float).max)
# distances past this have a squared distance past DBL_MAX, so compute as inf
SQUARED_DISTANCE_LIMIT = DBL_MAX**0.5
EPS = float(np.finfo(float).eps)
# distances within this relative margin of DBL_MAX ** (1/p) count as
# overflowing: that close, rounding in pow and in the p-mean sum decides
OVERFLOW_RTOL = 1e-9


def check_exponent(p) -> float:
    p = float(p)
    if not P_MIN < p <= P_MAX:
        raise InvalidExponentError(f"transport order must lie in ({P_MIN}, {P_MAX}], got {p}")
    return p


def p_mean(weights, lengths, p) -> float:
    """Weighted p-mean (sum of w * l**p) ** (1/p) of nonnegative lengths.

    Transport costs, geodesic lengths and ray speeds are all
    ``_entry_p_mean`` of lengths**p, as a solved plan's cost is of its
    entries' d**p, so values that must agree are computed bit-identically.
    The largest length goes through ``_check_distances`` first, so a
    length whose p-th power overflows raises ``CostOverflowError``.
    """
    _check_distances(_array_max(lengths), p)
    return _entry_p_mean(weights, lengths**p, p)


def _entry_p_mean(weights, entries, p):
    """The p-mean (sum of weights * entries) ** (1/p) of d**p entries, or of each row of a stack.

    A (T, k) stack gives a list of T floats, each with the bits of its row
    as a vector: rows are summed along a C-contiguous axis, and every 1/p
    root is taken on a Python float.
    """
    if entries.ndim == 1:
        return float(np.add.reduce(weights * entries)) ** (1.0 / p)
    sums = np.add.reduce(weights * np.ascontiguousarray(entries), axis=1).tolist()
    return [s ** (1.0 / p) for s in sums]


def _lengths(vectors: np.ndarray) -> np.ndarray:
    """Euclidean lengths over the last axis: ``pairwise_distances`` to the origin."""
    flat = vectors.reshape(-1, vectors.shape[-1])
    return pairwise_distances(flat, np.zeros((1, flat.shape[1]))).reshape(vectors.shape[:-1])


def pairwise_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix of Euclidean distances between two atom arrays: the package's one length kernel.

    scipy's compiled ``cdist``, which forms no (m, n, d) difference array:
    6 us instead of 56 us for a numpy broadcast at 45 x 45 atoms in d = 3
    (2 vCPU, Python 3.11, scipy 1.17). It sums the squared coordinate
    differences one after the other (a test pins this order). Every other
    length is ``_lengths``, the distance to the origin: x - 0 and -x are
    exact, so ``_lengths(Y - X)`` has the bits of this matrix at every d.
    """
    return cdist(X, Y)


def _cost_matrix(X: np.ndarray, Y: np.ndarray, p: float) -> np.ndarray:
    """Matrix of d**p between two atom arrays, checked by ``_check_distances`` first."""
    distances = pairwise_distances(X, Y)
    _check_distances(_array_max(distances), p)
    return distances**p


def _distance_limit(p: float) -> float:
    """The distance at which d**p counts as overflowing: DBL_MAX ** (1/p), less ``OVERFLOW_RTOL``."""
    return (1.0 - OVERFLOW_RTOL) * DBL_MAX ** (1.0 / p)


def _check_distances(largest, p: float) -> None:
    """Raise ``CostOverflowError`` unless d**p stays finite up to the distance ``largest``.

    Compared with ``_distance_limit(p)`` before anything is raised to p, so
    the typed error comes without numpy's overflow warning. NaN fails the
    comparison too. Atoms are finite, so an infinite ``largest`` means
    their squared distance overflowed, and the message names that.
    """
    if not largest < _distance_limit(p):
        if largest == np.inf:  # below p = 2 this comes before d**p overflows
            raise CostOverflowError(
                f"transport cost overflows double precision at p = {p:g}: the squared "
                f"distance of two atoms passes the largest double once they lie about "
                f"{SQUARED_DISTANCE_LIMIT:.3g} apart"
            )
        raise _cost_overflow(f"atoms {largest:.3g} apart", p)


def _cost_overflow(what: str, p: float) -> CostOverflowError:
    """The typed error for a transport cost that is not finite at order p."""
    limit = DBL_MAX ** (1.0 / p)
    return CostOverflowError(
        f"transport cost overflows double precision at p = {p:g} ({what}): d**p "
        f"passes the largest double once atoms lie about {limit:.3g} apart"
    )


def _check_instance(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> float:
    p = check_exponent(p)
    if len(mu) == 0 or len(nu) == 0:
        raise EmptyMeasureError("transport needs nonempty measures")
    if mu.dim != nu.dim:
        raise DimensionMismatchError(
            f"measures live in dimensions {mu.dim} and {nu.dim}"
        )
    return p


@dataclass(frozen=True, eq=False)
class Coupling:
    """Sparse joint mass assignment between two discrete measures.

    ``left``/``right``/``masses`` list the nonzero entries (left atom
    index, right atom index, mass), sorted lexicographically. ``cost`` is
    the transport value (sum of mass * d**p) ** (1/p); it is derived on
    construction when omitted, from the entries' atom pairs, and a supplied
    value must match the derived one to 1e-10 relative. Row and column sums
    must reproduce the marginals within 1e-9 per atom.

    The constructor converts and copies its input, checks that each entry
    array is one-dimensional, then runs every check (entry lengths, index
    ranges, finite positive masses, marginals, cost) in
    ``_checked_coupling``. Plans built by ``solve_ot`` run the same checks
    without the conversion, and read the entries' d**p from the cost
    matrix they were solved on instead of recomputing the distances.
    """

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    left: np.ndarray
    right: np.ndarray
    masses: np.ndarray
    p: float
    cost: float | None = None
    # not a field: the rows and columns of the m + n - 1 basis cells (zero
    # masses included) the simplex stopped on, or a single atom's star, which
    # ``solve_ot`` writes with ``_frozen``, the one writer, on the plans it
    # solves and a schedule's stacked pass
    # (``paths._kept_plan_lengths``) re-prices on later sections, as the
    # CLI's default Busemann limit does on its costs; every other
    # coupling has none, so ``paths.lift_geodesic`` lifts a plan with one
    # without solving its instance again
    _basis = None

    def __post_init__(self):
        p = check_exponent(self.p)
        left = np.atleast_1d(np.array(self.left, dtype=np.intp))
        right = np.atleast_1d(np.array(self.right, dtype=np.intp))
        masses = np.atleast_1d(np.array(self.masses, dtype=float))
        if not left.ndim == right.ndim == masses.ndim == 1:
            raise ValueError("entry arrays must be one-dimensional")
        _checked_coupling(self.mu, self.nu, left, right, masses, p, self.cost, self)

    def pair_distances(self) -> np.ndarray:
        """Euclidean distance of each entry's atom pair."""
        return _lengths(self.mu.atoms[self.left] - self.nu.atoms[self.right])


def _checked_coupling(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    left: np.ndarray,
    right: np.ndarray,
    masses: np.ndarray,
    p: float,
    cost=None,
    coupling=None,
    cost_matrix: np.ndarray | None = None,
) -> Coupling:
    """Run every ``Coupling`` check on entry arrays and freeze them into a coupling.

    The one implementation of the coupling checks. ``left``/``right`` are
    1-D intp arrays, ``masses`` a 1-D float64 array and ``p`` an order
    already passed through ``check_exponent``. The public constructor
    converts and copies its input, then calls this with itself as
    ``coupling``; ``solve_ot`` calls it directly, with no ``coupling``, on
    the entries it has just built, so solver plans skip only the
    conversion, the copy and the repeated exponent check. The arrays are
    made read-only in place, and ``_frozen`` writes the fields.

    The cost is derived from the entries by ``_segment_cost``, or, when
    ``solve_ot`` passes the matrix ``cost_matrix`` of d**p it solved on,
    as ``_entry_p_mean`` of the plan's entries of that matrix, without
    recomputing the distances. A supplied ``cost`` is compared with
    ``_segment_cost``'s. An entry distance whose d**p would overflow, or a
    derived or supplied cost that is not finite, raises
    ``CostOverflowError``. Errors come in a fixed order: entry lengths,
    indices, masses, marginals, cost.
    """
    _check_entries(mu, nu, left, right, masses)
    if cost_matrix is None:
        derived = _segment_cost(mu.atoms[left], nu.atoms[right], masses, p)
    else:
        derived = _entry_p_mean(masses, cost_matrix[left, right], p)
    # the comparisons fail on NaN and inf alike
    if not derived < np.inf:
        raise _cost_overflow(f"plan cost {derived!r}", p)
    if cost is None:
        cost = derived
    else:
        cost = float(cost)
        if not abs(cost) < np.inf:
            raise _cost_overflow(f"stored cost {cost!r}", p)
        if abs(cost - derived) > COST_RTOL * max(derived, cost):
            raise ValueError(f"stored cost {cost!r} does not match recomputed cost {derived!r}")
    for arr in (left, right, masses):
        arr.setflags(write=False)
    return _frozen(
        coupling,
        Coupling,
        {"mu": mu, "nu": nu, "left": left, "right": right, "masses": masses, "p": p, "cost": cost},
    )


def _check_entries(mu: DiscreteMeasure, nu: DiscreteMeasure, left, right, masses) -> None:
    """``_checked_coupling``'s entry checks, in order: lengths, indices, masses, marginals."""
    if not len(left) == len(right) == len(masses):
        raise ValueError("entry arrays must have equal length")
    if len(left) == 0:
        raise ValueError("a coupling needs at least one entry")
    # the upper bound is checked first because bincount sizes its output by
    # the largest index; bincount itself rejects negative indices
    if _array_max(left) >= len(mu):
        raise ValueError("left index out of range")
    try:
        row = np.bincount(left, weights=masses, minlength=len(mu))
    except ValueError:
        raise ValueError("left index out of range") from None
    if _array_max(right) >= len(nu):
        raise ValueError("right index out of range")
    try:
        col = np.bincount(right, weights=masses, minlength=len(nu))
    except ValueError:
        raise ValueError("right index out of range") from None
    # _array_min and _array_max return NaN if any entry is NaN (their
    # contract), so the comparison fails on NaN and inf alike
    if not (_array_min(masses) > 0.0 and _array_max(masses) < np.inf):
        raise ValueError("entry masses must be finite and positive")
    if _array_max(np.abs(row - mu.weights)) > MARGINAL_ATOL:
        raise ValueError("row sums do not reproduce the left marginal")
    if _array_max(np.abs(col - nu.weights)) > MARGINAL_ATOL:
        raise ValueError("column sums do not reproduce the right marginal")


def _segment_cost(starts, ends, weights, p) -> float:
    """``p_mean`` of the ``_lengths`` of the segments from ``starts`` to ``ends``: a plan's cost.

    Each length has its pair's cost-matrix bits; one whose square passes
    the largest double is inf, unwarned, and ``p_mean``'s check names it.
    """
    return p_mean(weights, _lengths(ends - starts), p)


def solve_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> Coupling:
    """Cost-minimal coupling of (mu, nu) for cost d(x, y)**p.

    ``transport_plan`` picks the exact method (single atom, assignment
    between equal marginals, transportation simplex) on the cost
    matrix ``pairwise_distances(mu.atoms, nu.atoms) ** p``, and the entries
    it returns are checked and frozen into the coupling, with the cost
    read from that matrix. The coupling keeps the basis of an LP or
    single-atom plan for the schedules' stacked pass.
    Deterministic: identical inputs produce bit-identical couplings. Costs
    that would overflow (some d**p past the largest double) raise
    ``CostOverflowError`` before any power is taken.
    """
    p = _check_instance(mu, nu, p)
    cost_matrix = _cost_matrix(mu.atoms, nu.atoms, p)
    left, right, masses, basis = transport_plan(mu.weights, nu.weights, cost_matrix)
    plan = _checked_coupling(mu, nu, left, right, masses, p, cost_matrix=cost_matrix)
    if basis is not None:
        _frozen(plan, Coupling, {"_basis": basis})
    return plan


def transport_plan(a: np.ndarray, b: np.ndarray, cost_matrix: np.ndarray) -> tuple:
    """Entries (left, right, masses) of a minimum-cost plan between weights a and b, and its basis.

    ``a`` and ``b`` are the float64 weight vectors of two probability
    measures, finite and positive as validated measures hold them, and
    ``cost_matrix`` any finite real (len(a), len(b)) matrix; negative
    entries are fine, since no method below assumes a sign (optimality is
    a statement about reduced costs, which a constant shift of the costs
    leaves alone). Entries are the plan's positive masses, lexicographic in
    (left, right). The fourth value is the basis ``(rows, columns)``: the
    simplex's of an LP plan, the star of a single-atom plan (its entries'
    own ``left`` and ``right``), and None on the other paths. The method
    is picked from the input alone, in order:

    - a single-atom marginal: its one feasible plan, with its star;
    - equal sizes and ``a`` equal to ``b``: one ``linear_sum_assignment``
      call, whose permutation is the plan when every weight is equal
      (Birkhoff-von Neumann) or when it is the identity (i -> i with mass
      a[i]). With every a[i] > 0 the identity is optimal for (a, a)
      exactly when some potentials are tight on the whole diagonal, which
      is also the test of an optimal assignment: a proof at any p, unlike
      the simplex's certificate, whose tolerance grows with the largest
      cost. A measure moved onto itself (a zero diagonal) needs no rule of
      its own: the identity is optimal there, and this test takes it when
      the assignment solver returns it;
    - everything else, and equal weights whose assignment is not the
      identity: the certified transportation simplex ``_solve_lp``.

    ``_kept_basis`` is the rule for when a kept basis stands in for this
    choice. Weights (``a`` against ``b``) and permutations (the
    assignment's against the identity) are compared bit for bit. For
    positive finite weights and intp indices that is value equality: only
    -0.0 and NaN could tell the two apart, and neither is a weight.

    The assignment and identity plans can differ from the LP's only where
    the optimal plan is not unique; at such ties the summed cost still
    agrees to rounding. A cost matrix with an infinite or NaN entry raises
    ``CostOverflowError``.
    """
    m, n = len(a), len(b)
    if cost_matrix.shape != (m, n):
        raise ValueError(f"cost matrix has shape {cost_matrix.shape}, weights give {(m, n)}")
    # _array_min and _array_max return NaN if any entry is NaN (their
    # contract), so the comparison fails on NaN and inf alike
    if not (-np.inf < _array_min(cost_matrix) and _array_max(cost_matrix) < np.inf):
        raise CostOverflowError("transport cost matrix has an infinite or NaN entry")
    if (single := _single_atom_plan(a, b)) is not None:
        return single
    # bytes compare as values here: the weights are finite and positive, so
    # no -0.0 or NaN, and the index arrays below are both intp
    if m == n and a.tobytes() == b.tobytes():
        left, right = linear_sum_assignment(cost_matrix)  # rows 0..n-1: lexicographic
        if _array_min(a) == _array_max(a) or right.tobytes() == left.tobytes():
            return left, right, a[left], None
    return _solve_lp(a, b, cost_matrix)


def _single_atom_plan(a: np.ndarray, b: np.ndarray):
    """The one feasible plan when a or b has a single atom, as ``transport_plan`` returns it; else None.

    Its m + n - 1 entries are a star, a spanning tree of the bipartite
    graph, so they are their own basis: the basis is the entries' own
    ``(left, right)`` arrays.
    """
    m, n = len(a), len(b)
    if m == 1:
        left, right, masses = np.zeros(n, dtype=np.intp), np.arange(n, dtype=np.intp), b.copy()
    elif n == 1:
        left, right, masses = np.arange(m, dtype=np.intp), np.zeros(m, dtype=np.intp), a.copy()
    else:
        return None
    return left, right, masses, (left, right)


def _kept_basis(plan: Coupling, weights: np.ndarray):
    """The basis ``plan`` kept, if it may stand in for ``transport_plan`` from ``plan.mu``; else None.

    ``weights`` are the target weights of the later instance (a ray's).
    The basis stands in only where ``transport_plan`` would run the LP or
    build a star, so it is None when the plan kept none (assignment,
    identity and user-built plans), when the plan's target weights are
    not ``weights`` byte for byte (its section pooled atoms), or when both
    sides have more than one atom and equal weights, which
    ``transport_plan`` gives the assignment solver. The new costs must
    still certify it (``_certified_prefix``, ``_basis_certified``).
    """
    basis = plan._basis
    target = weights.tobytes()
    if basis is None or plan.nu.weights.tobytes() != target:
        return None
    # equal bytes are equal lengths, so past one atom both sides are
    if len(weights) > 1 and plan.mu.weights.tobytes() == target:
        return None
    return basis


def _certified_prefix(cost_stack: np.ndarray, basis) -> int:
    """How many leading matrices of a (T, m, n) cost stack the simplex basis ``basis`` certifies.

    ``basis`` is the ``(rows, cols)`` a plan kept. It is certified on a cost
    matrix when ``_dual_certificate``'s test holds there, on the tree's
    potentials and with the matrix's own ``_certificate_tolerance``: the
    simplex's own stop. The tree is hung from row 0 by ``_hang_tree``, as
    the simplex hangs it, on a (m, n, T) view of the stack, so a cell's T
    costs and a node's T potentials go through the walk as one array each.
    The stack is priced in one vectorised pass with ``_reduced_costs``, so
    each matrix passes or fails as it would alone; ``_basis_certified`` is
    the one-matrix form. A star (m or n is 1) is certified on all T
    matrices unseen: a single atom's one feasible plan ignores the costs.
    """
    T, m, n = cost_stack.shape
    if m == 1 or n == 1:
        return T
    rows, cols = basis
    u_v = np.array(_hang_tree(rows, cols, cost_stack.transpose(1, 2, 0), m, n, np.zeros(T))[3])
    reduced = _reduced_costs(cost_stack, u_v[:m].T[:, :, None], u_v[m:].T[:, None, :])
    tol = _certificate_tolerance(cost_stack)
    holds = (reduced.min(axis=(1, 2)) >= -tol) & (reduced[:, rows, cols].max(axis=1) <= tol)
    return _leading(holds)


def _basis_certified(cost_matrix: np.ndarray, basis) -> bool:
    """Whether the simplex basis ``basis`` is certified on one (m, n) cost matrix.

    ``_certified_prefix``'s test in its one-matrix form, which is
    ``_solve_lp``'s first stop test: the tree hung from row 0 by
    ``_hang_tree`` on float costs, then ``_dual_certificate`` with the
    matrix's ``_certificate_tolerance``. Its verdict is
    ``_certified_prefix(cost_matrix[None], basis) == 1``, at about half the
    cost of that stacked pass on a small matrix; a star is certified
    unseen, as there.
    """
    m, n = cost_matrix.shape
    if m == 1 or n == 1:
        return True
    rows, cols = basis
    u_v = np.array(_hang_tree(rows, cols, cost_matrix.tolist(), m, n, 0.0)[3])
    tol = _certificate_tolerance(cost_matrix)
    return _dual_certificate(cost_matrix, u_v[:m], u_v[m:], rows, cols, tol)[2]


def _leading(holds: np.ndarray) -> int:
    """How many leading entries of a boolean array are True."""
    if not len(holds):
        return 0
    first = int(holds.argmin())  # the first False, or 0 when there is none
    return len(holds) if holds[first] else first


def _certificate_tolerance(costs: np.ndarray):
    """The certificate's rounding allowance 4 (m + n) eps max|C|.

    Of one (m, n) cost matrix, as a Python float, or of each matrix of a
    (T, m, n) stack, as a (T,) array with the same bits.
    """
    m, n = costs.shape[-2:]
    if costs.ndim == 2:
        largest = _array_max(np.abs(costs))
    else:
        largest = np.abs(costs).max(axis=(1, 2))
    return CERTIFICATE_ROUNDINGS * (m + n) * EPS * largest


def _dual_certificate(cost_matrix, u, v, left, right, tol) -> tuple[int, float, bool]:
    """The cell of least reduced cost C + u - v, that cost, and whether they certify the basis.

    The one definition of "certified optimal": the simplex's stop, the
    test ``_basis_certified`` runs on a kept basis and one matrix, and the
    one ``_certified_prefix`` repeats, in a vectorised form, on a
    schedule's kept basis at each of its sections. It holds when
    every reduced cost is >= -tol and the reduced cost of every basis cell
    (left, right) is <= tol, with ``tol`` from ``_certificate_tolerance``
    on the same matrix (computed once per solve, not once per pivot). That
    is LP duality with rounding: a plan x on the basis and any plan y with
    the same marginals satisfy <C, y> - <C, x> = <r, y> - <r, x> >= -2 tol,
    since both carry mass 1. ``tol = 4 (m + n) eps max|C|`` is the rounding
    of the largest cost once per addition along a tree path of at most
    m + n cells, with a margin of 4, so a certified plan is within
    8 (m + n) eps max|C| of optimal in summed d**p, the resolution of the
    cost matrix itself. The cell is ``argmin``'s, first in row-major order
    on ties.
    """
    reduced = _reduced_costs(cost_matrix, u[:, None], v)
    # the method, not np.argmin: numpy's function wrapper adds about 0.7 us
    cell = int(reduced.argmin())
    lowest = reduced.item(cell)
    return cell, lowest, bool(lowest >= -tol and _array_max(reduced[left, right]) <= tol)


def _reduced_costs(costs: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Reduced costs C + u - v: u (m, 1) and v (n,), or (T, m, 1) and (T, 1, n) on a stack."""
    # subtracting in place rounds as C + u - v does, without a second temporary
    reduced = costs + u
    reduced -= v
    return reduced


def _solve_lp(a: np.ndarray, b: np.ndarray, cost_matrix: np.ndarray):
    """Exact transportation LP: entries (left, right, masses) of an optimal plan, and its basis.

    A primal transportation simplex. The basis is a spanning tree of the
    bipartite graph on m row and n column nodes, with m + n - 1 cells. It
    starts from the matrix-minimum rule. The tree hangs from row 0: every
    node keeps its parent, depth and potential (v[j] = u[i] + C[i, j] on
    every basis cell, u = 0 at row 0) from pivot to pivot. A pivot re-hangs
    only the subtree its leaving cell cuts off, below the entering cell;
    each potential there is still its parent's plus or minus one cost, so
    it has the bits a walk of the whole tree would give. The basis cells'
    rows and columns stay in two index arrays, the entering cell taking the
    leaving cell's slot. Each pivot enters the cell of most negative
    reduced cost C + u - v (Dantzig's rule, first in row-major order on
    ties), and leaves the cell of least mass among those losing mass on
    the cycle it closes (lowest row-major index on ties, which rounding
    alone can make). One ``_dual_certificate`` pass per pivot prices the
    cells for both: it names the cell to enter, and it is the stop, so
    every plan it returns is certified optimal to 8 (m + n) eps max|C| in
    summed d**p. The masses of the final tree are rebuilt from the
    marginals by ``_peel_masses`` on the kept neighbour lists; entries come
    row-major, those that are not positive dropped. The basis is the final
    tree's two index arrays (rows, columns), read-only, all m + n - 1 cells
    with the zero-mass ones: the certificate a schedule's stacked pass
    re-prices on later sections.

    It cannot cycle (Orden's perturbation; Orden, "The transhipment
    problem", Management Science 2, 1956). Every basis mass is a pair
    (mass, eps) for the marginals a_i + eps on every row, b_j on every
    column but the last, and b_n + m eps there. Cutting a tree cell splits
    the tree in two, and the cell's eps coefficient is plus or minus the
    number of rows on one side; it is zero only for the one cell of a
    column that is a leaf, whose mass is b_j > 0. So no basis mass is
    zero in the lexicographic order of the pairs, Python's tuple order,
    every pivot moves a lexicographically positive amount at a negative
    reduced cost, the perturbed cost falls strictly, and no basis comes
    back. ``SIMPLEX_PIVOTS_PER_NODE`` (m + n) pivots is only a safety net
    against rounding: reaching it, or a certificate that fails with no
    cell left to enter (rounding beyond its tolerance), raises
    ``TransportSolveError``.
    """
    m, n = cost_matrix.shape
    cost = cost_matrix.tolist()
    tol = _certificate_tolerance(cost_matrix)
    basis = _matrix_minimum_basis(a, b, cost_matrix)
    slot = {cell: k for k, cell in enumerate(basis)}
    left, right = np.divmod(np.fromiter(basis, dtype=np.intp, count=len(basis)), n)
    neighbours, parent, depth, potential = _hang_tree(left, right, cost, m, n, 0.0)
    for _ in range(SIMPLEX_PIVOTS_PER_NODE * (m + n)):
        u_v = np.array(potential)
        entering, lowest, certified = _dual_certificate(
            cost_matrix, u_v[:m], u_v[m:], left, right, tol
        )
        if certified:
            left.setflags(write=False)
            right.setflags(write=False)
            return (*_peel_masses(a, b, neighbours), (left, right))
        if lowest >= 0.0 or entering in basis:
            raise _solve_failure("found no improving cell but no certificate", cost_matrix)
        i, j = divmod(entering, n)
        # the tree path from row i to column j closes the cycle; its cells
        # alternately lose and gain mass, starting with a loss at row i
        x, y = i, m + j
        from_row, from_col = [], []
        while x != y:
            if depth[x] >= depth[y]:
                z = parent[x]
                from_row.append(x * n + z - m if x < m else z * n + x - m)
                x = z
            else:
                z = parent[y]
                from_col.append(y * n + z - m if y < m else z * n + y - m)
                y = z
        path = from_row + from_col[::-1]
        theta, leaving = min((basis[cell], cell) for cell in path[0::2])
        mass, eps = theta
        for k, cell in enumerate(path):
            held, held_eps = basis[cell]
            basis[cell] = (held + mass, held_eps + eps) if k % 2 else (held - mass, held_eps - eps)
        basis[entering] = theta
        del basis[leaving]
        k = slot.pop(leaving)
        slot[entering] = k
        left[k], right[k] = i, j
        r, c = divmod(leaving, n)
        neighbours[r].remove(m + c)
        neighbours[m + c].remove(r)
        neighbours[i].append(m + j)
        neighbours[m + j].append(i)
        # the leaving cell cuts off the subtree holding the entering cell's
        # end on its side of the cycle; only that subtree is hung anew
        top, y = (m + j, i) if leaving in from_row else (i, m + j)
        _hang(top, y, neighbours, parent, depth, potential, cost, m)
    cap = SIMPLEX_PIVOTS_PER_NODE * (m + n)
    raise _solve_failure(f"reached its pivot cap of {cap} pivots uncertified", cost_matrix)


def _hang_tree(rows: np.ndarray, cols: np.ndarray, cost, m: int, n: int, zero) -> tuple:
    """The spanning tree on the cells (rows, cols), hung by ``_hang`` from row 0 at ``zero``.

    Returns each node's neighbours, parent, depth and potential, rows then
    columns. ``cost[i][j]`` is a float, with ``zero`` 0.0, or an array of
    the cell's T costs, with ``zero`` T zeros, for T matrices at once.
    """
    neighbours = [[] for _ in range(m + n)]
    for i, j in zip(rows.tolist(), cols.tolist()):
        neighbours[i].append(m + j)
        neighbours[m + j].append(i)
    parent, depth, potential = [-1] * (m + n), [0] * (m + n), [zero] * (m + n)
    for y in neighbours[0]:
        _hang(0, y, neighbours, parent, depth, potential, cost, m)
    return neighbours, parent, depth, potential


def _hang(top, y, neighbours, parent, depth, potential, cost, m) -> None:
    """Hang node y and the tree beyond it below ``top``, a neighbour already placed.

    Sets the parent, depth and potential of y and of every node reached
    from y away from ``top``. A column's potential is its row's plus the cell
    cost, a row's is its column's minus it, so a potential has the same
    bits whatever order the tree is walked in and whichever pivot last
    moved it.
    """
    parent[y] = top
    depth[y] = depth[top] + 1
    if top < m:
        potential[y] = potential[top] + cost[top][y - m]
    else:
        potential[y] = potential[top] - cost[y][top - m]
    order = [y]
    for x in order:  # grows while it is walked
        up, below, here = parent[x], depth[x] + 1, potential[x]
        if x < m:
            row = cost[x]
            for z in neighbours[x]:
                if z != up:
                    parent[z], depth[z], potential[z] = x, below, here + row[z - m]
                    order.append(z)
        else:
            c = x - m
            for z in neighbours[x]:
                if z != up:
                    parent[z], depth[z], potential[z] = x, below, here - cost[z][c]
                    order.append(z)


def _solve_failure(what: str, cost_matrix: np.ndarray) -> TransportSolveError:
    """The typed error for a simplex run that ends without a certified plan."""
    return TransportSolveError(
        f"transportation simplex {what} (rounding beyond the certificate's tolerance; "
        f"cost range [{cost_matrix.min():.6g}, {cost_matrix.max():.6g}])"
    )


def _matrix_minimum_basis(a: np.ndarray, b: np.ndarray, cost_matrix: np.ndarray) -> dict:
    """Start basis by the matrix-minimum rule: {row-major cell: (mass, eps)}.

    Masses are pairs for Orden's perturbed marginals (see ``_solve_lp``):
    a_i + eps on every row, b_n + m eps on the last column. Cells are taken
    in order of increasing cost (row-major on ties); each gets the lesser
    remaining marginal and closes exactly one line, its row when that has
    no more left than its column, both in tuple order. The last open row
    and the last open column are never closed early, so the m + n - 1
    cells form a spanning tree.
    """
    m, n = cost_matrix.shape
    row_left = [(x, 1) for x in a.tolist()]
    col_left = [(x, 0) for x in b.tolist()]
    col_left[-1] = (col_left[-1][0], m)
    row_open, col_open = [True] * m, [True] * n
    open_rows, open_cols = m, n
    basis = {}
    for cell in np.argsort(cost_matrix, axis=None, kind="stable").tolist():
        i, j = divmod(cell, n)
        if not (row_open[i] and col_open[j]):
            continue
        mass = min(row_left[i], col_left[j])
        basis[cell] = mass
        if open_rows == 1 and open_cols == 1:
            break
        close_row = open_cols == 1 or (open_rows > 1 and row_left[i] <= col_left[j])
        row_left[i] = (row_left[i][0] - mass[0], row_left[i][1] - mass[1])
        col_left[j] = (col_left[j][0] - mass[0], col_left[j][1] - mass[1])
        if close_row:
            row_open[i] = False
            open_rows -= 1
        else:
            col_open[j] = False
            open_cols -= 1
    return basis


def _peel_masses(a: np.ndarray, b: np.ndarray, neighbours: list) -> tuple:
    """Entries (left, right, masses) on a spanning tree that reproduce the marginals (a, b).

    ``neighbours`` lists each node's tree neighbours, rows 0..m-1 and then
    columns m..m+n-1; the lists are used up. Peels leaves off the tree,
    first those that are leaves already in node order, then each node as
    it becomes one: a leaf's one cell carries what remains of its
    marginal, which is then taken from the cell's other end. Entries come
    row-major, those whose mass is not positive dropped.
    """
    m, n = len(a), len(b)
    remaining = a.tolist() + b.tolist()
    masses = {}
    leaves = [x for x, ends in enumerate(neighbours) if len(ends) == 1]
    for x in leaves:
        if not neighbours[x]:
            continue  # the tree's last node: its cell is gone
        y = neighbours[x].pop()
        neighbours[y].remove(x)
        masses[x * n + y - m if x < m else y * n + x - m] = remaining[x]
        remaining[y] -= remaining[x]
        if len(neighbours[y]) == 1:
            leaves.append(y)
    cells = sorted(cell for cell, mass in masses.items() if mass > 0.0)
    left, right = np.divmod(np.array(cells, dtype=np.intp), n)
    return left, right, np.array([masses[cell] for cell in cells])


def wasserstein_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> float:
    """The order-p transport distance; cost field of the optimal coupling."""
    return solve_ot(mu, nu, p).cost


@functools.cache
def _permutations(n: int) -> np.ndarray:
    """Read-only (n!, n) table of the permutations of range(n), in itertools order."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
    perms.setflags(write=False)
    return perms


def brute_force_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> Coupling:
    """Exhaustive minimum over permutation matchings.

    Only valid for uniform measures on equal-size supports (at most 8
    atoms), where some permutation matching is optimal. Every permutation's
    summed cost comes from one gather of the cost matrix over a cached
    table of all permutations (40,320 x 8 indices, 2.6 MB, at 8 atoms),
    each row summed along its contiguous axis as a single matching's 1-D
    sum would be. ``argmin`` takes the first minimum, so ties go to the
    lexicographically first permutation and the result is deterministic.
    """
    p = _check_instance(mu, nu, p)
    n = len(mu)
    if len(nu) != n:
        raise ValueError("exhaustive search needs equal-size supports")
    if n > BRUTE_FORCE_MAX_ATOMS:
        raise ValueError(f"exhaustive search capped at {BRUTE_FORCE_MAX_ATOMS} atoms, got {n}")
    w = 1.0 / n
    if np.max(np.abs(mu.weights - w)) > 1e-12 or np.max(np.abs(nu.weights - w)) > 1e-12:
        raise ValueError("exhaustive search needs uniform weights")
    cost_matrix = _cost_matrix(mu.atoms, nu.atoms, p)
    perms = _permutations(n)
    rows = np.arange(n, dtype=np.intp)
    totals = cost_matrix[rows, perms].sum(axis=1)
    right = perms[np.argmin(totals)]
    return Coupling(mu, nu, rows, right, np.full(n, w), p)


@dataclass(frozen=True)
class TailBoundReport:
    """Mass beyond a radius versus the Chebyshev-style transport bound."""

    radius: float
    tail_mass: float
    bound: float
    passed: bool


def tail_mass_bound_check(pi: Coupling, radius) -> TailBoundReport:
    """Check that the mass moved farther than ``radius`` is at most (cost/radius)**p.

    The bound follows from Chebyshev's inequality applied to the coupling's
    own transport cost, so an optimal coupling always passes. A bound past
    the largest double is +inf, which every tail passes.
    """
    radius = float(radius)
    if not radius > 0.0:  # NaN fails too
        raise ValueError(f"radius must be positive, got {radius}")
    d = pi.pair_distances()
    tail = float(pi.masses[d > radius].sum())
    try:
        bound = (pi.cost / radius) ** pi.p
    except OverflowError:  # Python's float pow raises where numpy's returns inf
        bound = np.inf
    return TailBoundReport(radius, tail, bound, tail <= bound + TAIL_BOUND_SLACK)
