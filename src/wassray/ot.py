"""Exact optimal transport between discrete measures on R^d.

Transport cost is d(x, y)**p with p in (1, 16]; the upper cap keeps d**p
representable in doubles at desk scale. Past it (atoms about 1.8e19 apart
at p = 16) a cost overflows to inf, and every path raises
``CostOverflowError`` naming p instead of solving on it; the distances
are checked before they are raised to p, so numpy warns of nothing.
``solve_ot`` builds that cost matrix on distances from scipy's compiled
Euclidean kernel ``cdist``. The kernel adds the squared coordinate differences in
order, as numpy's ``add.reduce`` does below 8 terms, so for d <= 7 its
distances equal the numpy formula bit for bit (see
``pairwise_distances``). ``solve_ot`` hands the matrix to
``transport_plan``, which takes any finite real cost matrix (the exact
Busemann function solves one with negative entries) and picks an exact
method from the input alone, trying in order:

- a single-atom marginal has one feasible coupling, built directly;
- uniform marginals of equal size (every weight of both measures equal)
  have a permutation among their optimal plans (Birkhoff-von Neumann), and
  the Jonker-Volgenant assignment solver finds one exactly;
- equal marginals, a measure moved a little with its weights unchanged
  (two sections of one ray, as ray validation compares them): the
  identity plan, when it costs 0 on a nonnegative matrix with a zero
  diagonal, or when the assignment solver returns the identity
  permutation. With positive weights the identity is optimal for (a, a)
  exactly when it is an optimal assignment, whatever the weights, so this
  is exact at every p;
- a certified warm plan: schedules (Busemann doubling; in the co-ray
  construction, each step's coupling to its target section) solve a run
  of nearly identical instances whose optimal plan settles, so
  ``transport_plan`` takes an optional previous plan ``warm``. When its
  weights equal the new instance's exactly, ``certify_support`` tests its
  support against the new cost matrix with dual potentials, and it is
  returned when the certificate holds, its entries already checked and
  frozen, so only its cost is derived anew (a warm identity the branch
  above accepts comes back the same way). ``lift_geodesic`` uses the
  same certificate to accept a plan without re-solving;
- everything else, including weighted measures, unequal sizes and merged
  pushforwards whose weights are no longer equal, is the transportation
  linear program on the complete bipartite graph. A primal transportation
  simplex solves it and stops on the same certificate. Orden's
  perturbation of the marginals makes every basis nondegenerate, so it
  cannot cycle; its pivot cap is only a safety net against rounding, and
  reaching it raises ``TransportSolveError``. It keeps the basis tree and
  its potentials between pivots, re-hanging only the subtree a pivot cuts
  off. It returns a basic (vertex) plan.

On every path marginals are reproduced to machine precision, the optimal
value is exact in double arithmetic, and identical inputs give
bit-identical plans. Validation sits at one boundary: the public
``Coupling`` constructor converts and copies its input, and the plans
``solve_ot`` builds itself skip only that conversion; both run the same
checks, from one helper. Entropic or otherwise approximate solvers would
poison every downstream geometry check, so none is offered.

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
from .measures import DiscreteMeasure

P_MIN = 1.0
P_MAX = 16.0
MARGINAL_ATOL = 1e-9
COST_RTOL = 1e-10
BRUTE_FORCE_MAX_ATOMS = 8
TAIL_BOUND_SLACK = 1e-12
CERTIFICATE_ROUNDINGS = 4
SIMPLEX_PIVOTS_PER_NODE = 20
DBL_MAX = float(np.finfo(float).max)
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

    Transport costs, geodesic lengths and ray speeds are all this one
    expression, so values that must agree are computed bit-identically.
    The largest length goes through ``_check_distances`` first, so a
    length whose p-th power overflows raises ``CostOverflowError``.
    """
    _check_distances(np.maximum.reduce(lengths), p)
    return float(np.add.reduce(weights * lengths**p) ** (1.0 / p))


def pairwise_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix of Euclidean distances between two atom arrays.

    scipy's compiled ``cdist`` kernel, which forms no (m, n, d) difference
    array: 6 us instead of 56 us for the numpy formula
    ``sqrt(add.reduce(diff * diff, axis=2))`` at 45 x 45 atoms in d = 3
    (2 vCPU, Python 3.11, scipy 1.17). The kernel sums the squared
    coordinate differences one after the other, which is exactly what
    numpy's ``add.reduce`` does over fewer than 8 terms, so for d <= 7
    every entry has the bits of the numpy formula (a test pins this). From
    d = 8 numpy sums pairwise with 8 accumulators, and entries may differ
    from that formula in the last bits.
    """
    return cdist(X, Y)


def _cost_matrix(X: np.ndarray, Y: np.ndarray, p: float) -> np.ndarray:
    """Matrix of d**p between two atom arrays, checked by ``_check_distances`` first."""
    distances = pairwise_distances(X, Y)
    _check_distances(np.maximum.reduce(distances, axis=None), p)
    return distances**p


def _check_distances(largest, p: float) -> None:
    """Raise ``CostOverflowError`` unless d**p stays finite up to the distance ``largest``.

    Compared with DBL_MAX ** (1/p), less the margin ``OVERFLOW_RTOL``, before
    anything is raised to p, so the typed error comes without numpy's
    overflow warning. NaN fails the comparison too.
    """
    if not largest < (1.0 - OVERFLOW_RTOL) * DBL_MAX ** (1.0 / p):
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
    matrix they were solved on instead of recomputing the distances; the
    cost has the same bits either way for d <= 7, and may differ in the
    last bits from d = 8 (see ``pairwise_distances``).
    """

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    left: np.ndarray
    right: np.ndarray
    masses: np.ndarray
    p: float
    cost: float | None = None

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
        return np.linalg.norm(self.mu.atoms[self.left] - self.nu.atoms[self.right], axis=1)

    def dense(self) -> np.ndarray:
        """Entries as a dense (len(mu), len(nu)) matrix."""
        plan = np.zeros((len(self.mu), len(self.nu)))
        np.add.at(plan, (self.left, self.right), self.masses)
        return plan


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
    warm: Coupling | None = None,
) -> Coupling:
    """Run every ``Coupling`` check on entry arrays and freeze them into a coupling.

    The one implementation of the coupling checks. ``left``/``right`` are
    1-D intp arrays, ``masses`` a 1-D float64 array and ``p`` an order
    already passed through ``check_exponent``. The public constructor
    converts and copies its input, then calls this with itself as
    ``coupling``; ``solve_ot`` calls it directly, with no ``coupling``, on
    the entries it has just built, so solver plans skip only the
    conversion, the copy and the repeated exponent check. The arrays are
    made read-only in place.

    The cost is derived from the entries by ``_entries_cost``, or, when
    ``solve_ot`` passes the matrix ``cost_matrix`` of d**p it solved on,
    as the p-mean of the plan's entries of that matrix: for d <= 7 the
    same values raised to the same power, so the same bits, without
    recomputing the distances. A supplied ``cost`` is compared with
    ``_entries_cost``. An entry distance whose d**p would overflow, or a
    derived or supplied cost that is not finite, raises
    ``CostOverflowError``. Errors come in a fixed order: entry lengths,
    indices, masses, marginals, cost.

    ``solve_ot`` also passes its ``warm`` coupling. When the entries are
    that coupling's own read-only arrays and both measures' weights have
    the bits of its marginals' weights, the entries passed these very
    checks, against the same values, when ``warm`` was built; only the cost
    is derived anew.
    """
    reused = (
        warm is not None
        and left is warm.left
        and right is warm.right
        and masses is warm.masses
        and mu.weights.tobytes() == warm.mu.weights.tobytes()
        and nu.weights.tobytes() == warm.nu.weights.tobytes()
    )
    if not reused:
        _check_entries(mu, nu, left, right, masses)
    if cost_matrix is None:
        derived = _entries_cost(mu, nu, left, right, masses, p)
    else:
        # p_mean with the entries' d**p read from the matrix
        derived = float(np.add.reduce(masses * cost_matrix[left, right]) ** (1.0 / p))
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
    if coupling is None:
        coupling = object.__new__(Coupling)
        object.__setattr__(coupling, "mu", mu)
        object.__setattr__(coupling, "nu", nu)
    object.__setattr__(coupling, "left", left)
    object.__setattr__(coupling, "right", right)
    object.__setattr__(coupling, "masses", masses)
    object.__setattr__(coupling, "p", p)
    object.__setattr__(coupling, "cost", cost)
    return coupling


def _check_entries(mu: DiscreteMeasure, nu: DiscreteMeasure, left, right, masses) -> None:
    """``_checked_coupling``'s entry checks, in order: lengths, indices, masses, marginals."""
    if not len(left) == len(right) == len(masses):
        raise ValueError("entry arrays must have equal length")
    if len(left) == 0:
        raise ValueError("a coupling needs at least one entry")
    # the upper bound is checked first because bincount sizes its output by
    # the largest index; bincount itself rejects negative indices
    if np.maximum.reduce(left) >= len(mu):
        raise ValueError("left index out of range")
    try:
        row = np.bincount(left, weights=masses, minlength=len(mu))
    except ValueError:
        raise ValueError("left index out of range") from None
    if np.maximum.reduce(right) >= len(nu):
        raise ValueError("right index out of range")
    try:
        col = np.bincount(right, weights=masses, minlength=len(nu))
    except ValueError:
        raise ValueError("right index out of range") from None
    # min and max propagate NaN, so the comparison fails on NaN and inf alike
    if not (np.minimum.reduce(masses) > 0.0 and np.maximum.reduce(masses) < np.inf):
        raise ValueError("entry masses must be finite and positive")
    if np.maximum.reduce(np.abs(row - mu.weights)) > MARGINAL_ATOL:
        raise ValueError("row sums do not reproduce the left marginal")
    if np.maximum.reduce(np.abs(col - nu.weights)) > MARGINAL_ATOL:
        raise ValueError("column sums do not reproduce the right marginal")


def _entries_cost(
    mu: DiscreteMeasure, nu: DiscreteMeasure, left, right, masses, p: float
) -> float:
    diff = mu.atoms[left] - nu.atoms[right]
    return p_mean(masses, np.sqrt(np.add.reduce(diff * diff, axis=1)), p)


def solve_ot(
    mu: DiscreteMeasure, nu: DiscreteMeasure, p, warm: Coupling | None = None
) -> Coupling:
    """Cost-minimal coupling of (mu, nu) for cost d(x, y)**p.

    ``transport_plan`` picks the exact method (single atom, assignment,
    identity between equal marginals, certified ``warm`` plan,
    transportation simplex) on the cost matrix
    ``pairwise_distances(mu.atoms, nu.atoms) ** p``, and the entries it
    returns are checked and frozen into the coupling. Deterministic:
    identical inputs produce bit-identical couplings. Costs that would
    overflow (some d**p past the largest double) raise
    ``CostOverflowError`` before any power is taken.
    """
    p = _check_instance(mu, nu, p)
    # the one feasible plan of a single atom ignores the costs; building them
    # would add a quarter to these solves, which Busemann schedules on point
    # rays make by the thousand
    entries = _single_atom_entries(mu.weights, nu.weights)
    if entries is None:
        cost_matrix = _cost_matrix(mu.atoms, nu.atoms, p)
        entries = transport_plan(mu.weights, nu.weights, cost_matrix, warm)
        return _checked_coupling(mu, nu, *entries, p, cost_matrix=cost_matrix, warm=warm)
    return _checked_coupling(mu, nu, *entries, p)


def transport_plan(
    a: np.ndarray, b: np.ndarray, cost_matrix: np.ndarray, warm: Coupling | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries (left, right, masses) of a minimum-cost plan between weights a and b.

    ``a`` and ``b`` are the float64 weight vectors of two probability
    measures, finite and positive as validated measures hold them, and
    ``cost_matrix`` any finite real (len(a), len(b)) matrix; negative
    entries are fine, since no method below assumes a sign (optimality is
    a statement about reduced costs, which a constant shift of the costs
    leaves alone). Entries are the plan's positive masses, lexicographic in
    (left, right). The method is picked from the input alone, in order:

    - a single-atom marginal: its one feasible plan;
    - equal sizes and every weight of both equal to ``a[0]`` exactly: the
      optimal permutation from ``linear_sum_assignment``;
    - ``a`` equal to ``b``: the identity plan (i -> i with mass a[i]),
      either when no cost is negative and the diagonal is zero (a measure
      moved onto itself, whose cost 0 nothing beats), or when
      ``linear_sum_assignment`` returns the identity permutation. With
      every a[i] > 0 the identity is optimal for (a, a) exactly when some
      potentials are tight on the whole diagonal, which is also the test
      of an optimal assignment (Birkhoff-von Neumann): a proof at any p,
      unlike ``certify_support``, whose tolerance grows with the largest cost.
      When ``warm`` is that identity on the same weights, its own frozen
      arrays are returned;
    - ``warm``, a previous plan whose marginals have exactly the weights
      (a, b), when ``certify_support`` proves its support optimal for
      these costs;
    - the certified transportation simplex ``_solve_lp``.

    Weights (``a`` against ``b`` and against ``warm``'s marginals) and
    permutations (the assignment's against the identity, ``warm``'s entries)
    are compared bit for bit. For positive finite weights and intp indices
    that is value equality: only -0.0 and NaN could tell the two apart, and
    neither is a weight.

    The assignment and identity plans can differ from the LP's only where
    the optimal plan is not unique; at such ties the summed cost still
    agrees to rounding. A cost matrix with an infinite or NaN entry raises
    ``CostOverflowError``.
    """
    m, n = len(a), len(b)
    if cost_matrix.shape != (m, n):
        raise ValueError(f"cost matrix has shape {cost_matrix.shape}, weights give {(m, n)}")
    lowest = np.minimum.reduce(cost_matrix, axis=None)
    # min and max propagate NaN, so the comparison fails on NaN and inf alike
    if not (-np.inf < lowest and np.maximum.reduce(cost_matrix, axis=None) < np.inf):
        raise CostOverflowError("transport cost matrix has an infinite or NaN entry")
    if (entries := _single_atom_entries(a, b)) is not None:
        return entries
    w = a[0]
    # min == w == max: the truth value of all(a == w), NaN included, in two reduces
    if (
        m == n
        and np.minimum.reduce(a) == w == np.maximum.reduce(a)
        and np.minimum.reduce(b) == w == np.maximum.reduce(b)
    ):
        left, right = linear_sum_assignment(cost_matrix)  # rows 0..n-1: lexicographic
        return left, right, a[left]
    # bytes compare as values here: the weights are finite and positive, so
    # no -0.0 or NaN, and the index arrays below are all intp
    a_bytes = a.tobytes()
    b_bytes = b.tobytes()
    warm_fits = (
        warm is not None
        and warm.mu.weights.tobytes() == a_bytes
        and warm.nu.weights.tobytes() == b_bytes
    )
    if m == n and a_bytes == b_bytes:
        identity = np.arange(n, dtype=np.intp)
        identity_bytes = identity.tobytes()
        # a measure moved onto itself costs 0, which nothing beats on
        # nonnegative costs; else the identity must be an optimal assignment
        if (lowest >= 0.0 and not np.diagonal(cost_matrix).any()) or (
            linear_sum_assignment(cost_matrix)[1].tobytes() == identity_bytes
        ):
            # a warm identity hands back its frozen arrays, which skip the re-check
            if warm_fits and warm.left.tobytes() == identity_bytes == warm.right.tobytes():
                return warm.left, warm.right, warm.masses
            return identity, identity, a.copy()
    if warm_fits and certify_support(warm.left, warm.right, cost_matrix):
        return warm.left, warm.right, warm.masses
    return _solve_lp(a, b, cost_matrix)


def _single_atom_entries(a: np.ndarray, b: np.ndarray):
    """The one feasible plan's entries when a or b has a single atom, else None."""
    m, n = len(a), len(b)
    if m == 1:
        return np.zeros(n, dtype=np.intp), np.arange(n, dtype=np.intp), b.copy()
    if n == 1:
        return np.arange(m, dtype=np.intp), np.zeros(m, dtype=np.intp), a.copy()
    return None


def certify_support(left, right, cost_matrix: np.ndarray) -> bool:
    """Whether every feasible plan supported on the entries (left, right) is optimal.

    The certificate is LP duality: the plan is optimal iff there are
    potentials u (rows) and v (columns) with reduced costs
    ``C[i, j] + u[i] - v[j]`` nonnegative everywhere and zero on the
    support. They are shortest-path distances in the residual graph (an
    arc i -> j of length C[i, j] for every cell, and j -> i of length
    -C[i, j] for every support cell), found by Bellman-Ford from a virtual
    source at distance 0 to every node; this needs no spanning tree, so
    degenerate bases and forest supports (assignment plans, for one) are
    handled alike. A negative cycle, i.e. a cheaper plan, keeps lowering
    the distances and shows up as a violated reduced cost after m + n
    rounds.

    Whatever the potentials, the final test is itself the proof: if every
    reduced cost is >= -tol and every support reduced cost is <= tol,
    any plan y with the same marginals satisfies
    <C, y> - <C, x> = <r, y> - <r, x> >= -2 tol, since both carry mass 1.
    The tolerance ``tol = 4 (m + n) eps max|C|`` is the rounding error of
    the largest cost entry (eps max|C|) once per addition along a path of
    at most m + n residual arcs, with a margin of 4; an accepted plan is
    thus within 8 (m + n) eps max|C| of optimal in summed d**p, the
    resolution of the cost matrix itself.
    """
    m, n = cost_matrix.shape
    tol = _certificate_tolerance(cost_matrix)
    support_cost = cost_matrix[left, right]
    u = np.zeros(m)
    v = np.zeros(n)
    for _ in range(m + n):
        v_next = np.minimum(v, np.minimum.reduce(u[:, None] + cost_matrix, axis=0))
        u_next = u.copy()
        np.minimum.at(u_next, left, v_next[right] - support_cost)
        # both updates only lower the potentials, so they have converged when
        # no entry moved; from the +0.0 start no -0.0 arises (u + C or v - C
        # is -0.0 only when u or v already is), so that is equal bytes
        if u_next.tobytes() == u.tobytes() and v_next.tobytes() == v.tobytes():
            break
        u, v = u_next, v_next
    return _dual_certificate(cost_matrix, u, v, left, right, tol)[1]


def _certificate_tolerance(cost_matrix: np.ndarray) -> float:
    """The certificate's rounding allowance 4 (m + n) eps max|C|."""
    m, n = cost_matrix.shape
    largest = np.maximum.reduce(np.abs(cost_matrix), axis=None)
    return CERTIFICATE_ROUNDINGS * (m + n) * np.finfo(float).eps * largest


def _dual_certificate(cost_matrix, u, v, left, right, tol) -> tuple[np.ndarray, bool]:
    """Reduced costs C + u - v, and whether they certify the support optimal.

    The one definition of "certified optimal", shared by ``certify_support``
    and the transportation simplex: every reduced cost is >= -tol and every
    support reduced cost <= tol, with ``tol`` from ``_certificate_tolerance``
    on the same matrix (computed once per solve, not once per pivot).
    """
    # subtracting in place rounds as C + u - v does, without a second m x n temporary
    reduced = cost_matrix + u[:, None]
    reduced -= v
    return reduced, bool(
        np.minimum.reduce(reduced, axis=None) >= -tol
        and np.maximum.reduce(reduced[left, right]) <= tol
    )


def _solve_lp(a: np.ndarray, b: np.ndarray, cost_matrix: np.ndarray):
    """Exact transportation LP; entries (left, right, masses) of an optimal plan.

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
    alone can make). It stops on the certificate ``certify_support``
    applies, so every plan it returns is certified optimal to
    8 (m + n) eps max|C| in summed d**p.
    The masses of the final tree are rebuilt from the marginals by
    ``_peel_masses``; entries come row-major, those that are not positive
    dropped.

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
    neighbours = [[] for _ in range(m + n)]
    for cell in basis:
        i, j = divmod(cell, n)
        neighbours[i].append(m + j)
        neighbours[m + j].append(i)
    # the tree hangs from row 0, whose potential is 0
    potential = [0.0] * (m + n)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    for y in neighbours[0]:
        _hang(0, y, neighbours, parent, depth, potential, cost, m)
    for _ in range(SIMPLEX_PIVOTS_PER_NODE * (m + n)):
        u_v = np.array(potential)
        reduced, certified = _dual_certificate(cost_matrix, u_v[:m], u_v[m:], left, right, tol)
        if certified:
            left, right = np.divmod(np.sort(left * n + right), n)
            masses = _peel_masses(a, b, left, right)
            positive = masses > 0.0
            return left[positive], right[positive], masses[positive]
        entering = int(np.argmin(reduced))
        i, j = divmod(entering, n)
        if reduced[i, j] >= 0.0 or entering in basis:
            raise _solve_failure("found no improving cell but no certificate", cost_matrix)
        # the tree path from row i to column j closes the cycle; its cells
        # alternately lose and gain mass, starting with a loss at row i
        x, y = i, m + j
        from_row, from_col = [], []
        while x != y:
            if depth[x] >= depth[y]:
                from_row.append(_cell(x, parent[x], m, n))
                x = parent[x]
            else:
                from_col.append(_cell(y, parent[y], m, n))
                y = parent[y]
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


def _cell(x: int, y: int, m: int, n: int) -> int:
    """Row-major index of the cell joining tree nodes x and y."""
    return x * n + (y - m) if x < m else y * n + (x - m)


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


def _peel_masses(a: np.ndarray, b: np.ndarray, left, right) -> np.ndarray:
    """Masses on a spanning-tree support that reproduce the marginals (a, b).

    Peels leaves off the tree: a leaf's one cell carries what remains of
    its marginal, which is then taken from the cell's other end. Returns
    the masses in entry order.
    """
    m = len(a)
    remaining = np.concatenate([a, b]).tolist()
    incident = [[] for _ in remaining]
    ends = []
    for k, (i, j) in enumerate(zip(np.asarray(left).tolist(), np.asarray(right).tolist())):
        ends.append((i, m + j))
        incident[i].append(k)
        incident[m + j].append(k)
    degree = [len(cells) for cells in incident]
    done = [False] * len(ends)
    masses = [0.0] * len(ends)
    leaves = [x for x in range(len(degree)) if degree[x] == 1]
    for x in leaves:
        if degree[x] == 0:
            continue  # the tree's last node: its cell is gone
        k = next(k for k in incident[x] if not done[k])
        y = ends[k][1] if ends[k][0] == x else ends[k][0]
        masses[k] = remaining[x]
        remaining[y] -= remaining[x]
        done[k] = True
        degree[x] -= 1
        degree[y] -= 1
        if degree[y] == 1:
            leaves.append(y)
    return np.array(masses)


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
    own transport cost, so an optimal coupling always passes.
    """
    radius = float(radius)
    if not radius > 0.0:  # NaN fails too
        raise ValueError(f"radius must be positive, got {radius}")
    d = pi.pair_distances()
    tail = float(pi.masses[d > radius].sum())
    bound = float((pi.cost / radius) ** pi.p)
    return TailBoundReport(radius, tail, bound, tail <= bound + TAIL_BOUND_SLACK)
