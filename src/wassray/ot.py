"""Exact optimal transport between discrete measures on R^d.

Transport cost is d(x, y)**p with p in (1, 16]; the upper cap keeps d**p
representable in doubles at desk scale. ``solve_ot`` picks an exact method
from the input alone:

- a single-atom marginal has one feasible coupling, built directly;
- uniform marginals of equal size (every weight of both measures equal)
  have a permutation among their optimal plans (Birkhoff-von Neumann), and
  the Jonker-Volgenant assignment solver finds one exactly;
- everything else, including weighted measures, unequal sizes and merged
  pushforwards whose weights are no longer equal, goes to the
  transportation linear program on the complete bipartite graph, solved by
  the HiGHS simplex backend, which returns a basic (vertex) plan.

Schedules (Busemann doubling, co-ray diagnostics) solve a run of nearly
identical instances whose optimal plan settles. ``solve_ot`` therefore
takes an optional previous plan ``warm``: on the LP branch, when its sizes
and weights equal the new instance's exactly, ``certify_support`` tests
its support against the new cost matrix with dual potentials, and the LP
runs only when that certificate fails. ``lift_geodesic`` uses the same
certificate to accept a plan without re-solving.

Either way marginals are reproduced to machine precision, the optimal
value is exact in double arithmetic, and identical inputs give
bit-identical plans. Entropic or otherwise approximate solvers would
poison every downstream geometry check, so none is offered.

``brute_force_ot`` is the independent oracle: an exhaustive minimum over
permutation matchings, valid for equal-size uniform marginals, sharing no
code with the simplex path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .errors import (
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


def check_exponent(p) -> float:
    p = float(p)
    if not P_MIN < p <= P_MAX:
        raise InvalidExponentError(f"transport order must lie in ({P_MIN}, {P_MAX}], got {p}")
    return p


def p_mean(weights, lengths, p) -> float:
    """Weighted p-mean (sum of w * l**p) ** (1/p) of nonnegative lengths.

    Transport costs, geodesic lengths and ray speeds are all this one
    expression, so values that must agree are computed bit-identically.
    """
    return float(np.sum(weights * lengths**p) ** (1.0 / p))


def pairwise_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix of Euclidean distances between two atom arrays."""
    return np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2)


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
    construction when omitted, and a supplied value must match the derived
    one to 1e-10 relative. Row and column sums must reproduce the
    marginals within 1e-9 per atom.
    """

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    left: np.ndarray
    right: np.ndarray
    masses: np.ndarray
    p: float
    cost: float | None = None

    def __post_init__(self):
        left = np.atleast_1d(np.array(self.left, dtype=np.intp))
        right = np.atleast_1d(np.array(self.right, dtype=np.intp))
        masses = np.atleast_1d(np.array(self.masses, dtype=float))
        if not len(left) == len(right) == len(masses):
            raise ValueError("entry arrays must have equal length")
        if len(left) == 0:
            raise ValueError("a coupling needs at least one entry")
        if np.any(left < 0) or np.any(left >= len(self.mu)):
            raise ValueError("left index out of range")
        if np.any(right < 0) or np.any(right >= len(self.nu)):
            raise ValueError("right index out of range")
        if np.any(masses <= 0.0) or not np.all(np.isfinite(masses)):
            raise ValueError("entry masses must be finite and positive")
        p = check_exponent(self.p)
        row = np.bincount(left, weights=masses, minlength=len(self.mu))
        col = np.bincount(right, weights=masses, minlength=len(self.nu))
        if np.max(np.abs(row - self.mu.weights)) > MARGINAL_ATOL:
            raise ValueError("row sums do not reproduce the left marginal")
        if np.max(np.abs(col - self.nu.weights)) > MARGINAL_ATOL:
            raise ValueError("column sums do not reproduce the right marginal")
        recomputed = _entries_cost(self.mu, self.nu, left, right, masses, p)
        if self.cost is None:
            cost = recomputed
        else:
            cost = float(self.cost)
            if abs(cost - recomputed) > COST_RTOL * max(recomputed, cost):
                raise ValueError(
                    f"stored cost {cost!r} does not match recomputed cost {recomputed!r}"
                )
        for arr in (left, right, masses):
            arr.setflags(write=False)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "cost", cost)

    def pair_distances(self) -> np.ndarray:
        """Euclidean distance of each entry's atom pair."""
        return np.linalg.norm(self.mu.atoms[self.left] - self.nu.atoms[self.right], axis=1)

    def dense(self) -> np.ndarray:
        """Entries as a dense (len(mu), len(nu)) matrix."""
        plan = np.zeros((len(self.mu), len(self.nu)))
        np.add.at(plan, (self.left, self.right), self.masses)
        return plan


def _entries_cost(
    mu: DiscreteMeasure, nu: DiscreteMeasure, left, right, masses, p: float
) -> float:
    d = np.linalg.norm(mu.atoms[left] - nu.atoms[right], axis=1)
    return p_mean(masses, d, p)


def solve_ot(
    mu: DiscreteMeasure, nu: DiscreteMeasure, p, warm: Coupling | None = None
) -> Coupling:
    """Cost-minimal coupling of (mu, nu) for cost d(x, y)**p.

    Deterministic: identical inputs produce bit-identical couplings. When
    either marginal is a single atom the unique feasible coupling is built
    directly. When both measures have the same number of atoms and every
    weight of both equals ``mu.weights[0]`` exactly, the optimal
    permutation is found by ``linear_sum_assignment``; otherwise the
    transportation LP is solved exactly. Both reach the optimal cost; the
    assignment plan can differ from the LP's only where the optimal
    permutation is not unique.

    ``warm`` is an optional previous plan, used only where the LP would
    run: its entries are returned instead when its marginals have the
    same sizes and exactly the same weights as (mu, nu) and
    ``certify_support`` proves its support optimal for the new costs.
    """
    p = _check_instance(mu, nu, p)
    m, n = len(mu), len(nu)
    if m == 1:
        left = np.zeros(n, dtype=np.intp)
        right = np.arange(n, dtype=np.intp)
        masses = nu.weights.copy()
    elif n == 1:
        left = np.arange(m, dtype=np.intp)
        right = np.zeros(m, dtype=np.intp)
        masses = mu.weights.copy()
    else:
        cost_matrix = pairwise_distances(mu.atoms, nu.atoms) ** p
        w = mu.weights[0]
        if m == n and np.all(mu.weights == w) and np.all(nu.weights == w):
            left, right = linear_sum_assignment(cost_matrix)  # rows 0..n-1: lexicographic
            masses = mu.weights[left]
        elif _warm_applies(warm, mu, nu, cost_matrix):
            left, right, masses = warm.left, warm.right, warm.masses
        else:
            plan = _solve_lp(mu.weights, nu.weights, cost_matrix)
            left, right = np.nonzero(plan > 0.0)  # row-major: lexicographic in (i, j)
            masses = plan[left, right]
    return Coupling(mu, nu, left, right, masses, p)


def _warm_applies(
    warm: Coupling | None, mu: DiscreteMeasure, nu: DiscreteMeasure, cost_matrix
) -> bool:
    return (
        warm is not None
        and len(warm.mu) == len(mu)
        and len(warm.nu) == len(nu)
        and np.array_equal(warm.mu.weights, mu.weights)
        and np.array_equal(warm.nu.weights, nu.weights)
        and certify_support(warm.left, warm.right, cost_matrix)
    )


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
    resolution of the cost matrix itself and far below the LP's own
    1e-7 dual feasibility tolerance.
    """
    m, n = cost_matrix.shape
    scale = float(np.max(np.abs(cost_matrix)))
    tol = CERTIFICATE_ROUNDINGS * (m + n) * np.finfo(float).eps * scale
    support_cost = cost_matrix[left, right]
    u = np.zeros(m)
    v = np.zeros(n)
    for _ in range(m + n):
        v_next = np.minimum(v, np.min(u[:, None] + cost_matrix, axis=0))
        u_next = u.copy()
        np.minimum.at(u_next, left, v_next[right] - support_cost)
        if np.array_equal(u_next, u) and np.array_equal(v_next, v):
            break
        u, v = u_next, v_next
    reduced = cost_matrix + u[:, None] - v[None, :]
    return bool(reduced.min() >= -tol and reduced[left, right].max() <= tol)


def _solve_lp(a: np.ndarray, b: np.ndarray, cost_matrix: np.ndarray) -> np.ndarray:
    """Exact transportation LP; returns the (m, n) plan."""
    m, n = cost_matrix.shape
    nvar = m * n
    var = np.arange(nvar)
    row_of = var // n
    col_of = var % n
    keep = col_of < n - 1  # last column constraint is redundant
    rows = np.concatenate([row_of, m + col_of[keep]])
    cols = np.concatenate([var, var[keep]])
    A_eq = sparse.csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(m + n - 1, nvar)
    )
    b_eq = np.concatenate([a, b[:-1]])
    res = linprog(
        cost_matrix.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0.0, None), method="highs"
    )
    if res.status != 0:
        raise TransportSolveError(
            f"transport LP failed with HiGHS status {res.status}: {res.message} "
            f"(cost range [{cost_matrix.min():.6g}, {cost_matrix.max():.6g}])"
        )
    return res.x.reshape(m, n)


def wasserstein_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> float:
    """The order-p transport distance; cost field of the optimal coupling."""
    return solve_ot(mu, nu, p).cost


def brute_force_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> Coupling:
    """Exhaustive minimum over permutation matchings.

    Only valid for uniform measures on equal-size supports (at most 8
    atoms), where some permutation matching is optimal. Ties go to the
    lexicographically first permutation, so the result is deterministic.
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
    cost_matrix = pairwise_distances(mu.atoms, nu.atoms) ** p
    rows = np.arange(n)
    best_total = np.inf
    best_perm: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(n)):
        total = float(cost_matrix[rows, perm].sum())
        if total < best_total:
            best_total = total
            best_perm = perm
    assert best_perm is not None
    left = rows.astype(np.intp)
    right = np.array(best_perm, dtype=np.intp)
    masses = np.full(n, w)
    cost = _entries_cost(mu, nu, left, right, masses, p)
    return Coupling(mu, nu, left, right, masses, p, cost)


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
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    d = pi.pair_distances()
    tail = float(pi.masses[d > radius].sum())
    bound = float((pi.cost / radius) ** pi.p)
    return TailBoundReport(radius, tail, bound, tail <= bound + TAIL_BOUND_SLACK)
