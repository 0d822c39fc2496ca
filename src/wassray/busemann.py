"""Busemann function of a unit-speed ray of measures.

For a unit-speed ray (mu_t) and a measure nu, the truncation
W_p(nu, mu_t) - t is non-increasing in t and bounded below by
-W_p(nu, mu_0), both by the triangle inequality, so its limit b(nu)
exists and every finite-t value is an upper bound for it.

For a ray family in R^d the limit is itself one linear transport problem,
which ``busemann_exact`` solves with a certified plan; the CLI uses it by
default, and ``lipschitz_check`` and the co-ray checks read their values
from it. ``busemann_value`` keeps the truncation as an independent
oracle: it doubles t until the decrement stalls, returns an explicit
upper bound bracketed by [lower_bound, value], and records the full
schedule so callers can judge the truncation themselves.

``BusemannPlan`` is frozen by ``measures._frozen``, the one writer of the
frozen value types, and its ``lower_bound`` is a
``functools.cached_property``, which ``_limit_plan`` may prime.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CostOverflowError, DimensionMismatchError, MonotonicityError, NotARayError
from .measures import MERGE_DECIMALS, DiscreteMeasure, _array_max, _frozen
from .ot import (
    EPS,
    _basis_certified,
    _kept_basis,
    _lengths,
    solve_ot,
    transport_plan,
    wasserstein_distance,
)
from .paths import RayMeasure, _plan_chain, ray_section, require_unit_speed

DEFAULT_T0 = 1.0
DEFAULT_TOL = 1e-6
DEFAULT_MAX_DOUBLINGS = 24

# Monotonicity holds exactly in theory; a violation beyond this floor, or
# beyond the rounding of far truncations (``monotone_allowance``), signals a
# defective transport solve rather than a property of the inputs.
MONOTONE_ATOL = 1e-6
LOWER_BOUND_ATOL = 1e-9
# slack of the mean-difference floor on W_p(nu, mu_0), ``distance_floor``
FLOOR_RTOL = 2e-11
FLOOR_ATOL = 1e-18
FLOOR_SCALE_MAX = 1e100
# rounding allowed by the theorem checks whose inequality holds exactly
CHECK_ATOL = 1e-9


@dataclass(frozen=True)
class BusemannEstimate:
    """Truncated Busemann value with its convergence evidence.

    ``value`` is the truncation at ``t_final`` and is an upper bound for
    the limit; ``lower_bound`` is -W_p(nu, mu_0). ``schedule`` records
    every (t, truncation) pair visited, non-increasing in t.
    """

    value: float
    t_final: float
    last_decrement: float
    lower_bound: float
    schedule: tuple[tuple[float, float], ...]
    converged: bool


def monotone_allowance(ray: RayMeasure, nu: DiscreteMeasure, distances: float) -> float:
    """Largest increase between two computed truncations that rounding explains.

    ``distances`` is W + W', the sum of the two computed transport
    distances W = value + t. A truncation is fl(W(t)) - t. With the unit
    roundoff u = eps / 2, the computed W(t) has a relative error delta
    bounded, to first order, by:

    - 3u from the position o + t v and the difference x - (o + t v): one
      rounding each of t v, of the sum and of the difference, each on a
      term about as long as |x - o - t v| once t dominates the coordinates;
    - (d / 2 + 1) u from the distance: d u for the d squares and their
      sum, halved by the square root, and u for the root;
    - (n + 4) u from the p-mean of n terms: 2u for each power d**p, u for
      its weight and (n - 1) u for the sum, all divided by p > 1 under the
      root, and 2u for the root itself.

    So |delta| <= (d / 2 + n + 8) u = (d + 2n + 16) eps / 4, with n at most
    len(nu) + len(ray) plan entries. Subtracting t is exact when
    t/2 <= W <= 2t (Sterbenz), and one more rounding otherwise. The true
    truncations do not increase, so two computed ones rise by at most
    |delta| W + |delta'| W' and that rounding; the allowance is twice the
    first-order bound, to cover both and the second-order terms:
    (d + 2n + 16) eps (W + W') / 2. It grows with t, since W ~ t, and never
    falls below ``MONOTONE_ATOL``: at t = 1.7e10 in d = 5 with three terms
    it is about 7e-5, where the observed rises are a few 1e-6. When nu and
    the ray both have two or more atoms, the certified plan may also be
    suboptimal within the certificate's tolerance, which this bound does
    not include.
    """
    terms = len(nu) + len(ray)
    rounding = (nu.dim + 2 * terms + 16) * np.finfo(float).eps / 2.0
    return max(MONOTONE_ATOL, rounding * distances)


def busemann_value(
    ray: RayMeasure,
    nu: DiscreteMeasure,
    t0: float = DEFAULT_T0,
    tol: float = DEFAULT_TOL,
    max_doublings: int = DEFAULT_MAX_DOUBLINGS,
) -> BusemannEstimate:
    """Evaluate the Busemann function of ``ray`` at ``nu`` by doubling.

    Evaluates the truncation on t0, 2 t0, 4 t0, ... and stops once the
    decrement between consecutive values drops below ``tol`` (converged)
    or after ``max_doublings`` doublings (schedule exhausted). Raises
    ``MonotonicityError`` if the recorded sequence increases by more than
    ``monotone_allowance`` (1e-6, or the rounding of the two distances
    when that is larger) or falls below its lower bound: both are provably
    impossible, so either indicates a solver defect.

    ``max_doublings`` must be an integer of at least 1; the schedule takes
    only the doublings of t0 that are finite doubles, at most about 2,100
    whatever ``max_doublings`` is.

    The lower bound is one ``solve_ot`` call, and the schedule's plans
    chain on from its time-0 plan (``paths._plan_chain``): a kept run
    takes the distances of the step before's plan on all the times its
    basis stays certified on, with no solve, and the first time after a
    run is solved cold. The checks run on each value in order, as they
    would after each solve, and a stop makes no later solve.
    """
    require_unit_speed(ray, "the Busemann function")
    t0 = float(t0)
    tol = float(tol)
    # written so that NaN fails the comparisons too
    if not 0.0 < t0 < np.inf:
        raise ValueError(f"initial time t0 must be positive and finite, got {t0}")
    if not tol > 0.0:
        raise ValueError(f"stopping tolerance tol must be positive, got {tol}")
    try:
        max_doublings = operator.index(max_doublings)
    except TypeError:
        raise ValueError(f"max_doublings must be an integer, got {max_doublings!r}") from None
    if max_doublings < 1:
        raise ValueError(f"need at least one doubling, got {max_doublings}")
    plan = solve_ot(nu, ray_section(ray, 0.0), ray.p)
    lower_bound = -plan.cost
    # doubling is exact, so these are t0 * 2**j; the first to overflow ends them
    times = [t0]
    while len(times) <= max_doublings and times[-1] * 2.0 < np.inf:
        times.append(times[-1] * 2.0)
    steps = (
        step
        for _, run_times, lengths, _ in _plan_chain(ray, nu, plan, times)
        for step in zip(run_times, lengths)
    )
    schedule: list[tuple[float, float]] = []
    previous = None
    decrement = float("inf")
    converged = False
    for t, distance in steps:
        value = distance - t
        schedule.append((t, value))
        if previous is not None:
            decrement = previous - value
            distances = (previous + schedule[-2][0]) + (value + t)
            if decrement < -monotone_allowance(ray, nu, distances):
                raise MonotonicityError(
                    f"truncation increased by {-decrement:.3e} at t={t}; "
                    "it is provably non-increasing"
                )
            if decrement < tol:
                converged = True
                break
        previous = value
    t_final, value = schedule[-1]
    if value < lower_bound - LOWER_BOUND_ATOL:
        raise MonotonicityError(
            f"truncation {value!r} fell below its lower bound {lower_bound!r}"
        )
    return BusemannEstimate(
        value=value,
        t_final=t_final,
        last_decrement=max(decrement, 0.0),
        lower_bound=lower_bound,
        schedule=tuple(schedule),
        converged=converged,
    )


@dataclass(frozen=True, eq=False)
class BusemannPlan:
    """Exact Busemann value of ``ray`` at ``nu`` with the certified plan that attains it.

    ``left``/``right``/``masses`` are the positive entries of an optimal
    plan of the limiting transport problem: mass ``masses[k]`` of nu's atom
    ``left[k]`` goes to the ray ``right[k]`` of the family.
    ``lower_bound`` is -W_p(nu, mu_0), a ``functools.cached_property``:
    solved on its first read (or by ``busemann_exact``'s non-ray check,
    when the mean bound leaves the verdict open) and cached; a cost that
    overflows raises ``CostOverflowError`` there, on every read until one
    succeeds. The CLI's default ``busemann`` builds its plan with that W_p
    solved first, so ``_limit_plan`` primes the cache among the fields it
    hands ``_frozen``, and the limit's entries may then be the W_p plan's
    own.
    """

    value: float
    left: np.ndarray
    right: np.ndarray
    masses: np.ndarray
    ray: RayMeasure
    nu: DiscreteMeasure

    @functools.cached_property
    def lower_bound(self) -> float:
        return -wasserstein_distance(self.nu, ray_section(self.ray, 0.0), self.ray.p)


def distance_floor(ray: RayMeasure, nu: DiscreteMeasure) -> float:
    """A number no larger than the computed W_p(nu, mu_0), from the means alone.

    Every coupling pi of nu and mu_0 moves the mean: sum pi_ij |x_i - y_j|
    >= |sum pi_ij (x_i - y_j)| = |mean(nu) - mean(mu_0)|, and W_p >= W_1 by
    Jensen (Villani, Optimal Transport: Old and New, 2009, ch. 6), so
    L = |sum_i a_i x_i - sum_j w_j o_j| <= W_p(nu, mu_0) for exact
    measures; a suboptimal plan only costs more. With L^ the computed L,
    A the largest |coordinate| of nu's atoms and the origins, m atoms of
    nu, n rays and d dimensions, the floor is

        max(L^ (1 - r) - sqrt(d) ((r + 8 eps) A + 2e-12) - 1e-18, 0),
        r = 2e-11 + 16 (d + m + n + 16) eps,

    and NaN past A = 1e100, where no comparison passes it. It is at most
    fl(W), the cost that ``solve_ot(nu, ray_section(ray, 0), p)`` computes
    for its plan pi, with row sums r_i and column sums c_j on the section's
    atoms y_j. Every atom lies within R = sqrt(d) A of 0, and each step
    from L^ to fl(W) loses no more than its term (u = eps / 2):

    - computing L^ (the two means, then ``_lengths``' d squares summed in
      order and its root) errs by at most (m + n + d + 5) u (L^ + 2R);
    - the section pools origins that share a ``_merge_keys`` key at the
      first one's coordinates. Two coordinates rounding to one key at
      1e-12 lie within 1e-12 + 4 u A of each other, so the pooling moves
      mu_0's mean by at most sqrt(d) (1e-12 + 4 u A), counted twice over
      in the floor's sqrt(d) (8 eps A + 2e-12);
    - the plan misses the marginals by at most 8e-12 + 8 (m + n) eps in
      total: weights sum to 1 within 1e-12, the single-atom, assignment
      and identity plans copy a marginal's weights, and the peeled simplex
      masses miss a marginal only by one subtraction's rounding per tree
      cell and the imbalance the last node takes. So
      |sum_i r_i x_i - sum_j c_j y_j|, which equals |sum pi_ij (x_i - y_j)|,
      is within that times R of the mean gap; the total mass M is as close
      to 1, and W(pi) >= M^(1/p - 1) sum pi_ij |x_i - y_j|;
    - the computed cost is within (d / 2 + m + n + 8) u relative of W(pi)
      (the distance, d**p, the p-mean and its root, as
      ``monotone_allowance`` counts them), and d**p that underflows takes
      at most (m n 2^-1074)^(1/p) <= 1e-18 off it.

    r covers the relative terms twice over. The floor drops with A, so a
    measure far from the origin, whatever its distance to mu_0, may leave
    the verdict to the solve.
    """
    scale = max(_array_max(np.abs(nu.atoms)), _array_max(np.abs(ray.origins)))
    # below it nothing here overflows
    if scale > FLOOR_SCALE_MAX:
        return float("nan")
    shift = nu.weights @ nu.atoms - ray.weights @ ray.origins
    gap = float(_lengths(shift))
    rtol = FLOOR_RTOL + 16 * (nu.dim + len(nu) + len(ray) + 16) * EPS
    slack = nu.dim**0.5 * ((rtol + 8.0 * EPS) * scale + 2.0 * 10.0**-MERGE_DECIMALS)
    return max(gap * (1.0 - rtol) - slack - FLOOR_ATOL, 0.0)


def _clears(value: float, distance: float) -> bool:
    """Whether a Busemann value clears the non-ray rule's threshold at a distance to mu_0.

    The threshold, -distance - 1e-9 max(1, distance), falls as the
    distance grows, also as rounded. A NaN distance clears nothing.
    """
    return value >= -distance - LOWER_BOUND_ATOL * max(1.0, distance)


def busemann_exact(ray: RayMeasure, nu: DiscreteMeasure) -> BusemannPlan:
    """The Busemann function of ``ray`` at ``nu``, from its limiting transport problem.

    Let the ray family have origins o_j, velocities v_j and weights w_j,
    with sum_j w_j |v_j|^p = 1 (unit speed), and let nu = sum_i a_i
    delta_{x_i}. For a coupling pi of (a, w) and y = x_i - o_j,

        |y - t v_j|^p = t^p |v_j|^p - p t^(p-1) |v_j|^(p-2) <y, v_j>
                        + O(t^(p-2))

    for v_j != 0, while a resting ray (v_j = 0) contributes O(1). Summed
    against pi and minimised over couplings,

        W_p^p(nu, mu_t) = t^p - p t^(p-1) max_pi S(pi) + o(t^(p-1)),
        S(pi) = sum_ij pi_ij |v_j|^(p-2) <x_i - o_j, v_j>,

    so W_p(nu, mu_t) - t = b(nu) + O(1/t) with b(nu) = -max_pi S(pi) (the
    error is O(t^(1-p)) instead when p < 2 and some ray rests). That
    is a transport LP with cost C_ij = -|v_j|^(p-2) <x_i - o_j, v_j> (0
    where v_j = 0), which ``transport_plan`` solves and certifies. No
    schedule, far section or convergence flag is involved; the truncation
    ``busemann_value`` is the independent oracle.

    Raises ``NotARayError`` (a ``MonotonicityError`` and a ``ValueError``)
    when the value falls below -W_p(nu, mu_0) by more than
    1e-9 max(1, W_p(nu, mu_0)): the triangle inequality forbids it for a
    genuine ray, and the plan is certified, so the family is not one.
    That W_p is solved only where the verdict needs it. The threshold,
    rounded as computed, does not rise as its distance grows, so a value
    that clears it at a distance below fl(W_p) clears it at fl(W_p), and
    the family passes with no solve: first at 0, then at
    ``distance_floor``'s mean bound L. A value that clears neither, or a
    NaN floor, reads ``BusemannPlan.lower_bound`` and meets the rule
    itself; that solve may also raise ``CostOverflowError``. Either way the
    verdict is the rule's on the solved W_p.
    """
    plan = _limit_plan(ray, nu)
    _ray_verdict(plan)
    return plan


def _limit_plan(
    ray: RayMeasure, nu: DiscreteMeasure, lower_bound_first: bool = False
) -> BusemannPlan:
    """``busemann_exact``'s value and plan, before the non-ray verdict.

    With ``lower_bound_first``, as the CLI's default ``busemann`` prints
    -W_p(nu, mu_0), that W_p is solved right after the unit-speed and
    dimension checks and primed as ``lower_bound``, so its errors come first.
    Its plan couples the same weights as the limit when the section pooled
    no origins. Where ``ot._kept_basis`` lets its basis stand in for
    ``transport_plan`` and ``_basis_certified`` certifies that basis on the
    limiting costs, the W_p plan's entries are the limit plan, with no
    second solve. A ``nu`` with the ray's weights on more than one atom is
    never kept: ``transport_plan`` asks the assignment solver there, so
    the plan is ``busemann_exact``'s.
    """
    require_unit_speed(ray, "the Busemann function")
    if nu.dim != ray.dim:
        raise DimensionMismatchError(f"measures live in dimensions {nu.dim} and {ray.dim}")
    start = solve_ot(nu, ray_section(ray, 0.0), ray.p) if lower_bound_first else None
    speeds = _lengths(ray.velocities)
    # |v_j|^(p-2), and 0 for a resting ray, where it may be infinite
    scale = np.power(speeds, ray.p - 2.0, out=np.zeros_like(speeds), where=speeds > 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = nu.atoms[:, None, :] - ray.origins[None, :, :]
        cost = -np.add.reduce(offsets * ray.velocities[None, :, :], axis=2) * scale
    basis = None if start is None else _kept_basis(start, ray.weights)
    if basis is not None and _basis_certified(cost, basis):
        left, right, masses = start.left, start.right, start.masses
    else:
        try:
            left, right, masses, _ = transport_plan(nu.weights, ray.weights, cost)
        except CostOverflowError:
            # costs this far out mostly mean that W_p(nu, mu_0) overflows too;
            # that error, which names p, comes first (it already has, when
            # the lower bound was solved first)
            if start is None:
                wasserstein_distance(nu, ray_section(ray, 0.0), ray.p)
            raise
    value = float(np.add.reduce(masses * cost[left, right]))
    for arr in (left, right, masses):
        arr.setflags(write=False)
    fields = {"value": value, "left": left, "right": right, "masses": masses, "ray": ray, "nu": nu}
    if start is not None:
        fields["lower_bound"] = -start.cost
    return _frozen(None, BusemannPlan, fields)


def _ray_verdict(plan: BusemannPlan) -> None:
    """``busemann_exact``'s non-ray rule on a limit plan: raise ``NotARayError`` if it fires.

    W_p >= 0, so a value that clears the threshold at 0, -1e-9, passes. A
    lower bound already in the plan's cache decides at once; otherwise the
    mean bound may pass the family before W_p is solved.
    """
    value = plan.value
    if not value < -LOWER_BOUND_ATOL:
        return
    if "lower_bound" not in vars(plan) and _clears(value, distance_floor(plan.ray, plan.nu)):
        return
    lower_bound = plan.lower_bound
    if not _clears(value, -lower_bound):
        raise NotARayError(
            f"Busemann value {value!r} fell below its lower bound {lower_bound!r}; "
            "the ray family is not a ray"
        )


@dataclass(frozen=True)
class LipschitzReport:
    """One-Lipschitz check of the Busemann function on a measure pair."""

    value1: float
    value2: float
    difference: float
    distance: float
    passed: bool


def lipschitz_check(
    ray: RayMeasure, nu1: DiscreteMeasure, nu2: DiscreteMeasure
) -> LipschitzReport:
    """Check |b(nu1) - b(nu2)| <= W_p(nu1, nu2) on the exact Busemann values.

    The inequality holds exactly, so the gate allows only the rounding
    ``CHECK_ATOL``.
    """
    value1 = busemann_exact(ray, nu1).value
    value2 = busemann_exact(ray, nu2).value
    dist = wasserstein_distance(nu1, nu2, ray.p)
    difference = abs(value1 - value2)
    return LipschitzReport(
        value1=value1,
        value2=value2,
        difference=difference,
        distance=dist,
        passed=difference <= dist + CHECK_ATOL,
    )
