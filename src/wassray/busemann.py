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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import MonotonicityError, NotARayError
from .measures import DiscreteMeasure
from .ot import _lengths, solve_ot, transport_plan, wasserstein_distance
from .paths import RayMeasure, _plan_chain, ray_section, require_unit_speed

DEFAULT_T0 = 1.0
DEFAULT_TOL = 1e-6
DEFAULT_MAX_DOUBLINGS = 24

# Monotonicity holds exactly in theory; a violation beyond this floor, or
# beyond the rounding of far truncations (``monotone_allowance``), signals a
# defective transport solve rather than a property of the inputs.
MONOTONE_ATOL = 1e-6
LOWER_BOUND_ATOL = 1e-9
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
    """Exact Busemann value with the certified plan that attains it.

    ``left``/``right``/``masses`` are the positive entries of an optimal
    plan of the limiting transport problem: mass ``masses[k]`` of nu's atom
    ``left[k]`` goes to the ray ``right[k]`` of the family. ``lower_bound``
    is -W_p(nu, mu_0).
    """

    value: float
    lower_bound: float
    left: np.ndarray
    right: np.ndarray
    masses: np.ndarray


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
    """
    require_unit_speed(ray, "the Busemann function")
    # the lower-bound solve also rejects a dimension mismatch
    lower_bound = -wasserstein_distance(nu, ray_section(ray, 0.0), ray.p)
    speeds = _lengths(ray.velocities)
    # |v_j|^(p-2), and 0 for a resting ray, where it may be infinite
    scale = np.power(speeds, ray.p - 2.0, out=np.zeros_like(speeds), where=speeds > 0.0)
    offsets = nu.atoms[:, None, :] - ray.origins[None, :, :]
    cost = -np.add.reduce(offsets * ray.velocities[None, :, :], axis=2) * scale
    left, right, masses, _ = transport_plan(nu.weights, ray.weights, cost)
    value = float(np.add.reduce(masses * cost[left, right]))
    if value < lower_bound - LOWER_BOUND_ATOL * max(1.0, -lower_bound):
        raise NotARayError(
            f"Busemann value {value!r} fell below its lower bound {lower_bound!r}; "
            "the ray family is not a ray"
        )
    for arr in (left, right, masses):
        arr.setflags(write=False)
    return BusemannPlan(value, lower_bound, left, right, masses)


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
