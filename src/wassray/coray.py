"""Co-rays: limits of geodesics chased to infinity along a reference ray.

For a ray family in R^d the co-ray is exact: ``coray_exact`` reads it off
the certified plan of the Busemann function's limiting transport problem
(see ``busemann_exact``), and this is the default of the CLI.

``construct_coray`` keeps the limit construction as an independent
oracle: fix a start measure, solve the transport to a far section of the
reference ray, and follow the lifted geodesic of the optimal coupling
at a few test times (evaluation clamps at the geodesic's end, so small
times are always meaningful). Repeat along an increasing target-time
schedule and declare convergence once the coupling glued between
consecutive steps shows the section family no longer moving. The final
coupling's segments, reparameterized to unit speed and extended to
straight rays, form the candidate limit: in R^d the segment directions
of the approximating geodesics are the natural estimator of the limit
ray's atoms. When optimal couplings are non-unique the deterministic solver
follows one branch; the diagnostics and the theorem checks below, not the
atom list itself, are the evidence that the output is a co-ray.

The checks: the gradient identity (Busemann values decrease at unit rate
along a co-ray), subadditivity of Busemann functions across a co-ray
relation, uniqueness of the co-ray continuing a subray (R^d is
non-branching), and membership of the Busemann function in the metric
viscosity class. They read Busemann values from ``busemann_exact`` and
rebuild co-rays with ``coray_exact``, so each gate is its bare tolerance:
no truncation slack, schedule or convergence flag enters. A candidate
co-ray from ``construct_coray`` passed to them is thus compared with the
exact limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .busemann import CHECK_ATOL, busemann_exact
from .measures import DiscreteMeasure
from .ot import Coupling, p_mean, solve_ot, wasserstein_distance
from .paths import RayMeasure, ray_section, require_unit_speed

DEFAULT_SCHEDULE = tuple(2.0**n for n in range(1, 17))
DEFAULT_TEST_TIMES = (0.0, 0.5, 1.0, 2.0, 4.0)
DEFAULT_TOL = 1e-4
DEFAULT_CHECK_TOL = 1e-3
DEFAULT_CHECK_TIMES = (0.0, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class CorayResult:
    """Outcome of the co-ray limit construction.

    ``lengths`` holds the transport distance from the start measure to
    each target section, ``start_offset`` the distance from the start to
    the ray's origin section (together they bound |length/t - 1|), and
    ``diagnostics`` an upper bound on the largest section movement
    between consecutive steps. ``converged`` distinguishes a stalled
    section family from an exhausted schedule; only a subsequence is
    guaranteed to converge in general, so exhaustion is reported rather
    than raised.
    """

    ray: RayMeasure
    schedule: tuple[float, ...]
    lengths: tuple[float, ...]
    start_offset: float
    diagnostics: tuple[float, ...]
    converged: bool


def construct_coray(
    mu: RayMeasure,
    nu0: DiscreteMeasure,
    schedule=None,
    test_times=None,
    tol: float = DEFAULT_TOL,
) -> CorayResult:
    """Build the co-ray from ``nu0`` to the unit-speed ray ``mu``.

    ``schedule`` is the strictly increasing sequence of finite positive
    target times (default 2, 4, ..., 65536); ``test_times`` the finite
    nonnegative evaluation times used for the convergence diagnostics, and
    ``tol`` the positive bound on the last step's diagnostic below
    which the construction counts as converged. Each is checked before any
    solve, and a bad one raises ``ValueError`` naming it.

    Every step's geodesic starts at nu0, and so does the step before's.
    Gluing the two plans at nu0's atoms (``_glued_movement``) couples their
    sections at every test time with no transport problem to solve, so a
    step's diagnostic is that coupling's cost, taken at the worst test
    time: an upper bound on the movement of the step's section family. At
    time 0 both sections are nu0 and the glued coupling moves nothing, so a
    test time of 0 adds 0.0 to each step's diagnostic (with no positive
    test time, every diagnostic is 0.0).

    Consecutive target sections are translates of one another with the
    same weights, and their optimal plan settles as the target time grows.
    So each step's coupling starts from the previous step's plan (the
    first from none): ``solve_ot`` returns a warm plan only when its
    weights match exactly and ``certify_support`` proves its support
    optimal on the new costs, and solves the transportation LP otherwise.
    """
    require_unit_speed(mu, "the co-ray construction")
    schedule = tuple(float(t) for t in (DEFAULT_SCHEDULE if schedule is None else schedule))
    test_times = tuple(
        float(t) for t in (DEFAULT_TEST_TIMES if test_times is None else test_times)
    )
    tol = float(tol)
    if len(schedule) < 2:
        raise ValueError("the target schedule needs at least two entries")
    # the comparisons are written so that NaN fails them too
    if not all(0.0 < t < np.inf for t in schedule):
        raise ValueError(f"schedule entries must be positive and finite, got {schedule}")
    if not all(a < b for a, b in zip(schedule, schedule[1:])):
        raise ValueError("the target schedule must be strictly increasing")
    if not test_times or not all(0.0 <= t < np.inf for t in test_times):
        raise ValueError(f"test times must be nonnegative and finite, got {test_times}")
    if not tol > 0.0:
        raise ValueError(f"convergence tolerance tol must be positive, got {tol}")
    start_offset = wasserstein_distance(nu0, ray_section(mu, 0.0), mu.p)
    # every step's time-0 section is nu0, so only positive times can move
    moving_times = np.array([tau for tau in test_times if tau > 0.0])
    lengths = []
    diagnostics = []
    coupling = None
    for t_n in schedule:
        previous = coupling
        # consecutive targets are translates with the same weights, so the
        # previous step's plan is the warm start of this one
        coupling = solve_ot(nu0, ray_section(mu, t_n), mu.p, warm=previous)
        lengths.append(coupling.cost)
        if previous is not None:
            diagnostics.append(_glued_movement(previous, coupling, moving_times))
    length = coupling.cost
    if length <= 0.0:
        raise ValueError("the final geodesic is degenerate; extend the schedule")
    origins = coupling.mu.atoms[coupling.left]
    targets = coupling.nu.atoms[coupling.right]
    velocities = (targets - origins) / length
    candidate = RayMeasure(origins, velocities, coupling.masses, mu.p)
    return CorayResult(
        ray=candidate,
        schedule=schedule,
        lengths=tuple(lengths),
        start_offset=start_offset,
        diagnostics=tuple(diagnostics),
        converged=diagnostics[-1] < tol,
    )


def _glued_movement(previous: Coupling, current: Coupling, times: np.ndarray) -> float:
    """Largest cost over ``times`` of a coupling between two steps' sections.

    Both plans run from nu0, lexicographic in (left, right), so the
    entries leaving each nu0 atom are contiguous in both. At every atom
    the two plans' entries are paired north-west on their raw masses: an
    entry of one plan meets the entries of the other in order, each pair
    taking the smaller remaining mass. An entry is paired only within its
    own atom, so a rounding-level remainder at the end of an atom's
    entries, where the two plans' sums differ in the last bits, is
    dropped rather than carried to the next atom (at p = 8 a mass of 1e-16
    carried across atoms 1 apart would add 1e-2). A plan that did not
    change pairs every entry with itself at its own mass.

    Sectioned at time tau, each pair couples the two entries' positions,
    clamped at their plan's length as ``section`` clamps a lift; the
    pairs' p-mean distance bounds the W_p distance of the two sections
    from above, up to the rounding-level mass dropped.
    """
    atoms_a, atoms_b = previous.left.tolist(), current.left.tolist()
    mass_a, mass_b = previous.masses.tolist(), current.masses.tolist()
    rows, cols, masses = [], [], []
    k = l = 0
    rest_a, rest_b = mass_a[0], mass_b[0]
    while True:
        if atoms_a[k] == atoms_b[l]:
            mass = min(rest_a, rest_b)
            rows.append(k)
            cols.append(l)
            masses.append(mass)
            rest_a -= mass
            rest_b -= mass
        # the other plan has left this atom: the remainder pairs with nothing
        elif atoms_a[k] < atoms_b[l]:
            rest_a = 0.0
        else:
            rest_b = 0.0
        if rest_a == 0.0:
            k += 1
            if k == len(atoms_a):
                break
            rest_a = mass_a[k]
        if rest_b == 0.0:
            l += 1
            if l == len(atoms_b):
                break
            rest_b = mass_b[l]
    gap = _positions(previous, rows, times) - _positions(current, cols, times)
    # np.linalg.norm's own formula, as for lift lengths
    distances = np.sqrt(np.add.reduce(gap * gap, axis=2))
    masses = np.array(masses)
    return max((p_mean(masses, row, current.p) for row in distances), default=0.0)


def _positions(plan: Coupling, entries: list[int], times: np.ndarray) -> np.ndarray:
    """Positions at each of ``times`` of the plan's entries on its lifted geodesic, (T, K, d).

    The geodesic runs at unit speed for the plan's cost and clamps at the
    end, with ``section``'s expression, so the positions have its bits.
    """
    starts = plan.mu.atoms[plan.left[entries]]
    ends = plan.nu.atoms[plan.right[entries]]
    if plan.cost == 0.0:
        return np.broadcast_to(starts, (len(times),) + starts.shape)
    moved = starts + (times / plan.cost)[:, None, None] * (ends - starts)
    return np.where((times >= plan.cost)[:, None, None], ends, moved)


def coray_exact(mu: RayMeasure, nu0: DiscreteMeasure) -> RayMeasure:
    """The co-ray from ``nu0`` to the unit-speed ray ``mu``, exactly.

    ``busemann_exact`` gives b(nu0) = -S(pi) for an optimal plan pi of the
    limiting transport problem, S(pi) = sum_ij pi_ij |v_j|^(p-2)
    <x_i - o_j, v_j>. The co-ray is the family of rays (x_i, v_j) weighted
    by pi_ij; its speed is 1, since sum_ij pi_ij |v_j|^p = sum_j w_j
    |v_j|^p. Its section nu_s carries the plan (x_i + s v_j, j) with value
    S(pi) + s, so b(nu_s) <= b(nu0) - s; and b is 1-Lipschitz, so
    b(nu0) - b(nu_s) <= W_p(nu0, nu_s) <= s. Hence b(nu_s) = b(nu0) - s
    exactly, and for r < s the same two bounds give W_p(nu_r, nu_s) =
    s - r: the family is a ray along which b falls at unit rate, with no
    schedule and no convergence flag. Raises ``busemann_exact``'s
    ``NotARayError`` when ``mu`` is not a ray.
    """
    plan = busemann_exact(mu, nu0)
    return RayMeasure(
        nu0.atoms[plan.left], mu.velocities[plan.right], plan.masses, mu.p
    )


@dataclass(frozen=True)
class GradientReport:
    """Unit-rate decrease of Busemann values along a candidate co-ray."""

    pairs: tuple[tuple[float, float], ...]
    residuals: tuple[float, ...]
    passed: bool


def coray_gradient_check(
    mu: RayMeasure,
    coray: RayMeasure,
    times=DEFAULT_CHECK_TIMES,
    tol: float = DEFAULT_CHECK_TOL,
) -> GradientReport:
    """Check b(nu_t) - b(nu_s) = s - t on all pairs from ``times``, within ``tol``."""
    require_unit_speed(mu, "the gradient check")
    require_unit_speed(coray, "the gradient check")
    times = sorted(float(t) for t in times)
    # written so that NaN fails the comparisons too
    if not all(0.0 <= t < np.inf for t in times):
        raise ValueError(f"check times must be nonnegative and finite, got {tuple(times)}")
    values = {t: busemann_exact(mu, ray_section(coray, t)).value for t in times}
    pairs = []
    residuals = []
    for s, t in itertools.combinations(times, 2):
        pairs.append((s, t))
        residuals.append(abs((values[t] - values[s]) - (s - t)))
    passed = all(residual <= tol for residual in residuals)
    return GradientReport(tuple(pairs), tuple(residuals), passed)


@dataclass(frozen=True)
class SubadditivityReport:
    """b_mu(lambda) <= b_coray(lambda) + b_mu(nu_0)."""

    lhs: float
    rhs: float
    margin: float
    passed: bool


def busemann_subadditivity_check(
    mu: RayMeasure,
    coray: RayMeasure,
    lam: DiscreteMeasure,
    tol: float = DEFAULT_CHECK_TOL,
) -> SubadditivityReport:
    """Check the co-ray subadditivity inequality at one probe measure, within ``tol``.

    The co-ray is used as a ray in its own right for the right-hand
    Busemann value.
    """
    require_unit_speed(mu, "the subadditivity check")
    require_unit_speed(coray, "the subadditivity check")
    lhs = busemann_exact(mu, lam).value
    rhs = busemann_exact(coray, lam).value + busemann_exact(mu, ray_section(coray, 0.0)).value
    margin = rhs - lhs
    return SubadditivityReport(lhs, rhs, margin, margin >= -tol)


@dataclass(frozen=True)
class SubrayReport:
    """Agreement between a reconstructed co-ray and the shifted original."""

    tau: float
    test_times: tuple[float, ...]
    section_gaps: tuple[float, ...]
    max_gap: float
    passed: bool


def subray_uniqueness_check(
    mu: RayMeasure,
    coray: RayMeasure,
    tau,
    test_times=None,
    tol: float = DEFAULT_CHECK_TOL,
) -> SubrayReport:
    """Rebuild the co-ray from the time-``tau`` section and compare.

    In a non-branching ambient space the subray is the unique co-ray from
    its own start, so ``coray_exact`` from that section must reproduce the
    shifted sections within ``tol``.
    """
    require_unit_speed(mu, "the subray check")
    require_unit_speed(coray, "the subray check")
    tau = float(tau)
    # written so that NaN fails the comparisons too
    if not 0.0 < tau < np.inf:
        raise ValueError(f"the subray shift tau must be positive and finite, got {tau}")
    times = tuple(
        float(t) for t in (DEFAULT_TEST_TIMES if test_times is None else test_times)
    )
    if not all(0.0 <= t < np.inf for t in times):
        raise ValueError(f"test times must be nonnegative and finite, got {times}")
    rebuilt = coray_exact(mu, ray_section(coray, tau))
    gaps = tuple(
        wasserstein_distance(ray_section(rebuilt, t), ray_section(coray, t + tau), mu.p)
        for t in times
    )
    max_gap = max(gaps)
    return SubrayReport(tau, times, gaps, max_gap, max_gap <= tol)


@dataclass(frozen=True)
class ViscosityReport:
    """Two-sided metric viscosity check for the Busemann function.

    ``probe_margins`` are W_p(nu_0, lambda) + b(lambda) - b(nu_0) per
    probe (nonnegative up to rounding); ``equality_residual`` measures how
    closely the co-ray section at time one attains the minimum.
    """

    probe_margins: tuple[float, ...]
    min_margin: float
    equality_residual: float
    passed: bool


def viscosity_check(
    mu: RayMeasure,
    nu0: DiscreteMeasure,
    probe_measures,
    tol: float = DEFAULT_CHECK_TOL,
) -> ViscosityReport:
    """Check b(nu_0) = min over lambda of W_p(nu_0, lambda) + b(lambda).

    The inequality side is sampled on the probe measures, where it holds
    exactly, so a margin may fall below zero only by ``CHECK_ATOL``; the
    equality side uses the section at time one of the exact co-ray from
    nu_0, where the minimum is attained, and allows ``tol``.
    """
    require_unit_speed(mu, "the viscosity check")
    base = busemann_exact(mu, nu0).value
    margins = [
        wasserstein_distance(nu0, lam, mu.p) + busemann_exact(mu, lam).value - base
        for lam in probe_measures
    ]
    lam_star = ray_section(coray_exact(mu, nu0), 1.0)
    residual = abs(
        base - (wasserstein_distance(nu0, lam_star, mu.p) + busemann_exact(mu, lam_star).value)
    )
    passed = all(margin >= -CHECK_ATOL for margin in margins) and residual <= tol
    return ViscosityReport(
        probe_margins=tuple(margins),
        min_margin=min(margins) if margins else np.inf,
        equality_residual=residual,
        passed=passed,
    )
