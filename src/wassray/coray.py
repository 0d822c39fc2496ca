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
consecutive steps shows the section family no longer moving. The plans
form one chain from the start offset's time-0 plan, as the Busemann
truncation's start from its lower bound (``paths._plan_chain``): the
basis a plan kept (the simplex's, or a single-atom plan's star) is
certified on a chunk of the remaining targets at once, the leading run of
targets it holds on is taken with no solve at all, and the first target
after a run is solved cold. The final coupling's segments,
reparameterized to unit speed and extended to straight rays, form the
candidate limit: in R^d the segment directions of the approximating
geodesics are the natural estimator of the limit ray's atoms. When
optimal couplings are non-unique the deterministic solver follows one
branch; the diagnostics and the theorem checks below, not the atom list
itself, are the evidence that the output is a co-ray.

The checks take a candidate co-ray: the gradient identity (Busemann values
decrease at unit rate along a co-ray, decided by the widest pair of times),
subadditivity of Busemann functions across a co-ray relation, uniqueness
of the co-ray continuing a subray (R^d is non-branching; rebuilt with
``coray_exact``), and the metric viscosity identity at the candidate's
time-1 section. They read Busemann values from ``busemann_exact``, so each
gate is its bare tolerance: no truncation slack, schedule or convergence
flag enters, and a candidate from ``construct_coray`` is compared with the
exact limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .busemann import busemann_exact
from .measures import DiscreteMeasure, _array_max
from .ot import (
    Coupling,
    _check_distances,
    _checked_coupling,
    _lengths,
    solve_ot,
    wasserstein_distance,
)
from .paths import RayMeasure, _plan_chain, ray_section, require_unit_speed

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

    Consecutive target sections share the ray's weights, and their
    optimal plan settles as the target time grows. So the steps chain on
    from the start offset's plan, nu0 to the time-0 section
    (``paths._plan_chain``): one stacked pass certifies the basis a plan
    kept on a chunk of the remaining targets at once, the leading run of
    targets on which the simplex's own optimality test holds on that
    basis, or, for a single atom's plan, whose star keeps it whatever the
    costs.
    Those steps make no ``solve_ot`` call; they keep the plan, with the
    lengths of the kept entries on each target and, each entry paired with
    itself, their diagnostics (``_movements``), bit for bit. The first
    target after a run is solved cold, so it meets every branch and error
    of ``solve_ot``. The time-0 plan only starts the chain: its glue to
    the first target is not a diagnostic, so there are len(schedule) - 1
    of them. From a single atom to a single-atom ray the start offset is
    the only solve.
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
    plan = solve_ot(nu0, ray_section(mu, 0.0), mu.p)
    start_offset = plan.cost
    # every step's time-0 section is nu0, so only positive times can move
    moving_times = np.array([tau for tau in test_times if tau > 0.0])
    lengths = []
    diagnostics = []
    coupling = None  # the step before's, and None before the first target
    for plan, times, run_lengths, positions in _plan_chain(mu, nu0, plan, schedule):
        if positions is None:
            if coupling is not None:
                diagnostics.append(_glued_movement(coupling, plan, moving_times))
            coupling = plan
        else:
            # a kept run of ``plan``, whose entries the step before's
            # coupling has: each entry pairs with itself from step to step,
            # and the time-0 plan's glue to the first target is no diagnostic
            left, right, masses = plan.left, plan.right, plan.masses
            ends, costs = positions[:, right], run_lengths
            if coupling is not None:
                ends = np.concatenate((coupling.nu.atoms[right][None], ends))
                costs = [coupling.cost] + costs
            diagnostics += _movements(
                nu0.atoms[left], ends, np.array(costs), masses, moving_times, mu.p
            )
            coupling = _checked_coupling(
                nu0, ray_section(mu, times[-1]), left, right, masses, mu.p, cost=run_lengths[-1]
            )
        lengths += run_lengths
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
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    # a pair's two entries leave the same nu0 atom
    starts = previous.mu.atoms[previous.left[rows]]
    ends = np.stack((previous.nu.atoms[previous.right[rows]], current.nu.atoms[current.right[cols]]))
    lengths = np.array([previous.cost, current.cost])
    return _movements(starts, ends, lengths, np.array(masses), times, current.p)[0]


def _movements(starts, ends, lengths, masses, times: np.ndarray, p: float) -> list[float]:
    """Movement bounds between consecutive plans of a stack of S plans with paired entries.

    The K pairs start at ``starts`` (K, d) and carry ``masses`` (K,); in
    plan s they end at ``ends[s]`` (S, K, d), on a geodesic of cost
    ``lengths[s]``. The pairs' distances at each of ``times`` are
    ``ot._lengths``, as lift lengths are, checked by ``_check_distances``
    before any power. The bound from plan s to plan s + 1 is the largest
    over ``times`` of the pairs' p-mean distance: each row summed along a
    C-contiguous axis as ``p_mean``'s 1-D sum, and the 1/p root of the
    largest sum taken on a Python float, since x ** (1/p) rises with x.
    Returns S - 1 floats, all 0.0 when ``times`` is empty.
    """
    if not len(times) or len(ends) == 1:
        return [0.0] * (len(ends) - 1)
    positions = _positions(starts, ends, lengths, times)
    gap = positions[:-1] - positions[1:]
    distances = _lengths(gap)
    _check_distances(_array_max(distances), p)
    sums = np.add.reduce(masses * distances**p, axis=2)
    return [s ** (1.0 / p) for s in sums.max(axis=1).tolist()]


def _positions(starts: np.ndarray, ends: np.ndarray, lengths: np.ndarray, times: np.ndarray):
    """Positions at each of ``times`` of the entries of a stack of S plans, (S, T, K, d).

    Plan s's entries run from ``starts`` (K, d) to ``ends[s]`` on its lifted
    geodesic, which runs at unit speed for the plan's cost ``lengths[s]``
    and clamps at the end, with ``section``'s expression, so the positions
    have its bits. A plan of cost 0 stays at its starts.
    """
    length = lengths[:, None]
    still = length == 0.0
    fraction = times / np.where(still, 1.0, length)
    moved = starts + fraction[:, :, None, None] * (ends - starts)[:, None]
    arrived = (times >= length) & ~still
    moved = np.where(arrived[:, :, None, None], ends[:, None], moved)
    return np.where(still[:, :, None, None], starts, moved)


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
    schedule and no convergence flag. The Lipschitz bound needs ``mu`` to
    be a ray, which is not checked: ``NotARayError`` comes only from
    ``busemann_exact``'s non-ray guard, the value against -W_p(nu0, mu_0),
    which solves that distance only when the mean bound
    (``busemann.distance_floor``) leaves the verdict open. The crossing
    family (origins 0 and 10, velocities 1 and -1) passes it from the
    Dirac at 0.5, though it fails ``validate_ray``. ROADMAP item 7 is the
    exact ray certificate.
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
    """Check b(nu_t) - b(nu_s) = s - t for the widest pair of ``times``, within ``tol``.

    Let h(s) = s + b(nu_s) - b(nu_0) along the unit-speed candidate. By
    ``busemann_exact``, -b(nu_s) is the largest over plans pi of S_s(pi),
    and each S_s(pi) is affine in s with slope at most speed(coray) *
    speed(mu) = 1 (Hölder), so h is nondecreasing. The residual of a pair
    s < t is h(t) - h(s), largest for the widest pair: this one pair
    decides the identity on all of ``times``, with two solves. ``times``
    needs two distinct nonnegative finite entries.
    """
    require_unit_speed(mu, "the gradient check")
    require_unit_speed(coray, "the gradient check")
    times = tuple(float(t) for t in times)
    # written so that NaN fails the comparisons too
    if not all(0.0 <= t < np.inf for t in times) or len(set(times)) < 2:
        raise ValueError(f"need two distinct nonnegative finite check times, got {times}")
    s, t = min(times), max(times)
    values = {u: busemann_exact(mu, ray_section(coray, u)).value for u in (s, t)}
    residual = abs((values[t] - values[s]) - (s - t))
    return GradientReport(((s, t),), (residual,), residual <= tol)


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
    """Metric viscosity identity at a candidate co-ray's time-1 section."""

    equality_residual: float
    passed: bool


def viscosity_check(
    mu: RayMeasure,
    coray: RayMeasure,
    tol: float = DEFAULT_CHECK_TOL,
) -> ViscosityReport:
    """Check b(nu_0) = W_p(nu_0, nu_1) + b(nu_1) on a candidate's sections, within ``tol``.

    On a co-ray, nu_1 attains min over lambda of W_p(nu_0, lambda) +
    b(lambda), whose lower side is ``lipschitz_check``'s. The residual is
    W_p(nu_0, nu_1) + h(1) - 1, h as in ``coray_gradient_check``: at least
    0 as b is 1-Lipschitz, and at most h(1) up to the speed tolerance, as
    W_p(nu_0, nu_1) <= 1.
    """
    require_unit_speed(mu, "the viscosity check")
    require_unit_speed(coray, "the viscosity check")
    start, later = ray_section(coray, 0.0), ray_section(coray, 1.0)
    value, later_value = (busemann_exact(mu, nu).value for nu in (start, later))
    residual = abs(value - (wasserstein_distance(start, later, mu.p) + later_value))
    return ViscosityReport(residual, residual <= tol)
