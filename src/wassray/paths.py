"""Probability measures on paths: geodesic lifts, ray measures, sections.

A geodesic between two discrete measures is carried by finitely many
constant-speed segments, one per entry of an optimal coupling; evaluating
every segment at a common time and pushing the weights forward gives the
interpolating measure at that time. Evaluation past the endpoint clamps
there, so sections are defined for all t >= 0 and a finite-length geodesic
extends to a curve on the whole half-line.

A ray measure is the half-line analogue: a weighted family of straight
ambient rays. Its sections form a curve of measures whose speed is the
p-mean of the per-ray speeds, computed on the first read of
``RayMeasure.speed`` and cached there; whether that curve is a genuine
ray (every induced pair coupling optimal) is exactly what
``validate_ray`` samples.
The Busemann truncation and the co-ray construction couple one measure to
section after section of a ray, starting from the time-0 section, and
both walk that chain with ``_plan_chain``. Its kept runs come from
``_kept_plan_lengths``: the leading later sections on which a plan's kept
basis stays certified, a chunk of them found at once; the first section
after a run is solved cold. Whether a plan's basis may be kept at all is
``ot._kept_basis``, the one rule, which the CLI's default ``busemann``
follows too when it takes the exact Busemann limit (the chain's member
at t = infinity) from the time-0 plan; every other solve is cold.

Lifts and rays are checked by ``measures._checked_weighted``, as measures
are, through ``_checked_family``, and frozen by ``measures._frozen`` in
``_checked_lift`` and ``_checked_ray``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    MarginalMismatchError,
    NonOptimalCouplingError,
    UnitSpeedError,
)
from .measures import (
    DiscreteMeasure,
    _checked_measure,
    _checked_weighted,
    _distinct_rows,
    _frozen,
    _pooled_pair,
    as_point,
    merge_atoms,
)
from .ot import (
    Coupling,
    _certified_prefix,
    _distance_limit,
    _entry_p_mean,
    _kept_basis,
    _leading,
    _lengths,
    _segment_cost,
    check_exponent,
    p_mean,
    pairwise_distances,
    solve_ot,
    wasserstein_distance,
)

OPTIMALITY_RTOL = 1e-8
LENGTH_RTOL = 1e-10
GLUE_WEIGHT_ATOL = 1e-9
UNIT_SPEED_ATOL = 1e-9
VALIDATION_GAP_RTOL = 1e-7
VALIDATION_SPEED_ATOL = 1e-7
DEFAULT_VALIDATION_PAIRS = ((0.0, 1.0), (0.0, 2.0), (1.0, 3.0), (0.0, 10.0))
# the times a schedule's first stacked pass prices; more than Busemann's
# default 25, so a default schedule is one pass
FIRST_CHUNK = 32


def _family_arrays(first, second, weights):
    """Convert a family's input to fresh float64 arrays: (n, d), (n, d) and (n,).

    The conversion ``GeodesicLift`` and ``RayMeasure`` run before
    ``_checked_family``. A flat coordinate list is one member; an empty
    one is a family without members, not one member in R^0.
    """
    first, second = (np.array(arr, dtype=float) for arr in (first, second))
    if first.shape == second.shape == (0,):
        first, second = first.reshape(0, 0), second.reshape(0, 0)
    weights = np.atleast_1d(np.array(weights, dtype=float))
    return np.atleast_2d(first), np.atleast_2d(second), weights


def _checked_family(first, second, weights, p, item, arrays):
    """Check and freeze the float64 arrays of a segment or ray family.

    What a measure lacks: the array pair sharing one shape, named by
    ``arrays``, and ``check_exponent``. Every other check, and the drop of
    zero-mass members, is ``measures._checked_weighted``'s, with ``item``
    naming a member. The public constructors convert and copy their input
    with ``_family_arrays`` first; lifts the library builds from a checked
    coupling's entries (``lift_geodesic``) and rays read from a file
    (``io``) skip only that conversion.
    """
    if first.shape != second.shape:
        raise ValueError(f"{arrays} arrays must have the same shape")
    first, second, weights = _checked_weighted(first, second, weights, item, f"{item} family")
    return first, second, weights, check_exponent(p)


@dataclass(frozen=True, eq=False)
class GeodesicLift:
    """Weighted constant-speed segments carrying a geodesic of measures.

    The curve parameter runs over [0, length] at unit speed; ``length``
    must equal the transport cost of the endpoint coupling formed by the
    segments (checked to 1e-10). Zero-mass segments are dropped.
    """

    starts: np.ndarray
    ends: np.ndarray
    weights: np.ndarray
    p: float
    length: float

    def __post_init__(self):
        starts, ends, weights = _family_arrays(self.starts, self.ends, self.weights)
        _checked_lift(starts, ends, weights, self.p, self.length, self)

    @property
    def dim(self) -> int:
        return self.starts.shape[1]


def _checked_lift(starts, ends, weights, p, length, lift=None) -> GeodesicLift:
    """Run every ``GeodesicLift`` check on float64 arrays and freeze them into a lift.

    The public constructor converts its input, then calls this with itself
    as ``lift``; ``lift_geodesic`` calls it with no ``lift``. ``_frozen``
    writes the fields.
    """
    starts, ends, weights, p = _checked_family(
        starts, ends, weights, p, "segment", "start and end"
    )
    length = float(length)
    cost = _segment_cost(starts, ends, weights, p)
    if abs(length - cost) > LENGTH_RTOL * max(1.0, cost):
        raise ValueError(
            f"length {length!r} does not equal the endpoint transport cost {cost!r}"
        )
    fields = {"starts": starts, "ends": ends, "weights": weights, "p": p, "length": length}
    return _frozen(lift, GeodesicLift, fields)


def lift_geodesic(pi: Coupling) -> GeodesicLift:
    """Lift an optimal coupling to its displacement geodesic.

    Lifting a non-optimal coupling does not produce a geodesic, and every
    downstream check would silently test nothing, so ``pi`` must be
    optimal. A plan that kept a basis is lifted as it is: only
    ``solve_ot`` sets one, on the simplex plans and single-atom stars it
    solved on ``pi``'s own instance, and solving that instance again
    gives the same bits, so a comparison could not fail. Any other
    coupling (an assignment or identity plan, or one built by hand)
    proves itself against a cold ``solve_ot(pi.mu, pi.nu, pi.p)``: it is
    rejected when its cost exceeds that reference by more than 1e-8
    relative. The test is one-sided: a plan cheaper than the reference
    is no worse than it, so it is lifted, as where the simplex's
    certificate is coarser than the costs at high p. A zero-cost coupling
    lifts to constant paths. An off-support d**p that overflows raises
    ``CostOverflowError`` in that solve. The lift has the public
    constructor's checks and bits; its weights are the coupling's own
    read-only ``masses``.
    """
    if pi._basis is None:
        reference = solve_ot(pi.mu, pi.nu, pi.p)
        if pi.cost - reference.cost > OPTIMALITY_RTOL * max(1.0, reference.cost):
            raise NonOptimalCouplingError(
                f"coupling cost {pi.cost!r} exceeds the optimal cost {reference.cost!r}"
            )
    return _checked_lift(pi.mu.atoms[pi.left], pi.nu.atoms[pi.right], pi.masses, pi.p, pi.cost)


def section(lift: GeodesicLift, t) -> DiscreteMeasure:
    """Measure at time t of a lifted geodesic, clamping at the endpoint.

    Times past the length evaluate at the endpoint, so sections for
    t >= length all equal the right marginal exactly. Atoms landing on the
    same position are pooled.
    """
    t = float(t)
    # written so that NaN fails; t = inf clamps to the endpoint
    if not t >= 0.0:
        raise ValueError(f"section time t must be nonnegative, got {t}")
    if t == 0.0 or lift.length == 0.0:
        positions = lift.starts
    elif t >= lift.length:
        positions = lift.ends
    else:
        positions = lift.starts + (t / lift.length) * (lift.ends - lift.starts)
    return _checked_measure(*merge_atoms(positions, lift.weights))


@dataclass(frozen=True, eq=False)
class RayMeasure:
    """Weighted family of straight ambient rays with a common order p.

    ``speed`` is (sum of w |v|**p) ** (1/p), computed on its first read
    and cached (a ``CostOverflowError`` there is raised again on the next
    read, not cached); when every induced pair coupling is optimal, the
    sections trace a ray of measures with exactly that speed. Zero-mass
    rays are dropped on construction.
    """

    origins: np.ndarray
    velocities: np.ndarray
    weights: np.ndarray
    p: float

    def __post_init__(self):
        _checked_ray(*_family_arrays(self.origins, self.velocities, self.weights), self.p, self)

    @functools.cached_property
    def speed(self) -> float:
        return p_mean(self.weights, _lengths(self.velocities), self.p)

    @property
    def dim(self) -> int:
        return self.origins.shape[1]

    def positions(self, t: float) -> np.ndarray:
        """Positions at time t of every ray, one row each; t must be in [0, inf)."""
        t = float(t)
        # written so that NaN fails the comparisons too
        if not 0.0 <= t < np.inf:
            raise ValueError(f"ray time t must be nonnegative and finite, got {t}")
        if t == 0.0:
            return self.origins.copy()
        return self.origins + t * self.velocities

    def __len__(self) -> int:
        return self.origins.shape[0]


def _checked_ray(origins, velocities, weights, p, ray=None) -> RayMeasure:
    """Run every ``RayMeasure`` check on float64 arrays and freeze them into a ray.

    The public constructor converts and copies its input, then calls this
    with itself as ``ray``; ``io`` calls it with no ``ray`` on the fresh
    arrays it has just read. ``_frozen`` writes the fields.
    """
    origins, velocities, weights, p = _checked_family(
        origins, velocities, weights, p, "ray", "origin and velocity"
    )
    fields = {"origins": origins, "velocities": velocities, "weights": weights, "p": p}
    return _frozen(ray, RayMeasure, fields)


def require_unit_speed(ray: RayMeasure, what: str = "this operation") -> None:
    if abs(ray.speed - 1.0) > UNIT_SPEED_ATOL:
        raise UnitSpeedError(f"{what} needs a unit-speed ray, got speed {ray.speed!r}")


def ray_section(ray: RayMeasure, t) -> DiscreteMeasure:
    """Measure at time t of a ray family: the law of the random ray position.

    ``RayMeasure.positions`` checks t: 0 <= t < inf, else ``ValueError``.
    """
    return _checked_measure(*merge_atoms(ray.positions(t), ray.weights))


def _kept_plan_lengths(ray: RayMeasure, plan: Coupling, times):
    """Lengths of the leading steps at ``times`` that keep ``plan``'s certified basis, and targets.

    ``plan`` is a coupling from a measure nu0 to a section of ``ray``, and
    ``times`` are later positive times of the ray. The run is the leading
    times t at which ``plan``'s entries, from nu0 to
    ``ray_section(ray, t)``, are a certified optimal plan on ``plan``'s
    basis, found for all of them at once:

    - ``ot._kept_basis`` returns the plan's basis for the ray's weights:
      a simplex plan's or a single-atom plan's star, on a section with the
      ray's weights, and never where ``solve_ot`` would ask the assignment
      solver (nu0 with the ray's weights, past a single atom);
    - the target's positions are finite and ``_distinct_rows``: no two
      of them are one atom, so the section is the positions with the
      ray's weights, byte for byte;
    - no distance from nu0 reaches ``_distance_limit``;
    - the basis passes ``_certified_prefix`` on the target's costs, which
      passes a star unseen.

    The first target that fails one of these ends the run; ``_plan_chain``
    solves it cold, so it meets every branch and error of ``solve_ot``.
    Each length is ``_entry_p_mean`` of the entries' d**p, gathered from
    one ``pairwise_distances`` matrix of all the targets, as ``solve_ot``
    takes a plan's cost from its cost matrix, so it has that cost's bits.
    Returns the run's lengths and its targets' positions,
    (count, len(ray), d), or ``([], None)`` for an empty run.
    """
    basis = _kept_basis(plan, ray.weights)
    if not times or basis is None:
        return [], None
    nu0, p = plan.mu, ray.p
    # every target's ``RayMeasure.positions`` at once; a non-finite one ends
    # the run before it, and its own solve warns and raises as before
    with np.errstate(over="ignore", invalid="ignore"):
        positions = ray.origins + np.array(times)[:, None, None] * ray.velocities
    count = _leading(np.isfinite(positions).all(axis=(1, 2)) & _distinct_rows(positions))
    if count:
        m, n = len(nu0), len(ray)
        flat = pairwise_distances(nu0.atoms, positions[:count].reshape(count * n, -1))
        distances = flat.reshape(m, count, n).transpose(1, 0, 2)
        # NaN and inf fail the comparison, so a non-finite target ends the run
        count = _leading(distances.max(axis=(1, 2)) < _distance_limit(p))
        costs = distances[:count] ** p
        count = _certified_prefix(costs, basis)
    if not count:
        return [], None
    return _entry_p_mean(plan.masses, costs[:count, plan.left, plan.right], p), positions[:count]


def _plan_chain(ray: RayMeasure, nu0: DiscreteMeasure, plan: Coupling, times):
    """The plans from ``nu0`` to the sections of ``ray`` at ``times``, run by run.

    ``plan`` couples nu0 to an earlier section, the time-0 one for both
    schedules, and ``times`` are increasing positive times. Yields runs
    ``(plan, run_times, lengths, positions)`` lazily, so a caller that
    stops makes no later solve. A kept run is ``_kept_plan_lengths`` on
    the next chunk of times at once: ``plan`` is the step before's
    coupling, whose entries are kept at ``run_times``, with their
    ``lengths`` there and the targets' ``positions``. A chunk holds
    ``FIRST_CHUNK`` times and doubles after each one kept whole, which
    goes on from the same plan as another run, so the work stays in
    proportion to the steps a caller takes, not to the times it offers.
    The first time after a run that ends early is a cold ``solve_ot``,
    yielded as a run of one with its own plan and ``positions=None``, and
    its plan is carried on.
    """
    k, chunk = 0, FIRST_CHUNK
    while k < len(times):
        lengths, positions = _kept_plan_lengths(ray, plan, times[k : k + chunk])
        if lengths:
            yield plan, times[k : k + len(lengths)], lengths, positions
            k += len(lengths)
        if len(lengths) == chunk:
            chunk *= 2
        elif k < len(times):
            plan = solve_ot(nu0, ray_section(ray, times[k]), ray.p)
            yield plan, times[k : k + 1], [plan.cost], None
            k += 1


def _velocity(velocity) -> np.ndarray:
    """A ray builder's velocity: ``as_point``'s finite vector, and nonzero."""
    v = as_point(velocity)
    if not v.any():
        raise ValueError("a ray needs a nonzero velocity")
    return v


def make_dirac_ray(origin, velocity, p=2.0) -> RayMeasure:
    """Single-ray family: the point embedding of an ambient ray."""
    o = as_point(origin)
    v = _velocity(velocity)
    return RayMeasure(o[None, :], v[None, :], np.ones(1), p)


def make_translation_ray(mu0: DiscreteMeasure, velocity, p=2.0) -> RayMeasure:
    """Every atom of mu0 moving with one shared velocity.

    The sections are translates of mu0, and translation couplings are
    optimal, so this always yields a genuine ray (validate_ray confirms).
    """
    v = _velocity(velocity)
    if v.size != mu0.dim:
        raise DimensionMismatchError(
            f"velocity has dimension {v.size}, measure has {mu0.dim}"
        )
    velocities = np.tile(v, (len(mu0), 1))
    return RayMeasure(mu0.atoms, velocities, mu0.weights, p)


def _time_pair(pair) -> tuple[float, float]:
    """A pair of ray times as floats, checked: two of them, 0 <= t1 < t2 < inf, which NaN fails.

    Anything else, an entry that is not two numbers included, raises the
    one ``ValueError``, naming the entry.
    """
    try:
        shown = t1, t2 = tuple(float(t) for t in pair)
    except (TypeError, ValueError):
        shown, t1, t2 = pair, np.nan, np.nan
    if not 0.0 <= t1 < t2 < np.inf:
        raise ValueError(f"time pairs need 0 <= t1 < t2 < inf, got {shown}")
    return t1, t2


def restrict_to_geodesic(ray: RayMeasure, t1, t2) -> GeodesicLift:
    """The segment family of a ray between two times, as a geodesic lift.

    For a validated ray this is a genuine lift: its endpoint coupling is
    optimal and its length is (t2 - t1) times the ray speed.
    """
    t1, t2 = _time_pair((t1, t2))
    starts = ray.positions(t1)
    ends = ray.positions(t2)
    length = _segment_cost(starts, ends, ray.weights, ray.p)
    return GeodesicLift(starts, ends, ray.weights, ray.p, length)


@dataclass(frozen=True)
class RayValidationReport:
    """Sampled optimality evidence that a ray family is a ray of measures.

    Only the listed time pairs were checked; a finite sample cannot certify
    the every-pair property, so callers needing more coverage should pass
    additional pairs.
    """

    pairs: tuple[tuple[float, float], ...]
    gaps: tuple[float, ...]
    relative_gaps: tuple[float, ...]
    speed_residuals: tuple[float, ...]
    passed: bool


def validate_ray(ray: RayMeasure, time_pairs=()) -> RayValidationReport:
    """Check that induced pair couplings are optimal at sampled time pairs.

    For each pair (t1, t2) the coupling induced by following the rays is
    compared against a fresh optimal solve between the two sections; the
    ray property demands a zero gap and section distance (t2 - t1) * speed.
    Default pairs are used in addition to any caller-supplied ones.
    """
    pairs = DEFAULT_VALIDATION_PAIRS + tuple(_time_pair(pair) for pair in time_pairs)
    k = ray.speed
    gaps = []
    rel_gaps = []
    speed_residuals = []
    for t1, t2 in pairs:
        induced = _segment_cost(ray.positions(t1), ray.positions(t2), ray.weights, ray.p)
        optimal = wasserstein_distance(ray_section(ray, t1), ray_section(ray, t2), ray.p)
        gap = induced - optimal
        if optimal > 0.0:
            rel = gap / optimal
        else:
            rel = 0.0 if gap <= 1e-12 else np.inf
        gaps.append(gap)
        rel_gaps.append(rel)
        speed_residuals.append(abs(optimal - (t2 - t1) * k))
    passed = all(r <= VALIDATION_GAP_RTOL for r in rel_gaps) and all(
        s <= VALIDATION_SPEED_ATOL for s in speed_residuals
    )
    return RayValidationReport(
        pairs, tuple(gaps), tuple(rel_gaps), tuple(speed_residuals), passed
    )


def glue(alpha: GeodesicLift, beta: Coupling) -> list[tuple[int, int, float]]:
    """Join a lift to a coupling continuing from its endpoint measure.

    Requires the endpoint marginal of ``alpha`` to equal the left marginal
    of ``beta`` as measures (same position keys, weights within 1e-9).
    Conditional decomposition: a segment ending at position z receives the
    fraction weight / mass(z) of every ``beta`` entry leaving z, segments
    sharing an endpoint position being pooled. The first projection of the
    result recovers alpha's weights exactly; the (endpoint, partner)
    projection recovers beta up to the marginal match.

    Returns (segment index, right atom index, mass) triples sorted
    lexicographically.
    """
    if alpha.dim != beta.mu.dim:
        raise DimensionMismatchError(
            f"lift has dimension {alpha.dim}, coupling {beta.mu.dim}"
        )
    pooled = _pooled_pair(alpha.ends, alpha.weights, beta.mu.atoms[beta.left], beta.masses)
    if pooled is None:
        raise MarginalMismatchError(
            "endpoint marginal of the lift and left marginal of the coupling "
            "sit on different positions"
        )
    owner, first, alpha_mass, beta_mass = pooled
    for key, k in first.items():
        gap = abs(alpha_mass[k] - beta_mass[k])
        if gap > GLUE_WEIGHT_ATOL:
            raise MarginalMismatchError(f"marginal weights differ by {gap:.3e} at position {key}")
    n, width = len(alpha.ends), len(beta.nu)
    ends = np.array(owner[:n])
    # beta's (endpoint position, partner) cells, row-major, masses added in entry order
    cells, cell_of = np.unique(np.multiply(owner[n:], width) + beta.right, return_inverse=True)
    cell_mass = np.bincount(cell_of, weights=beta.masses)
    # each segment takes its position's row of cells: sorted by segment, then partner
    start = np.searchsorted(cells, ends * width)
    count = np.searchsorted(cells, (ends + 1) * width) - start
    segments = np.repeat(np.arange(n), count)
    taken = np.arange(len(segments)) + np.repeat(start - np.cumsum(count) + count, count)
    mass = (alpha.weights / beta_mass[ends])[segments] * cell_mass[taken]
    keep = mass > 0.0
    partners = cells[taken[keep]] % width
    return list(zip(segments[keep].tolist(), partners.tolist(), mass[keep].tolist()))
