"""Probability measures on paths: geodesic lifts, ray measures, sections.

A geodesic between two discrete measures is carried by finitely many
constant-speed segments, one per entry of an optimal coupling; evaluating
every segment at a common time and pushing the weights forward gives the
interpolating measure at that time. Evaluation past the endpoint clamps
there, so sections are defined for all t >= 0 and a finite-length geodesic
extends to a curve on the whole half-line.

A ray measure is the half-line analogue: a weighted family of straight
ambient rays. Its sections form a curve of measures whose speed is the
p-mean of the per-ray speeds; whether that curve is a genuine ray (every
induced pair coupling optimal) is exactly what ``validate_ray`` samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyMeasureError,
    MarginalMismatchError,
    NonOptimalCouplingError,
    UnitSpeedError,
)
from .measures import DiscreteMeasure, _checked_measure, as_point, merge_atoms, position_key
from .ot import (
    Coupling,
    _cost_matrix,
    certify_support,
    check_exponent,
    p_mean,
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


def _segment_cost(starts, ends, weights, p) -> float:
    diff = ends - starts
    # np.linalg.norm(diff, axis=1)'s own formula, so lengths keep its bits
    return p_mean(weights, np.sqrt(np.add.reduce(diff * diff, axis=1)), p)


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


def _checked_family(first, second, weights, p, item, arrays, data):
    """Check and freeze the float64 arrays of a segment or ray family.

    The one implementation of the checks ``GeodesicLift`` and
    ``RayMeasure`` share, in their order; ``item``, ``arrays`` and ``data``
    name a member, the array pair and its coordinates in the messages. The
    public constructors convert and copy their input with
    ``_family_arrays`` first; lifts the library builds from a checked
    coupling's entries (``_lift_entries``) skip only that conversion.
    Zero-mass members are dropped; the arrays kept are made read-only in
    place.
    """
    if first.shape != second.shape:
        raise ValueError(f"{arrays} arrays must have the same shape")
    if first.ndim != 2:
        raise ValueError(f"{item}s must form an (n, d) array pair, got shape {first.shape}")
    if first.shape[0] == 0:
        raise EmptyMeasureError(f"a {item} family needs at least one {item}")
    if first.shape[1] == 0:
        raise ValueError("ambient dimension must be at least 1")
    if weights.shape != (first.shape[0],):
        raise ValueError(f"one weight per {item} required")
    # min and max propagate NaN, so these comparisons fail on NaN and inf alike
    if not (
        -np.inf < np.minimum.reduce(first, axis=None)
        and np.maximum.reduce(first, axis=None) < np.inf
        and -np.inf < np.minimum.reduce(second, axis=None)
        and np.maximum.reduce(second, axis=None) < np.inf
    ):
        raise ValueError(f"{data} must be finite")
    low = np.minimum.reduce(weights)
    if not (0.0 <= low and np.maximum.reduce(weights) < np.inf):
        raise ValueError(f"{item} weights must be finite and nonnegative")
    if low == 0.0:
        keep = weights > 0.0
        first, second, weights = first[keep], second[keep], weights[keep]
        if first.shape[0] == 0:
            raise EmptyMeasureError(f"every {item} has zero mass")
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValueError(f"{item} weights must sum to 1")
    p = check_exponent(p)
    for arr in (first, second, weights):
        arr.setflags(write=False)
    return first, second, weights, p


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
    as ``lift``; ``_lift_entries`` calls it with no ``lift``.
    """
    starts, ends, weights, p = _checked_family(
        starts, ends, weights, p, "segment", "start and end", "segment endpoints"
    )
    length = float(length)
    cost = _segment_cost(starts, ends, weights, p)
    if abs(length - cost) > LENGTH_RTOL * max(1.0, cost):
        raise ValueError(
            f"length {length!r} does not equal the endpoint transport cost {cost!r}"
        )
    if lift is None:
        lift = object.__new__(GeodesicLift)
    object.__setattr__(lift, "starts", starts)
    object.__setattr__(lift, "ends", ends)
    object.__setattr__(lift, "weights", weights)
    object.__setattr__(lift, "p", p)
    object.__setattr__(lift, "length", length)
    return lift


def _lift_entries(pi: Coupling) -> GeodesicLift:
    """The segments of a checked coupling's entries, as a lift.

    The same checks as ``GeodesicLift(pi.mu.atoms[pi.left],
    pi.nu.atoms[pi.right], pi.masses, pi.p, pi.cost)``, with the same
    result bits, skipping only the conversion: the endpoint arrays are
    fresh float64 gathers, and the lift's weights are the coupling's own
    read-only ``masses``.
    """
    return _checked_lift(
        pi.mu.atoms[pi.left], pi.nu.atoms[pi.right], pi.masses, pi.p, pi.cost
    )


def lift_geodesic(pi: Coupling) -> GeodesicLift:
    """Lift an optimal coupling to its displacement geodesic.

    Lifting a non-optimal coupling does not produce a geodesic, and every
    downstream check would silently test nothing, so ``pi`` must prove
    itself: it is accepted when ``certify_support`` certifies its support
    on its own cost matrix, and otherwise the instance is re-solved and
    ``pi`` is rejected when its cost is not optimal within 1e-8 relative.
    A zero-cost coupling lifts to constant paths. The cost matrix is the
    one ``solve_ot`` builds, so an off-support d**p that overflows raises
    ``CostOverflowError`` there too, rather than making the certificate's
    tolerance infinite.
    """
    cost_matrix = _cost_matrix(pi.mu.atoms, pi.nu.atoms, pi.p)
    if not certify_support(pi.left, pi.right, cost_matrix):
        reference = solve_ot(pi.mu, pi.nu, pi.p)
        if abs(pi.cost - reference.cost) > OPTIMALITY_RTOL * max(1.0, reference.cost):
            raise NonOptimalCouplingError(
                f"coupling cost {pi.cost!r} exceeds the optimal cost {reference.cost!r}"
            )
    return _lift_entries(pi)


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

    ``speed`` is (sum of w |v|**p) ** (1/p); when every induced pair
    coupling is optimal, the sections trace a ray of measures with exactly
    that speed. Zero-mass rays are dropped on construction.
    """

    origins: np.ndarray
    velocities: np.ndarray
    weights: np.ndarray
    p: float

    def __post_init__(self):
        origins, velocities, weights, p = _checked_family(
            *_family_arrays(self.origins, self.velocities, self.weights), self.p,
            "ray", "origin and velocity", "ray data",
        )
        object.__setattr__(self, "origins", origins)
        object.__setattr__(self, "velocities", velocities)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "p", p)

    @property
    def speed(self) -> float:
        return p_mean(self.weights, np.linalg.norm(self.velocities, axis=1), self.p)

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


def require_unit_speed(ray: RayMeasure, what: str = "this operation") -> None:
    if abs(ray.speed - 1.0) > UNIT_SPEED_ATOL:
        raise UnitSpeedError(f"{what} needs a unit-speed ray, got speed {ray.speed!r}")


def ray_section(ray: RayMeasure, t) -> DiscreteMeasure:
    """Measure at time t of a ray family: the law of the random ray position.

    ``RayMeasure.positions`` checks t: 0 <= t < inf, else ``ValueError``.
    """
    return _checked_measure(*merge_atoms(ray.positions(t), ray.weights))


def make_dirac_ray(origin, velocity, p=2.0) -> RayMeasure:
    """Single-ray family: the point embedding of an ambient ray."""
    o = as_point(origin)
    v = as_point(velocity)
    if float(np.linalg.norm(v)) == 0.0:
        raise ValueError("a ray needs a nonzero velocity")
    return RayMeasure(o[None, :], v[None, :], np.ones(1), p)


def make_translation_ray(mu0: DiscreteMeasure, velocity, p=2.0) -> RayMeasure:
    """Every atom of mu0 moving with one shared velocity.

    The sections are translates of mu0, and translation couplings are
    optimal, so this always yields a genuine ray (validate_ray confirms).
    """
    v = as_point(velocity)
    if float(np.linalg.norm(v)) == 0.0:
        raise ValueError("a ray needs a nonzero velocity")
    if v.size != mu0.dim:
        raise DimensionMismatchError(
            f"velocity has dimension {v.size}, measure has {mu0.dim}"
        )
    velocities = np.tile(v, (len(mu0), 1))
    return RayMeasure(mu0.atoms, velocities, mu0.weights, p)


def restrict_to_geodesic(ray: RayMeasure, t1, t2) -> GeodesicLift:
    """The segment family of a ray between two times, as a geodesic lift.

    For a validated ray this is a genuine lift: its endpoint coupling is
    optimal and its length is (t2 - t1) times the ray speed.
    """
    t1, t2 = float(t1), float(t2)
    if not 0.0 <= t1 < t2 < np.inf:
        raise ValueError(f"need 0 <= t1 < t2 < inf, got ({t1}, {t2})")
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
    pairs = DEFAULT_VALIDATION_PAIRS + tuple(
        (float(t1), float(t2)) for t1, t2 in time_pairs
    )
    for t1, t2 in pairs:
        if not 0.0 <= t1 < t2 < np.inf:
            raise ValueError(f"time pairs need 0 <= t1 < t2 < inf, got ({t1}, {t2})")
    k = ray.speed
    gaps = []
    rel_gaps = []
    speed_residuals = []
    for t1, t2 in pairs:
        pos1 = ray.positions(t1)
        pos2 = ray.positions(t2)
        induced = _segment_cost(pos1, pos2, ray.weights, ray.p)
        m1 = _checked_measure(*merge_atoms(pos1, ray.weights))
        m2 = _checked_measure(*merge_atoms(pos2, ray.weights))
        optimal = wasserstein_distance(m1, m2, ray.p)
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
    groups: dict[tuple[float, ...], list[int]] = {}
    alpha_mass: dict[tuple[float, ...], float] = {}
    for i, end in enumerate(alpha.ends):
        key = position_key(end)
        groups.setdefault(key, []).append(i)
        alpha_mass[key] = alpha_mass.get(key, 0.0) + float(alpha.weights[i])
    beta_rows: dict[tuple[float, ...], dict[int, float]] = {}
    beta_mass: dict[tuple[float, ...], float] = {}
    for a, j, m in zip(beta.left, beta.right, beta.masses):
        key = position_key(beta.mu.atoms[a])
        row = beta_rows.setdefault(key, {})
        row[int(j)] = row.get(int(j), 0.0) + float(m)
        beta_mass[key] = beta_mass.get(key, 0.0) + float(m)
    if set(groups) != set(beta_rows):
        raise MarginalMismatchError(
            "endpoint marginal of the lift and left marginal of the coupling "
            "sit on different positions"
        )
    for key, mass in alpha_mass.items():
        if abs(mass - beta_mass[key]) > GLUE_WEIGHT_ATOL:
            raise MarginalMismatchError(
                f"marginal weights differ by {abs(mass - beta_mass[key]):.3e} "
                f"at position {key}"
            )
    joint: list[tuple[int, int, float]] = []
    for key, members in groups.items():
        total = beta_mass[key]
        for i in members:
            scale = float(alpha.weights[i]) / total
            for j, m in beta_rows[key].items():
                mass = scale * m
                if mass > 0.0:
                    joint.append((i, j, mass))
    joint.sort(key=lambda entry: (entry[0], entry[1]))
    return joint
