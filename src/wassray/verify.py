"""Seeded verification suites: the one implementation of every acceptance check.

Each check exercises one property the library promises: solver exactness
against the exhaustive oracle, metric axioms, the tail-mass bound, ray
validation including a known counterexample, monotone convergence and the
closed forms of the Busemann function, and the co-ray construction with
its gradient, subray, subadditivity, and viscosity checks. The Dirac
closed forms and the theorem checks read the exact Busemann values and
co-rays of the limiting transport problem. The truncation
``busemann_value`` and the construction ``construct_coray`` are kept as
independent oracles: each runs once per family (8 truncations and 3
constructions a pass, one of them the determinism rebuild), and the
differential checks compare them with the exact values. Checks are
pure functions of the seed, and reports are formatted with fixed float
precision, so one seed always produces one byte-identical report.

The ``verify`` CLI subcommand prints these reports, and
``tests/test_acceptance.py`` runs the same suites under pytest at more
seeds, with wall-time bounds and a pin of the ``all`` report's bytes.

Each gated bound is written once. A bound of this module's own is the
``limit`` of one ``_bounded`` (or ``_gauge``) call, which gates on the
largest residual, NaN included, and prints that same limit. A check the
library decides, the tail bound, ray validation, Lipschitz, subray,
subadditivity, viscosity and gradient checks, gates on its reports' own
``passed`` (``_reported``), and a limit it prints is the library's
``coray.DEFAULT_CHECK_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .busemann import busemann_exact, busemann_value, lipschitz_check
from .coray import (
    DEFAULT_CHECK_TOL,
    busemann_subadditivity_check,
    construct_coray,
    coray_exact,
    coray_gradient_check,
    subray_uniqueness_check,
    viscosity_check,
)
from .measures import DiscreteMeasure, dirac, same_measure, uniform_measure
from .ot import (
    MARGINAL_ATOL,
    _lengths,
    brute_force_ot,
    solve_ot,
    tail_mass_bound_check,
    wasserstein_distance,
)
from .paths import (
    RayMeasure,
    glue,
    lift_geodesic,
    make_dirac_ray,
    make_translation_ray,
    ray_section,
    restrict_to_geodesic,
    section,
    validate_ray,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _worst(values, start=0.0) -> float:
    """The largest of ``start`` and ``values``: NaN if any is NaN, which ``max`` could drop."""
    return float(np.max([start, *values]))


def _filled(detail: str, worst: float, limit: float) -> str:
    return detail.format(worst=f"{worst:.6e}", limit=f"{limit:.0e}")


def _gauge(values, limit, detail, start=0.0) -> tuple[bool, str]:
    """Whether the largest of ``start`` and ``values`` is at most ``limit``, and the detail.

    The largest is taken NaN-propagating (``_worst``), so a NaN fails.
    ``detail`` is a template: ``{worst}`` prints that largest value as
    ``.6e`` and ``{limit}`` prints ``limit`` as ``.0e``, so the printed
    limit is always the one that gated.
    """
    worst = _worst(values, start)
    return worst <= limit, _filled(detail, worst, limit)


def _bounded(name, values, limit, detail, start=0.0) -> CheckResult:
    """The check that the largest of ``start`` and ``values`` is at most ``limit`` (``_gauge``)."""
    return CheckResult(name, *_gauge(values, limit, detail, start))


def _reported(name, reports, values, detail, start=0.0) -> CheckResult:
    """The check decided by the library ``reports``' own ``passed``.

    ``detail`` is ``_gauge``'s template; its ``{limit}`` is the library's
    ``DEFAULT_CHECK_TOL``, the tolerance of the co-ray checks.
    """
    passed = all(report.passed for report in reports)
    return CheckResult(name, passed, _filled(detail, _worst(values, start), DEFAULT_CHECK_TOL))


def _same(first, second, fields=("origins", "velocities", "weights")) -> bool:
    """Whether ``first`` and ``second`` agree bit for bit on every one of ``fields``."""
    return all(np.array_equal(getattr(first, f), getattr(second, f)) for f in fields)


def _unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=2)
    return v / _lengths(v)


def _random_measure(rng, max_atoms=4, dim=2, scale=2.0) -> DiscreteMeasure:
    n = int(rng.integers(1, max_atoms + 1))
    atoms = rng.normal(scale=scale, size=(n, dim))
    weights = rng.random(n) + 0.1
    return DiscreteMeasure(atoms, weights / weights.sum())


def _random_uniform_pair(rng, max_atoms=6, max_dim=3):
    n = int(rng.integers(2, max_atoms + 1))
    d = int(rng.integers(1, max_dim + 1))
    return (
        uniform_measure(rng.normal(size=(n, d))),
        uniform_measure(rng.normal(size=(n, d))),
    )


# ---------------------------------------------------------------------------
# transport checks
# ---------------------------------------------------------------------------


def ot_checks(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)

    exponents = (1.5, 2.0, 3.0)
    couplings, gaps, marginals = [], [], []
    for trial in range(100):
        mu, nu = _random_uniform_pair(rng)
        p = exponents[trial % 3]
        plan = solve_ot(mu, nu, p)
        oracle = brute_force_ot(mu, nu, p)
        gaps.append(abs(plan.cost - oracle.cost) / oracle.cost)
        row = np.bincount(plan.left, weights=plan.masses, minlength=len(mu))
        col = np.bincount(plan.right, weights=plan.masses, minlength=len(nu))
        marginals += [*np.abs(row - mu.weights), *np.abs(col - nu.weights)]
        couplings.append(plan)

    asymmetries, violations = [], []
    for _ in range(50):
        a = _random_measure(rng)
        b = _random_measure(rng)
        c = _random_measure(rng)
        ab = wasserstein_distance(a, b, 2.0)
        ba = wasserstein_distance(b, a, 2.0)
        ac = wasserstein_distance(a, c, 2.0)
        bc = wasserstein_distance(b, c, 2.0)
        asymmetries.append(abs(ab - ba))
        violations.append(ac - (ab + bc))

    tails = [
        tail_mass_bound_check(plan, radius)
        for plan in couplings
        if plan.cost > 0.0
        for radius in (plan.cost / 2.0, plan.cost, 2.0 * plan.cost)
    ]

    mu, nu = _random_uniform_pair(rng)
    first = solve_ot(mu, nu, 2.0)
    second = solve_ot(mu, nu, 2.0)
    return [
        _bounded(
            "exact solver matches the exhaustive permutation oracle",
            gaps,
            1e-8,
            "max relative gap {worst} over 100 instances (limit {limit})",
        ),
        _bounded(
            "returned plans reproduce both marginals",
            marginals,
            MARGINAL_ATOL,
            "max per-atom residual {worst} (limit {limit})",
        ),
        _bounded(
            "distance is symmetric",
            asymmetries,
            1e-10,
            "max asymmetry {worst} over 50 pairs (limit {limit})",
        ),
        _bounded(
            "triangle inequality holds",
            violations,
            1e-7,
            "max violation {worst} over 50 triples (limit {limit})",
        ),
        _reported(
            "tail mass beyond radius R stays under (cost/R)**p",
            tails,
            (report.tail_mass - report.bound for report in tails),
            "max excess {worst} across three radii per plan",
        ),
        CheckResult(
            "repeated solves are bit-identical",
            _same(first, second, ("left", "right", "masses", "cost")),
            "two solves of one instance compared entry by entry",
        ),
    ]


# ---------------------------------------------------------------------------
# ray and lift checks
# ---------------------------------------------------------------------------


def ray_checks(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)

    single = validate_ray(make_dirac_ray((0.0, 0.0), (1.0, 0.0)))
    translations = [
        validate_ray(
            make_translation_ray(_random_measure(rng, max_atoms=4), _unit_vector(rng), p=2.0)
        )
        for _ in range(5)
    ]
    crossing = validate_ray(RayMeasure([[0.0], [10.0]], [[1.0], [-1.0]], [0.5, 0.5], 2.0))
    crossing_gap = _worst(crossing.gaps, start=-np.inf)

    speed_gaps = []
    lifts = []
    for _ in range(10):
        mu = _random_measure(rng, max_atoms=4)
        nu = _random_measure(rng, max_atoms=4)
        lift = lift_geodesic(solve_ot(mu, nu, 2.0))
        lifts.append(lift)
        for _ in range(5):
            s, t = np.sort(rng.uniform(0.0, lift.length, size=2))
            distance = wasserstein_distance(section(lift, s), section(lift, t), 2.0)
            speed_gaps.append(abs(distance - (t - s)))

    clamped = []
    for lift in lifts[:3]:
        at_end = section(lift, lift.length)
        clamped += [
            same_measure(section(lift, lift.length * factor + 1.0), at_end, weight_atol=0.0)
            for factor in (1.0, 1.5, 10.0)
        ]

    glue_residuals = []
    for _ in range(5):
        mu = _random_measure(rng, max_atoms=3)
        nu = _random_measure(rng, max_atoms=3)
        lam = _random_measure(rng, max_atoms=3)
        alpha = lift_geodesic(solve_ot(mu, nu, 2.0))
        beta = solve_ot(section(alpha, alpha.length), lam, 2.0)
        seg_mass = np.zeros(len(alpha.weights))
        for i, _, m in glue(alpha, beta):
            seg_mass[i] += m
        glue_residuals += [*np.abs(seg_mass - alpha.weights)]

    ray = make_translation_ray(_random_measure(rng, max_atoms=3), _unit_vector(rng), p=2.0)
    piece = restrict_to_geodesic(ray, 1.0, 3.0)
    endpoint_cost = wasserstein_distance(section(piece, 0.0), section(piece, piece.length), 2.0)
    restricted = abs(piece.length - 2.0 * ray.speed) <= 1e-9 and abs(
        endpoint_cost - piece.length
    ) <= 1e-8 * max(1.0, piece.length)
    return [
        _reported(
            "single-atom ray passes pair-coupling validation",
            [single],
            single.relative_gaps,
            "max relative gap {worst}",
            start=-np.inf,
        ),
        _reported(
            "translation rays pass pair-coupling validation",
            translations,
            (r for report in translations for r in report.relative_gaps + report.speed_residuals),
            "worst residual {worst} over 5 random instances",
        ),
        CheckResult(
            "crossing ray family is rejected with a positive gap",
            (not crossing.passed) and crossing_gap > 0.0,
            f"largest induced-minus-optimal gap {crossing_gap:.6e}",
        ),
        _bounded(
            "lifted geodesics run at unit speed between sections",
            speed_gaps,
            1e-6,
            "max |distance - |s-t|| = {worst} (limit {limit})",
        ),
        CheckResult(
            "sections past the endpoint clamp there exactly",
            all(clamped),
            "three lifts evaluated at several times past their length",
        ),
        _bounded(
            "glued joints project back onto the lift weights",
            glue_residuals,
            1e-9,
            "max projection residual {worst} (limit {limit})",
        ),
        CheckResult(
            "ray restrictions are geodesic lifts between their sections",
            restricted,
            f"length {piece.length:.6e}, endpoint transport {endpoint_cost:.6e}",
        ),
    ]


# ---------------------------------------------------------------------------
# Busemann checks
# ---------------------------------------------------------------------------


def _schedule_monotone(estimate) -> bool:
    """No recorded value rises over the one before, or falls under the lower bound, by over 1e-9."""
    values = [v for _, v in estimate.schedule]
    lower = [estimate.lower_bound] * len(values)
    return all(b <= a + 1e-9 for a, b in [*zip(values, values[1:]), *zip(values, lower)])


def busemann_checks(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    ray = make_dirac_ray((0.0, 0.0), (1.0, 0.0))

    estimates = []  # (ray, measure, estimate) of every truncation run
    closed_form_gaps = []
    for k in range(10):
        a, b = rng.uniform(-3.0, 3.0, size=2)
        nu = dirac((a, b))
        closed_form_gaps.append(abs(busemann_exact(ray, nu).value - (-a)))
        if k == 0:  # the truncation oracle runs once on this family
            est = busemann_value(ray, nu)
            estimates.append((ray, nu, est))
            truncation_gap = abs(est.value - (-a))
    exact_ok, exact_detail = _gauge(
        closed_form_gaps, 1e-12, "max |exact + a| = {worst} over 10 probes (limit {limit})"
    )
    first_ok, first_detail = _gauge(
        [truncation_gap], 1e-4, "|truncation + a| = {worst} at the first (limit {limit})"
    )

    along = []
    for s in (0.0, 1.0, 2.0, 5.0):
        nu = ray_section(ray, s)
        est = busemann_value(ray, nu)
        estimates.append((ray, nu, est))
        along.append(abs(est.value - (-s)))

    mu0 = _random_measure(rng, max_atoms=3)
    translation = make_translation_ray(mu0, (0.0, 1.0), p=2.0)
    for _ in range(3):
        nu = _random_measure(rng)
        estimates.append((translation, nu, busemann_value(translation, nu)))

    # the truncation is non-increasing toward the exact limit, so it stays
    # above it; how far above has no proven bound (rounding of the far
    # sections and the O(1/t) remainder), so that gap is reported, not gated
    exact = [busemann_exact(family, nu).value for family, nu, _ in estimates]
    values = [est.value for _, _, est in estimates]
    above = _worst((v - e for e, v in zip(exact, values)), start=-np.inf)

    lipschitz = [
        lipschitz_check(ray, _random_measure(rng), _random_measure(rng)) for _ in range(20)
    ]
    return [
        CheckResult(
            "single-atom values match the Euclidean closed form",
            exact_ok and first_ok,
            f"{exact_detail}, {first_detail}",
        ),
        _bounded(
            "values along the ray itself decrease at unit rate",
            along,
            1e-10,
            "max |value + s| = {worst} for s in 0,1,2,5 (limit {limit})",
        ),
        CheckResult(
            "every recorded schedule is non-increasing and above its lower bound",
            all(_schedule_monotone(est) for _, _, est in estimates),
            f"{len(estimates)} evaluation schedules inspected",
        ),
        _bounded(
            "truncated values stay above the exact limit",
            [e - v for e, v in zip(exact, values)],
            1e-9,
            f"max exact minus value {{worst}} (limit {{limit}}), max value minus exact "
            f"{above:.6e} over {len(estimates)} estimates",
            start=-np.inf,
        ),
        _reported(
            "value differences stay under the distance between arguments",
            lipschitz,
            (report.difference - report.distance for report in lipschitz),
            "max difference minus distance {worst} over 20 pairs",
            start=-np.inf,
        ),
    ]


# ---------------------------------------------------------------------------
# co-ray checks
# ---------------------------------------------------------------------------


def coray_checks(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    times = (0.0, 1.0, 2.0, 4.0)

    mu_line = make_dirac_ray((0.0, 0.0), (1.0, 0.0))
    own = coray_exact(mu_line, dirac((0.0, 0.0)))

    parallel = construct_coray(mu_line, dirac((0.0, 1.0)))
    parallel_ok, parallel_detail = _gauge(
        [wasserstein_distance(ray_section(parallel.ray, t), dirac((t, 1.0)), 2.0) for t in times],
        DEFAULT_CHECK_TOL,
        "max section gap to the parallel ray {worst} (limit {limit})",
    )

    # diagnostics decay like (start offset)/t_n, so spread-out start measures
    # need targets beyond the default schedule to stall below tolerance
    long_schedule = tuple(2.0**n for n in range(1, 21))
    nu0 = _random_measure(rng, max_atoms=3)
    mu_translation = make_translation_ray(_random_measure(rng, max_atoms=3), (1.0, 0.0))
    built = construct_coray(mu_translation, nu0, schedule=long_schedule)
    speed_gap = abs(built.ray.speed - 1.0)
    candidate = validate_ray(built.ray)

    exact_gaps = []
    for mu, start, result in (
        (mu_line, dirac((0.0, 1.0)), parallel),
        (mu_translation, nu0, built),
    ):
        exact = coray_exact(mu, start)
        exact_gaps += [
            wasserstein_distance(ray_section(result.ray, t), ray_section(exact, t), 2.0)
            for t in times
        ]

    excesses = [
        abs(length / t_n - 1.0) - (result.start_offset / t_n + 1e-9)
        for result in (parallel, built)
        for t_n, length in zip(result.schedule, result.lengths)
    ]

    candidates = ((mu_line, parallel.ray), (mu_translation, built.ray))
    gradient = [coray_gradient_check(mu, ray) for mu, ray in candidates]
    subray = [subray_uniqueness_check(mu, ray, tau=1.0) for mu, ray in candidates]
    subadditivity = [
        busemann_subadditivity_check(mu_line, parallel.ray, _random_measure(rng, max_atoms=3))
        for _ in range(5)
    ]
    viscosity = [viscosity_check(mu, ray) for mu, ray in candidates]

    rebuilt = construct_coray(mu_translation, nu0, schedule=long_schedule)
    return [
        CheckResult(
            "co-ray from the ray's own origin is the ray itself",
            _same(own, mu_line),
            "exact co-ray and ray compared entry by entry",
        ),
        CheckResult(
            "co-ray from an offset point is the parallel ray",
            parallel.converged and parallel_ok,
            parallel_detail,
        ),
        CheckResult(
            "constructed co-ray is unit speed and validates as a ray",
            built.converged and speed_gap <= 1e-6 and candidate.passed,
            f"speed gap {speed_gap:.6e}, max pair gap "
            f"{_worst(candidate.relative_gaps, start=-np.inf):.6e}",
        ),
        _bounded(
            "constructed co-rays match the exact co-ray section by section",
            exact_gaps,
            DEFAULT_CHECK_TOL,
            "max section gap {worst} at t in 0,1,2,4 over 2 co-rays (limit {limit})",
        ),
        _bounded(
            "geodesic lengths track target times within the start offset",
            excesses,
            0.0,
            "max bound excess {worst} over all construction steps",
        ),
        _reported(
            "Busemann values fall at unit rate along constructed co-rays",
            gradient,
            (report.residuals[0] for report in gradient),
            "max gradient residual {worst} (limit {limit})",
        ),
        _reported(
            "rebuilding from a later section reproduces the shifted co-ray",
            subray,
            (report.max_gap for report in subray),
            "max section gap {worst} (limit {limit})",
        ),
        _reported(
            "Busemann values are subadditive across the co-ray relation",
            subadditivity,
            (-report.margin for report in subadditivity),
            "max inequality deficit {worst} over 5 probes",
        ),
        _reported(
            "value solves the metric eikonal fixed point",
            viscosity,
            (report.equality_residual for report in viscosity),
            "max equality residual {worst}",
        ),
        CheckResult(
            "construction is deterministic",
            _same(rebuilt.ray, built.ray) and rebuilt.diagnostics == built.diagnostics,
            "two runs on identical inputs compared field by field",
        ),
    ]


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

_SUITES = {
    "ot": ot_checks,
    "ray": ray_checks,
    "busemann": busemann_checks,
    "coray": coray_checks,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int) -> list[CheckResult]:
    """Run one named suite (or ``all``) with a fixed seed.

    An unknown name raises ``KeyError`` naming the choices; this is the one
    check of the suite name, and the CLI reports its message.
    """
    if name == "all":
        return [result for suite in _SUITES.values() for result in suite(seed)]
    if name not in _SUITES:
        choices = ", ".join(SUITE_NAMES + ("all",))
        raise KeyError(f"unknown suite {name!r}; choose from {choices}")
    return _SUITES[name](seed)


def format_report(name: str, seed: int, results: list[CheckResult]) -> str:
    failed = sum(1 for r in results if not r.passed)
    lines = [
        "wassray verification report",
        f"suite: {name}",
        f"seed: {seed}",
        f"checks: {len(results)} run, {failed} failed",
        f"result: {'PASS' if failed == 0 else 'FAIL'}",
    ]
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name} | {r.detail}")
    return "\n".join(lines) + "\n"
