import warnings

import numpy as np
import pytest

import wassray as w
from wassray.errors import UnitSpeedError

from conftest import (
    GENUINE_RAY_KINDS,
    genuine_ray_case,
    random_measure,
    weighted_translation_setup,
)

LONG_SCHEDULE = tuple(2.0**n for n in range(1, 21))


@pytest.fixture(scope="module")
def line_ray():
    return w.make_dirac_ray((0.0, 0.0), (1.0, 0.0))


@pytest.fixture(scope="module")
def parallel(line_ray):
    return w.construct_coray(line_ray, w.dirac((0.0, 1.0)))


@pytest.fixture(scope="module")
def translation_setup():
    rng = np.random.default_rng(21)
    mu = w.make_translation_ray(random_measure(rng, max_atoms=3), (1.0, 0.0))
    nu0 = random_measure(rng, max_atoms=3)
    return mu, nu0, w.construct_coray(mu, nu0, schedule=LONG_SCHEDULE)


def test_coray_from_own_origin_is_the_ray(line_ray):
    result = w.construct_coray(line_ray, w.dirac((0.0, 0.0)))
    assert result.converged
    assert np.allclose(result.ray.origins, [[0.0, 0.0]], atol=1e-12)
    assert np.allclose(result.ray.velocities, [[1.0, 0.0]], atol=1e-12)
    # the first step still clamps at the largest test time; once the targets
    # pass it, every geodesic lies on the ray and the sections stop moving
    assert all(d <= 1e-12 for d in result.diagnostics[1:])


def test_coray_from_offset_point_is_parallel(parallel):
    # segment directions from (0,1) to (t,0) converge to the first axis, so
    # the limit is the parallel line through (0,1)
    assert parallel.converged
    for t in (0.0, 1.0, 2.0, 4.0):
        gap = w.wasserstein_distance(
            w.ray_section(parallel.ray, t), w.dirac((t, 1.0)), 2.0
        )
        assert gap <= 1e-3


def test_constructed_coray_is_unit_speed_and_validates(translation_setup):
    _, _, result = translation_setup
    assert result.converged
    assert abs(result.ray.speed - 1.0) <= 1e-6
    assert w.validate_ray(result.ray).passed


def test_length_over_time_ratio_bound(parallel, translation_setup):
    _, _, built = translation_setup
    for result in (parallel, built):
        for t_n, length in zip(result.schedule, result.lengths):
            assert abs(length / t_n - 1.0) <= result.start_offset / t_n + 1e-9


def test_construction_is_deterministic(translation_setup):
    mu, nu0, first = translation_setup
    second = w.construct_coray(mu, nu0, schedule=LONG_SCHEDULE)
    assert np.array_equal(first.ray.origins, second.ray.origins)
    assert np.array_equal(first.ray.velocities, second.ray.velocities)
    assert np.array_equal(first.ray.weights, second.ray.weights)
    assert first.diagnostics == second.diagnostics
    assert first.lengths == second.lengths


def test_non_convergence_reported_not_raised(line_ray):
    result = w.construct_coray(line_ray, w.dirac((0.0, 1.0)), schedule=(2.0, 4.0))
    assert not result.converged
    assert result.diagnostics[-1] > 1e-4


def test_schedule_validation(line_ray):
    nu0 = w.dirac((0.0, 1.0))
    with pytest.raises(ValueError):
        w.construct_coray(line_ray, nu0, schedule=(4.0,))
    with pytest.raises(ValueError):
        w.construct_coray(line_ray, nu0, schedule=(4.0, 2.0))
    with pytest.raises(ValueError):
        w.construct_coray(line_ray, nu0, schedule=(-1.0, 2.0))
    with pytest.raises(UnitSpeedError):
        w.construct_coray(w.make_dirac_ray((0.0, 0.0), (2.0, 0.0)), nu0)
    # NaN fails every comparison, so each bound is written to reject it
    nan, inf = float("nan"), float("inf")
    for schedule in ((2.0, nan), (nan, 2.0), (2.0, inf), (0.0, 2.0)):
        with pytest.raises(ValueError, match="schedule entries must be positive and finite"):
            w.construct_coray(line_ray, nu0, schedule=schedule)
    for test_times in ((0.0, nan), (inf,), (-1.0,), ()):
        with pytest.raises(ValueError, match="test times must be nonnegative and finite"):
            w.construct_coray(line_ray, nu0, schedule=(2.0, 4.0), test_times=test_times)
    for tol in (nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="convergence tolerance tol must be positive"):
            w.construct_coray(line_ray, nu0, schedule=(2.0, 4.0), tol=tol)


def test_construction_reuses_certified_plans(lp_shapes):
    # 16 steps of weighted measures: 16 target couplings, one start offset,
    # and 75 section movements, each certified from the previous step's plan
    # (at the same test time, for movements) when it stays optimal; lifts
    # take the solver's certified plan as it is, and a time-0 section that
    # equals the one before moves by the identity plan with no solve.
    # Solving every target coupling cold took 23 LP solves: 1 offset, 16
    # targets and 6 movements.
    rng = np.random.default_rng(7)
    mu0 = w.DiscreteMeasure(rng.normal(size=(4, 2)), [0.1, 0.2, 0.3, 0.4])
    nu0 = w.DiscreteMeasure(rng.normal(size=(3, 2)), [0.5, 0.3, 0.2])
    result = w.construct_coray(w.make_translation_ray(mu0, (1.0, 0.0)), nu0)
    assert result.converged
    assert len(lp_shapes) == 7


def translated_start_gap(ray, nu0, v, times=(0.0, 1.0, 2.0, 4.0)):
    """Bound on W_p between the ray's sections and nu0 + t v.

    Each ray entry is paired with the nu0 atom nearest its origin; when the
    pairs carry nu0's weights, the largest pair distance bounds W_p.
    """
    offsets = np.linalg.norm(ray.origins[:, None, :] - nu0.atoms[None, :, :], axis=2)
    match = np.argmin(offsets, axis=1)
    pooled = np.bincount(match, weights=ray.weights, minlength=len(nu0))
    assert np.max(np.abs(pooled - nu0.weights)) <= 1e-9
    drift = np.linalg.norm(ray.velocities - v, axis=1)
    start = offsets[np.arange(len(match)), match]
    return max(float(np.max(start + t * drift)) for t in times)


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_high_order_translation_coray(p):
    # the co-ray from nu0 toward a translation ray is nu0 translated along
    # the ray; at p >= 3 the target sections' costs pass 1e15
    mu0, nu0, v = weighted_translation_setup()
    result = w.construct_coray(w.make_translation_ray(mu0, v, p=p), nu0, schedule=LONG_SCHEDULE)
    assert result.converged
    assert result.ray.p == p
    assert translated_start_gap(result.ray, nu0, v) <= 1e-3


@pytest.mark.parametrize("kind,p", GENUINE_RAY_KINDS)
def test_exact_coray_is_a_ray_along_which_values_fall_at_unit_rate(kind, p):
    ray, probes = genuine_ray_case(kind, p)
    for nu0 in probes:
        coray = w.coray_exact(ray, nu0)
        assert coray.p == p
        assert coray.speed == pytest.approx(1.0, abs=1e-12)
        assert w.same_measure(w.ray_section(coray, 0.0), nu0, weight_atol=1e-12)
        assert w.validate_ray(coray).passed
        report = w.coray_gradient_check(ray, coray, tol=1e-8)
        assert report.passed
        assert max(report.residuals) <= 1e-8
        # the other theorem checks hold to rounding on an exact co-ray
        assert w.subray_uniqueness_check(ray, coray, tau=1.0, tol=1e-9).passed
        for lam in probes:
            assert w.busemann_subadditivity_check(ray, coray, lam, tol=1e-9).passed
            assert w.lipschitz_check(ray, nu0, lam).passed
        assert w.viscosity_check(ray, nu0, probes, tol=1e-9).passed


def test_exact_coray_from_an_offset_point_is_the_parallel_ray(line_ray, parallel):
    coray = w.coray_exact(line_ray, w.dirac((0.0, 1.0)))
    assert coray.origins.tolist() == [[0.0, 1.0]]
    assert coray.velocities.tolist() == [[1.0, 0.0]]
    # the limit construction approaches it from its last finite target
    for t in (0.0, 1.0, 2.0, 4.0):
        gap = w.wasserstein_distance(w.ray_section(parallel.ray, t), w.ray_section(coray, t), 2.0)
        assert gap <= 1e-3


def test_gradient_along_the_ray_itself(line_ray):
    report = w.coray_gradient_check(line_ray, line_ray, times=(0.0, 3.0))
    assert report.passed
    assert report.pairs == ((0.0, 3.0),)
    assert report.residuals[0] <= 1e-9


def test_gradient_parallel_coray(line_ray, parallel):
    report = w.coray_gradient_check(line_ray, parallel.ray)
    assert report.passed
    assert max(report.residuals) <= 1e-3


def test_gradient_translation_coray(translation_setup):
    mu, _, built = translation_setup
    report = w.coray_gradient_check(mu, built.ray)
    assert report.passed


def test_subadditivity_at_the_start_measure(line_ray, parallel):
    # lambda equal to the co-ray start: the along-ray value vanishes and the
    # inequality is an equality
    nu0 = w.ray_section(parallel.ray, 0.0)
    report = w.busemann_subadditivity_check(line_ray, parallel.ray, nu0)
    assert report.passed
    assert abs(report.margin) <= 1e-3


def test_subadditivity_along_the_coray(line_ray, parallel):
    lam = w.ray_section(parallel.ray, 2.0)
    report = w.busemann_subadditivity_check(line_ray, parallel.ray, lam)
    assert report.passed
    assert abs(report.margin) <= 1e-3


def test_subadditivity_random_probes(line_ray, parallel, rng):
    for _ in range(10):
        lam = random_measure(rng, max_atoms=3)
        report = w.busemann_subadditivity_check(line_ray, parallel.ray, lam)
        assert report.passed


def test_subray_collinear_exact(line_ray):
    report = w.subray_uniqueness_check(line_ray, line_ray, tau=1.0)
    assert report.passed
    assert report.max_gap <= 1e-9


def test_subray_parallel(line_ray, parallel):
    report = w.subray_uniqueness_check(line_ray, parallel.ray, tau=2.0)
    assert report.passed
    assert report.max_gap <= 1e-3


def test_subray_translation(translation_setup):
    mu, _, built = translation_setup
    report = w.subray_uniqueness_check(mu, built.ray, tau=1.0)
    assert report.passed


def test_subray_rejects_bad_tau(line_ray):
    with pytest.raises(ValueError):
        w.subray_uniqueness_check(line_ray, line_ray, tau=0.0)


def test_nan_and_infinite_check_times_fail_by_name(line_ray):
    nan, inf = float("nan"), float("inf")
    calls = [
        (lambda: w.coray_gradient_check(line_ray, line_ray, times=(0.0, nan)), "check times"),
        (lambda: w.coray_gradient_check(line_ray, line_ray, times=(0.0, inf)), "check times"),
        (lambda: w.subray_uniqueness_check(line_ray, line_ray, tau=nan), "subray shift tau"),
        (lambda: w.subray_uniqueness_check(line_ray, line_ray, tau=inf), "subray shift tau"),
        (
            lambda: w.subray_uniqueness_check(line_ray, line_ray, tau=1.0, test_times=(0.0, nan)),
            "test times",
        ),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, named in calls:
            with pytest.raises(ValueError, match=named):
                call()


def test_checks_fail_a_ray_that_is_no_coray(line_ray):
    # from (0, 1) the co-ray of the line ray runs parallel to it; along the
    # unit-speed ray in direction (0.6, 0.8) b = -x falls at rate 0.6, so
    # the residual over times 0..4 is 0.4 * 4, and the rebuild from (0.6,
    # 1.8) parts from it by |(0.4, -0.8)| t, up to t = 4
    candidate = w.make_dirac_ray((0.0, 1.0), (0.6, 0.8))
    gradient = w.coray_gradient_check(line_ray, candidate)
    assert not gradient.passed
    assert max(gradient.residuals) == pytest.approx(1.6, abs=1e-12)
    subray = w.subray_uniqueness_check(line_ray, candidate, tau=1.0)
    assert not subray.passed
    assert subray.max_gap == pytest.approx(4.0 * np.hypot(0.4, 0.8), abs=1e-12)


def test_viscosity_dirac_closed_forms(line_ray):
    # probe at (1,1) sits on the parallel co-ray: 0 = 1 + (-1)
    report = w.viscosity_check(line_ray, w.dirac((0.0, 1.0)), [w.dirac((1.0, 1.0))])
    assert report.passed
    assert abs(report.min_margin) <= 1e-3
    assert report.equality_residual <= 1e-3


def test_viscosity_far_probe_has_large_margin(line_ray):
    far = w.dirac((0.0, 50.0))
    report = w.viscosity_check(line_ray, w.dirac((0.0, 1.0)), [far])
    assert report.passed
    assert report.min_margin > 10.0


def test_viscosity_random_probes(line_ray, rng):
    probes = [random_measure(rng, max_atoms=3) for _ in range(10)]
    report = w.viscosity_check(line_ray, w.dirac((0.0, 1.0)), probes)
    assert report.passed
