import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import wassray as w
from wassray import busemann, coray, ot, paths
from wassray.paths import _kept_plan_lengths
# the tests draw measures with verify's generator, the one copy of it
from wassray.verify import _random_measure as random_measure  # noqa: F401

settings.register_profile(
    "solver",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("solver")

coords = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def random_uniform_pair(rng, n, d):
    return (
        w.uniform_measure(rng.normal(size=(n, d))),
        w.uniform_measure(rng.normal(size=(n, d))),
    )


def weighted_translation_setup():
    """Weighted multi-atom mu0 and nu in the square [-1, 1]^2, and a unit v."""
    rng = np.random.default_rng(11)
    mu0 = w.DiscreteMeasure(rng.uniform(-1.0, 1.0, size=(4, 2)), [0.1, 0.2, 0.3, 0.4])
    nu = w.DiscreteMeasure(rng.uniform(-1.0, 1.0, size=(5, 2)), [0.3, 0.1, 0.25, 0.15, 0.2])
    return mu0, nu, np.array([0.6, 0.8])


def schedule_step(ray, nu0, plan, t):
    """The plan of one schedule step: from ``nu0`` to the section of ``ray`` at ``t``.

    ``plan`` is the step before's. It is kept when
    ``_kept_plan_lengths(ray, plan, [t])`` holds: its entries on the
    section at t, with ``plan``'s basis. Otherwise the step is a cold
    ``solve_ot``. The kept coupling's cost is worked out as ``solve_ot``
    works out a plan's cost, from the cost matrix; the length the pass
    gave must have its bits. The schedules take their runs of kept plans
    from stacked passes; one step at a time must give the same plans, bit
    for bit.
    """
    target = w.ray_section(ray, t)
    lengths, _ = _kept_plan_lengths(ray, plan, [t])
    if lengths:
        cost_matrix = ot._cost_matrix(nu0.atoms, target.atoms, ray.p)
        kept = ot._checked_coupling(
            nu0, target, plan.left, plan.right, plan.masses, ray.p, cost_matrix=cost_matrix
        )
        assert same_bits(np.float64(kept.cost), np.float64(lengths[0]))
        object.__setattr__(kept, "_basis", plan._basis)
        return kept
    return w.solve_ot(nu0, target, ray.p)


def step_chain(ray, nu0, times):
    """The schedules' chain of plans, one time at a time: the time-0 plan, then each time's.

    The oracle of ``paths._plan_chain``, which the Busemann truncation and
    the co-ray construction walk run by run: the chain starts from the
    cold plan from ``nu0`` to the ray's time-0 section, and each time's
    plan comes from the one before by ``schedule_step``. Lazy, so a caller
    that stops solves nothing more.
    """
    plan = w.solve_ot(nu0, w.ray_section(ray, 0.0), ray.p)
    yield plan
    for t in times:
        plan = schedule_step(ray, nu0, plan, t)
        yield plan


def unit_speed(origins, velocities, weights, p):
    """The ray family with its velocities scaled to unit speed."""
    family = w.RayMeasure(origins, velocities, weights, p)
    return w.RayMeasure(family.origins, family.velocities / family.speed, family.weights, p)


def comonotone_ray(rng, k, p):
    """Unit-speed 1-D family of k rays whose origins and velocities increase together.

    The rays never cross, so every induced pair coupling is the sorted
    one, which is optimal for |x - y|**p: a genuine ray at every p.
    Velocities are nonzero and of both signs, so no two rays are parallel
    translates and the Busemann value is no mean shift.
    """
    origins = np.sort(rng.uniform(-2.0, 2.0, k))[:, None]
    velocities = np.sort(rng.uniform(0.2, 2.0, k) * rng.choice([-1.0, 1.0], k))[:, None]
    weights = rng.random(k) + 0.1
    return unit_speed(origins, velocities, weights / weights.sum(), p)


def psd_gradient_ray(rng, k):
    """Unit-speed p = 2 family of k rays in the plane with velocities A o + c.

    A is symmetric positive semidefinite, so x -> x + t (A x + c) is the
    gradient of a convex function for every t >= 0, and so is the map
    between any two sections: by Brenier every induced coupling is
    optimal, a genuine ray.
    """
    B = rng.normal(size=(2, 2))
    origins = rng.normal(size=(k, 2))
    velocities = origins @ (B @ B.T) + rng.normal(size=2)
    assert np.all(np.linalg.norm(velocities, axis=1) > 0.0)
    weights = rng.random(k) + 0.1
    return unit_speed(origins, velocities, weights / weights.sum(), 2.0)


GENUINE_RAY_KINDS = [
    ("comonotone", 1.5),
    ("comonotone", 2.0),
    ("comonotone", 3.0),
    ("comonotone", 8.0),
    ("psd-gradient", 2.0),
]


def genuine_ray_case(kind, p):
    """A 3-ray genuine ray of the given kind and three weighted probes of 1-3 atoms."""
    rng = np.random.default_rng(0)
    ray = comonotone_ray(rng, 3, p) if kind == "comonotone" else psd_gradient_ray(rng, 3)
    probes = []
    for n in (1, 2, 3):
        weights = rng.random(n) + 0.1
        probes.append(w.DiscreteMeasure(rng.normal(size=(n, ray.dim)), weights / weights.sum()))
    return ray, probes


@st.composite
def small_measures(draw, max_atoms=4, dim=2):
    n = draw(st.integers(1, max_atoms))
    atoms = draw(
        st.lists(
            st.lists(coords, min_size=dim, max_size=dim), min_size=n, max_size=n
        )
    )
    weights = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return w.DiscreteMeasure(np.asarray(atoms), weights / weights.sum())


@st.composite
def uniform_pairs(draw, max_atoms=5, max_dim=3):
    n = draw(st.integers(2, max_atoms))
    d = draw(st.integers(1, max_dim))
    xs = draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=n, max_size=n))
    ys = draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=n, max_size=n))
    return w.uniform_measure(np.asarray(xs)), w.uniform_measure(np.asarray(ys))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: -0.0 and 0.0 differ, NaN equals itself."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def solves(monkeypatch):
    """The arguments of every ``solve_ot`` call, made through any module's binding of it.

    The schedules solve their start in ``busemann`` or ``coray`` and their
    steps in ``paths``; ``ot`` solves for ``wasserstein_distance``.
    """
    calls = []
    solve_ot = ot.solve_ot

    def spy(*args, **kwargs):
        calls.append(args)
        return solve_ot(*args, **kwargs)

    for module in (ot, paths, busemann, coray):
        monkeypatch.setattr(module, "solve_ot", spy)
    return calls


@pytest.fixture
def lp_shapes(monkeypatch):
    """Shapes of the cost matrices solve_ot hands to the LP, one per LP solve."""
    shapes = []
    solve_lp = ot._solve_lp

    def spy(a, b, cost_matrix):
        shapes.append(cost_matrix.shape)
        return solve_lp(a, b, cost_matrix)

    monkeypatch.setattr(ot, "_solve_lp", spy)
    return shapes
