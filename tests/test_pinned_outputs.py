"""SHA-256 pins on solver and construction outputs the verify report does not reach.

The verify report's hash pins what ``verify all`` computes, but verify
runs ``construct_coray`` only on Dirac and translation rays and never
hands the transportation simplex a weighted instance with ties; its
equal-marginal transports are sections of the few rays it checks. These
seeded corpora pin those outputs to the bit, so a speed-up that changes a
plan at a tie, or a step of the construction, shows here by name. A
change that moves a digest on purpose names the instances it changes and
re-pins.
"""

import hashlib

import numpy as np

import wassray as w
from wassray import ot

from conftest import comonotone_ray, psd_gradient_ray

LP_CORPUS_SHA256 = "5e6525a3cf2a729decd3256b5b56e9685edd24aa80831d8ea80cc20b58c0fabc"
# the lengths, start offsets and co-rays; the diagnostics, pinned apart,
# are the glued-coupling bounds
CORAY_CORPUS_SHA256 = "0ad201150bfb6ab45c6745a6158e0f46bcb693aad967555b7f50713355734783"
CORAY_DIAGNOSTICS_SHA256 = "e845576e04cc536874e394985b1146bb688ea873218ac6fa76fcb14feb747737"
EQUAL_MARGINAL_CORPUS_SHA256 = "bb9a2546504c7d125d185f742a8c917c60ebfb00d4b56bfa1c0889418e470e39"


def lp_corpus():
    """Weighted d = 2 transport instances: 2-12 atoms a side, p in {1.5, 2, 3}.

    Atoms lie in the unit box, on a small integer grid (so costs tie), or
    in the box with some target atoms on source atoms and some atoms
    repeated within a side (so costs vanish and rows or columns tie).
    """
    rng = np.random.default_rng(2016)
    for _ in range(100):
        for kind in ("box", "grid", "coincident"):
            m, n = rng.integers(2, 13, size=2)
            p = float(rng.choice((1.5, 2.0, 3.0)))
            if kind == "grid":
                xs = rng.integers(-2, 3, size=(m, 2)).astype(float)
                ys = rng.integers(-2, 3, size=(n, 2)).astype(float)
            else:
                xs, ys = rng.random((m, 2)), rng.random((n, 2))
            if kind == "coincident":
                shared = rng.integers(1, min(m, n) + 1)
                ys[:shared] = xs[:shared]
                xs[-1] = xs[0]
            a, b = rng.random(m) + 0.05, rng.random(n) + 0.05
            yield a / a.sum(), b / b.sum(), ot._cost_matrix(xs, ys, p)


def equal_marginal_corpus():
    """Weighted measures and moved copies with the same weights, p in {1.5, 2, 3, 8}.

    2-12 atoms in d = 1-3, in a box of side 10, each copy moved by normal
    steps of scale 1e-6 to 1. Data are continuous, so no costs tie; small
    steps keep the identity plan optimal, large ones do not.
    """
    rng = np.random.default_rng(2018)
    for _ in range(300):
        n, d = rng.integers(2, 13), rng.integers(1, 4)
        p = float(rng.choice((1.5, 2.0, 3.0, 8.0)))
        scale = float(rng.choice((1e-6, 1e-3, 0.1, 1.0)))
        xs = 10.0 * rng.random((n, d))
        weights = rng.random(n) + 0.05
        weights /= weights.sum()
        moved = xs + scale * rng.normal(size=(n, d))
        yield w.DiscreteMeasure(xs, weights), w.DiscreteMeasure(moved, weights), p


def coray_corpus():
    """Comonotone rays at p = 1.5 and 3 and PSD-gradient rays, each from two weighted starts.

    The PSD-gradient family is a ray only at p = 2, so it runs at that order.
    """
    rng = np.random.default_rng(2017)
    rays = [comonotone_ray(rng, k, p) for p in (1.5, 3.0) for k in (3, 4)]
    rays += [psd_gradient_ray(rng, k) for k in (3, 4)]
    for ray in rays:
        for n in (2, 3):
            weights = rng.random(n) + 0.1
            nu0 = w.DiscreteMeasure(rng.normal(size=(n, ray.dim)), weights / weights.sum())
            yield ray, nu0


def digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_weighted_simplex_plans_are_pinned():
    def entries():
        for a, b, cost_matrix in lp_corpus():
            left, right, masses, _ = ot._solve_lp(a, b, cost_matrix)
            yield from (left.astype(np.int64), right.astype(np.int64), masses)

    assert digest(entries()) == LP_CORPUS_SHA256


def test_equal_marginal_plans_are_pinned():
    def entries():
        for mu, nu, p in equal_marginal_corpus():
            plan = w.solve_ot(mu, nu, p)
            yield from (plan.left.astype(np.int64), plan.right.astype(np.int64), plan.masses)
            yield np.array([plan.cost])

    assert digest(entries()) == EQUAL_MARGINAL_CORPUS_SHA256


def test_coray_constructions_are_pinned():
    schedule = tuple(2.0**k for k in range(1, 13))
    results = [w.construct_coray(ray, nu0, schedule=schedule) for ray, nu0 in coray_corpus()]

    def outputs():
        for result in results:
            yield np.array(result.lengths + (result.start_offset,))
            yield from (result.ray.origins, result.ray.velocities, result.ray.weights)

    assert digest(outputs()) == CORAY_CORPUS_SHA256
    assert digest(np.array(result.diagnostics) for result in results) == CORAY_DIAGNOSTICS_SHA256
