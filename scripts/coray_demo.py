#!/usr/bin/env python3
"""Run the co-ray limit construction on two canonical setups.

Setup A: line ray t -> delta_{(t, 0)} with start delta_{(0, 1)}; the limit
is the parallel line through (0, 1). Setup B: a translation ray with a
random three-atom start; the limit is the start measure translated at unit
speed. The script prints per-step diagnostics (length over target time,
the ratio bound, the bound on the section movement), the gradient residual
of each constructed co-ray over its widest pair of times (0, 4), its
viscosity residual at its time-1 section, and how far the co-ray rebuilt
exactly from the constructed one's section at time one lies from its
shifted sections.

Usage:
    python scripts/coray_demo.py --steps 18
"""

import argparse

import numpy as np

import wassray as w


def describe(name, mu, nu0, schedule):
    result = w.construct_coray(mu, nu0, schedule=schedule)
    print(f"--- {name} ---")
    print(
        f"{'t_n':>10} {'L_n':>14} {'|L/t - 1|':>12} {'offset/t':>12} {'movement bound':>14}"
    )
    gaps = (float("nan"),) + result.diagnostics
    for t_n, length, gap in zip(result.schedule, result.lengths, gaps):
        print(
            f"{t_n:>10.0f} {length:>14.6f} {abs(length / t_n - 1.0):>12.3e} "
            f"{result.start_offset / t_n:>12.3e} {gap:>14.3e}"
        )
    print(f"converged: {result.converged}, candidate speed: {result.ray.speed:.12f}")
    gradient = w.coray_gradient_check(mu, result.ray)
    (pair,), (residual,) = gradient.pairs, gradient.residuals
    print(f"gradient residual over the pair {pair}: {residual:.3e}, passed: {gradient.passed}")
    viscosity = w.viscosity_check(mu, result.ray)
    print(f"viscosity residual at the time-1 section: {viscosity.equality_residual:.3e}, "
          f"passed: {viscosity.passed}")
    subray = w.subray_uniqueness_check(mu, result.ray, tau=1.0)
    print(f"subray rebuild max section gap: {subray.max_gap:.3e}, "
          f"passed: {subray.passed}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=18, help="schedule length (2^1..2^steps)")
    parser.add_argument("--seed", type=int, default=7, help="seed for setup B")
    args = parser.parse_args()
    schedule = tuple(2.0**n for n in range(1, args.steps + 1))

    line = w.make_dirac_ray((0.0, 0.0), (1.0, 0.0))
    describe("A: line ray, offset start", line, w.dirac((0.0, 1.0)), schedule)

    rng = np.random.default_rng(args.seed)
    base = w.DiscreteMeasure(rng.normal(size=(3, 2)), np.full(3, 1.0 / 3.0))
    nu0 = w.DiscreteMeasure(rng.normal(size=(3, 2)), np.full(3, 1.0 / 3.0))
    translation = w.make_translation_ray(base, (1.0, 0.0))
    describe("B: translation ray, random start", translation, nu0, schedule)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
