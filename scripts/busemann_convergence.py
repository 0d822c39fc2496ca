#!/usr/bin/env python3
"""Busemann truncation curves against the exact value and the closed forms.

For the unit-speed line ray t -> delta_{(t, 0)} in R^2 the Busemann value
at delta_{(a, b)} is -a, which makes the truncation error directly
observable. The script evaluates a few probes and a four-atom cloud,
prints the doubling estimate beside ``busemann_exact`` (the limiting
transport problem, solved once) and the closed form, and writes one CSV
of the truncation curve per probe.

Usage:
    python scripts/busemann_convergence.py --out-dir out/
"""

import argparse
from pathlib import Path

import numpy as np

import wassray as w


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="out", help="directory for CSV output")
    parser.add_argument("--tol", type=float, default=1e-8, help="doubling stop tolerance")
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ray = w.make_dirac_ray((0.0, 0.0), (1.0, 0.0))
    probes = {
        "offset_unit": (w.dirac((0.0, 1.0)), 0.0),
        "point_2_5": (w.dirac((2.0, 5.0)), -2.0),
        "point_m3_4": (w.dirac((-3.0, 4.0)), 3.0),
    }
    rng = np.random.default_rng(11)
    cloud = w.DiscreteMeasure(rng.normal(size=(4, 2)), np.full(4, 0.25))
    # a point ray takes every atom to its one atom, so the value of a cloud
    # is minus its mean first coordinate, at every p
    probes["cloud"] = (cloud, -float(cloud.weights @ cloud.atoms[:, 0]))

    print(f"{'probe':>12} {'estimate':>16} {'exact':>16} {'closed form':>12} "
          f"{'t_final':>10} {'last decrement':>15}")
    for name, (nu, closed_form) in probes.items():
        est = w.busemann_value(ray, nu, tol=args.tol)
        exact = w.busemann_exact(ray, nu).value
        print(
            f"{name:>12} {est.value:>16.9f} {exact:>16.9f} {closed_form:>12.6f} "
            f"{est.t_final:>10.0f} {est.last_decrement:>15.3e}"
        )
        path = out_dir / f"busemann_{name}.csv"
        with open(path, "w") as fh:
            fh.write("t,truncation\n")
            for t, v in est.schedule:
                fh.write(f"{t!r},{v!r}\n")
    print(f"wrote {len(probes)} CSV files to {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
