"""Command-line front end.

One subcommand per core capability::

    wassray dist mu.measure nu.measure
    wassray couple mu.measure nu.measure
    wassray geodesic-section mu.measure nu.measure 0.5 --out mid.measure
    wassray ray-new dirac --origin 0,0 --velocity 1,0 --out ray.txt
    wassray ray-new translation --measure mu.measure --velocity 1,0 --out ray.txt
    wassray ray-validate ray.txt
    wassray busemann ray.txt nu.measure
    wassray busemann ray.txt nu.measure --out-csv curve.csv
    wassray coray ray.txt nu0.measure --out-ray coray.txt
    wassray coray ray.txt nu0.measure --schedule 2,4,8,16 --out-ray coray.txt
    wassray verify all --report report.txt

``busemann`` and ``coray`` compute the exact value and co-ray from the
limiting transport problem; the global ``--tol``, or any of ``--t0``,
``--max-doublings`` or ``--out-csv`` (busemann) and ``--schedule``,
``--test-times`` or ``--out-csv`` (coray), selects the truncation or limit
construction instead, which keeps the same output keys. Both exact
commands take their plan from ``busemann_exact``, so they agree. The
``busemann`` truncation runs the exact solve first, so a family that is
not a ray exits 2 on both paths. The global ``--p`` (default 2) sets the
order of the commands that read no ray file; a given ``--p`` that differs
from a ray file's p is an input error.

Exit codes: 0 success, 1 a verification check failed, 2 input or parse
error, 3 solver error, 4 non-convergence. Numeric output uses 12
significant digits.

``main(argv)`` is the supported in-process entry point: it returns the
exit code, may be called any number of times, and builds its parser once
per process, on the first call.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .busemann import (
    DEFAULT_MAX_DOUBLINGS,
    DEFAULT_T0,
    DEFAULT_TOL,
    BusemannEstimate,
    busemann_exact,
    busemann_value,
)
from .coray import DEFAULT_TOL as CORAY_TOL
from .coray import construct_coray, coray_exact
from .errors import MeasureFileError
from .io import format_measure, read_measure, read_ray, write_measure, write_ray
from .ot import solve_ot
from .paths import lift_geodesic, make_dirac_ray, make_translation_ray, section, validate_ray
from .verify import SUITE_NAMES, format_report, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_SOLVER_ERROR = 3
EXIT_NO_CONVERGENCE = 4


def _fmt(x: float) -> str:
    """``x`` to 12 significant digits; a negative zero prints as 0 (adding 0.0 makes it +0.0)."""
    return f"{float(x) + 0.0:.12g}"


def _vector(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise MeasureFileError(f"expected comma-separated numbers, got {text!r}") from None


def _time_pairs(text: str):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise MeasureFileError(f"expected 't1:t2' pairs, got {chunk!r}")
        pairs.append((float(parts[0]), float(parts[1])))
    return pairs


def _p(args) -> float:
    return 2.0 if args.p is None else args.p


def _read_ray(args):
    ray = read_ray(args.ray)
    if args.p is not None and args.p != ray.p:
        raise MeasureFileError(f"--p {args.p!r} differs from the ray file's p {ray.p!r}")
    return ray


def _cmd_dist(args) -> int:
    mu = read_measure(args.mu)
    nu = read_measure(args.nu)
    print(_fmt(solve_ot(mu, nu, _p(args)).cost))
    return EXIT_OK


def _cmd_couple(args) -> int:
    mu = read_measure(args.mu)
    nu = read_measure(args.nu)
    plan = solve_ot(mu, nu, _p(args))
    print(f"cost {_fmt(plan.cost)}")
    print(f"entries {len(plan.masses)}")
    for i, j, m in zip(plan.left, plan.right, plan.masses):
        print(f"{i} {j} {_fmt(m)}")
    return EXIT_OK


def _cmd_geodesic_section(args) -> int:
    mu = read_measure(args.mu)
    nu = read_measure(args.nu)
    lift = lift_geodesic(solve_ot(mu, nu, _p(args)))
    snapshot = section(lift, args.t)
    if args.out:
        write_measure(snapshot, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(format_measure(snapshot))
    return EXIT_OK


def _cmd_ray_new(args) -> int:
    velocity = _vector(args.velocity)
    if args.kind == "dirac":
        if args.origin is None:
            raise MeasureFileError("ray-new dirac needs --origin")
        ray = make_dirac_ray(_vector(args.origin), velocity, p=_p(args))
    else:
        if args.measure is None:
            raise MeasureFileError("ray-new translation needs --measure")
        ray = make_translation_ray(read_measure(args.measure), velocity, p=_p(args))
    write_ray(ray, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_ray_validate(args) -> int:
    ray = _read_ray(args)
    pairs = _time_pairs(args.pairs) if args.pairs else ()
    report = validate_ray(ray, pairs)
    print(f"speed {_fmt(ray.speed)}")
    print(f"pairs {len(report.pairs)}")
    for (t1, t2), gap, rel, resid in zip(
        report.pairs, report.gaps, report.relative_gaps, report.speed_residuals
    ):
        print(
            f"pair {_fmt(t1)} {_fmt(t2)} gap {_fmt(gap)} relative {_fmt(rel)} "
            f"speed-residual {_fmt(resid)}"
        )
    print(f"result {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_busemann(args) -> int:
    ray = _read_ray(args)
    nu = read_measure(args.nu)
    if all(opt is None for opt in (args.tol, args.t0, args.max_doublings, args.out_csv)):
        # the limit itself: no schedule, so nothing left to decrease
        exact = busemann_exact(ray, nu)
        estimate = BusemannEstimate(exact.value, float("inf"), 0.0, exact.lower_bound, (), True)
    else:
        # the truncation alone can settle on a family that is no ray; the
        # exact solve rejects one (NotARayError) before any output
        busemann_exact(ray, nu)
        estimate = busemann_value(
            ray,
            nu,
            t0=DEFAULT_T0 if args.t0 is None else args.t0,
            tol=DEFAULT_TOL if args.tol is None else args.tol,
            max_doublings=(
                DEFAULT_MAX_DOUBLINGS if args.max_doublings is None else args.max_doublings
            ),
        )
    print(f"value {_fmt(estimate.value)}")
    print(f"t_final {_fmt(estimate.t_final)}")
    print(f"last_decrement {_fmt(estimate.last_decrement)}")
    print(f"lower_bound {_fmt(estimate.lower_bound)}")
    print(f"converged {'true' if estimate.converged else 'false'}")
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write("t,value\n")
            for t, v in estimate.schedule:
                fh.write(f"{_fmt(t)},{_fmt(v)}\n")
        print(f"wrote {args.out_csv}")
    return EXIT_OK if estimate.converged else EXIT_NO_CONVERGENCE


def _cmd_coray(args) -> int:
    ray = _read_ray(args)
    nu0 = read_measure(args.nu0)
    if all(opt is None for opt in (args.tol, args.schedule, args.test_times, args.out_csv)):
        # exact: no schedule steps, nothing left to move
        coray, steps, diagnostic, converged = coray_exact(ray, nu0), 0, 0.0, True
    else:
        schedule = None if args.schedule is None else _vector(args.schedule)
        test_times = None if args.test_times is None else _vector(args.test_times)
        tol = args.tol if args.tol is not None else CORAY_TOL
        result = construct_coray(ray, nu0, schedule=schedule, test_times=test_times, tol=tol)
        coray, steps = result.ray, len(result.schedule)
        diagnostic, converged = result.diagnostics[-1], result.converged
    print(f"steps {steps}")
    print(f"final_diagnostic {_fmt(diagnostic)}")
    print(f"speed {_fmt(coray.speed)}")
    print(f"converged {'true' if converged else 'false'}")
    if args.out_ray:
        write_ray(coray, args.out_ray)
        print(f"wrote {args.out_ray}")
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write("t,length,gap\n")
            gaps = ("nan",) + tuple(_fmt(g) for g in result.diagnostics)
            for t, length, gap in zip(result.schedule, result.lengths, gaps):
                fh.write(f"{_fmt(t)},{_fmt(length)},{gap}\n")
        print(f"wrote {args.out_csv}")
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


def _cmd_verify(args) -> int:
    try:
        results = run_suite(args.suite, args.seed)
    except KeyError as exc:  # the one check of the suite name, in run_suite
        print(exc.args[0], file=sys.stderr)
        return EXIT_INPUT_ERROR
    report = format_report(args.suite, args.seed, results)
    sys.stdout.write(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wassray",
        description="Exact transport distances, geodesics, rays, co-rays, and "
        "Busemann functions for finitely supported measures on R^d.",
    )
    order = "transport order in (1, 16], default 2; a given --p must equal a ray file's p"
    parser.add_argument("--p", type=float, default=None, help=order)
    oracle = "stop tolerance; selects the busemann truncation or the coray construction"
    parser.add_argument("--tol", type=float, default=None, help=oracle)
    parser.add_argument("--seed", type=int, default=1, help="seed for the verify suites")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dist", help="transport distance between two measure files")
    sp.add_argument("mu")
    sp.add_argument("nu")
    sp.set_defaults(func=_cmd_dist)

    sp = sub.add_parser("couple", help="optimal coupling between two measure files")
    sp.add_argument("mu")
    sp.add_argument("nu")
    sp.set_defaults(func=_cmd_couple)

    sp = sub.add_parser(
        "geodesic-section", help="interpolating measure at a time along the geodesic"
    )
    sp.add_argument("mu")
    sp.add_argument("nu")
    sp.add_argument("t", type=float)
    sp.add_argument("--out", default=None, help="measure file to write (default stdout)")
    sp.set_defaults(func=_cmd_geodesic_section)

    sp = sub.add_parser("ray-new", help="write a ray file")
    sp.add_argument("kind", choices=("dirac", "translation"))
    sp.add_argument("--origin", default=None, help="comma-separated coordinates (dirac)")
    sp.add_argument("--measure", default=None, help="measure file (translation)")
    sp.add_argument("--velocity", required=True, help="comma-separated coordinates")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_ray_new)

    sp = sub.add_parser("ray-validate", help="sampled pair-coupling validation of a ray file")
    sp.add_argument("ray")
    sp.add_argument(
        "--pairs", default=None, help="extra time pairs as 't1:t2,t1:t2' beyond the defaults"
    )
    sp.set_defaults(func=_cmd_ray_validate)

    sp = sub.add_parser("busemann", help="Busemann value of a unit-speed ray at a measure")
    sp.add_argument("ray")
    sp.add_argument("nu")
    truncation = "; selects the doubling truncation instead of the exact value"
    sp.add_argument(
        "--t0", type=float, default=None, help=f"first time (default {DEFAULT_T0:g}){truncation}"
    )
    sp.add_argument(
        "--max-doublings",
        type=int,
        default=None,
        help=f"doubling cap (default {DEFAULT_MAX_DOUBLINGS}){truncation}",
    )
    sp.add_argument(
        "--out-csv", default=None, help=f"write the (t, truncation) schedule{truncation}"
    )
    sp.set_defaults(func=_cmd_busemann)

    sp = sub.add_parser("coray", help="co-ray from a start measure toward a unit-speed ray")
    sp.add_argument("ray")
    sp.add_argument("nu0")
    construction = "; selects the limit construction instead of the exact co-ray"
    sp.add_argument(
        "--schedule", default=None, help=f"comma-separated target times{construction}"
    )
    sp.add_argument(
        "--test-times", default=None, help=f"comma-separated evaluation times{construction}"
    )
    sp.add_argument("--out-ray", default=None, help="ray file for the co-ray")
    sp.add_argument(
        "--out-csv",
        default=None,
        help="write (t, length, gap) diagnostics, each gap an upper bound on the section "
        f"movement{construction}",
    )
    sp.set_defaults(func=_cmd_coray)

    sp = sub.add_parser("verify", help="run a seeded verification suite")
    sp.add_argument("suite", help="one of: " + ", ".join(SUITE_NAMES + ("all",)))
    sp.add_argument("--report", default=None, help="write the report to this path")
    sp.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main call, not at import; parse_args returns a
    # fresh namespace each time, so one parser serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
