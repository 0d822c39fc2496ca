import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import wassray as w
from wassray import cli, ot
from wassray.cli import main
from wassray.verify import run_suite

from conftest import (
    genuine_ray_case,
    limit_costs,
    psd_gradient_ray,
    same_bits,
    step_chain,
    weighted_translation_case,
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    specs = {
        "a": w.dirac((0.0, 0.0)),
        "b": w.dirac((3.0, 4.0)),
        "c": w.dirac((1.0, 1.0)),
        "mu": w.uniform_measure([[0.0], [1.0]]),
        "nu": w.uniform_measure([[2.0], [3.0]]),
    }
    for name, measure in specs.items():
        p = tmp_path / f"{name}.measure"
        w.write_measure(measure, p)
        paths[name] = str(p)
    ray = tmp_path / "ray.rays"
    w.write_ray(w.make_dirac_ray((0.0, 0.0), (1.0, 0.0)), ray)
    paths["ray"] = str(ray)
    paths["dir"] = tmp_path
    return paths


def test_dist_dirac_pair(files, capsys):
    assert main(["dist", files["a"], files["b"]]) == 0
    assert float(capsys.readouterr().out.strip()) == 5.0


def test_dist_identical_files(files, capsys):
    assert main(["dist", files["a"], files["a"]]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_dist_two_atom_instance(files, capsys):
    assert main(["dist", files["mu"], files["nu"]]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0, abs=1e-11)


def test_dist_twelve_significant_digits(files, capsys):
    assert main(["couple", files["a"], files["c"]]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["cost 1.41421356237", "entries 1", "0 0 1"]


def test_couple_prints_plan(files, capsys):
    assert main(["couple", files["mu"], files["nu"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("cost 2")
    assert lines[1] == "entries 2"
    assert lines[2].split() == ["0", "0", "0.5"]


def test_parse_failure_exits_2(files, capsys):
    bad = files["dir"] / "bad.measure"
    bad.write_text("measure\ndim 1\natoms 2\n0.0 1.0\n", encoding="utf-8")
    assert main(["dist", str(bad), files["a"]]) == 2


def test_missing_file_exits_2(files):
    assert main(["dist", str(files["dir"] / "nope.measure"), files["a"]]) == 2


def test_dimension_mismatch_exits_2(files):
    assert main(["dist", files["a"], files["mu"]]) == 2


def test_bad_exponent_exits_2(files):
    assert main(["--p", "1.0", "dist", files["a"], files["b"]]) == 2


def test_overflowing_costs_exit_2(files, capsys, tmp_path):
    far = tmp_path / "far.measure"
    w.write_measure(w.uniform_measure([[3e20], [-1e20]]), far)
    dirac = tmp_path / "dirac.measure"
    w.write_measure(w.dirac((0.0,)), dirac)
    # one line on stderr, the input error: numpy warns of no overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--p", "16", "dist", str(dirac), str(far)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")
    assert "overflows double precision at p = 16" in err[0]
    # the same input shrunk below the overflow still solves
    w.write_measure(w.uniform_measure([[3e17], [-1e17]]), far)
    assert main(["--p", "16", "dist", str(dirac), str(far)]) == 0
    assert float(capsys.readouterr().out) < float("inf")


def test_a_squared_distance_overflow_between_diracs_is_one_input_error(tmp_path, capsys):
    # two Diracs 1.6e154 apart at p = 1.5: the squared distance passes the
    # largest double, and the single-atom solve raises the typed error on
    # its cost matrix, as a plan with more atoms does, with no numpy warning
    for name, x in (("near", 0.0), ("far", 1.6e154)):
        w.write_measure(w.dirac((x,)), tmp_path / f"{name}.measure")
    argv = ["--p", "1.5", "dist", str(tmp_path / "near.measure"), str(tmp_path / "far.measure")]
    line = input_error(capsys, argv)
    assert line.startswith("input error: ") and "squared distance" in line


def test_geodesic_section_round_trips(files, capsys):
    out = files["dir"] / "mid.measure"
    assert main(["geodesic-section", files["mu"], files["nu"], "1.0", "--out", str(out)]) == 0
    mid = w.read_measure(out)
    assert w.same_measure(mid, w.DiscreteMeasure([[1.0], [2.0]], [0.5, 0.5]))


@pytest.mark.parametrize(
    "command,named",
    [
        (["geodesic-section", "mu", "nu", "nan"], "section time t"),
        (["ray-validate", "ray", "--pairs", "0:inf"], "time pairs"),
    ],
)
def test_nan_and_infinite_times_are_one_input_error(files, capsys, command, named):
    argv = [files.get(arg, arg) for arg in command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1
    assert lines[0].startswith("input error: ") and named in lines[0]


def test_ray_new_and_validate(files, capsys):
    out = files["dir"] / "t.rays"
    assert main(
        ["ray-new", "translation", "--measure", files["mu"], "--velocity", "1", "--out", str(out)]
    ) == 0
    capsys.readouterr()
    assert main(["ray-validate", str(out)]) == 0
    assert "result PASS" in capsys.readouterr().out


def test_ray_validate_fails_on_crossing_family(files, capsys):
    crossing = w.RayMeasure([[0.0], [10.0]], [[1.0], [-1.0]], [0.5, 0.5], 2.0)
    path = files["dir"] / "x.rays"
    w.write_ray(crossing, path)
    assert main(["ray-validate", str(path)]) == 1
    assert "result FAIL" in capsys.readouterr().out


def test_busemann_along_ray(files, capsys):
    nu = files["dir"] / "on_ray.measure"
    w.write_measure(w.dirac((1.0, 0.0)), nu)
    csv = files["dir"] / "curve.csv"
    assert main(["busemann", files["ray"], str(nu), "--out-csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "value -1" in out
    rows = csv.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "t,value"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_busemann_exhaustion_exits_4(files, capsys):
    nu = files["dir"] / "off.measure"
    w.write_measure(w.dirac((0.0, 1.0)), nu)
    assert main(
        ["--tol", "1e-15", "busemann", files["ray"], str(nu), "--max-doublings", "2"]
    ) == 4


def test_busemann_rejects_fast_ray(files, capsys):
    fast = files["dir"] / "fast.rays"
    w.write_ray(w.make_dirac_ray((0.0, 0.0), (2.0, 0.0)), fast)
    assert main(["busemann", str(fast), files["a"]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: the Busemann function needs a unit-speed ray, got speed 2.0\n"


def test_coray_collinear_converges(files, capsys):
    nu0 = files["dir"] / "origin.measure"
    w.write_measure(w.dirac((0.0, 0.0)), nu0)
    out_ray = files["dir"] / "coray.rays"
    out_csv = files["dir"] / "diag.csv"
    code = main(
        [
            "coray", files["ray"], str(nu0),
            "--schedule", "2,4,8,16",
            "--out-ray", str(out_ray),
            "--out-csv", str(out_csv),
        ]
    )
    assert code == 0
    built = w.read_ray(out_ray)
    assert built.speed == pytest.approx(1.0, abs=1e-12)
    assert out_csv.read_text(encoding="utf-8").splitlines()[0] == "t,length,gap"


def test_coray_non_convergence_exits_4(files):
    nu0 = files["dir"] / "off2.measure"
    w.write_measure(w.dirac((0.0, 2.0)), nu0)
    assert main(["coray", files["ray"], str(nu0), "--schedule", "2,4"]) == 4


@pytest.mark.parametrize(
    "option,named",
    [
        (["coray", "--schedule", "2,nan"], "schedule entries"),
        (["coray", "--schedule", "2,inf"], "schedule entries"),
        (["coray", "--schedule", "0,2"], "schedule entries"),
        (["coray", "--test-times", "0,nan"], "test times"),
        (["coray", "--test-times", "-1"], "test times"),
        (["--tol", "nan", "coray", "--schedule", "2,4"], "tolerance tol"),
        (["--tol", "-1", "coray", "--schedule", "2,4"], "tolerance tol"),
        (["coray", "--schedule", ""], "schedule needs at least two entries"),
        (["coray", "--test-times", ""], "test times must be nonnegative and finite, got ()"),
    ],
)
def test_coray_construction_rejects_bad_times_and_tol_by_name(files, capsys, option, named):
    # NaN and inf used to reach the sections (or, for tol, run every step
    # and exit 4), and an empty list ran the defaults; now one input error
    # names the parameter, with no warning
    split = option.index("coray") + 1
    argv = option[:split] + [files["ray"], files["a"]] + option[split:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1
    assert lines[0].startswith("input error: ") and named in lines[0]


def cli_fields(capsys):
    return dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())


def test_busemann_defaults_to_the_exact_value(files, capsys):
    assert main(["busemann", files["ray"], files["b"]]) == 0
    assert cli_fields(capsys) == {
        "value": "-3",
        "t_final": "inf",
        "last_decrement": "0",
        "lower_bound": "-5",
        "converged": "true",
    }


def test_default_busemann_decides_the_non_ray_rule_on_its_printed_lower_bound(
    files, capsys, solves
):
    # the value -3 is below -1e-9, so the library's verdict solves W_p; the
    # CLI solves W_p first to print it, and the verdict decides on that
    # with no second solve
    assert main(["busemann", files["ray"], files["b"]]) == 0
    assert cli_fields(capsys)["value"] == "-3" and len(solves) == 1
    # the truncation path keeps the library's verdict, which solves W_p,
    # and the truncation solves it again as its lower bound
    solves.clear()
    assert main(["busemann", files["ray"], files["b"], "--t0", "1"]) == 0
    assert float(cli_fields(capsys)["lower_bound"]) == -5.0
    to_mu0 = [args for args in solves if args[1].atoms.tolist() == [[0.0, 0.0]]]
    assert len(to_mu0) == 2


def test_a_negative_zero_prints_as_0(tmp_path, capsys):
    # nu is the ray's own time-0 section: the lower bound is -W_p = -0.0
    assert cli._fmt(-0.0) == "0" and cli._fmt(0.0) == "0" and cli._fmt(-1e-300) == "-1e-300"
    w3 = w.DiscreteMeasure([[0.0, 0.0], [1.0, 2.0], [-1.0, 1.0]], [0.2, 0.3, 0.5])
    w.write_measure(w3, tmp_path / "w3.measure")
    rays = str(tmp_path / "t.rays")
    args = ["--measure", str(tmp_path / "w3.measure"), "--velocity", "0.6,0.8", "--out", rays]
    assert main(["ray-new", "translation", *args]) == 0
    capsys.readouterr()
    assert main(["busemann", rays, str(tmp_path / "w3.measure")]) == 0
    assert "lower_bound 0" in capsys.readouterr().out.splitlines()


def test_the_primed_lower_bound_is_read_with_no_solve(solves):
    ray, nu, _ = default_busemann_case("translation")
    plan = w.busemann_exact(ray, nu)
    assert len(solves) == 1 and "lower_bound" in vars(plan)
    distance = w.wasserstein_distance(nu, w.ray_section(ray, 0.0), ray.p)
    solves.clear()
    assert plan.lower_bound.hex() == (-distance).hex() and solves == []


def default_busemann_case(kind):
    """A ray, a measure and the LPs a default ``wassray busemann`` on them solves."""
    _, translation, nu = weighted_translation_case()
    if kind == "translation":
        # the limiting costs are separable, so the time-0 plan is optimal
        return translation, nu, 1
    if kind == "comonotone":
        ray, probes = genuine_ray_case("comonotone", 3.0)
        return ray, probes[2], 1
    if kind == "psd-gradient-miss":
        # the time-0 basis fails the certificate on the limiting costs
        rng = np.random.default_rng(0)
        ray = psd_gradient_ray(rng, 3)
        return ray, w.DiscreteMeasure(rng.normal(size=(3, 2)), [0.2, 0.3, 0.5]), 2
    if kind == "pooled-origins":
        # two rays share an origin, so the section has two atoms, not three
        origins = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        ray = w.RayMeasure(origins, [[1.0, 0.0]] * 3, [0.2, 0.3, 0.5], 2.0)
        atoms = [[0.0, 1.0], [2.0, 0.0], [1.0, 1.0], [3.0, 3.0]]
        return ray, w.DiscreteMeasure(atoms, [0.1, 0.2, 0.3, 0.4]), 2
    return translation, w.dirac((3.0, 4.0)), 0


@pytest.mark.parametrize(
    "kind", ["translation", "comonotone", "psd-gradient-miss", "pooled-origins", "dirac"]
)
def test_default_busemann_takes_its_limit_plan_from_the_time0_basis(
    tmp_path, capsys, lp_shapes, kind
):
    # the printed lower bound's plan is the limit plan whenever its basis is
    # certified on the limiting costs, and no second LP runs. The printed
    # fields are the library's, whichever plan was kept
    ray, nu, lps = default_busemann_case(kind)
    w.write_ray(ray, tmp_path / "r.rays")
    w.write_measure(nu, tmp_path / "nu.measure")
    ray, nu = w.read_ray(tmp_path / "r.rays"), w.read_measure(tmp_path / "nu.measure")
    assert main(["busemann", str(tmp_path / "r.rays"), str(tmp_path / "nu.measure")]) == 0
    assert len(lp_shapes) == lps
    fields = cli_fields(capsys)
    assert fields["value"] == cli._fmt(w.busemann_exact(ray, nu).value)
    distance = w.wasserstein_distance(nu, w.ray_section(ray, 0.0), ray.p)
    assert fields["lower_bound"] == cli._fmt(-distance)


def equal_weight_limit_case(rng, kind, k):
    """A genuine k-ray ray and a k-atom measure that carries the ray's weights."""
    if kind == "translation":
        weights = rng.random(k) + 0.1
        mu0 = w.DiscreteMeasure(rng.normal(size=(k, 2)), weights / weights.sum())
        v = rng.normal(size=2)
        p = float(rng.choice([1.5, 2.0, 2.5]))
        ray = w.make_translation_ray(mu0, v / float(np.sqrt(v @ v)), p=p)
    else:
        ray = psd_gradient_ray(rng, k)
    return ray, w.DiscreteMeasure(rng.normal(size=(k, 2)), ray.weights)


def test_default_busemann_limit_plan_is_the_library_s_on_equal_weights():
    # with nu carrying the ray's weights, transport_plan asks the assignment
    # solver before any LP, so the time-0 basis may not stand in for it:
    # busemann_exact's plan, which the CLI prints, is a cold transport_plan's
    # on the limiting costs, entry for entry and bit for bit
    rng = np.random.default_rng(1)
    for k in range(60):
        ray, nu = equal_weight_limit_case(rng, ("translation", "psd")[k % 2], 3 + k % 4)
        exact = w.busemann_exact(ray, nu)
        cost = limit_costs(ray, nu)
        cold = ot.transport_plan(nu.weights, ray.weights, cost)
        for field, entries in zip(("left", "right", "masses"), cold):
            assert same_bits(getattr(exact, field), entries)
        assert exact.value.hex() == float(np.add.reduce(cold[2] * cost[cold[0], cold[1]])).hex()


def default_busemann_error(tmp_path, capsys, ray, nu):
    """rc, stdout and stderr of a default ``wassray busemann`` on a ray and a measure."""
    w.write_ray(ray, tmp_path / "e.rays")
    w.write_measure(nu, tmp_path / "e.measure")
    rc = main(["busemann", str(tmp_path / "e.rays"), str(tmp_path / "e.measure")])
    out, err = capsys.readouterr()
    return rc, out, err


def test_default_busemann_keeps_its_error_order(tmp_path, capsys):
    # weighted multi-atom measures, so the time-0 solve is an LP with a basis
    # the limit may keep: the checks, then the W_p solve, then the non-ray
    # verdict, each error before any output
    nu = w.DiscreteMeasure([[3.0, 4.0], [0.0, 1.0], [-1.0, 2.0]], [0.2, 0.3, 0.5])
    mu0 = w.DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.4, 0.6])
    fast = w.RayMeasure(mu0.atoms, [[2.0, 0.0]] * 2, mu0.weights, 2.0)
    line = "input error: the Busemann function needs a unit-speed ray, got speed 2.0\n"
    assert default_busemann_error(tmp_path, capsys, fast, nu) == (2, "", line)
    line = "input error: measures live in dimensions 1 and 2\n"
    flat = w.DiscreteMeasure([[0.0], [1.0]], [0.25, 0.75])
    translation = w.make_translation_ray(mu0, (0.6, 0.8))
    assert default_busemann_error(tmp_path, capsys, translation, flat) == (2, "", line)
    line = (
        "input error: transport cost overflows double precision at p = 16 (atoms 1e+20 "
        "apart): d**p passes the largest double once atoms lie about 1.84e+19 apart\n"
    )
    far = w.DiscreteMeasure([[0.0, 1e20], [1.0, 1e20]], [0.3, 0.7])
    p16 = w.make_translation_ray(mu0, (1.0, 0.0), p=16.0)
    assert default_busemann_error(tmp_path, capsys, p16, far) == (2, "", line)
    line = (
        "input error: Busemann value -9.0 fell below its lower bound -2.23606797749979; "
        "the ray family is not a ray\n"
    )
    crossing = w.RayMeasure([[0.0], [10.0]], [[1.0], [-1.0]], [0.5, 0.5], 2.0)
    three = w.DiscreteMeasure([[0.0], [5.0], [10.0]], [0.3, 0.2, 0.5])
    assert default_busemann_error(tmp_path, capsys, crossing, three) == (2, "", line)


@pytest.mark.parametrize(
    "option", [["--t0", "1"], ["--max-doublings", "24"], ["--out-csv", "curve.csv"]]
)
def test_busemann_truncation_options_select_the_doubling_schedule(files, capsys, option):
    if option[0] == "--out-csv":
        option = [option[0], str(files["dir"] / option[1])]
    assert main(["busemann", files["ray"], files["b"], *option]) == 0
    fields = cli_fields(capsys)
    assert float(fields["t_final"]) < float("inf") and float(fields["last_decrement"]) > 0.0
    assert float(fields["value"]) == pytest.approx(-3.0, abs=1e-4)


def test_a_global_tol_selects_the_busemann_truncation(files, capsys):
    # a stop tolerance belongs to the truncation: given alone it must not be
    # dropped for the exact value. The decrement after 24 doublings is about
    # 2e-7, so 1e-30 exhausts the schedule
    assert main(["--tol", "1e-30", "busemann", files["ray"], files["b"]]) == 4
    fields = cli_fields(capsys)
    assert fields["t_final"] == str(2**24) and fields["converged"] == "false"
    assert float(fields["value"]) == pytest.approx(-3.0, abs=1e-6)


def test_the_truncation_csv_holds_its_header_and_a_row_per_step(files, capsys):
    # on the one-ray family b = -<(3, 4), (1, 0)> = -3; the schedule 1, 2,
    # 4, ... runs to t_final, one CSV row per step under the header
    csv = files["dir"] / "curve.csv"
    assert main(["busemann", files["ray"], files["b"], "--t0", "1", "--out-csv", str(csv)]) == 0
    fields = cli_fields(capsys)
    assert fields["converged"] == "true"
    assert float(fields["value"]) == pytest.approx(-3.0, abs=1e-4)
    rows = csv.read_text(encoding="utf-8").splitlines()
    steps = int(float(fields["t_final"])).bit_length()
    assert rows[0] == "t,value" and len(rows) == steps + 1 >= 3
    assert [row.split(",")[0] for row in rows[1:]] == [str(2**j) for j in range(steps)]


def test_coray_defaults_to_the_exact_coray(files, capsys):
    nu0 = files["dir"] / "offset.measure"
    w.write_measure(w.dirac((0.0, 2.0)), nu0)
    out_ray = files["dir"] / "coray.rays"
    assert main(["coray", files["ray"], str(nu0), "--out-ray", str(out_ray)]) == 0
    assert cli_fields(capsys) == {
        "steps": "0",
        "final_diagnostic": "0",
        "speed": "1",
        "converged": "true",
        "wrote": str(out_ray),
    }
    coray = w.read_ray(out_ray)
    assert coray.origins.tolist() == [[0.0, 2.0]] and coray.velocities.tolist() == [[1.0, 0.0]]


@pytest.mark.parametrize(
    "option",
    [["--schedule", "2,4,8,16"], ["--test-times", "0,1"], ["--out-csv", "diag.csv"]],
)
def test_coray_construction_options_select_the_limit_construction(files, capsys, option):
    nu0 = files["dir"] / "origin.measure"
    w.write_measure(w.dirac((0.0, 0.0)), nu0)
    if option[0] == "--out-csv":
        option = [option[0], str(files["dir"] / option[1])]
    assert main(["coray", files["ray"], str(nu0), *option]) == 0
    assert int(cli_fields(capsys)["steps"]) > 0


def test_a_global_tol_selects_the_coray_construction(files, capsys):
    # a convergence bound belongs to the construction: given alone it must
    # not be dropped for the exact co-ray. From (3, 4) on the default
    # schedule 2, 4, ..., 65536 the last movement, 2.4e-4 at test time 4, is
    # above 1e-30 and below 1e-3; the co-ray file reads back as a unit-speed ray
    assert main(["--tol", "1e-30", "coray", files["ray"], files["b"]]) == 4
    fields = cli_fields(capsys)
    assert fields["steps"] == "16" and fields["converged"] == "false"
    assert float(fields["final_diagnostic"]) == pytest.approx(2.44e-4, rel=1e-2)
    schedule = ",".join(str(2**k) for k in range(1, 17))
    out_ray = files["dir"] / "coray.rays"
    argv = ["coray", files["ray"], files["b"], "--schedule", schedule, "--out-ray", str(out_ray)]
    assert main(["--tol", "1e-3", *argv]) == 0
    assert cli_fields(capsys)["converged"] == "true"
    assert out_ray.read_text(encoding="utf-8").splitlines()[0] == "rays"
    assert w.read_ray(out_ray).speed == pytest.approx(1.0, abs=1e-12)


def test_busemann_and_coray_reject_a_crossing_family_as_input(files, capsys):
    crossing = files["dir"] / "x.rays"
    w.write_ray(w.RayMeasure([[0.0], [10.0]], [[1.0], [-1.0]], [0.5, 0.5], 2.0), crossing)
    nu = files["dir"] / "x.measure"
    w.write_measure(w.DiscreteMeasure([[0.0], [10.0]], [0.5, 0.5]), nu)
    for command in ("busemann", "coray"):
        assert main([command, str(crossing), str(nu)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: ")
        assert "the ray family is not a ray" in err


def test_busemann_reads_an_overflowing_lower_bound_before_any_output(files, capsys):
    # the exact value at a Dirac 1e20 off a p = 16 ray is 0, which clears
    # the non-ray rule at any distance; the printed lower bound W_16
    # overflows, and reading it is one input error before any output
    ray = files["dir"] / "far.rays"
    w.write_ray(w.make_dirac_ray((0.0, 0.0), (1.0, 0.0), p=16.0), ray)
    nu = files["dir"] / "far.measure"
    w.write_measure(w.dirac((0.0, 1e20)), nu)
    assert main(["busemann", str(ray), str(nu)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "input error: transport cost overflows double precision at p = 16 (atoms 1e+20 "
        "apart): d**p passes the largest double once atoms lie about 1.84e+19 apart\n"
    )
    # the co-ray reads no lower bound: it is the ray from the Dirac along (1, 0)
    out_ray = files["dir"] / "far.coray.rays"
    assert main(["coray", str(ray), str(nu), "--out-ray", str(out_ray)]) == 0
    coray = w.read_ray(out_ray)
    assert coray.origins.tolist() == [[0.0, 1e20]] and coray.velocities.tolist() == [[1.0, 0.0]]


@pytest.mark.parametrize(
    "option", [["--t0", "1"], ["--max-doublings", "24"], ["--out-csv", "curve.csv"]]
)
def test_busemann_truncation_rejects_a_crossing_family_as_input(files, capsys, option):
    # the truncation alone settles at 0 on this family and would report it
    # converged; the exact solve rejects the family before any output
    crossing = files["dir"] / "x.rays"
    w.write_ray(w.RayMeasure([[0.0], [10.0]], [[1.0], [-1.0]], [0.5, 0.5], 2.0), crossing)
    nu = files["dir"] / "x.measure"
    w.write_measure(w.DiscreteMeasure([[0.0], [10.0]], [0.5, 0.5]), nu)
    csv = files["dir"] / "curve.csv"
    if option[0] == "--out-csv":
        option = [option[0], str(csv)]
    assert main(["busemann", str(crossing), str(nu), *option]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ") and "not a ray" in err
    assert not csv.exists()


def test_busemann_truncation_defect_is_a_solver_error(files, capsys, monkeypatch):
    def defective(*args, **kwargs):
        raise w.MonotonicityError("truncation increased")

    monkeypatch.setattr(cli, "busemann_value", defective)
    assert main(["busemann", files["ray"], files["b"], "--t0", "1"]) == 3
    assert capsys.readouterr().err == "solver error: truncation increased\n"


def test_reused_parser_keeps_no_state_between_calls(files, capsys, monkeypatch):
    builds = []

    def counting_build_parser(build=cli.build_parser):
        builds.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    nu0 = files["dir"] / "origin.measure"
    w.write_measure(w.dirac((0.0, 0.0)), nu0)

    exhaust = ["--tol", "1e-15", "busemann", files["ray"], files["b"], "--max-doublings", "2"]
    assert main(exhaust) == 4
    assert main(["busemann", files["ray"], files["b"], "--t0", "1"]) == 0
    assert float(cli_fields(capsys)["t_final"]) < float("inf")
    assert main(["busemann", files["ray"], files["b"]]) == 0
    assert cli_fields(capsys)["t_final"] == "inf"

    assert main(["coray", files["ray"], str(nu0), "--schedule", "2,4"]) == 4
    assert cli_fields(capsys)["steps"] == "2"
    assert main(["coray", files["ray"], str(nu0)]) == 0
    assert cli_fields(capsys)["steps"] == "0"

    assert main(["--seed", "3", "verify", "ot"]) == 0
    assert "seed: 3" in capsys.readouterr().out.splitlines()
    assert main(["verify", "ot"]) == 0
    assert "seed: 1" in capsys.readouterr().out.splitlines()

    with pytest.raises(SystemExit) as usage_error:
        main(["dist", files["a"]])
    assert usage_error.value.code == 2
    capsys.readouterr()
    assert main(["dist", files["a"], files["b"]]) == 0
    assert capsys.readouterr().out == "5\n"

    assert len(builds) == 1


def test_documented_verify_all_form_exits_0(capsys):
    assert main(["--seed", "1", "verify", "all"]) == 0
    assert "checks: 28 run, 0 failed" in capsys.readouterr().out.splitlines()
    # global flags go before the subcommand
    with pytest.raises(SystemExit) as usage_error:
        main(["verify", "all", "--seed", "1"])
    assert usage_error.value.code == 2


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "nosuch"]) == 2


def test_run_suite_rejects_unknown_name_and_names_the_choices(capsys):
    with pytest.raises(KeyError) as raised:
        run_suite("nosuch", 1)
    message = raised.value.args[0]
    assert "'nosuch'" in message
    for name in ("ot", "ray", "busemann", "coray", "all"):
        assert name in message
    # the CLI reports the library's one message
    assert main(["verify", "nosuch"]) == 2
    assert capsys.readouterr().err.strip() == message


def test_verify_ot_writes_deterministic_report(files, capsys):
    report1 = files["dir"] / "r1.txt"
    report2 = files["dir"] / "r2.txt"
    assert main(["--seed", "3", "verify", "ot", "--report", str(report1)]) == 0
    assert main(["--seed", "3", "verify", "ot", "--report", str(report2)]) == 0
    assert report1.read_bytes() == report2.read_bytes()
    assert b"result: PASS" in report1.read_bytes()


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "wassray", "dist", files["a"], files["b"]],
        capture_output=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5"


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "a", "a"],
        ["busemann", "ray", "b", "--out-csv", "curve.csv"],
        ["--seed", "1", "verify", "ot", "--report", "r.txt"],
    ],
)
def test_every_text_file_is_opened_as_utf8(files, argv):
    # with the locale's default encoding, Python warns (EncodingWarning)
    # on every open that names none; here the warning is an error
    outputs = {"curve.csv": str(files["dir"] / "curve.csv"), "r.txt": str(files["dir"] / "r.txt")}
    argv = [files.get(arg, outputs.get(arg, arg)) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-W", "error::EncodingWarning", "-m", "wassray", *argv],
        capture_output=True,
        encoding="utf-8",
        env={**os.environ, "PYTHONWARNDEFAULTENCODING": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def wassray_cli(*argv):
    """Run ``python -m wassray`` on the arguments; its stdout, after checking it exited 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "wassray", *argv], capture_output=True, encoding="utf-8"
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_coray_steps_keep_the_bits_of_the_warm_solve_chain(tmp_path):
    # a weighted translation ray in the plane from a far weighted start at
    # p = 1.5. A 1-D comonotone family cannot serve: its sorted plan never
    # changes. Here the plan changes at steps 3 and 9 of 20, and the last
    # plan is neither of the first two, so the construction takes runs of
    # kept plans from one stacked certificate each, solves the steps where
    # it fails, and keeping a plan too long would show in the ray. The ray
    # it writes must be byte-identical to the one built from the last plan
    # of the step chain, one target at a time (``step_chain``); both
    # files hold repr floats
    (tmp_path / "chain-mu0.measure").write_text(
        "measure\ndim 2\natoms 4\n9.6 -0.1 0.25\n-4.7 -3.0 0.35\n-0.5 -5.5 0.1\n10.8 1.3 0.3\n",
        encoding="utf-8",
    )
    (tmp_path / "chain-start.measure").write_text(
        "measure\ndim 2\natoms 3\n-5.2 -8.7 0.45\n10.7 -9.6 0.38\n-10.9 15.7 0.17\n",
        encoding="utf-8",
    )
    rays, built = str(tmp_path / "chain.rays"), tmp_path / "built.rays"
    wassray_cli(
        "--p", "1.5", "ray-new", "translation", "--measure", str(tmp_path / "chain-mu0.measure"),
        "--velocity=-0.28,0.96", "--out", rays,
    )
    schedule = ",".join(str(2**k) for k in range(1, 21))
    wassray_cli(
        "coray", rays, str(tmp_path / "chain-start.measure"), "--schedule", schedule,
        "--out-ray", str(built),
    )
    ray, nu0 = w.read_ray(rays), w.read_measure(tmp_path / "chain-start.measure")
    _, *steps = step_chain(ray, nu0, [2.0**k for k in range(1, 21)])
    plans = [(plan.left.tobytes(), plan.right.tobytes(), plan.masses.tobytes()) for plan in steps]
    changes = [k for k in range(2, 21) if plans[k - 1] != plans[k - 2]]
    assert len(set(plans)) == 3 and changes == [3, 9]
    plan = steps[-1]
    origins = plan.mu.atoms[plan.left]
    velocities = (plan.nu.atoms[plan.right] - origins) / plan.cost
    chained = tmp_path / "chained.rays"
    w.write_ray(w.RayMeasure(origins, velocities, plan.masses, ray.p), chained)
    assert built.read_bytes() == chained.read_bytes()


def test_dirac_truncation_keeps_the_values_of_the_warm_solve_chain(tmp_path):
    # a point ray from a point 1.2 off it: 21 doubling steps, which the
    # star of the single-atom plan keeps with no solve after the lower
    # bound. The schedule written must be the one of the step chain, one
    # time at a time (``step_chain``), stopped where the decrement falls
    # below the default 1e-6, in the CLI's 12 significant digits
    rays, nu, csv = (str(tmp_path / name) for name in ("point.rays", "nu.measure", "t.csv"))
    wassray_cli("ray-new", "dirac", "--origin", "0,0", "--velocity", "1,0", "--out", rays)
    w.write_measure(w.dirac((0.0, 1.2)), nu)
    out = wassray_cli("busemann", rays, nu, "--t0", "1", "--out-csv", csv)
    assert "converged true" in out.splitlines()
    ray, measure = w.read_ray(rays), w.read_measure(nu)
    times = [2.0**j for j in range(25)]
    chain = step_chain(ray, measure, times)
    next(chain)  # the lower bound's plan starts the chain
    rows, previous = ["t,value"], None
    for t, plan in zip(times, chain):
        value = plan.cost - t
        rows.append(f"{t:.12g},{value:.12g}")
        if previous is not None and previous - value < 1e-6:
            break
        previous = value
    assert len(rows) == 22
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "\n".join(rows) + "\n"


def test_forest_plans_keep_their_simplex_basis_along_a_schedule(tmp_path):
    # weights 0.1-0.4 against 0.5/0.3/0.2 have tied partial sums
    # (0.1 + 0.4 = 0.5), so the optimal plans along a translation ray's
    # schedule are forests, fewer than m + n - 1 positive entries. Each
    # plan keeps the basis tree the simplex stopped on, zero-mass cells
    # included, and the schedule's stacked pass certifies that tree on the
    # later sections. At p = 2 the Busemann value of a translation ray is
    # <mean(mu0) - mean(nu), v> = -0.0892
    mu0, nu, rays = (str(tmp_path / name) for name in ("mu0.measure", "nu.measure", "t.rays"))
    (tmp_path / "mu0.measure").write_text(
        "measure\ndim 2\natoms 4\n0.001 0.299 0.1\n-0.274 -0.891 0.2\n-0.455 -0.992 0.3\n"
        "0.06 1.34 0.4\n",
        encoding="utf-8",
    )
    (tmp_path / "nu.measure").write_text(
        "measure\ndim 2\natoms 3\n-0.492 -0.62 0.5\n0.49 0.357 0.3\n0.105 -0.93 0.2\n",
        encoding="utf-8",
    )
    wassray_cli("ray-new", "translation", "--measure", mu0, "--velocity", "1,0", "--out", rays)
    lines = wassray_cli("busemann", rays, nu, "--t0", "1").splitlines()
    assert "converged true" in lines
    # b = <mean(mu0) - mean(nu), (1, 0)>, from the two files' atoms and weights
    closed = 0.1 * 0.001 + 0.2 * -0.274 + 0.3 * -0.455 + 0.4 * 0.06 - (
        0.5 * -0.492 + 0.3 * 0.49 + 0.2 * 0.105
    )
    values = [float(line.split()[1]) for line in lines if line.split()[0] == "value"]
    assert len(values) == 1 and abs(values[0] - closed) < 1e-4
    schedule = ",".join(str(2**k) for k in range(1, 17))
    out = wassray_cli("coray", rays, nu, "--schedule", schedule)
    assert "converged true" in out.splitlines()


def test_a_weighted_geodesic_section_lifts_its_plan_after_a_cold_solve(tmp_path):
    # a weighted 1-D pair at p = 2: its optimal plan has 3 entries, a
    # spanning tree of the 2 x 2 bipartite graph, and geodesic-section
    # lifts it once a cold solve of the same instance confirms its cost.
    # W_2 = sqrt(0.3 * 4 + 0.2 * 9 + 0.5 * 4) = sqrt(5), and at half of it
    # every entry has moved half its way
    mu, nu = str(tmp_path / "pair-mu.measure"), str(tmp_path / "pair-nu.measure")
    (tmp_path / "pair-mu.measure").write_text(
        "measure\ndim 1\natoms 2\n0.0 0.5\n1.0 0.5\n",
        encoding="utf-8",
    )
    (tmp_path / "pair-nu.measure").write_text(
        "measure\ndim 1\natoms 2\n2.0 0.3\n3.0 0.7\n",
        encoding="utf-8",
    )
    lines = wassray_cli("couple", mu, nu).splitlines()
    assert "cost 2.2360679775" in lines and "entries 3" in lines
    lines = wassray_cli("geodesic-section", mu, nu, repr(5**0.5 / 2)).splitlines()
    assert lines[2] == "atoms 3"
    # the atoms and weights to 1e-12: the middle weight is 0.5 - 0.3 in doubles
    rows = [[float(x) for x in line.split()] for line in lines[3:]]
    assert len(rows) == 3
    for (x, weight), (x_want, weight_want) in zip(rows, [(1.0, 0.3), (1.5, 0.2), (2.0, 0.5)]):
        assert abs(x - x_want) <= 1e-12 and abs(weight - weight_want) <= 1e-12


def test_busemann_truncation_takes_only_finite_doubling_times(files, capsys):
    # doubling t0 = 1 passes the largest double at the 1,024th doubling; the
    # schedule stops at the last finite time, so a larger cap is no error
    assert main(["busemann", files["ray"], files["b"], "--max-doublings", "1100"]) == 0
    assert cli_fields(capsys)["converged"] == "true"


def coray_gaps(csv):
    """The gap column of a co-ray ``--out-csv`` file, under its header, as text."""
    rows = csv.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "t,length,gap"
    return [row.split(",")[2] for row in rows[1:]]


def halving(gaps):
    """Whether each of the last three gaps is 0.45-0.55 of the one before."""
    last = [float(gap) for gap in gaps[-4:]]
    return all(0.45 <= b / a <= 0.55 for a, b in zip(last, last[1:]))


def test_coray_construction_from_a_weighted_start(tmp_path, capsys):
    # a translation ray from a weighted 3-atom measure and a weighted
    # 2-atom start: each gap is the cost of the two steps' plans glued at
    # the start's atoms, an upper bound on the section movement, and it
    # halves with each doubling of the target time
    (tmp_path / "mu0.measure").write_text(
        "measure\ndim 2\natoms 3\n0.0 0.0 0.2\n1.0 0.5 0.3\n-0.5 1.5 0.5\n",
        encoding="utf-8",
    )
    (tmp_path / "start.measure").write_text(
        "measure\ndim 2\natoms 2\n0.3 -0.4 0.6\n-1.0 0.8 0.4\n",
        encoding="utf-8",
    )
    rays, gaps = str(tmp_path / "t.rays"), tmp_path / "gaps.csv"
    assert main([
        "ray-new", "translation", "--measure", str(tmp_path / "mu0.measure"),
        "--velocity", "0.6,0.8", "--out", rays,
    ]) == 0
    schedule = ",".join(str(2**k) for k in range(1, 17))
    assert main([
        "--tol", "1e-3", "coray", rays, str(tmp_path / "start.measure"),
        "--schedule", schedule, "--out-csv", str(gaps),
    ]) == 0
    column = coray_gaps(gaps)
    # the first step has no movement; every later gap is finite and >= 0
    assert len(column) == 16 and column[0] == "nan"
    assert all(re.fullmatch(r"[0-9.e+-]+", gap) and float(gap) >= 0.0 for gap in column[1:])
    assert halving(column)
    # a p = 16 translation ray from a far weighted 3-atom start, whose kept
    # plan changes along the schedule: its time-0 section is the start at
    # every step, so with test time 0 alone every gap is exactly 0
    (tmp_path / "far-mu0.measure").write_text(
        "measure\ndim 2\natoms 4\n9.6 -0.1 0.25\n-4.7 -3.0 0.35\n-0.5 -5.5 0.1\n10.8 1.3 0.3\n",
        encoding="utf-8",
    )
    (tmp_path / "far-start.measure").write_text(
        "measure\ndim 2\natoms 3\n-5.2 -8.7 0.45\n10.7 -9.6 0.38\n-10.9 15.7 0.17\n",
        encoding="utf-8",
    )
    rays, time0 = str(tmp_path / "t16.rays"), tmp_path / "time0.csv"
    assert main([
        "--p", "16", "ray-new", "translation", "--measure", str(tmp_path / "far-mu0.measure"),
        "--velocity=-0.28,0.96", "--out", rays,
    ]) == 0
    assert main([
        "--p", "16", "coray", rays, str(tmp_path / "far-start.measure"),
        "--test-times", "0", "--out-csv", str(time0),
    ]) == 0
    column = coray_gaps(time0)
    assert len(column) == 16 and column[0] == "nan" and set(column[1:]) == {"0"}


def test_coray_construction_at_p8_halves_its_gaps(tmp_path):
    # a weighted 6-atom translation ray on the line and a weighted 7-atom
    # start: each gap is about half the one before, down to 2.0e-6 at
    # t = 2^20. When the gaps were solved movements, a certificate whose
    # tolerance grows with the largest cost accepted wrong movement plans
    # here and stalled at 1.6e-3
    (tmp_path / "mu0-line.measure").write_text(
        "measure\ndim 1\natoms 6\n0.242 0.147\n0.442 0.255\n-0.968 0.066\n0.351 0.346\n"
        "0.82 0.054\n-0.728 0.132\n",
        encoding="utf-8",
    )
    (tmp_path / "start-line.measure").write_text(
        "measure\ndim 1\natoms 7\n0.567 0.157\n0.569 0.075\n-0.833 0.122\n0.23 0.105\n"
        "-0.377 0.179\n-0.26 0.144\n0.988 0.218\n",
        encoding="utf-8",
    )
    rays, gaps = str(tmp_path / "t8.rays"), tmp_path / "gaps8.csv"
    assert main([
        "--p", "8", "ray-new", "translation", "--measure", str(tmp_path / "mu0-line.measure"),
        "--velocity=-1", "--out", rays,
    ]) == 0
    schedule = ",".join(str(2**k) for k in range(1, 21))
    assert main([
        "--p", "8", "coray", rays, str(tmp_path / "start-line.measure"),
        "--schedule", schedule, "--out-csv", str(gaps),
    ]) == 0
    column = coray_gaps(gaps)
    assert len(column) == 20 and halving(column)


def input_error(capsys, argv):
    """The one stderr line of a command that must exit 2, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return lines[0]


@pytest.mark.parametrize("command", ["busemann", "coray"])
def test_an_empty_ray_family_is_one_input_error_that_names_it(tmp_path, capsys, command):
    # a ray file with no entry lines is a family without members: it once
    # read as one ray in R^0 and was reported as a dimension error
    (tmp_path / "empty.rays").write_text("rays\ndim 2\np 2\nentries 0\n", encoding="utf-8")
    (tmp_path / "point.measure").write_text(
        "measure\ndim 2\natoms 1\n3.0 4.0 1.0\n",
        encoding="utf-8",
    )
    argv = [command, str(tmp_path / "empty.rays"), str(tmp_path / "point.measure")]
    line = input_error(capsys, argv)
    assert re.match(r"input error: .*a ray family needs at least one ray", line)


NON_FINITE_FILES = {
    "good.measure": "measure\ndim 2\natoms 1\n3.0 4.0 1.0\n",
    "good.rays": "rays\ndim 2\np 2\nentries 1\n0.0 0.0 1.0 0.0 1.0\n",
    "atom-first.measure": "measure\ndim 2\natoms 2\nnan 0.0 0.5\n1.0 2.0 0.5\n",
    "atom-last.measure": "measure\ndim 2\natoms 2\n0.0 0.0 0.5\n1.0 inf 0.5\n",
    "weight-first.measure": "measure\ndim 2\natoms 2\n0.0 0.0 inf\n1.0 2.0 0.5\n",
    "weight-last.measure": "measure\ndim 2\natoms 2\n0.0 0.0 0.5\n1.0 2.0 nan\n",
    "data-first.rays": "rays\ndim 2\np 2\nentries 2\nnan 0.0 1.0 0.0 0.5\n1.0 0.0 1.0 0.0 0.5\n",
    "data-last.rays": "rays\ndim 2\np 2\nentries 2\n0.0 0.0 1.0 0.0 0.5\n1.0 0.0 1.0 -inf 0.5\n",
    "weight-first.rays": "rays\ndim 2\np 2\nentries 2\n0.0 0.0 1.0 0.0 inf\n1.0 0.0 1.0 0.0 0.5\n",
    "weight-last.rays": "rays\ndim 2\np 2\nentries 2\n0.0 0.0 1.0 0.0 0.5\n1.0 0.0 1.0 0.0 nan\n",
}


@pytest.mark.parametrize("where", ["first", "last"])
def test_non_finite_file_values_are_one_input_error(tmp_path, capsys, where):
    # nan or inf in the first and in the last data line of a measure file
    # and of a ray file: the finiteness checks find the extremes with
    # argmin and argmax, which stop at the first NaN, so the position of
    # the bad value must not matter
    for name, text in NON_FINITE_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    good_measure, good_rays = str(tmp_path / "good.measure"), str(tmp_path / "good.rays")
    atom, weight = (str(tmp_path / f"{kind}-{where}.measure") for kind in ("atom", "weight"))
    data, ray_weight = (str(tmp_path / f"{kind}-{where}.rays") for kind in ("data", "weight"))
    coordinates = "invalid measure data: atom coordinates must be finite"
    weights = "invalid measure data: atom weights must be finite"
    for message, argv in [
        (coordinates, ["dist", atom, good_measure]),
        (weights, ["dist", good_measure, weight]),
        (coordinates, ["busemann", good_rays, atom]),
        (weights, ["busemann", good_rays, weight]),
        ("invalid ray data: ray coordinates must be finite", ["busemann", data, good_measure]),
        ("invalid ray data: ray weights must be finite", ["busemann", ray_weight, good_measure]),
    ]:
        assert input_error(capsys, argv) == f"input error: {message}"


def test_a_far_ray_pair_at_p16_is_one_input_error(tmp_path, capsys):
    # a Dirac ray's sections 1e20 apart: the induced plan's p-mean raises
    # the typed error before its power is taken, so stderr is one line
    rays = str(tmp_path / "d16.rays")
    argv = ["--p", "16", "ray-new", "dirac", "--origin", "0", "--velocity", "1", "--out", rays]
    assert main(argv) == 0
    capsys.readouterr()
    line = input_error(capsys, ["ray-validate", rays, "--pairs", "0:1e20"])
    assert line.startswith("input error: transport cost overflows double precision at p = 16")


@pytest.mark.parametrize("command", ["ray-validate", "busemann", "coray"])
def test_a_ray_faster_than_the_squared_limit_is_one_input_error(tmp_path, capsys, command):
    # a velocity 1e200 long has a squared length past the largest double:
    # the ray's speed is inf, with no numpy overflow warning, and raises the
    # typed error, so stderr is one line
    (tmp_path / "fast.rays").write_text(
        "rays\ndim 2\np 2\nentries 1\n0.0 0.0 1e200 0.0 1.0\n",
        encoding="utf-8",
    )
    (tmp_path / "point.measure").write_text(
        "measure\ndim 2\natoms 1\n3.0 4.0 1.0\n",
        encoding="utf-8",
    )
    operands = ["fast.rays"] + (["point.measure"] if command != "ray-validate" else [])
    line = input_error(capsys, [command] + [str(tmp_path / name) for name in operands])
    assert line.startswith("input error: ") and "squared distance" in line


@pytest.mark.parametrize(
    "command,operands",
    [("ray-validate", ["ray"]), ("busemann", ["ray", "b"]), ("coray", ["ray", "b"])],
)
def test_a_global_p_other_than_the_ray_files_is_one_input_error(files, capsys, command, operands):
    # these commands take p from the ray file (p = 2 here); a --p of 3 was
    # once dropped, and busemann printed the p = 2 value -3 with exit 0
    paths = [files[name] for name in operands]
    line = input_error(capsys, ["--p", "3", command] + paths)
    assert line == "input error: --p 3.0 differs from the ray file's p 2.0"
    # the file's own p is accepted, and gives the output of no --p at all
    assert main([command] + paths) == 0
    plain = capsys.readouterr().out
    assert main(["--p", "2", command] + paths) == 0
    assert capsys.readouterr().out == plain
