import re

import numpy as np
import pytest

import wassray as w
from wassray.errors import MeasureFileError
from wassray.io import (
    format_measure,
    format_ray,
    parse_measure,
    parse_ray,
    read_measure,
    read_ray,
)

from conftest import random_measure


def test_measure_round_trip_is_value_identical(tmp_path, rng):
    for _ in range(10):
        m = random_measure(rng, max_atoms=5, dim=3)
        path = tmp_path / "m.measure"
        w.write_measure(m, path)
        back = read_measure(path)
        assert np.array_equal(back.atoms, m.atoms)
        assert np.array_equal(back.weights, m.weights)


def test_measure_round_trip_keeps_exact_weight_sum():
    m = w.uniform_measure(np.arange(7.0).reshape(7, 1))
    back = parse_measure(format_measure(m))
    assert back.weights.sum() == m.weights.sum()


def test_ray_round_trip_is_value_identical(tmp_path, rng):
    mu0 = random_measure(rng, max_atoms=4, dim=2)
    ray = w.make_translation_ray(mu0, rng.normal(size=2), p=2.5)
    path = tmp_path / "r.rays"
    w.write_ray(ray, path)
    back = read_ray(path)
    assert np.array_equal(back.origins, ray.origins)
    assert np.array_equal(back.velocities, ray.velocities)
    assert np.array_equal(back.weights, ray.weights)
    assert back.p == ray.p


def test_comments_and_blank_lines_ignored():
    text = (
        "# a measure\n"
        "measure\n\n"
        "dim 1  # ambient dimension\n"
        "atoms 2\n"
        "0.0 0.5\n"
        "1.0 0.5\n"
    )
    m = parse_measure(text)
    assert len(m) == 2


def test_parse_rejects_wrong_header():
    with pytest.raises(MeasureFileError, match="start with"):
        parse_measure("rays\ndim 1\natoms 0\n")
    with pytest.raises(MeasureFileError, match="start with"):
        parse_ray("measure\ndim 1\np 2.0\nentries 0\n")


def test_parse_rejects_wrong_atom_count():
    with pytest.raises(MeasureFileError, match="atom lines"):
        parse_measure("measure\ndim 1\natoms 2\n0.0 1.0\n")


def test_parse_rejects_wrong_line_width():
    with pytest.raises(MeasureFileError, match="coordinates"):
        parse_measure("measure\ndim 2\natoms 1\n0.0 1.0\n")


def test_parse_rejects_non_numeric():
    with pytest.raises(MeasureFileError, match="non-numeric"):
        parse_measure("measure\ndim 1\natoms 1\nzero 1.0\n")


def test_parse_rejects_invalid_measure_data():
    with pytest.raises(MeasureFileError, match="invalid measure"):
        parse_measure("measure\ndim 1\natoms 1\n0.0 0.7\n")


@pytest.mark.parametrize(
    "parse,text,key",
    [
        (parse_measure, "measure\ndim -1\natoms 1\n0.0 1.0\n", "dim"),
        (parse_measure, "measure\ndim 1\natoms -1\n", "atoms"),
        (parse_ray, "rays\ndim -2\np 2\nentries 1\n0.0 1.0 1.0\n", "dim"),
        (parse_ray, "rays\ndim 1\np 2\nentries -1\n", "entries"),
    ],
)
def test_parse_rejects_negative_counts_by_name(parse, text, key):
    # a negative count once read on, into messages such as "expected -1
    # atom lines, found 0"; it is rejected where it is read, by its key
    message = f"'{key}' must be a nonnegative integer, got -"
    with pytest.raises(MeasureFileError, match=f"^{re.escape(message)}"):
        parse(text)


def test_parse_rejects_truncated_ray_file():
    with pytest.raises(MeasureFileError):
        parse_ray("rays\ndim 2\n")


def test_read_rejects_rays_in_dimension_zero(tmp_path):
    path = tmp_path / "flat.rays"
    path.write_text("rays\ndim 0\np 2\nentries 1\n1.0\n")
    with pytest.raises(MeasureFileError, match="ambient dimension must be at least 1"):
        read_ray(path)


def test_read_rejects_an_empty_ray_family(tmp_path):
    # no entry lines is a family without members, not one member in R^0
    path = tmp_path / "empty.rays"
    path.write_text("rays\ndim 2\np 2\nentries 0\n")
    with pytest.raises(MeasureFileError, match="a ray family needs at least one ray"):
        read_ray(path)


def test_ray_format_keeps_exponent():
    ray = w.make_dirac_ray((0.0, 0.0), (1.0, 0.0), p=1.5)
    assert parse_ray(format_ray(ray)).p == 1.5


def test_files_hold_the_repr_of_every_double(rng):
    # every number is written as repr(float(x)), the shortest decimal that
    # reads back to the same double: signed zeros, subnormals and huge
    # values among random ones
    specials = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 0.1]
    for _ in range(20):
        n, d = (int(x) for x in rng.integers(1, 6, size=2))
        values = rng.normal(size=(2, n, d)) * 10.0 ** rng.integers(-300, 300, size=(2, n, d))
        values.flat[rng.integers(0, values.size)] = specials[int(rng.integers(0, len(specials)))]
        origins, velocities = values
        weights = rng.random(n) + 0.1
        measure = w.DiscreteMeasure(origins, weights / weights.sum())
        rows = [[*atom, weight] for atom, weight in zip(measure.atoms, measure.weights)]
        expected = [f"measure\ndim {d}\natoms {n}\n"]
        expected += [" ".join(repr(float(x)) for x in row) + "\n" for row in rows]
        assert format_measure(measure) == "".join(expected)
        ray = w.RayMeasure(origins, velocities, measure.weights, 2.5)
        rows = zip(ray.origins, ray.velocities, ray.weights)
        expected = [f"rays\ndim {d}\np 2.5\nentries {n}\n"]
        expected += [
            " ".join(repr(float(x)) for x in [*o, *v, weight]) + "\n" for o, v, weight in rows
        ]
        assert format_ray(ray) == "".join(expected)
