import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wassray as w
from wassray.errors import MeasureFileError
from wassray.io import (
    format_measure,
    format_ray,
    parse_measure,
    parse_ray,
    read_measure,
    read_ray,
    write_measure,
    write_ray,
)

from conftest import random_measure

# signed zeros, subnormals, huge values and a decimal with no exact double
SPECIAL_DOUBLES = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 0.1]


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
    path.write_text("rays\ndim 0\np 2\nentries 1\n1.0\n", encoding="utf-8")
    with pytest.raises(MeasureFileError, match="ambient dimension must be at least 1"):
        read_ray(path)


def test_read_rejects_an_empty_ray_family(tmp_path):
    # no entry lines is a family without members, not one member in R^0
    path = tmp_path / "empty.rays"
    path.write_text("rays\ndim 2\np 2\nentries 0\n", encoding="utf-8")
    with pytest.raises(MeasureFileError, match="a ray family needs at least one ray"):
        read_ray(path)


def test_ray_format_keeps_exponent():
    ray = w.make_dirac_ray((0.0, 0.0), (1.0, 0.0), p=1.5)
    assert parse_ray(format_ray(ray)).p == 1.5


def test_files_hold_the_repr_of_every_double(rng):
    # every number is written as repr(float(x)), the shortest decimal that
    # reads back to the same double: signed zeros, subnormals and huge
    # values among random ones
    specials = SPECIAL_DOUBLES
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


def frozen_copy_of(read, built):
    """Whether an array read from a file is float64, C-contiguous, read-only and ``built``'s bytes."""
    return (
        read.dtype == np.float64
        and read.flags.c_contiguous
        and not read.flags.writeable
        and read.shape == built.shape
        and read.tobytes() == built.tobytes()
    )


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("io")


@settings(max_examples=200)
@given(
    n=st.integers(1, 6),
    d=st.integers(1, 4),
    p=st.floats(1.0, 16.0, exclude_min=True),
    data=st.data(),
)
def test_read_files_hold_the_public_constructors_arrays(folder, n, d, p, data):
    # the reader builds its measures and rays without the constructors'
    # conversion; what it returns must be theirs on the same values, bit
    # for bit, whatever the double
    coordinate = st.one_of(
        st.sampled_from(SPECIAL_DOUBLES), st.floats(allow_nan=False, allow_infinity=False)
    )
    rows = st.lists(st.lists(coordinate, min_size=d, max_size=d), min_size=n, max_size=n)
    origins, velocities = data.draw(rows), data.draw(rows)
    masses = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    measure = w.DiscreteMeasure(origins, masses / masses.sum())
    ray = w.RayMeasure(origins, velocities, measure.weights, p)
    write_measure(measure, folder / "m.measure")
    write_ray(ray, folder / "r.rays")
    back, back_ray = read_measure(folder / "m.measure"), read_ray(folder / "r.rays")
    assert type(back) is w.DiscreteMeasure and type(back_ray) is w.RayMeasure
    assert frozen_copy_of(back.atoms, measure.atoms)
    assert frozen_copy_of(back.weights, measure.weights)
    assert frozen_copy_of(back_ray.origins, ray.origins)
    assert frozen_copy_of(back_ray.velocities, ray.velocities)
    assert frozen_copy_of(back_ray.weights, ray.weights)
    assert back_ray.p == ray.p


@pytest.mark.parametrize(
    "read, text, message",
    [
        (
            read_measure,
            "measure\ndim 1\natoms 3\n0.0 0.5\nzero 0.25\n1.0 half\n",
            "non-numeric value in atom line: could not convert string to float: 'zero'",
        ),
        (
            read_ray,
            "rays\ndim 1\np 2\nentries 2\n0.0 one 0.5\n0.0 two 0.5\n",
            "non-numeric value in entry line: could not convert string to float: 'one'",
        ),
        # a bad token before a row of the wrong width is named first, and
        # a row of the wrong width before a bad token is
        (
            read_measure,
            "measure\ndim 1\natoms 2\n0.0 nil\n1.0\n",
            "non-numeric value in atom line: could not convert string to float: 'nil'",
        ),
        (
            read_measure,
            "measure\ndim 1\natoms 2\n1.0\n0.0 nil\n",
            "atom lines need 1 coordinates plus a weight, got 1 values",
        ),
    ],
)
def test_read_names_the_first_faulty_body_line(tmp_path, read, text, message):
    path = tmp_path / "bad.file"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MeasureFileError) as raised:
        read(path)
    assert str(raised.value) == message


def test_read_takes_str_and_pathlib_paths(tmp_path):
    measure = w.uniform_measure([[0.0, 1.0], [2.0, 3.0]])
    ray = w.make_dirac_ray((0.0, 0.0), (1.0, 0.0))
    for path in (str(tmp_path / "s.measure"), pathlib.Path(tmp_path / "p.measure")):
        write_measure(measure, path)
        assert read_measure(path).atoms.tolist() == [[0.0, 1.0], [2.0, 3.0]]
    for path in (str(tmp_path / "s.rays"), pathlib.Path(tmp_path / "p.rays")):
        write_ray(ray, path)
        assert read_ray(path).velocities.tolist() == [[1.0, 0.0]]


def test_an_integer_is_no_path():
    # open(0) would read stdin, and open(1) write to stdout
    measure = w.dirac((0.0,))
    for call in (
        lambda: read_measure(0),
        lambda: read_ray(0),
        lambda: write_measure(measure, 1),
        lambda: write_ray(w.make_dirac_ray((0.0,), (1.0,)), 1),
    ):
        with pytest.raises(TypeError):
            call()


def test_files_are_utf8_with_comments_blank_lines_and_crlf_ends(tmp_path):
    path = tmp_path / "mu0.measure"
    text = (
        "# μ₀, the start\r\nmeasure\r\n\r\ndim 1\r\natoms 2  # μ₀\r\n"
        "0.0 0.5\r\n1.0 0.5\r\n"
    )
    path.write_bytes(text.encode("utf-8"))
    measure = read_measure(path)
    assert measure.atoms.tolist() == [[0.0], [1.0]] and measure.weights.tolist() == [0.5, 0.5]
    write_measure(measure, path)
    assert path.read_bytes() == b"measure\ndim 1\natoms 2\n0.0 0.5\n1.0 0.5\n"
