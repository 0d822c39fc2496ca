"""Plain-text files for measures and ray families.

Measure files::

    measure
    dim 2
    atoms 2
    0.0 0.0 0.5
    3.0 4.0 0.5

Each atom line holds the coordinates followed by the weight. Ray files::

    rays
    dim 2
    p 2.0
    entries 1
    0.0 0.0 1.0 0.0 1.0

Each entry line holds origin coordinates, velocity coordinates, weight.
Floats are written with repr, the shortest decimal that reads back to the
identical double, so write-read round trips are value-identical and the
weight-sum invariant survives serialization exactly. ``#`` starts a
comment; blank lines are ignored.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import MeasureFileError
from .measures import DiscreteMeasure
from .paths import RayMeasure

MEASURE_HEADER = "measure"
RAY_HEADER = "rays"


def _fmt(x: float) -> str:
    return repr(float(x))


def _token_lines(text: str) -> list[list[str]]:
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body.split())
    return lines


def _floats(tokens: list[str], where: str) -> list[float]:
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise MeasureFileError(f"non-numeric value in {where}: {exc}") from None


def _keyed_int(line: list[str], key: str) -> int:
    if len(line) != 2 or line[0] != key:
        raise MeasureFileError(f"expected '{key} <integer>', got {' '.join(line)!r}")
    try:
        value = int(line[1])
    except ValueError:
        raise MeasureFileError(f"expected an integer after '{key}', got {line[1]!r}") from None
    if value < 0:
        raise MeasureFileError(f"'{key}' must be a nonnegative integer, got {value}")
    return value


def format_measure(measure: DiscreteMeasure) -> str:
    out = [MEASURE_HEADER, f"dim {measure.dim}", f"atoms {len(measure)}"]
    # rows of Python floats, whose repr is _fmt's, without a numpy scalar each
    for atom, w in zip(measure.atoms.tolist(), measure.weights.tolist()):
        out.append(" ".join(map(repr, atom + [w])))
    return "\n".join(out) + "\n"


def parse_measure(text: str) -> DiscreteMeasure:
    lines = _token_lines(text)
    if not lines or lines[0] != [MEASURE_HEADER]:
        raise MeasureFileError(f"measure files start with the line {MEASURE_HEADER!r}")
    if len(lines) < 3:
        raise MeasureFileError("truncated measure file")
    dim = _keyed_int(lines[1], "dim")
    count = _keyed_int(lines[2], "atoms")
    body = lines[3:]
    if len(body) != count:
        raise MeasureFileError(f"expected {count} atom lines, found {len(body)}")
    atoms = []
    weights = []
    for line in body:
        if len(line) != dim + 1:
            raise MeasureFileError(
                f"atom lines need {dim} coordinates plus a weight, got {len(line)} values"
            )
        values = _floats(line, "atom line")
        atoms.append(values[:dim])
        weights.append(values[dim])
    try:
        return DiscreteMeasure(np.array(atoms), np.array(weights))
    except ValueError as exc:
        raise MeasureFileError(f"invalid measure data: {exc}") from None


def read_measure(path) -> DiscreteMeasure:
    return parse_measure(Path(path).read_text())


def write_measure(measure: DiscreteMeasure, path) -> None:
    Path(path).write_text(format_measure(measure))


def format_ray(ray: RayMeasure) -> str:
    out = [RAY_HEADER, f"dim {ray.dim}", f"p {_fmt(ray.p)}", f"entries {len(ray)}"]
    rows = zip(ray.origins.tolist(), ray.velocities.tolist(), ray.weights.tolist())
    for origin, velocity, w in rows:
        out.append(" ".join(map(repr, origin + velocity + [w])))
    return "\n".join(out) + "\n"


def parse_ray(text: str) -> RayMeasure:
    lines = _token_lines(text)
    if not lines or lines[0] != [RAY_HEADER]:
        raise MeasureFileError(f"ray files start with the line {RAY_HEADER!r}")
    if len(lines) < 4:
        raise MeasureFileError("truncated ray file")
    dim = _keyed_int(lines[1], "dim")
    if len(lines[2]) != 2 or lines[2][0] != "p":
        raise MeasureFileError(f"expected 'p <float>', got {' '.join(lines[2])!r}")
    p = _floats(lines[2][1:], "order line")[0]
    count = _keyed_int(lines[3], "entries")
    body = lines[4:]
    if len(body) != count:
        raise MeasureFileError(f"expected {count} entry lines, found {len(body)}")
    origins = []
    velocities = []
    weights = []
    for line in body:
        if len(line) != 2 * dim + 1:
            raise MeasureFileError(
                f"entry lines need {2 * dim} coordinates plus a weight, "
                f"got {len(line)} values"
            )
        values = _floats(line, "entry line")
        origins.append(values[:dim])
        velocities.append(values[dim : 2 * dim])
        weights.append(values[2 * dim])
    try:
        return RayMeasure(np.array(origins), np.array(velocities), np.array(weights), p)
    except ValueError as exc:
        raise MeasureFileError(f"invalid ray data: {exc}") from None


def read_ray(path) -> RayMeasure:
    return parse_ray(Path(path).read_text())


def write_ray(ray: RayMeasure, path) -> None:
    Path(path).write_text(format_ray(ray))
