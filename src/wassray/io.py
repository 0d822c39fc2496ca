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


def _keyed_value(line: list[str], key: str):
    """The value of a ``key <value>`` line: a float for ``p``, else a nonnegative integer."""
    if len(line) != 2 or line[0] != key:
        kind = "float" if key == "p" else "integer"
        raise MeasureFileError(f"expected '{key} <{kind}>', got {' '.join(line)!r}")
    if key == "p":
        return _floats(line[1:], "order line")[0]
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


def _read_table(text: str, kind: str, header: str, keys: tuple, item: str, vectors: int):
    """The keyed values and the rows of a measure or ray file, checked in order.

    After the ``header`` line comes one ``_keyed_value`` line per key of
    ``keys``, ``dim`` first and the row count last; each row holds
    ``vectors`` points of ``dim`` coordinates and a weight. ``kind`` and
    ``item`` name the file and a row in the messages. Returns the keyed
    values, one (count, dim) array per point of a row, and the weights.
    """
    lines = _token_lines(text)
    if not lines or lines[0] != [header]:
        raise MeasureFileError(f"{kind} files start with the line {header!r}")
    if len(lines) < 1 + len(keys):
        raise MeasureFileError(f"truncated {kind} file")
    values = [_keyed_value(line, key) for line, key in zip(lines[1:], keys)]
    dim, count = values[0], values[-1]
    body = lines[1 + len(keys) :]
    if len(body) != count:
        raise MeasureFileError(f"expected {count} {item} lines, found {len(body)}")
    width = vectors * dim
    rows = []
    for line in body:
        if len(line) != width + 1:
            raise MeasureFileError(
                f"{item} lines need {width} coordinates plus a weight, got {len(line)} values"
            )
        rows.append(_floats(line, f"{item} line"))
    table = np.array(rows).reshape(count, width + 1)
    return values, [table[:, k * dim : (k + 1) * dim] for k in range(vectors)], table[:, width]


def parse_measure(text: str) -> DiscreteMeasure:
    _, (atoms,), weights = _read_table(text, "measure", MEASURE_HEADER, ("dim", "atoms"), "atom", 1)
    try:
        return DiscreteMeasure(atoms, weights)
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
    (_, p, _), (origins, velocities), weights = _read_table(
        text, "ray", RAY_HEADER, ("dim", "p", "entries"), "entry", 2
    )
    try:
        return RayMeasure(origins, velocities, weights, p)
    except ValueError as exc:
        raise MeasureFileError(f"invalid ray data: {exc}") from None


def read_ray(path) -> RayMeasure:
    return parse_ray(Path(path).read_text())


def write_ray(ray: RayMeasure, path) -> None:
    Path(path).write_text(format_ray(ray))
