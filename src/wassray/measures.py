"""Finitely supported probability measures on R^d.

Validation sits at one boundary: the public ``DiscreteMeasure``
constructor converts and copies its input, and the sections and
pushforwards the library builds itself skip only that conversion; both
run the same checks, from one helper.

Positions pool into atoms in one place too: ``_key_owners`` is the one
grouping by ``_merge_keys``, shared by ``merge_atoms``, ``same_measure``
and ``paths.glue``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptyMeasureError

WEIGHT_SUM_TOL = 1e-12

# Pushforwards legitimately collide atoms; positions that agree after
# rounding to this many decimals are treated as one atom.
MERGE_DECIMALS = 12
# no coordinate up to this size overflows when rounding scales it by
# 10**MERGE_DECIMALS (that starts past about 1.8e296)
KEY_SAFE = 1e296


def _array_max(x: np.ndarray):
    """The largest entry of a nonempty array, as ``np.maximum.reduce(x, axis=None)``.

    ``x.item(x.argmax())`` skips the ufunc reduction's set-up: 0.4-0.5 us
    instead of 1.2 us on 4 floats or an 8 x 8 matrix, 2.9 us instead of
    3.4-3.9 us at 128 x 128, and within run-to-run noise of it at 256 x 256
    and at 2^20 entries (2 vCPU, numpy 2.4.6, best of 5 runs), so one path
    serves every size. The contract every caller relies on:

    - argmax and argmin return the first NaN, so NaN propagates as it
      does through the reduction, and a comparison with the result fails
      on NaN;
    - the value equals the reduction's; only a zero's sign can differ,
      and every caller only compares the result, where +0.0 == -0.0;
    - an empty array raises ``ValueError``, as the reduction does.

    The result is a Python scalar (float or int), not a numpy one.
    """
    return x.item(x.argmax())


def _array_min(x: np.ndarray):
    """The least entry of a nonempty array, as ``np.minimum.reduce(x, axis=None)``.

    ``x.item(x.argmin())``, under ``_array_max``'s contract.
    """
    return x.item(x.argmin())


def as_point(coords) -> np.ndarray:
    """Coerce to a finite 1-D float64 coordinate vector."""
    pt = np.atleast_1d(np.asarray(coords, dtype=float))
    if pt.ndim != 1 or pt.size == 0:
        raise ValueError(f"a point is a nonempty coordinate vector, got shape {pt.shape}")
    if not np.all(np.isfinite(pt)):
        raise ValueError("point coordinates must be finite")
    return pt


def _merge_keys(positions: np.ndarray) -> np.ndarray:
    """Merge keys of a float64 array of positions, coordinate by coordinate.

    A key is the coordinate rounded to MERGE_DECIMALS decimals. Rounding
    scales the coordinate by 10**MERGE_DECIMALS first, which overflows to
    inf past about 1.8e296, where every coordinate would share the key inf.
    A coordinate whose scaled value overflows is its own key instead, with
    no overflow warning; every other key is the rounded coordinate. The one
    key function: ``_key_owners`` groups positions by these keys, and
    ``_distinct_rows`` tests a stack of sections for a shared one.
    """
    # NaN fails the comparison, and rounds to NaN as before
    if not positions.size or _array_max(np.abs(positions)) <= KEY_SAFE:
        return positions.round(MERGE_DECIMALS)
    with np.errstate(over="ignore"):
        keys = positions.round(MERGE_DECIMALS)
    return np.where(np.isinf(keys), positions, keys)


def _key_owners(positions: np.ndarray) -> tuple[list[int], dict[tuple[float, ...], int]]:
    """Group the rows of an (n, d) float64 array into atoms by ``_merge_keys``.

    The one grouping of positions, in one dict pass: returns each row's
    owner, the first row with all its keys, and a dict from each key to
    its owner, in input order. Keys compare as floats: -0.0 is 0.0.
    """
    first: dict[tuple[float, ...], int] = {}
    owner = [
        first.setdefault(tuple(key), k)
        for k, key in enumerate(_merge_keys(positions).tolist())
    ]
    return owner, first


def _distinct_rows(positions: np.ndarray) -> np.ndarray:
    """For a (T, n, d) stack of positions, whether each slice's n rows are n atoms.

    ``_key_owners``' rule, vectorised over the stack (a dict pass per slice
    would be slower). A NaN key matches not even itself: its slice is False.
    """
    keys = _merge_keys(positions)
    # each row shares every key with itself; another match merges two atoms
    matches = (keys[:, :, None, :] == keys[:, None, :, :]).all(axis=3).sum(axis=(1, 2))
    return matches == positions.shape[1]


def _pooled_pair(x: np.ndarray, wx: np.ndarray, y: np.ndarray, wy: np.ndarray):
    """Pool two weighted position arrays by one ``_key_owners`` of ``x`` then ``y``.

    None when a key sits on one side only. Else every owner is a row of
    ``x``; returns ``_key_owners``' result and each side's masses by owner
    row, which ``bincount`` adds in input order, as a running sum would.
    """
    n = len(x)
    owner, first = _key_owners(np.concatenate((x, y)))
    in_y = set(owner[n:])
    # an owner past x is a key x lacks; fewer owners than keys, one y lacks
    if max(in_y) >= n or len(in_y) != len(first):
        return None
    mass_x = np.bincount(owner[:n], weights=wx, minlength=n)
    mass_y = np.bincount(owner[n:], weights=wy, minlength=n)
    return owner, first, mass_x, mass_y


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Probability measure with finitely many atoms in R^d.

    ``atoms`` is an (n, d) array, ``weights`` an (n,) array of strictly
    positive masses summing to one. Zero-mass atoms are dropped on
    construction; negative weights or a weight sum off by more than 1e-12
    are rejected. Coincident atoms are kept as given: merging by position
    is the job of the pushforward helpers, not of the container.

    The constructor converts and copies its input, then runs every check
    (shape, finite atoms and weights, nonnegative weights, weight sum) in
    ``_checked_measure``. Sections and pushforwards built by the library
    run the same checks without the conversion.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms.reshape(-1, 1)  # flat input means atoms on the real line
        _checked_measure(atoms, np.atleast_1d(np.array(self.weights, dtype=float)), self)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def __len__(self) -> int:
        return self.atoms.shape[0]

    def translate(self, vector) -> "DiscreteMeasure":
        """The measure shifted by a fixed vector."""
        v = as_point(vector)
        if v.size != self.dim:
            raise DimensionMismatchError(
                f"translation vector has dimension {v.size}, measure has {self.dim}"
            )
        return DiscreteMeasure(self.atoms + v, self.weights)


def _checked_measure(atoms: np.ndarray, weights: np.ndarray, measure=None) -> DiscreteMeasure:
    """Run every ``DiscreteMeasure`` check on float64 arrays and freeze them into a measure.

    The one implementation of the measure checks. The public constructor
    converts and copies its input, then calls this with itself as
    ``measure``; the library calls it directly, with no ``measure``, on
    arrays it has just built (sections, pushforwards, files read by
    ``io``), so those skip only the conversion and the copy. The arrays are made read-only in place.
    """
    if atoms.ndim != 2:
        raise ValueError(f"atoms must form an (n, d) array, got shape {atoms.shape}")
    if atoms.shape[0] == 0:
        raise EmptyMeasureError("a discrete measure needs at least one atom")
    if atoms.shape[1] == 0:
        raise ValueError("ambient dimension must be at least 1")
    if weights.shape != (atoms.shape[0],):
        raise ValueError(
            f"got {atoms.shape[0]} atoms but weight array of shape {weights.shape}"
        )
    # _array_min and _array_max return NaN if any entry is NaN (their
    # contract), so these comparisons fail on NaN and inf alike
    if not (-np.inf < _array_min(atoms) and _array_max(atoms) < np.inf):
        raise ValueError("atom coordinates must be finite")
    low = _array_min(weights)
    if not (-np.inf < low and _array_max(weights) < np.inf):
        raise ValueError("weights must be finite")
    if low < 0.0:
        raise ValueError("weights must be nonnegative")
    if low == 0.0:
        keep = weights > 0.0
        atoms = atoms[keep]
        weights = weights[keep]
        if atoms.shape[0] == 0:
            raise EmptyMeasureError("every atom has zero mass")
    total = float(weights.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
    atoms.setflags(write=False)
    weights.setflags(write=False)
    if measure is None:
        measure = object.__new__(DiscreteMeasure)
    object.__setattr__(measure, "atoms", atoms)
    object.__setattr__(measure, "weights", weights)
    return measure


def dirac(point) -> DiscreteMeasure:
    """Unit mass at a single point."""
    pt = as_point(point)
    return DiscreteMeasure(pt[None, :], np.ones(1))


def uniform_measure(atoms) -> DiscreteMeasure:
    """Equal mass 1/n on each of the given atoms."""
    arr = np.array(atoms, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    n = arr.shape[0]
    if n == 0:
        raise EmptyMeasureError("a uniform measure needs at least one atom")
    return DiscreteMeasure(arr, np.full(n, 1.0 / n))


def merge_atoms(positions: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pool mass sitting at coincident positions.

    Positions sharing a key (``_merge_keys``: MERGE_DECIMALS decimals)
    collapse to a single atom placed at the first occurrence's exact
    coordinates; output order is first-occurrence order, so the result is
    deterministic. The grouping is ``_key_owners``'. A flat position array
    means atoms on the real line, as in ``DiscreteMeasure``.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim == 1:
        positions = positions.reshape(-1, 1)
    weights = np.asarray(weights, dtype=float)
    if len(positions) == 1:  # one row: nothing can coincide
        return positions.copy(), weights.copy()
    owner, first = _key_owners(positions)
    if len(first) == len(owner):  # nothing coincides
        return positions.copy(), weights.copy()
    keep = list(first.values())
    # bincount adds each atom's weight in input order, as a running sum would
    pooled = np.bincount(owner, weights=weights, minlength=len(owner))
    return positions[keep], pooled[keep]


def same_measure(a: DiscreteMeasure, b: DiscreteMeasure, weight_atol: float = 1e-9) -> bool:
    """Whether two measures agree as measures, up to per-atom weight slack.

    Both sides' atoms are pooled by one ``_key_owners`` grouping, so atom
    order and coincident-atom splitting do not matter.
    """
    if a.dim != b.dim:
        return False
    pooled = _pooled_pair(a.atoms, a.weights, b.atoms, b.weights)
    if pooled is None:
        return False
    _, _, wa, wb = pooled  # a row that owns no key has mass 0 on both sides
    return bool(np.all(np.abs(wa - wb) <= weight_atol))
