import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wassray as w
from wassray import busemann
from wassray.errors import DimensionMismatchError, EmptyMeasureError, MarginalMismatchError
from wassray.measures import _array_max, _array_min, _merge_keys, merge_atoms
from wassray.paths import GLUE_WEIGHT_ATOL, _checked_lift

from conftest import coords, same_bits


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        w.DiscreteMeasure([[0.0], [1.0]], [0.5, 0.6])


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        w.DiscreteMeasure([[0.0], [1.0]], [1.5, -0.5])


def test_zero_weight_atoms_pruned():
    m = w.DiscreteMeasure([[0.0], [1.0], [2.0]], [0.5, 0.0, 0.5])
    assert len(m) == 2
    assert np.array_equal(m.atoms.ravel(), [0.0, 2.0])


def test_all_zero_weights_is_empty():
    with pytest.raises(EmptyMeasureError):
        w.DiscreteMeasure([[0.0]], [0.0])


def test_no_atoms_is_empty():
    with pytest.raises(EmptyMeasureError):
        w.DiscreteMeasure(np.zeros((0, 2)), np.zeros(0))


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        w.DiscreteMeasure([[np.inf]], [1.0])
    with pytest.raises(ValueError):
        w.DiscreteMeasure([[0.0]], [np.nan])


def test_nan_atom_rejected():
    # first and not first: argmin and argmax stop at the first NaN
    for atoms in ([[0.0, np.nan], [1.0, 1.0]], [[np.nan, 0.0], [1.0, 1.0]]):
        with pytest.raises(ValueError, match="atom coordinates must be finite"):
            w.DiscreteMeasure(atoms, [0.5, 0.5])


def test_infinite_weight_rejected():
    for weights in ([np.inf, 0.5], [0.5, np.inf], [np.nan, 0.5]):
        with pytest.raises(ValueError, match="weights must be finite"):
            w.DiscreteMeasure([[0.0], [1.0]], weights)


@pytest.mark.parametrize("weights", [[1.0], [0.25, 0.25, 0.5], [[0.5, 0.5]]])
def test_weights_of_wrong_shape_rejected(weights):
    with pytest.raises(ValueError, match="weight array of shape"):
        w.DiscreteMeasure([[0.0], [1.0]], weights)


def test_flat_atom_input_means_real_line():
    m = w.DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
    assert m.dim == 1
    assert len(m) == 2


def test_arrays_are_read_only():
    m = w.dirac((1.0, 2.0))
    with pytest.raises(ValueError):
        m.atoms[0, 0] = 5.0


def test_dirac_and_uniform():
    d = w.dirac((1.0, 2.0))
    assert len(d) == 1 and d.weights[0] == 1.0
    u = w.uniform_measure([[0.0], [1.0], [2.0]])
    assert np.allclose(u.weights, 1.0 / 3.0)


def test_translate():
    m = w.uniform_measure([[0.0, 0.0], [1.0, 0.0]])
    shifted = m.translate((2.0, 3.0))
    assert np.array_equal(shifted.atoms, [[2.0, 3.0], [3.0, 3.0]])
    with pytest.raises(DimensionMismatchError):
        m.translate((1.0,))


def test_merge_atoms_pools_coincident_positions():
    atoms, weights = merge_atoms(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), np.array([0.25, 0.5, 0.25])
    )
    assert atoms.shape == (2, 2)
    assert np.array_equal(atoms[0], [0.0, 0.0])
    assert weights[0] == 0.5 and weights[1] == 0.5


def test_merge_atoms_keeps_first_occurrence_order():
    atoms, weights = merge_atoms(
        np.array([[3.0], [1.0], [3.0], [2.0]]), np.array([0.1, 0.2, 0.3, 0.4])
    )
    assert np.array_equal(atoms.ravel(), [3.0, 1.0, 2.0])
    assert np.allclose(weights, [0.4, 0.2, 0.4])


def test_merge_atoms_reads_flat_positions_as_the_real_line():
    positions, weights = merge_atoms(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert positions.tolist() == [[0.0], [1.0]] and weights.tolist() == [0.5, 0.5]
    positions, weights = merge_atoms(np.array([2.0, 2.0, 3.0]), np.array([0.25, 0.25, 0.5]))
    assert positions.tolist() == [[2.0], [3.0]] and weights.tolist() == [0.5, 0.5]


def row_key(position) -> tuple[float, ...]:
    """One row's merge key, from ``_merge_keys`` on that row alone."""
    return tuple(_merge_keys(np.asarray(position, dtype=float)).tolist())


def test_signed_zeros_share_one_key():
    assert _merge_keys(np.array([-0.0])).tolist() == _merge_keys(np.array([0.0])).tolist()
    atoms, weights = merge_atoms(np.array([[-0.0, 1.0], [0.0, 1.0]]), np.array([0.5, 0.5]))
    assert same_bits(atoms, np.array([[-0.0, 1.0]])) and weights.tolist() == [1.0]
    assert w.same_measure(w.dirac((-0.0, 1.0)), w.dirac((0.0, 1.0)), weight_atol=0.0)


def test_far_atoms_keep_their_own_keys():
    # rounding to 12 decimals scales by 1e12, which overflows past about
    # 1.8e296: both keys were inf, so the two atoms merged into one of
    # weight 1 (with numpy's overflow warning, an error in this suite)
    atoms, weights = merge_atoms(np.array([[1e300], [2e300]]), np.array([0.5, 0.5]))
    assert atoms.tolist() == [[1e300], [2e300]] and weights.tolist() == [0.5, 0.5]
    assert _merge_keys(np.array([1e300, -2e300])).tolist() == [1e300, -2e300]
    assert not w.same_measure(w.dirac((1e300,)), w.dirac((2e300,)))
    assert w.same_measure(w.dirac((1e300,)), w.dirac((1e300,)))
    # a far coordinate still pools with its exact copy, next to a near one
    atoms, weights = merge_atoms(
        np.array([[1e300, 0.5], [1e300, 0.5 + 1e-14], [-1e300, 0.5]]), np.array([0.25, 0.25, 0.5])
    )
    assert atoms.tolist() == [[1e300, 0.5], [-1e300, 0.5]] and weights.tolist() == [0.5, 0.5]


def test_keys_that_do_not_overflow_keep_the_rounded_bits():
    # up to the largest coordinate whose scaled value stays finite, a key is
    # numpy's rounding; past it, the coordinate itself
    top = np.nextafter(np.finfo(float).max / 1e12, 0.0)
    while not np.isfinite(top * 1e12):
        top = np.nextafter(top, 0.0)
    near = np.array([0.1234567890125, -3.0000000000001, 1e-13, 1e15, 1e296, -top, top])
    assert same_bits(_merge_keys(near), near.round(12))
    far = np.nextafter(top, np.inf)
    assert same_bits(_merge_keys(np.array([far, -far, 1.0])), np.array([far, -far, 1.0]))
    # non-finite coordinates keep the keys rounding gives them
    assert same_bits(_merge_keys(np.array([np.inf, -np.inf, 1e300])), np.array([np.inf, -np.inf, 1e300]))
    assert np.isnan(_merge_keys(np.array([np.nan, 1e300]))[0])


def test_same_measure_ignores_order_and_splitting():
    a = w.DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    b = w.DiscreteMeasure([[1.0], [0.0], [0.0]], [0.5, 0.25, 0.25])
    assert w.same_measure(a, b)
    c = w.DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
    assert not w.same_measure(a, c)


def merge_atoms_by_row(positions, weights):
    """Reference pooling: one ``row_key`` per row, weights summed in order."""
    index_of = {}
    out_pos, out_w = [], []
    for pos, wt in zip(np.asarray(positions, dtype=float), np.asarray(weights, dtype=float)):
        key = row_key(pos)
        if key in index_of:
            out_w[index_of[key]] += float(wt)
        else:
            index_of[key] = len(out_pos)
            out_pos.append(pos)
            out_w.append(float(wt))
    return np.array(out_pos), np.array(out_w)


# rows that tie exactly, differ only in the sign of zero, or lie 1e-13
# apart (some pairs share a 12-decimal key, some straddle a rounding edge)
tricky_rows = st.sampled_from(
    [
        (0.0, 1.0),
        (-0.0, 1.0),
        (0.0, -0.0),
        (0.1234567890125, 2.0),
        (0.1234567890125 + 1e-13, 2.0),
        (0.1234567890124, 2.0),
        (3.0000000000001, -1.5),
        (3.0, -1.5),
    ]
)


@given(
    positions=st.lists(
        st.one_of(tricky_rows, st.tuples(coords, coords)), min_size=1, max_size=10
    ),
    raw=st.data(),
)
def test_merge_atoms_matches_per_row_keys(positions, raw):
    n = len(positions)
    weights = np.asarray(raw.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    positions = np.asarray(positions)
    atoms, merged = merge_atoms(positions, weights)
    ref_atoms, ref_merged = merge_atoms_by_row(positions, weights)
    # compared by bits, so -0.0 and 0.0 count as different first-occurrence atoms
    assert same_bits(atoms, ref_atoms)
    assert same_bits(merged, ref_merged)


def same_measure_by_row(a, b, weight_atol=1e-9):
    """Reference verdict: each side pooled by ``merge_atoms_by_row``, atoms matched by ``row_key``."""
    if a.dim != b.dim:
        return False
    ka = {row_key(pos): wt for pos, wt in zip(*merge_atoms_by_row(a.atoms, a.weights))}
    kb = {row_key(pos): wt for pos, wt in zip(*merge_atoms_by_row(b.atoms, b.weights))}
    if set(ka) != set(kb):
        return False
    return all(abs(ka[k] - kb[k]) <= weight_atol for k in ka)


def glue_by_row(alpha, beta):
    """Reference glue: dicts keyed by ``row_key``, running sums in order, entries sorted."""
    groups, alpha_mass = {}, {}
    for i, end in enumerate(alpha.ends):
        key = row_key(end)
        groups.setdefault(key, []).append(i)
        alpha_mass[key] = alpha_mass.get(key, 0.0) + float(alpha.weights[i])
    beta_rows, beta_mass = {}, {}
    for a, j, m in zip(beta.left, beta.right, beta.masses):
        key = row_key(beta.mu.atoms[a])
        row = beta_rows.setdefault(key, {})
        row[int(j)] = row.get(int(j), 0.0) + float(m)
        beta_mass[key] = beta_mass.get(key, 0.0) + float(m)
    if set(groups) != set(beta_rows):
        raise MarginalMismatchError(
            "endpoint marginal of the lift and left marginal of the coupling "
            "sit on different positions"
        )
    for key, mass in alpha_mass.items():
        if abs(mass - beta_mass[key]) > GLUE_WEIGHT_ATOL:
            raise MarginalMismatchError(
                f"marginal weights differ by {abs(mass - beta_mass[key]):.3e} at position {key}"
            )
    joint = []
    for key, members in groups.items():
        for i in members:
            scale = float(alpha.weights[i]) / beta_mass[key]
            for j, m in beta_rows[key].items():
                if scale * m > 0.0:
                    joint.append((i, j, scale * m))
    return sorted(joint, key=lambda entry: entry[:2])


# rows with a coordinate past KEY_SAFE, which is its own key; next to it,
# near coordinates that tie, lie 1e-14 apart or differ in the sign of zero
far_rows = st.sampled_from(
    [(1e300, 0.5), (1e300, 0.5 + 1e-14), (-1e300, 0.5), (2e300, -0.0), (2e300, 0.0)]
)
glue_rows = st.one_of(tricky_rows, far_rows, st.tuples(coords, coords))


@st.composite
def glue_pairs(draw):
    """A zero-length lift and a coupling leaving a measure near its endpoint marginal.

    ``beta.mu`` holds every endpoint row, some split into coincident atoms,
    in shuffled order; sometimes it has an extra row, lacks one, or has one
    weight 1e-6 off, so each branch of ``glue`` is reached. Each atom sends
    its mass to one or both partners of its key, which sit beside the key's
    first row, so entries repeat a (key, partner) pair and no cost overflows.
    """
    ends = np.array(draw(st.lists(glue_rows, min_size=1, max_size=6)))
    n = len(ends)
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    alpha = w.GeodesicLift(ends, ends, weights / weights.sum(), 2.0, 0.0)
    rows, masses = [], []
    for end, weight in zip(alpha.ends, alpha.weights):
        if draw(st.booleans()):
            part = draw(st.floats(0.1, 0.9))
            rows += [end, end]
            masses += [weight * part, weight * (1.0 - part)]
        else:
            rows.append(end)
            masses.append(weight)
    change = draw(st.sampled_from(("none", "none", "extra", "fewer", "weight")))
    if change == "extra":
        rows.append(np.array(draw(glue_rows)))
        masses.append(0.1)
    elif change == "fewer" and len(rows) > 1:
        k = draw(st.integers(0, len(rows) - 1))
        del rows[k], masses[k]
    elif change == "weight":
        masses[0] *= 1.0 + 1e-6
    masses = np.array(masses)
    if change != "none":
        masses /= masses.sum()
    order = draw(st.permutations(range(len(rows))))
    mu = w.DiscreteMeasure(np.array(rows)[order], masses[order])
    first_of = {}
    left, partners, entry_masses = [], [], []
    for a, (atom, mass) in enumerate(zip(mu.atoms, mu.weights)):
        g = first_of.setdefault(row_key(atom), len(first_of))
        sides = draw(st.sampled_from(((0,), (1,), (0, 1))))
        part = draw(st.floats(0.1, 0.9)) if len(sides) == 2 else 1.0
        for side, share in zip(sides, (part, 1.0 - part)):
            left.append(a)
            partners.append(2 * g + side)
            entry_masses.append(mass * share)
    spots = {}
    for atom in mu.atoms:
        g = first_of[row_key(atom)]
        spots.setdefault(2 * g, atom + (0.5, 0.0))
        spots.setdefault(2 * g + 1, atom + (0.0, -0.5))
    used, right = np.unique(partners, return_inverse=True)
    entry_masses = np.array(entry_masses)
    nu = w.DiscreteMeasure(
        np.array([spots[k] for k in used.tolist()]), np.bincount(right, weights=entry_masses)
    )
    return alpha, w.Coupling(mu, nu, left, right, entry_masses, 2.0)


@settings(max_examples=300)
@given(pair=glue_pairs())
def test_same_measure_and_glue_match_per_row_keys(pair):
    alpha, beta = pair
    ends = w.DiscreteMeasure(alpha.ends, alpha.weights)
    for atol in (0.0, 1e-9):
        assert w.same_measure(ends, beta.mu, atol) == same_measure_by_row(ends, beta.mu, atol)
    try:
        want = glue_by_row(alpha, beta)
    except MarginalMismatchError as err:
        with pytest.raises(MarginalMismatchError) as got:
            w.glue(alpha, beta)
        assert str(got.value) == str(err)
        return
    joint = w.glue(alpha, beta)
    # every mass is positive, so == compares the masses bit for bit
    assert joint == want
    assert all(type(i) is int and type(j) is int and type(m) is float for i, j, m in joint)


@given(
    positions=st.lists(st.lists(coords, min_size=2, max_size=2), min_size=1, max_size=8),
    raw=st.data(),
)
def test_merge_conserves_mass(positions, raw):
    n = len(positions)
    weights = np.asarray(raw.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    weights = weights / weights.sum()
    _, merged = merge_atoms(np.asarray(positions), weights)
    assert abs(merged.sum() - 1.0) <= 1e-12


# the values on which argmax and argmin could part from the reductions
EDGE_FLOATS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)


@st.composite
def reduction_inputs(draw):
    """A 1-70 entry float64 or intp array: 1-D, 2-D, transposed or a strided view."""
    n = draw(st.integers(1, 70))
    if draw(st.booleans()):
        values = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-10.0, 10.0))
        dtype = np.float64
    else:
        info = np.iinfo(np.intp)
        values = st.integers(int(info.min), int(info.max))
        dtype = np.intp
    x = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)
    layout = draw(st.sampled_from(("flat", "matrix", "transposed", "strided", "reversed")))
    if layout in ("matrix", "transposed"):
        rows = draw(st.sampled_from([r for r in range(1, n + 1) if n % r == 0]))
        x = x.reshape(rows, n // rows)
        if layout == "transposed":
            x = x.T
    elif layout == "strided":
        spaced = np.zeros(2 * n, dtype=dtype)
        spaced[::2] = x
        x = spaced[::2]
    elif layout == "reversed":
        x = x[::-1]
    return x


@settings(max_examples=400)
@given(x=reduction_inputs())
def test_array_min_and_max_equal_the_reductions(x):
    for helper, reduction in ((_array_max, np.maximum), (_array_min, np.minimum)):
        got = helper(x)
        want = reduction.reduce(x, axis=None)
        # NaN exactly when the reduction gives NaN; otherwise the same value,
        # where +0.0 == -0.0: only a zero's sign may differ
        assert np.isnan(got) == np.isnan(want)
        assert np.isnan(want) or got == want
        for form in (helper, lambda empty: reduction.reduce(empty, axis=None)):
            with pytest.raises(ValueError):
                form(x[:0])


def weighted_pair():
    """Weighted measures whose plan is an LP with a kept basis."""
    mu = w.DiscreteMeasure([[0.0, 0.0], [1.0, 2.0], [-1.0, 1.0]], [0.2, 0.3, 0.5])
    return mu, w.DiscreteMeasure([[3.0, 4.0], [0.0, -1.0]], [0.4, 0.6])


def translation_ray():
    return w.make_translation_ray(weighted_pair()[0], (0.6, 0.8))


def read_back_ray(tmp_path):
    w.write_ray(translation_ray(), tmp_path / "r.rays")
    return w.read_ray(tmp_path / "r.rays")


FROZEN_VALUES = {
    "DiscreteMeasure": lambda _: w.DiscreteMeasure([[0.0, 0.0], [1.0, 2.0]], [0.25, 0.75]),
    "ray_section": lambda _: w.ray_section(translation_ray(), 1.5),
    "Coupling": lambda _: w.Coupling(w.dirac((0.0,)), w.dirac((1.0,)), [0], [0], [1.0], 2.0),
    "solve_ot": lambda _: w.solve_ot(*weighted_pair(), 2.0),
    "GeodesicLift": lambda _: w.GeodesicLift(
        [[0.0], [1.0]], [[2.0], [3.0]], [0.5, 0.5], 2.0, 2.0
    ),
    "lift_geodesic": lambda _: w.lift_geodesic(w.solve_ot(*weighted_pair(), 2.0)),
    "RayMeasure": lambda _: w.RayMeasure(
        [[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]] * 2, [0.5, 0.5], 2.0
    ),
    "read_ray": read_back_ray,
    "busemann_exact": lambda _: w.busemann_exact(translation_ray(), weighted_pair()[1]),
    # the CLI's plan, with its lower bound primed among the frozen fields
    "_limit_plan": lambda _: busemann._limit_plan(
        translation_ray(), weighted_pair()[1], lower_bound_first=True
    ),
}


@pytest.mark.parametrize("build", FROZEN_VALUES.values(), ids=FROZEN_VALUES.keys())
def test_every_value_type_is_frozen_with_read_only_arrays(tmp_path, build):
    value = build(tmp_path)
    arrays = 0
    for field in dataclasses.fields(value):
        item = getattr(value, field.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, item)
        if isinstance(item, np.ndarray):
            arrays += 1
            assert not item.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                item[...] = 0
    assert arrays >= 2
    # no other name can be set either, a cached derived value included
    for name in ("speed", "lower_bound", "_basis", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 0.0)


POINTS = [[0.0, 0.0], [1.0, 2.0]]


def read_back_measure(tmp_path, weights):
    rows = [" ".join(map(repr, point + [x])) for point, x in zip(POINTS, weights)]
    (tmp_path / "w.measure").write_text("\n".join(["measure", "dim 2", "atoms 2"] + rows) + "\n")
    return w.read_measure(tmp_path / "w.measure")


def read_back_rays(tmp_path, weights):
    rows = [" ".join(map(repr, point * 2 + [x])) for point, x in zip(POINTS, weights)]
    header = ["rays", "dim 2", "p 2.0", "entries 2"]
    (tmp_path / "w.rays").write_text("\n".join(header + rows) + "\n")
    return w.read_ray(tmp_path / "w.rays")


def library_lift(_, weights):
    points = np.array(POINTS)
    return _checked_lift(points, points.copy(), np.array(weights), 2.0, 0.0)


# every path into the one weighted-family check, each with two members
WEIGHTED_FAMILIES = {
    "DiscreteMeasure": ("atom", lambda _, wts: w.DiscreteMeasure(POINTS, wts)),
    "read_measure": ("atom", read_back_measure),
    "GeodesicLift": ("segment", lambda _, wts: w.GeodesicLift(POINTS, POINTS, wts, 2.0, 0.0)),
    "_checked_lift": ("segment", library_lift),
    "RayMeasure": ("ray", lambda _, wts: w.RayMeasure(POINTS, POINTS, wts, 2.0)),
    "read_ray": ("ray", read_back_rays),
}


@pytest.mark.parametrize("item, build", WEIGHTED_FAMILIES.values(), ids=WEIGHTED_FAMILIES.keys())
def test_every_weighted_family_checks_its_sum_against_one_tolerance(tmp_path, item, build):
    # a sum 2e-12 off is rejected with one message, naming the tolerance
    # and the sum (after the file readers' prefix); 5e-13 off is accepted
    far = [0.5, 0.5 + 2e-12]
    total = float(np.array(far).sum())
    message = f"{item} weights must sum to 1 within 1e-12, got {total!r}"
    with pytest.raises(ValueError, match=f"(^|: ){re.escape(message)}$"):
        build(tmp_path, far)
    near = [0.5, 0.5 + 5e-13]
    assert build(tmp_path, near).weights.tolist() == near
