import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wassray as w
from wassray.errors import DimensionMismatchError, EmptyMeasureError
from wassray.measures import _array_max, _array_min, _merge_keys, merge_atoms, position_key

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


def test_position_key_treats_signed_zero_alike():
    assert position_key(np.array([-0.0])) == position_key(np.array([0.0]))


def test_far_atoms_keep_their_own_keys():
    # rounding to 12 decimals scales by 1e12, which overflows past about
    # 1.8e296: both keys were inf, so the two atoms merged into one of
    # weight 1 (with numpy's overflow warning, an error in this suite)
    atoms, weights = merge_atoms(np.array([[1e300], [2e300]]), np.array([0.5, 0.5]))
    assert atoms.tolist() == [[1e300], [2e300]] and weights.tolist() == [0.5, 0.5]
    assert position_key(np.array([1e300, -2e300])) == (1e300, -2e300)
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
    """Reference pooling: one ``position_key`` per row, weights summed in order."""
    index_of = {}
    out_pos, out_w = [], []
    for pos, wt in zip(np.asarray(positions, dtype=float), np.asarray(weights, dtype=float)):
        key = position_key(pos)
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
