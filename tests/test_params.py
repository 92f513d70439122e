"""The parameter table: every model is one flat array of one dtype, and its
named tensors are views of it that never come loose."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efpc.errors import ShapeMismatch
from efpc.model import ModelParams
from efpc.model.params import zeros_like


@st.composite
def _layouts(draw) -> dict[str, tuple[int, ...]]:
    """1 to 6 named shapes of 0 to 3 dimensions, each of size 0 to 5."""
    names = draw(st.lists(st.text("abcdef", min_size=1, max_size=3), min_size=1, max_size=6,
                          unique=True))
    return {name: tuple(draw(st.lists(st.integers(0, 5), max_size=3))) for name in names}


@settings(max_examples=100, deadline=None)
@given(_layouts(), st.sampled_from([np.float32, np.float64]), st.data())
def test_a_table_is_one_flat_array_whose_names_stay_views_of_it(layout, dtype, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tensors = {name: rng.standard_normal(shape).astype(dtype) for name, shape in layout.items()}
    params = ModelParams(tensors)
    table = params.tensors
    assert list(table) == list(tensors)
    for name, t in tensors.items():
        assert table[name].shape == t.shape and table[name].dtype == dtype
        assert table[name].tobytes() == t.tobytes(), name
    assert table.flat.dtype == dtype
    assert table.flat.tobytes() == b"".join(t.tobytes() for t in tensors.values())
    assert params.parameter_count() == table.flat.size
    # a copy: the caller's arrays are not the table's
    assert not any(np.shares_memory(table.flat, t) for t in tensors.values())

    zeros = zeros_like(table)
    assert list(zeros.shapes.items()) == list(table.shapes.items())
    assert zeros.flat.dtype == dtype and not zeros.flat.any()

    # assigning to a name writes into its view and never rebinds it
    name = data.draw(st.sampled_from(list(tensors)))
    view = table[name]
    new = rng.standard_normal(layout[name]).astype(dtype)
    table[name] = new
    table[name] += new
    assert table[name] is view
    want = {**tensors, name: new + new}
    assert table.flat.tobytes() == b"".join(t.tobytes() for t in want.values())
    with pytest.raises(ShapeMismatch):
        table[name] = np.zeros((*layout[name], 2), dtype)
    with pytest.raises(KeyError):
        table["unknown"] = new
    with pytest.raises((AttributeError, TypeError)):
        del table[name]
    assert table[name] is view
    assert table.flat.tobytes() == b"".join(t.tobytes() for t in want.values())

    other = np.float64 if dtype == np.float32 else np.float32
    with pytest.raises(ShapeMismatch, match="^parameter tensors must all have one dtype$"):
        ModelParams({**tensors, "z": np.zeros(2, other)})
