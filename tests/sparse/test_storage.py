"""CSR sparse storage (§III-D backing implementation) on ``CSRPattern``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.snn.models import SpikingMLP
from repro.sparse import CSRPattern, SparsityManager


def sparse_tensor(shape, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal(shape).astype(np.float32)
    mask = rng.random(shape) < density
    return dense * mask


def encode(tensor):
    """Pattern of ``tensor``'s non-zeros with its values gathered."""
    pattern = CSRPattern(tensor != 0)
    pattern.gather(tensor)
    return pattern


class TestRoundTrip:
    def test_2d_roundtrip(self):
        tensor = sparse_tensor((6, 8))
        assert np.array_equal(encode(tensor).to_dense(), tensor)

    def test_4d_roundtrip(self):
        tensor = sparse_tensor((4, 3, 3, 3), seed=1)
        pattern = encode(tensor)
        assert pattern.shape == (4, 27)
        decoded = pattern.to_dense()
        assert decoded.shape == tensor.shape
        assert np.array_equal(decoded, tensor)

    def test_all_zero(self):
        tensor = np.zeros((3, 4), dtype=np.float32)
        pattern = encode(tensor)
        assert pattern.nnz == 0
        assert np.array_equal(pattern.to_dense(), tensor)

    def test_fully_dense(self):
        tensor = np.ones((3, 4), dtype=np.float32)
        pattern = encode(tensor)
        assert pattern.nnz == 12
        assert pattern.density == 1.0

    def test_unsupported_rank(self):
        with pytest.raises(ValueError):
            CSRPattern(np.zeros(5, dtype=np.float32))


class TestAccessors:
    def test_nnz_and_sparsity(self):
        tensor = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=np.float32)
        pattern = encode(tensor)
        assert pattern.nnz == 2
        assert 1.0 - pattern.density == 0.5

    def test_row(self):
        tensor = np.array([[1.0, 0.0, 3.0], [0.0, 0.0, 0.0]], dtype=np.float32)
        pattern = encode(tensor)
        start, stop = pattern.indptr[0], pattern.indptr[1]
        assert np.array_equal(pattern.indices[start:stop], [0, 2])
        assert np.array_equal(pattern.values[start:stop], [1.0, 3.0])
        assert pattern.indptr[2] == pattern.indptr[1]  # empty row
        assert np.array_equal(pattern.to_dense()[1], [0.0, 0.0, 0.0])

    def test_matvec_matches_dense(self):
        tensor = sparse_tensor((5, 7), seed=2)
        x = np.random.default_rng(3).standard_normal(7).astype(np.float32)
        pattern = encode(tensor)
        product = pattern.matmul(pattern.values, x[:, None])[:, 0]
        assert np.allclose(product, tensor @ x, atol=1e-5)

    def test_matvec_shape_check(self):
        pattern = encode(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            pattern.matmul(pattern.values, np.zeros((5, 1), dtype=np.float32))

    def test_storage_bits_formula(self):
        tensor = sparse_tensor((4, 10), seed=4)
        pattern = encode(tensor)
        expected = pattern.nnz * 32 * 2 + 5 * 32
        assert pattern.storage_bits() == expected
        assert pattern.storage_bits(value_bits=8) == pattern.nnz * 40 + 5 * 32


class TestModelStorage:
    def test_matches_analytic_model(self):
        """Measured CSR bits agree with the §III-D formula (inference
        part: weights + indices + row pointers, t=0 gradient copies)."""
        model = SpikingMLP(in_features=20, num_classes=5, hidden=(16,), rng=np.random.default_rng(0))
        masks = SparsityManager(model, rng=np.random.default_rng(1))
        masks.init_random({name: 0.25 for name in masks.masks})
        measured = sum(
            state.csr_pattern().storage_bits() for state in masks.states.values()
        )
        nnz = masks.total_nonzero
        rows = sum(p.shape[0] for p in masks.parameters.values())
        analytic = nnz * 32 + nnz * 32 + (rows + len(masks.masks)) * 32
        assert measured == analytic


@settings(max_examples=25, deadline=None)
@given(
    density=st.floats(min_value=0.0, max_value=1.0),
    rows=st.integers(min_value=1, max_value=8),
    cols=st.integers(min_value=1, max_value=8),
)
def test_roundtrip_property(density, rows, cols):
    tensor = sparse_tensor((rows, cols), density=density, seed=rows * 31 + cols)
    pattern = encode(tensor)
    assert np.array_equal(pattern.to_dense(), tensor)
    assert pattern.nnz == np.count_nonzero(tensor)
    # the index arrays alone rebuild the same pattern (the package path)
    rebuilt = CSRPattern.from_arrays(
        pattern.indices, pattern.indptr, pattern.shape, pattern.orig_shape,
        values=pattern.values.copy(),
    )
    assert np.array_equal(rebuilt.to_dense(), tensor)
