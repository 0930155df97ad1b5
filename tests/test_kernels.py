"""Tests for the exact reference kernels against independent oracles."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.generator import generate_case
from repro.eval.suite import small_corpus
from repro.kernels import reference
from repro.kernels import (
    count_flops,
    esc_multiply,
    expand_products,
    gustavson_multiply,
    row_products,
    symbolic_row_nnz,
)
from repro.matrices.csr import CSR, csr_identity, csr_zeros

from repro.matrices import generators as gen

from conftest import csr_matrices, random_csr
from esc_spec import bit_identical, esc_spec


def scipy_product(a: CSR, b: CSR) -> np.ndarray:
    return (a.to_scipy() @ b.to_scipy()).toarray()


class TestEscMultiply:
    def test_matches_scipy(self, small_pairs):
        for a, b in small_pairs:
            c = esc_multiply(a, b)
            c.validate()
            assert np.allclose(c.to_dense(), scipy_product(a, b))

    def test_matches_gustavson(self, small_pairs):
        for a, b in small_pairs:
            c1 = esc_multiply(a, b)
            c2 = gustavson_multiply(a, b)
            assert np.allclose(c1.to_dense(), c2.to_dense())

    def test_identity_is_neutral(self, rng):
        a = random_csr(rng, 15, 15, 0.2)
        c = esc_multiply(a, csr_identity(15))
        assert np.allclose(c.to_dense(), a.to_dense())

    def test_zero_matrix(self):
        c = esc_multiply(csr_zeros((4, 5)), csr_zeros((5, 3)))
        assert c.nnz == 0 and c.shape == (4, 3)

    def test_rectangular_shapes(self, rng):
        a = random_csr(rng, 7, 11, 0.3)
        b = random_csr(rng, 11, 4, 0.3)
        c = esc_multiply(a, b)
        assert c.shape == (7, 4)
        assert np.allclose(c.to_dense(), scipy_product(a, b))

    def test_dimension_mismatch_raises(self, rng):
        a = random_csr(rng, 4, 5, 0.5)
        b = random_csr(rng, 6, 4, 0.5)
        with pytest.raises(ValueError):
            esc_multiply(a, b)

    def test_keeps_cancelled_zeros(self):
        # a row that produces +1 and -1 on the same output column keeps the
        # structural entry (symbolic structure is value-independent).
        a = CSR.from_coo([0, 0], [0, 1], [1.0, -1.0], (1, 2))
        b = CSR.from_coo([0, 1], [0, 0], [1.0, 1.0], (2, 1))
        c = esc_multiply(a, b)
        assert c.nnz == 1 and c.data[0] == 0.0

    @given(csr_matrices(max_rows=12, max_cols=12, max_nnz=40))
    @settings(max_examples=40, deadline=None)
    def test_square_products_match_scipy(self, a):
        b = a.transpose()
        c = esc_multiply(a, b)
        c.validate()
        assert np.allclose(c.to_dense(), scipy_product(a, b), atol=1e-9)


class TestGustavson:
    @given(csr_matrices(max_rows=10, max_cols=10, max_nnz=30))
    @settings(max_examples=30, deadline=None)
    def test_matches_scipy_property(self, a):
        b = a.transpose()
        c = gustavson_multiply(a, b)
        assert np.allclose(c.to_dense(), scipy_product(a, b), atol=1e-9)

    def test_output_sorted(self, rng):
        a = random_csr(rng, 20, 20, 0.2)
        gustavson_multiply(a, a).validate()


class TestStructuralKernels:
    def test_row_products_definition(self, small_pairs):
        for a, b in small_pairs:
            rp = row_products(a, b)
            b_nnz = b.row_nnz()
            expected = np.array(
                [int(b_nnz[a.row(i)[0]].sum()) for i in range(a.rows)]
            )
            assert np.array_equal(rp, expected)

    def test_row_products_empty(self):
        assert row_products(csr_zeros((3, 3)), csr_zeros((3, 3))).sum() == 0

    def test_count_flops_is_twice_products(self, small_pairs):
        a, b = small_pairs[0]
        assert count_flops(a, b) == 2 * int(row_products(a, b).sum())

    def test_symbolic_matches_actual(self, small_pairs):
        for a, b in small_pairs:
            c = esc_multiply(a, b)
            assert np.array_equal(symbolic_row_nnz(a, b), c.row_nnz())

    def test_symbolic_empty(self):
        out = symbolic_row_nnz(csr_zeros((4, 4)), csr_zeros((4, 4)))
        assert np.array_equal(out, np.zeros(4, dtype=np.int64))

    def test_expand_products_count(self, small_pairs):
        for a, b in small_pairs:
            rows, cols, vals = expand_products(a, b)
            total = int(row_products(a, b).sum())
            assert rows.size == cols.size == vals.size == total

    def test_expand_products_values(self):
        a = CSR.from_coo([0, 0], [0, 1], [2.0, 3.0], (1, 2))
        b = CSR.from_coo([0, 1], [0, 0], [5.0, 7.0], (2, 1))
        rows, cols, vals = expand_products(a, b)
        assert sorted(vals) == [10.0, 21.0]
        assert np.all(rows == 0) and np.all(cols == 0)

    def test_shape_mismatch_raises(self, rng):
        a = random_csr(rng, 3, 4, 0.5)
        with pytest.raises(ValueError):
            row_products(a, a)


class TestSlabbedEsc:
    """The row-slabbed packed-key ESC against its stable-sort spec."""

    def test_wide_b_key_does_not_overflow(self):
        # rows * b.cols + cols overflows int64 for a 2^61-wide B; the
        # kernel ranks B's columns instead of packing their raw ids.
        wide = 1 << 61
        a = CSR.from_coo(
            list(range(8)) * 2, [0] * 8 + [1] * 8, np.arange(1.0, 17.0), (8, 2)
        )
        b = CSR.from_coo([0, 0, 1], [5, wide - 1, 5], [2.0, 3.0, 4.0], (2, wide))
        c = esc_multiply(a, b)
        # C[i, 5] = A[i,0]*2 + A[i,1]*4 and C[i, wide-1] = A[i,0]*3.
        expected = CSR(
            np.arange(0, 17, 2),
            [5, wide - 1] * 8,
            [v for i in range(8) for v in (2.0 * (i + 1) + 4.0 * (i + 9), 3.0 * (i + 1))],
            (8, wide),
        )
        assert bit_identical(c, expected)
        assert np.array_equal(symbolic_row_nnz(a, b), np.full(8, 2))

    @given(seed=st.integers(0, 2**16), index=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_stable_sort_spec(self, seed, index):
        # Every fuzz family and mutator; slab caps from one product (one
        # row per slab) to one slab for the whole matrix.
        case = generate_case(seed, index)
        spec = esc_spec(case.a, case.b)
        for cap in (1, 7, reference._SLAB_PRODUCTS, 1 << 40):
            with mock.patch.object(reference, "_SLAB_PRODUCTS", cap):
                c = esc_multiply(case.a, case.b)
                nnz = symbolic_row_nnz(case.a, case.b)
            assert bit_identical(c, spec), cap
            assert np.array_equal(nnz, c.row_nnz()), cap

    def test_small_corpus_bit_identical(self):
        for case in small_corpus():
            a, b = case.matrices()
            assert bit_identical(esc_multiply(a, b), esc_spec(a, b)), case.name

    def test_memory_bounded_by_output(self):
        # 14.3M products: a whole-matrix sort holds ~48 B per product
        # (~650 MB); slabs keep the peak near C plus one slab.
        a = gen.banded(12_000, 24, 0.7, seed=12_000)
        assert int(row_products(a, a).sum()) >= 10_000_000
        tracemalloc.start()
        try:
            c = esc_multiply(a, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        c_bytes = c.indptr.nbytes + c.indices.nbytes + c.data.nbytes
        assert peak <= c_bytes + 64 * 2**20
