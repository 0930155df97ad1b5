"""Exact SpGEMM reference kernels.

Two independent from-scratch implementations of ``C = A · B``:

* :func:`esc_multiply` — a vectorised expand/sort/compress multiply.
  This is the numerical engine shared by all simulated GPU algorithms (they
  differ in *how* they would have computed C on the device, which the cost
  models capture, but the resulting matrix is identical by definition of
  SpGEMM).  Like AC-SpGEMM's *local* ESC it never sorts the whole
  expansion: it works through row slabs of about 2^16 products, so its
  host memory is bounded by the output (its slab pieces plus the joined
  C) and one slab, not by ~48 bytes per product.  Each
  slab is ordered by one unstable sort of packed int64 keys
  ``(local row, column, position in slab)``.  The position bits make the
  keys unique, so that order equals the stable ``(row, column)`` order and
  every output entry sums its terms in expansion order: C is bit-identical
  to a stable whole-matrix sort.  The fields take ``rbits + cbits + pbits
  <= 63`` bits; a B too wide for that is packed by column *rank* (order
  preserved), so no ``rows * cols`` product can overflow.
* :func:`gustavson_multiply` — a row-by-row Gustavson accumulation using a
  dense workspace.  Slower in Python but structurally independent; tests use
  it (and a SciPy oracle) to cross-validate ``esc_multiply``.

Also provided are the cheap structural analyses both the paper and our
simulator need: per-row intermediate-product counts (:func:`row_products`)
and exact per-row output sizes (:func:`symbolic_row_nnz`, which counts the
same slabs' key runs).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..matrices.csr import CSR, INDEX_DTYPE, VALUE_DTYPE, expand_ranges

__all__ = [
    "row_products",
    "expand_products",
    "esc_multiply",
    "symbolic_row_nnz",
    "gustavson_multiply",
    "count_flops",
]


def _check_shapes(a: CSR, b: CSR) -> None:
    if a.cols != b.rows:
        raise ValueError(
            f"dimension mismatch: A is {a.shape}, B is {b.shape}"
        )


def row_products(a: CSR, b: CSR) -> np.ndarray:
    """Intermediate products generated per row of A (length ``a.rows``).

    ``prod_r = Σ_{k ∈ row_r(A)} nnz(row_k(B))`` — the quantity the paper's
    Algorithm 1 computes in its inner loop, vectorised over all of A.
    """
    _check_shapes(a, b)
    b_row_nnz = b.row_nnz()
    per_entry = b_row_nnz[a.indices]
    # Segment sums via prefix sums: robust to empty rows, no scatter needed.
    cs = np.zeros(per_entry.size + 1, dtype=np.int64)
    np.cumsum(per_entry, out=cs[1:])
    return cs[a.indptr[1:]] - cs[a.indptr[:-1]]


def count_flops(a: CSR, b: CSR) -> int:
    """Total FLOPs as the paper counts them: 2 × (number of products)."""
    return 2 * int(row_products(a, b).sum())


def expand_products(
    a: CSR, b: CSR
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialise every intermediate product ``A_ik · B_kj``.

    Returns ``(out_rows, out_cols, out_vals)`` of length ``n_products``:
    for each non-zero ``A_ik`` and each non-zero ``B_kj`` one triplet
    ``(i, j, A_ik * B_kj)``.  This is the "expand" stage of ESC.
    """
    _check_shapes(a, b)
    b_row_nnz = b.row_nnz()
    counts = b_row_nnz[a.indices]  # products contributed by each NZ of A
    out_rows = np.repeat(a.row_ids(), counts)
    gather = expand_ranges(b.indptr[a.indices], counts)
    out_cols = b.indices[gather]
    out_vals = np.repeat(a.data, counts) * b.data[gather]
    return out_rows, out_cols, out_vals


#: Intermediate products per ESC row slab.  A slab's working set (its
#: keys, gather indices and values) is a few MB at this size and its sort
#: runs in cache; a whole-matrix sort is ~1.8x slower and holds ~48 B per
#: product.  Private on purpose: it changes speed and memory, never C.
_SLAB_PRODUCTS = 1 << 16


def _esc_slabs(a: CSR, b: CSR, values: bool):
    """The expand/sort/compress core shared by ESC and the symbolic pass.

    Yields ``(r0, r1, row_ptr, cols, vals)`` per row slab ``[r0, r1)``:
    ``row_ptr`` (length ``r1 - r0 + 1``, from 0) delimits each row's
    distinct output columns ``cols``; ``vals`` holds their sums, or is
    ``None`` when ``values`` is false.  Slabs tile the rows in order.

    A slab is a run of rows with at most ``_SLAB_PRODUCTS`` products (a
    row with more gets a slab of its own).  Each product becomes one
    int64 key ``(local row, column, position in slab)`` packed high to
    low, and one unstable sort orders the slab.  The position bits make
    every key unique, so the result *is* the stable order: a row's terms
    for one column are summed in expansion order, exactly as a stable
    whole-matrix sort on ``(row, column)`` would sum them.
    """
    _check_shapes(a, b)
    counts = b.row_nnz()[a.indices]  # products contributed by each NZ of A
    cs = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=cs[1:])
    row_off = cs[a.indptr]  # product offset of each row (length rows + 1)
    if cs[-1] == 0:
        yield 0, a.rows, np.zeros(a.rows + 1, dtype=np.int64), None, None
        return
    max_row = int(np.diff(row_off).max())

    # Bit budget: rbits + cbits + pbits <= 63 in every slab.  A column id
    # too wide for the key is replaced by its rank among B's distinct
    # columns (order-preserving, so the sort is unchanged).
    col_ids, col_of_rank = b.indices, None
    cbits = (b.cols - 1).bit_length()
    pbits_max = (max_row - 1).bit_length()
    if cbits + pbits_max > 63:
        col_of_rank, col_ids = np.unique(b.indices, return_inverse=True)
        cbits = (col_of_rank.size - 1).bit_length()
        if cbits + pbits_max > 63:
            raise ValueError(
                f"ESC key does not fit in 64 bits: a row of A has {max_row} "
                f"products over {col_of_rank.size} distinct columns of B"
            )
    pcap = min((_SLAB_PRODUCTS - 1).bit_length(), 63 - cbits)
    cap = min(_SLAB_PRODUCTS, 1 << pcap)
    max_rows = 1 << (63 - cbits - pcap)

    r0 = 0
    while r0 < a.rows:
        r1 = int(np.searchsorted(row_off, row_off[r0] + cap, side="right")) - 1
        r1 = max(min(r1, r0 + max_rows, a.rows), r0 + 1)
        off = row_off[r0 : r1 + 1] - row_off[r0]
        n = int(off[-1])
        if n == 0:
            yield r0, r1, off, None, None
            r0 = r1
            continue
        p0, p1 = int(a.indptr[r0]), int(a.indptr[r1])
        ks = a.indices[p0:p1]
        gather = expand_ranges(b.indptr[ks], counts[p0:p1])
        pbits = (n - 1).bit_length()
        shift = cbits + pbits
        key = np.repeat(np.arange(r1 - r0, dtype=np.int64) << shift, np.diff(off))
        key |= col_ids[gather] << pbits
        key |= np.arange(n, dtype=np.int64)
        key.sort()
        vals = None
        if values:
            prods = np.repeat(a.data[p0:p1], counts[p0:p1]) * b.data[gather]
            vals = prods[key & ((1 << pbits) - 1)]
        key >>= pbits  # (local row, column)
        new_run = np.empty(n, dtype=bool)
        new_run[0] = True
        np.not_equal(key[1:], key[:-1], out=new_run[1:])
        starts = np.flatnonzero(new_run)
        cols = key[starts] & ((1 << cbits) - 1)
        if col_of_rank is not None:
            cols = col_of_rank[cols]
        if values:
            vals = np.add.reduceat(vals, starts)
        # Every row's products start a run, so the runs before a row's
        # product offset are the output entries of the rows before it.
        yield r0, r1, np.searchsorted(starts, off), cols, vals
        r0 = r1


def esc_multiply(a: CSR, b: CSR) -> CSR:
    """Exact SpGEMM via expand / sort / compress, one row slab at a time.

    The output matrix is fully accumulated, row-major sorted CSR; explicit
    numerical zeros arising from cancellation are *kept* (matching cuSPARSE
    and the paper's symbolic/numeric split, where structure is fixed by the
    symbolic pass before values are computed).  Peak host memory is about
    twice C (the per-slab pieces and their join) plus one slab's working
    set (see :func:`_esc_slabs`), independent of the product count.
    """
    indptr = np.zeros(a.rows + 1, dtype=INDEX_DTYPE)
    cols, vals = [], []
    for r0, r1, row_ptr, c, v in _esc_slabs(a, b, values=True):
        indptr[r0 + 1 : r1 + 1] = indptr[r0] + row_ptr[1:]
        if c is not None:
            cols.append(c)
            vals.append(v)
    return CSR(
        indptr,
        np.concatenate(cols) if cols else np.empty(0, dtype=INDEX_DTYPE),
        np.concatenate(vals) if vals else np.empty(0, dtype=VALUE_DTYPE),
        (a.rows, b.cols),
        check=False,
    )


def symbolic_row_nnz(a: CSR, b: CSR) -> np.ndarray:
    """Exact number of non-zeros in each row of ``C = A · B``.

    This is what the paper's *symbolic SpGEMM* pass computes on device; here
    it counts the distinct-key runs of the ESC slabs without touching values.
    """
    out = np.zeros(a.rows, dtype=np.int64)
    for r0, r1, row_ptr, _, _ in _esc_slabs(a, b, values=False):
        out[r0:r1] = np.diff(row_ptr)
    return out


def gustavson_multiply(a: CSR, b: CSR) -> CSR:
    """Row-by-row Gustavson SpGEMM with a dense accumulator workspace.

    Independent of :func:`esc_multiply` — used by tests as a second oracle
    and by the Intel-MKL-like CPU baseline as its executable algorithm.
    """
    _check_shapes(a, b)
    n_rows, n_cols = a.rows, b.cols
    workspace = np.zeros(n_cols, dtype=VALUE_DTYPE)
    occupied = np.zeros(n_cols, dtype=bool)
    indptr = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
    all_cols = []
    all_vals = []
    for i in range(n_rows):
        a_cols, a_vals = a.row(i)
        touched = []
        for k, av in zip(a_cols, a_vals):
            b_cols, b_vals = b.row(int(k))
            fresh = ~occupied[b_cols]
            workspace[b_cols] += av * b_vals
            new_cols = b_cols[fresh]
            occupied[new_cols] = True
            if new_cols.size:
                touched.append(new_cols)
        if touched:
            row_cols = np.sort(np.concatenate(touched))
            all_cols.append(row_cols)
            all_vals.append(workspace[row_cols].copy())
            workspace[row_cols] = 0.0
            occupied[row_cols] = False
            indptr[i + 1] = indptr[i] + row_cols.size
        else:
            indptr[i + 1] = indptr[i]
    indices = (
        np.concatenate(all_cols) if all_cols else np.empty(0, dtype=INDEX_DTYPE)
    )
    data = (
        np.concatenate(all_vals) if all_vals else np.empty(0, dtype=VALUE_DTYPE)
    )
    return CSR(indptr, indices.astype(INDEX_DTYPE), data, (n_rows, n_cols), check=False)
