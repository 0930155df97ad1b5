"""Executable spec of ESC: one stable whole-matrix sort on ``(row, col)``.

This is the simple form of :func:`repro.kernels.reference.esc_multiply`.
The runtime kernel sorts row slabs of packed keys instead; the tests pin
it to this spec bit for bit.  It needs ``A.rows * B.cols`` to fit in an
int64, which is why the runtime kernel does not use it.
"""

import numpy as np

from repro.kernels.reference import expand_products
from repro.matrices.csr import CSR, INDEX_DTYPE


def esc_spec(a: CSR, b: CSR) -> CSR:
    rows, cols, vals = expand_products(a, b)
    key = rows * np.int64(b.cols) + cols
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    new_run = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    uniq = key[starts]
    indptr = np.zeros(a.rows + 1, dtype=INDEX_DTYPE)
    indptr[1:] = np.cumsum(np.bincount(uniq // max(b.cols, 1), minlength=a.rows))
    out_vals = np.add.reduceat(vals, starts) if starts.size else vals
    return CSR(indptr, uniq % max(b.cols, 1), out_vals, (a.rows, b.cols), check=False)


def bit_identical(x: CSR, y: CSR) -> bool:
    """Same shape, structure and value bits (``-0.0 != 0.0`` here)."""
    return (
        x.shape == y.shape
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
        and np.array_equal(x.data.view(np.int64), y.data.view(np.int64))
    )
