"""Discrete algebra of causal (Volterra) operators on a uniform time grid.

A causal operator acts on grid functions ``psi(t_k)`` in C^p as

    (A psi)(t_k) = m_k psi(t_k) + delta * sum_{l<=k} w_{kl} K[k, l] psi(t_l)

with trapezoid weights ``w_{kk} = w_{k0} = 1/2`` and 1 in between (the
integral term is absent at ``k = 0``).  The pair ``(m, K)`` is the
instantaneous part and the memory kernel.

The algebra itself is *defined* on the block-lower-triangular matrices with
blocks ``m_k delta_{kl} + delta w_{kl} K[k, l]``: composition is the exact
matrix product, and the one causal solve, ``X`` with ``(Id + A) X = B``, is
exact block forward substitution.  This makes every operator identity of the
continuum theory hold exactly in the discrete algebra, so identity residuals
isolate the quadrature error of independently computed kernels.

An operator's blocks are zero outside its orbital support, a row set and a
column set (every orbital by default), and only the ``(rows, cols)`` part of
the causal triangle is stored.  The nodes are cut into tiles of
``TILE_NODES``; tile row ``I`` (nodes ``k0..k1-1``) is one C-contiguous
``((k1 - k0) r, k1 c)`` slab holding those rows of the matrix up to the end of
the tile, so a diagonal tile keeps its few upper zeros.  The slabs of one
operator lie in tile order in one buffer.  Compose and solve run on these
slabs, one GEMM per pair of tile rows, at the supported sizes, so a
self-energy on the sample is multiplied at the sample's size.

Sums and products are evaluated one tile row at a time.  ``Sum`` is the one
lazy node: ``Sum(a)`` wraps an operator, ``+`` and ``-`` add operators and
sums to it, and ``Sum(a) @ b`` is a sum of one product term, whose right
factor is an operator.  Arithmetic on a ``Sum`` is lazy, and arithmetic on
operators is eager: ``a - b`` and ``a @ b`` evaluate the sum they build.  A
sum forms its tile row ``I`` from tile row ``I`` of each term, and a product
term's tile row ``I`` needs tile row ``I`` of its left factor and the slabs
``0..I`` of its right one, each read when it is needed.  So ``+``, ``-`` and
``@`` write their result slab by slab into its one buffer, and a residual
such as ``(Sum(a) - b - Sum(c) @ d).max_abs()`` or ``norm_bound()`` is
reduced row by row, with no term, product or partial sum formed whole.  A
lazy sum that one expression reads more than once, such as ``g`` in
``Sum(a) - g - g @ c @ a``, forms each tile row once for all its reads.  Every
entry is computed as when the expression is formed whole, in the same order,
so both give the same bits.

Every constructed operator holds its kernel, times an optional scale, and
weighs it when the algebra reads it, so its kernel view and dump are the
exact input.  A kernel given whole is held in the packed layout (a zero
kernel when only an instantaneous part is given); the constructor checks
causality tile row by tile row as it packs.  A Toeplitz kernel
``K[k, l] = lags[k - l]``, such as ``G0``'s, is held as its ``n + 1`` lag
blocks, block ``n`` the zero block that stands for every acausal one: O(N_t)
blocks where the packed kernel holds O(N_t^2).  An operator produced by the
algebra holds the packed matrix, and its kernel is derived from it.  A read
gives a held matrix's own slab, or weighs a held kernel's tile row in one
pass in the slab it writes: the packed row, or the row formed there from the
lags cut to the orbitals read, with the same bits and no temporary.  A
packed read off the support is read on it and placed.  The instantaneous
part, the one kernel reader ``kernel_tiles`` and ``flat``, the dense matrix
that no program path reads, keep every orbital.

The text dump writes each float part as its ``repr``.  A part whose bits
equal those of the same part one node up and one node left, at the same lag,
reuses that entry's text; ``volterra_constant`` skips repeated blocks by the
same rule.  So ``G0``, Toeplitz in time, formats only its ``l = 0`` column,
and so does a block that is zero at every node.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import HeaderMismatchError, MemoryBudgetError
from .grid import TimeGrid
from .propagation import DEFAULT_BUDGET_BYTES

# Nodes per tile row of the packed layout.  Medians at 101 nodes, one BLAS
# thread (2-vCPU Xeon KVM guest), compose / solve in ms: 16 nodes 10.4 / 13.6
# at p = 6 and 20.9 / 25.4 at p = 8; 8 nodes 12.2 / 14.2 and 24.3 / 22.9.
# 16 nodes store 6.0 MB per operator at p = 8, 8 nodes 5.6 MB (dense 10.4 MB).
TILE_NODES = 16

# Relative slack under which a row's Frobenius sum rules it out of the norm
# bound.  Frobenius and spectral norms of a rank-1 block agree exactly, and
# their computed values can differ by an ulp.
NORM_PRUNE_MARGIN = 1e-10


def trapezoid_weights(n_nodes: int) -> np.ndarray:
    """w[k, l] for l <= k; row 0 is empty (the integral term vanishes there).  Built by whole-array writes, no node loop."""
    w = np.tri(n_nodes)
    w[:, 0] = 0.5
    np.fill_diagonal(w, 0.5)
    w[0] = 0.0
    return w


def _tiles(n_nodes: int) -> list:
    """``(k0, k1)`` node range of every tile row."""
    return [(k0, min(k0 + TILE_NODES, n_nodes)) for k0 in range(0, n_nodes, TILE_NODES)]


def packed_size(n_nodes: int, rows: int, cols: int | None = None) -> int:
    """Complex entries of one packed operator over ``rows`` x ``cols`` orbitals (default square)."""
    return rows * (rows if cols is None else cols) * sum((k1 - k0) * k1 for k0, k1 in _tiles(n_nodes))


def _slab(buf: np.ndarray, n_nodes: int, r: int, c: int, i: int) -> tuple:
    """``(k0, k1, slab, blocks)`` of tile row ``i`` over ``r x c`` orbitals: 2-D and ``(k1 - k0, k1, r, c)`` views."""
    k0 = i * TILE_NODES
    k1 = min(k0 + TILE_NODES, n_nodes)
    start = r * c * TILE_NODES * TILE_NODES * i * (i + 1) // 2  # the whole tile rows above
    slab = buf[start : start + (k1 - k0) * r * k1 * c].reshape((k1 - k0) * r, k1 * c)
    return k0, k1, slab, _blocks(slab, k0, k1, r, c)


def _slabs(buf: np.ndarray, n_nodes: int, r: int, c: int) -> list:
    """``_slab`` of every tile row."""
    return [_slab(buf, n_nodes, r, c, i) for i in range(len(_tiles(n_nodes)))]


def _fill(read, n_nodes: int, r: int, c: int) -> np.ndarray:
    """A packed buffer over ``r x c`` orbitals whose tile row ``i`` is written by ``read(i, out)``."""
    out = np.empty(packed_size(n_nodes, r, c), dtype=complex)
    for i, (_, _, dst, _) in enumerate(_slabs(out, n_nodes, r, c)):
        read(i, dst)
    return out


def _support(indices, p: int) -> np.ndarray:
    indices = np.arange(p) if indices is None else np.asarray(indices, dtype=int).reshape(-1)
    if indices.size and not (indices[0] >= 0 and indices[-1] < p and np.all(indices[1:] > indices[:-1])):
        raise ValueError(f"a support must be increasing orbital indices below {p}, got {indices.tolist()}")
    return indices


def _mask(indices, p: int) -> np.ndarray:
    """``p`` flags, set at ``indices``: support set operations without sorting."""
    mask = np.zeros(p, dtype=bool)
    mask[indices] = True
    return mask


def _blocks(slab: np.ndarray, k0: int, k1: int, r: int, c: int) -> np.ndarray:
    """The ``(k1 - k0, k1, r, c)`` block view of a tile row's slab."""
    return slab.reshape(k1 - k0, r, k1, c).transpose(0, 2, 1, 3)


def _placer(held_rows, held_cols, rows, cols, p: int, n_nodes: int):
    """``put(held, i, out=None)``: tile row ``i``, a slab held over ``held_rows x held_cols``, over ``(rows, cols)``, +0.0 where it holds nothing."""
    keep = held_rows[_mask(rows, p)[held_rows]], held_cols[_mask(cols, p)[held_cols]]
    sr, sc = (np.searchsorted(h, k) for h, k in zip((held_rows, held_cols), keep))
    dr, dc = (np.searchsorted(d, k) for d, k in zip((rows, cols), keep))

    def put(held, i, out=None):
        k0, k1 = i * TILE_NODES, min((i + 1) * TILE_NODES, n_nodes)
        out = np.empty(((k1 - k0) * rows.size, k1 * cols.size), dtype=complex) if out is None else out
        out[...] = 0.0
        part = _blocks(held, k0, k1, held_rows.size, held_cols.size)[:, :, sr[:, None], sc]
        _blocks(out, k0, k1, rows.size, cols.size)[:, :, dr[:, None], dc] = part
        return out

    return put


def _toeplitz_row(lags: np.ndarray, k0: int, k1: int, slab: np.ndarray) -> None:
    """Tile row ``k0..k1`` of the Toeplitz kernel ``K[k, l] = lags[k - l]``, unweighed, into ``slab``.

    Node row ``k`` takes the lags ``k, k - 1, ..., 0`` as one reversed view,
    and the zero block ``lags[-1]`` in its acausal blocks: the packed
    kernel's tile row, formed with no temporary.
    """
    blocks = _blocks(slab, k0, k1, *lags.shape[1:])
    for a, k in enumerate(range(k0, k1)):
        blocks[a, : k + 1] = lags[k::-1]
        blocks[a, k + 1 :] = lags[-1]


def _compatible(a, b) -> None:
    if a.grid != b.grid or a.p != b.p:
        raise ValueError("operators live on different grids or orbital spaces")


def _nonzero(a: np.ndarray) -> bool:
    # the bits less the sign: -0.0 is zero, and a signalling nan does not warn
    return any(np.any(part.view(np.int64) << 1) for part in (a.real, a.imag))


class VolterraOperator:
    """Causal operator with an optional instantaneous part and memory kernel.

    Built by the constructor, it holds the packed kernel, zero when only an
    instantaneous part is given, or, given ``lags`` instead of ``mem``, the
    ``(n + 1, p, p)`` lag blocks of a Toeplitz kernel over every orbital,
    ``mem[k, l] = lags[k - l]`` with ``lags[n]`` the zero block of every
    acausal ``l > k``.  Produced by the algebra, it holds the packed matrix,
    and its kernel pair is a derived view.  Either way the algebra reads the
    packed matrix (``panels``) one tile row at a time, and a held kernel,
    packed or as lags, is weighed into it (``_reader``).  ``rows`` and
    ``cols``, increasing (default: every orbital), are the support:
    ``mem[k, l, i, j]`` is kernel entry ``(rows[i], cols[j])``, every other
    entry is zero, and an instantaneous part that is not zero outside the
    support is refused.  ``scale``, if given, multiplies the held kernel
    once, so an entry outside the support reads the bits of
    ``+0.0 * scale``; ``scale=1.0`` turns some -0.0.
    """

    def __init__(self, grid: TimeGrid, p: int, *, inst=None, mem=None, lags=None, rows=None, cols=None, scale=None):
        n = grid.n_nodes
        if inst is None and mem is None and lags is None:
            raise ValueError("operator needs an instantaneous part or a kernel")
        if mem is not None and lags is not None:
            raise ValueError("give a memory kernel or its lags, not both")
        rows, cols = _support(rows, p), _support(cols, p)
        r, c = rows.size, cols.size
        if inst is not None:
            inst = np.asarray(inst, dtype=complex)
            if inst.shape != (n, p, p):
                raise ValueError(f"instantaneous part has shape {inst.shape}, expected {(n, p, p)}")
            outside = np.ones((p, p), dtype=bool)
            outside[rows[:, None], cols] = False
            if _nonzero(inst[:, outside]):
                raise ValueError("instantaneous part is not zero outside the support")
        if lags is not None:
            kernel = np.array(lags, dtype=complex)
            if kernel.shape != (n + 1, p, p) or r != p or c != p:
                raise ValueError(
                    f"kernel lags are held over every orbital, shape {(n + 1, p, p)}; "
                    f"got shape {kernel.shape} on {r} x {c} orbitals"
                )
            # block n stands for every acausal block
            upper = np.max(np.abs(kernel[n]), initial=0.0)
            if upper != 0.0:
                raise ValueError(f"memory kernel has acausal weight {upper:.3e}")
        else:
            kernel = np.zeros(packed_size(n, r, c), dtype=complex)
        if mem is not None:
            mem = np.asarray(mem, dtype=complex)  # a strided view is packed as it is
            if mem.shape != (n, n, r, c):
                raise ValueError(f"memory kernel has shape {mem.shape}, expected {(n, n, r, c)}")
            for k0, k1, _, blocks in _slabs(kernel, n, r, c):
                given = mem[k0:k1]
                # the acausal blocks l > k of the tile row must be exactly zero, not nan
                upper = np.max(np.abs(given[np.arange(n) > np.arange(k0, k1)[:, None]]), initial=0.0)
                if upper != 0.0:
                    raise ValueError(f"memory kernel has acausal weight {upper:.3e}")
                blocks[...] = given[:, :k1]
        if scale is not None:
            kernel *= scale
        zero = (np.zeros(1, dtype=complex) * (1.0 if scale is None else scale))[0]
        self._set(grid, p, rows, cols, inst, kernel, None, zero)

    def _set(self, grid, p, rows, cols, inst, kernel, panels, zero=0j) -> None:
        # exactly one of kernel (the packed memory kernel, or its (n + 1, p, p)
        # lags) and panels (packed matrix); zero is the kernel's entry outside the support
        self.grid, self.p, self.rows, self.cols = grid, int(p), rows, cols
        self._inst, self._kernel, self._panels, self._zero = inst, kernel, panels, zero

    @classmethod
    def _packed(cls, grid, p, rows, cols, inst, kernel, panels, zero=0j) -> "VolterraOperator":
        op = cls.__new__(cls)
        op._set(grid, p, rows, cols, inst, kernel, panels, zero)
        return op

    # -- views ---------------------------------------------------------

    def panels(self) -> np.ndarray:
        """The packed matrix over the support; a kernel-built operator weighs its kernel afresh on each read."""
        return self._on(self.rows, self.cols)

    def _on(self, rows, cols) -> np.ndarray:
        """The packed matrix over ``(rows, cols)``, entries it does not hold +0.0, built tile row by tile row (``_reader``)."""
        if self._panels is not None and np.array_equal(rows, self.rows) and np.array_equal(cols, self.cols):
            return self._panels
        return _fill(self._reader(rows, cols), self.grid.n_nodes, rows.size, cols.size)

    def _reader(self, rows, cols, shared=None):
        """``read(i, out=None)``: tile row ``i`` of the packed matrix over ``(rows, cols)``, entries it does not hold +0.0.

        The slab is written into ``out`` if given.  A packed matrix or kernel
        read off its support is read on it and placed (``_placer``).  A held
        matrix gives its own slab, without ``out`` a view to read only.  A
        held kernel's tile row, a view of the packed kernel or formed by
        ``_toeplitz_row`` from the lags, cut first to the orbitals read, is
        weighed in one pass, and the instantaneous part added on its
        diagonal.  ``shared`` is for sums.
        """
        n, r, c = self.grid.n_nodes, rows.size, cols.size
        same = np.array_equal(rows, self.rows) and np.array_equal(cols, self.cols)
        lags = self._kernel is not None and self._kernel.ndim == 3  # held over every orbital
        if not (same or lags):
            own, put = self._reader(self.rows, self.cols), _placer(self.rows, self.cols, rows, cols, self.p, n)
            return lambda i, out=None: put(own(i), i, out)
        if self._kernel is None:
            def read(i, out=None):
                _, _, slab, _ = _slab(self._panels, n, r, c, i)
                if out is None:
                    return slab
                out[...] = slab
                return out
            return read
        kernel = self._kernel if same else self._kernel[:, rows[:, None], cols]
        weights = trapezoid_weights(n) * self.grid.delta
        inst = None if self._inst is None else self._inst[:, rows[:, None], cols]

        def read(i, out=None):
            k0, k1 = i * TILE_NODES, min((i + 1) * TILE_NODES, n)
            shape = (k1 - k0, r, k1, c)
            out = np.empty(((k1 - k0) * r, k1 * c), dtype=complex) if out is None else out
            src = out if lags else _slab(kernel, n, r, c, i)[2]
            if lags:  # the kernel's tile row is formed in the slab, and weighed there
                _toeplitz_row(kernel, k0, k1, out)
            np.multiply(src.reshape(shape), weights[k0:k1, None, :k1, None], out=out.reshape(shape))
            if inst is not None:
                nodes = np.arange(k1 - k0)
                _blocks(out, k0, k1, r, c)[nodes, nodes + k0] += inst[k0:k1]
            return out

        return read

    @property
    def flat(self) -> np.ndarray:
        """Dense ``(n p, n p)`` expansion of the packed matrix, built on each read."""
        n, p = self.grid.n_nodes, self.p
        flat = np.zeros((n * p, n * p), dtype=complex)
        for k0, k1, slab, _ in _slabs(self._on(*(np.arange(p),) * 2), n, p, p):
            flat[k0 * p : k1 * p, : k1 * p] = slab
        return flat

    def instantaneous(self) -> np.ndarray:
        n, p = self.grid.n_nodes, self.p
        if self._inst is None:
            return np.zeros((n, p, p), dtype=complex)
        return self._inst

    def has_instantaneous(self) -> bool:
        return self._inst is not None and _nonzero(self._inst)

    def kernel_tiles(self):
        """``(k0, k1, K[k0:k1, :k1])`` for every tile row in ``p x p`` blocks, acausal ones zero: the kernel reader."""
        n, p, rows, cols, r, c = self.grid.n_nodes, self.p, self.rows, self.cols, self.rows.size, self.cols.size

        def full(blocks, zero):  # the blocks over every orbital
            if r == c == p:
                return blocks
            out = np.full(blocks.shape[:2] + (p, p), zero, dtype=complex)
            out[:, :, rows[:, None], cols] = blocks
            return out

        if self._kernel is not None and self._kernel.ndim == 3:  # lags over every orbital, block n the acausal one
            for k0, k1 in _tiles(n):
                lag = np.subtract.outer(np.arange(k0, k1), np.arange(k1))
                yield k0, k1, self._kernel[np.where(lag >= 0, lag, n)]
            return
        if self._kernel is not None:
            for k0, k1, _, blocks in _slabs(self._kernel, n, r, c):
                yield k0, k1, full(blocks, self._zero)
            return
        w = trapezoid_weights(n) * self.grid.delta
        w[w == 0.0] = 1.0  # vacuous slots (node 0 and the acausal range) hold zero blocks
        for k0, k1, _, blocks in _slabs(self.panels(), n, r, c):
            blocks = blocks.copy()
            nodes = np.arange(k1 - k0)
            if self._inst is not None:
                blocks[nodes, nodes + k0] -= self._inst[k0:k1, rows[:, None], cols]
            blocks = blocks / w[k0:k1, :k1, None, None]
            blocks[np.arange(k1)[None, :] > nodes[:, None] + k0] = 0.0
            if k0 == 0:
                blocks[0, 0] = 0.0
            yield k0, k1, full(blocks, 0j)

    # -- algebra -------------------------------------------------------

    def compose(self, other: "VolterraOperator") -> "VolterraOperator":
        """Operator product self after other; exact in the block algebra (``Sum(self) @ other``, evaluated)."""
        return (Sum(self) @ other).evaluate()

    def __matmul__(self, other: "VolterraOperator") -> "VolterraOperator":
        return self.compose(other)

    def __add__(self, other: "VolterraOperator") -> "VolterraOperator":
        return (Sum(self) + other).evaluate()

    def __sub__(self, other: "VolterraOperator") -> "VolterraOperator":
        return (Sum(self) - other).evaluate()

    def __neg__(self) -> "VolterraOperator":
        return self.scale(-1.0)

    def scale(self, scalar) -> "VolterraOperator":
        scalar = complex(scalar)
        inst = None if self._inst is None else scalar * self._inst
        read, n = self._reader(self.rows, self.cols), self.grid.n_nodes
        panels = _fill(lambda i, out: np.multiply(scalar, read(i), out=out), n, self.rows.size, self.cols.size)
        return VolterraOperator._packed(self.grid, self.p, self.rows, self.cols, inst, None, panels)

    def restrict(self, indices) -> "VolterraOperator":
        """Keep the given orbital indices (e.g. the sample block), read from the stored sub-blocks.

        The indices are distinct orbitals in ``[0, p)``, in any order; others raise ``ValueError``.
        """
        indices = np.asarray(indices, dtype=int)
        if np.any((indices < 0) | (indices >= self.p)) or len(set(indices.tolist())) != indices.size:
            raise ValueError(f"restrict needs distinct orbitals in [0, {self.p}), got {indices.tolist()}")
        n, q = self.grid.n_nodes, len(indices)
        inst = None if self._inst is None else self._inst[:, indices[:, None], indices[None, :]]
        rows, cols = (np.flatnonzero(_mask(s, self.p)[indices]) for s in (self.rows, self.cols))
        src_rows, src_cols = np.searchsorted(self.rows, indices[rows]), np.searchsorted(self.cols, indices[cols])
        source = self._kernel if self._kernel is not None else self._panels
        if source.ndim == 3:  # lags
            out = source[:, src_rows[:, None], src_cols]
        else:
            out = np.empty(packed_size(n, rows.size, cols.size), dtype=complex)
            src, dst = _slabs(source, n, self.rows.size, self.cols.size), _slabs(out, n, rows.size, cols.size)
            for (*_, a), (*_, b) in zip(src, dst):
                b[...] = a[:, :, src_rows[:, None], src_cols]
        kernel, panels = (out, None) if self._kernel is not None else (None, out)
        return VolterraOperator._packed(self.grid, q, rows, cols, inst, kernel, panels, self._zero)

    def max_abs(self) -> float:
        """Largest entry magnitude of the matrix (exact-algebra residuals)."""
        return Sum(self).max_abs()

    def norm_bound(self) -> float:
        """Induced sup-norm bound of the operator (see ``operator_norm_bound``)."""
        return operator_norm_bound(Sum(self))

    def volterra_constant(self) -> float:
        """Discrete Volterra constant: max spectral norm over memory blocks.

        A causal block with the bits of the block one node up and one node
        left, at the same lag, repeats it and is skipped: a Toeplitz kernel
        such as ``G0`` keeps one block per lag.  Each tile row takes one
        batched SVD over the blocks it keeps.  nan or inf for a non-finite
        kernel.
        """
        tops, above = [], None  # the bits of the node row above the tile row
        for k0, k1, tile in self.kernel_tiles():
            bits = np.ascontiguousarray(tile).view(np.int64)
            repeat = np.zeros(tile.shape[:2], dtype=bool)
            repeat[1:, 1:] = (bits[1:, 1:] == bits[:-1, :-1]).all(axis=(2, 3))
            if above is not None:
                repeat[0, 1 : k0 + 1] = (bits[0, 1 : k0 + 1] == above).all(axis=(1, 2))
            above = bits[-1]
            causal = np.arange(k1) <= np.arange(k0, k1)[:, None]
            b = tile[causal & ~repeat]
            # a non-finite tile row gives its largest magnitude, inf or nan
            tops.append(np.linalg.svd(b, compute_uv=False)[:, 0].max() if np.isfinite(b).all() else np.abs(b).max())
        return float(np.max(tops))


def _product_reader(a: "Sum", b: VolterraOperator, rows, cols, shared=None):
    """``read(i, out=None)``: tile row ``i`` of the product ``a b`` over ``(rows, cols)``, entries it does not hold +0.0.

    The product holds ``(a.rows, b.cols)`` and contracts over the inner set
    alone: the columns of ``a`` that are rows of ``b``.  Its tile row ``I`` is
    ``sum_{M<=I} A_I[:, M] @ B_M``, the diagonal tile first, with ``A_I`` tile
    row ``I`` of ``a`` and ``B_M`` the slab of tile row ``M`` of ``b``: the
    causal triangle only.  Neither factor is formed whole: ``a`` is read one
    tile row at a time, and ``b`` one slab at a time, afresh for each tile row
    that needs it unless it holds that slab itself.
    """
    inner = a.cols[_mask(b.rows, a.p)[a.cols]]
    n, r, s, c = a.grid.n_nodes, a.rows.size, inner.size, b.cols.size
    left_row, right_row = a._reader(a.rows, inner, shared), b._reader(inner, b.cols)

    def read(i, out=None):
        k0, k1 = i * TILE_NODES, min((i + 1) * TILE_NODES, n)
        left = left_row(i)
        out = np.empty(((k1 - k0) * r, k1 * c), dtype=complex) if out is None else out
        np.matmul(left[:, k0 * s :], right_row(i), out=out)
        for m in range(i):
            m0, m1 = m * TILE_NODES, (m + 1) * TILE_NODES
            out[:, : m1 * c] += left[:, m0 * s : m1 * s] @ right_row(m)
        return out

    if np.array_equal(a.rows, rows) and np.array_equal(b.cols, cols):
        return read
    put = _placer(a.rows, b.cols, rows, cols, a.p, n)
    return lambda i, out=None: put(read(i), i, out)  # the product's row, copied into the requested support


def _shared_rows(root: "Sum") -> dict:
    """``{id(sum): _FormedOnce(sum)}`` of every lazy sum that ``root`` reads more than once, as a term or a left factor."""
    seen, again, stack = set(), {}, [root]
    while stack:
        for t in [t for _, t, _ in stack.pop().terms if isinstance(t, Sum)]:
            if id(t) in seen:
                again[id(t)] = t
            else:
                seen.add(id(t))
                stack.append(t)
    shared = {key: _FormedOnce(node) for key, node in again.items()}
    for key, node in again.items():  # once every entry exists; no reader holds ``shared``, so nothing forms a cycle
        shared[key].native = node._combine(node.rows, node.cols, shared)
    return shared


class _FormedOnce:
    """A lazy sum that one expression reads more than once; a call ``(rows, cols)`` gives one read's reader.

    The first read to ask for tile row ``i`` forms it over the sum's own
    support and takes it.  Every other read takes a copy placed on its own
    support, cut before the first can write into the row, so no slab lives
    longer than a read of its own would.
    """

    def __init__(self, node: "Sum"):
        # native: the reader over the sum's own support; pending: copies of the current tile row not yet read
        self.node, self.native, self.puts, self.pending = node, None, [], {}

    def __call__(self, rows, cols):
        node, k = self.node, len(self.puts)
        same = np.array_equal(rows, node.rows) and np.array_equal(cols, node.cols)
        self.puts.append(_placer(node.rows, node.cols, rows, cols, node.p, node.grid.n_nodes))

        def read(i, out=None):
            if k not in self.pending:
                row = self.native(i)
                self.pending.update((u, put(row, i)) for u, put in enumerate(self.puts) if u != k)
                self.pending[k] = row if same else self.puts[k](row, i)
            slab = self.pending.pop(k)
            if out is not None:
                out[...] = slab
            return slab if out is None else out

        return read


class Sum:
    """``t0 +- t1 +- ...`` of operators, sums and products, evaluated one tile row at a time.

    ``Sum(a)`` wraps an operator or a sum; ``Sum(a) - b`` and ``Sum(a) + b``
    add a term, an operator or a sum; ``Sum(a) @ b`` is a sum of one product
    term, whose right factor ``b`` must be an operator (a lazy right factor
    would be formed again for every tile row below it) on the same grid.  The
    sum holds the union of its terms' supports.  Its tile row ``I`` is tile
    row ``I`` of each term over that support, +0.0 where a term holds nothing,
    combined left to right: the bits of ``(t0 - t1) - t2`` formed whole, with
    no term and no partial sum formed whole; a lazy sum read more than once
    forms each row once (``_shared_rows``).  ``evaluate`` writes the rows
    into the one packed buffer of the result; ``max_abs`` and ``norm_bound``
    reduce them as they come.
    """

    def __init__(self, term, _terms=None):
        # (sign, term, right factor or None) of every term, left to right
        self.terms = ((1.0, term, None),) if _terms is None else _terms
        first = self.terms[0][1]
        self.grid, self.p = first.grid, first.p
        rows, cols = np.zeros(self.p, dtype=bool), np.zeros(self.p, dtype=bool)
        for _, t, right in self.terms:
            _compatible(first, t)
            rows[t.rows] = True
            cols[(t if right is None else right).cols] = True
        self.rows, self.cols = np.flatnonzero(rows), np.flatnonzero(cols)

    def __add__(self, term) -> "Sum":
        return Sum(None, (*self.terms, (1.0, term, None)))

    def __sub__(self, term) -> "Sum":
        return Sum(None, (*self.terms, (-1.0, term, None)))

    def __matmul__(self, right: VolterraOperator) -> "Sum":
        if not isinstance(right, VolterraOperator):
            raise TypeError(f"the right factor of a product must be a VolterraOperator, got {type(right).__name__}")
        _compatible(self, right)
        return Sum(None, ((1.0, self, right),))

    def _reader(self, rows=None, cols=None, shared=None):
        """``read(i, out=None)``: tile row ``i`` over ``(rows, cols)`` (default the sum's support), in ``out`` if given.

        Each term is read over ``(rows, cols)`` itself; an entry that no term
        holds combines +0.0s into +0.0.  Without ``out`` the slab may be a
        term's own: read only.  ``shared`` is set on the reads below the
        expression's root.
        """
        rows, cols = (self.rows, self.cols) if rows is None else (rows, cols)
        if shared is None:
            shared = _shared_rows(self)
        elif id(self) in shared:
            return shared[id(self)](rows, cols)
        return self._combine(rows, cols, shared)

    def _combine(self, rows, cols, shared):
        (_, first), *rest = [
            (sign, t._reader(rows, cols, shared) if right is None else _product_reader(t, right, rows, cols, shared))
            for sign, t, right in self.terms
        ]

        def read(i, out=None):
            acc = first(i, out)
            for sign, term in rest:
                t = term(i)
                # combined in place, into out or a slab formed here; a term's own slab is left alone
                into = out if out is not None else acc if acc.flags.owndata else t if t.flags.owndata else None
                acc = (np.add if sign > 0 else np.subtract)(acc, t, out=into)
            return acc

        return read

    @property
    def _inst(self):
        """The instantaneous part, or None: the left-to-right rule of ``a + b``, a part that is absent read as zeros."""
        inst = None
        for k, (sign, t, right) in enumerate(self.terms):
            part = t._inst
            if right is not None:
                part = None if part is None or right._inst is None else np.einsum("kab,kbc->kac", part, right._inst)
            if k == 0:
                inst = part
            elif inst is not None or part is not None:
                zero = np.zeros((self.grid.n_nodes, self.p, self.p), dtype=complex)
                inst = (zero if inst is None else inst) + sign * (zero if part is None else part)
        return inst

    def evaluate(self) -> VolterraOperator:
        """The sum as an operator; a sum of one operator is that operator, not a copy."""
        (_, first, right), *rest = self.terms
        if not rest and right is None and isinstance(first, VolterraOperator):
            return first
        n, rows, cols = self.grid.n_nodes, self.rows, self.cols
        out = _fill(self._reader(), n, rows.size, cols.size)
        return VolterraOperator._packed(self.grid, self.p, rows, cols, self._inst, None, out)

    def max_abs(self) -> float:
        """Largest entry magnitude (exact-algebra residuals), one tile row at a time."""
        read = self._reader()
        return float(np.max([np.max(np.abs(read(i)), initial=0.0) for i in range(len(_tiles(self.grid.n_nodes)))]))

    def norm_bound(self) -> float:
        """Induced sup-norm bound (see ``operator_norm_bound``)."""
        return operator_norm_bound(self)


def block_lower_solve(m: np.ndarray, x: np.ndarray, n: int, r: int, c: int) -> np.ndarray:
    """Packed ``X`` with ``(Id + A) X = B`` in place of ``B``, by block forward substitution.

    ``m`` packs ``A`` over ``r x r`` orbitals and ``x`` packs ``B`` over
    ``r x c``.  Each tile row takes one GEMM per solved tile row above it.
    Its diagonal tile of ``Id + A`` is then inverted node by node, by forward
    substitution on the tile's identity, and applied in one GEMM.  ``B`` is
    causal, so nothing right of the tile is touched.  Raises with the
    offending node index if a diagonal block of ``Id + A`` is singular.
    """
    m_slabs, x_slabs = _slabs(m, n, r, r), _slabs(x, n, r, c)
    diag = np.concatenate([blocks[np.arange(k1 - k0), np.arange(k0, k1)] for k0, k1, _, blocks in m_slabs]) + np.eye(r)
    try:
        inv = np.linalg.inv(diag)
    except np.linalg.LinAlgError:
        for k, block in enumerate(diag):
            try:
                np.linalg.inv(block)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(f"singular diagonal block at node {k}") from exc
        raise
    for (k0, k1, a, _), (_, _, b, _) in zip(m_slabs, x_slabs):
        for j0, j1, solved, _ in x_slabs[: k0 // TILE_NODES]:
            b[:, : j1 * c] -= a[:, j0 * r : j1 * r] @ solved
        y = np.zeros(((k1 - k0) * r,) * 2, dtype=complex)
        for k in range(k0, k1):
            i = (k - k0) * r
            y[i : i + r, i : i + r] = inv[k]
            if i:
                y[i : i + r, :i] = -inv[k] @ (a[i : i + r, k0 * r : k * r] @ y[:i, :i])
        b[...] = y @ b
    return x


def solve_id_plus(a: VolterraOperator, b: VolterraOperator) -> Sum:
    """X with ``(Id + A) X = B`` exactly in the discrete algebra, as a ``Sum``; ``.evaluate()`` gives the operator.

    The solve runs on a supported set ``S``, with ``A`` read on ``S x S``.
    ``S`` is the rows ``R`` that ``A`` and ``B`` hold, and then ``X`` holds
    ``R`` alone and the sum is that one operator, which ``evaluate`` returns
    as it is: the proper self-energy's solve.  When ``A`` holds fewer
    columns, ``S`` is those, and ``X = B - A X_S``, a sum that a residual
    can reduce without forming it: the Dyson solution's.  With every orbital
    in both, this is one block forward substitution at ``p``.  The
    instantaneous part is ``(I + m_A)^{-1} m_B`` node by node; without an
    ``m_A`` it is ``m_B``, which ``B - A X_S`` keeps.
    """
    _compatible(a, b)
    rows = np.flatnonzero(_mask(a.rows, a.p) | _mask(b.rows, a.p))
    s = a.cols if a.cols.size < rows.size else rows
    x = b._on(s, b.cols)
    if x is b._panels:
        x = x.copy()
    block_lower_solve(a._on(s, s), x, a.grid.n_nodes, s.size, b.cols.size)
    inst = b._inst
    if inst is not None and a._inst is not None:
        inst = np.zeros_like(inst)
        inst[:, s] = np.linalg.solve(np.eye(s.size) + a._inst[:, s[:, None], s], b._inst[:, s])
    x = VolterraOperator._packed(a.grid, a.p, s, b.cols, inst, None, x)
    return Sum(x) if s is rows else Sum(b) - Sum(a) @ x


def operator_norm_bound(terms: Sum) -> float:
    """Upper bound on the induced sup-norm: max over rows of summed block norms.

    A block's Frobenius norm bounds its spectral norm from above, so a row's
    Frobenius sum bounds its spectral sum.  The spectral sum of the row with
    the largest Frobenius sum is a first best, and only rows whose Frobenius
    sum reaches it, less a relative ``NORM_PRUNE_MARGIN`` for roundoff, can
    hold the maximum.  Each tile row's real and imaginary parts are divided
    by its own largest entry magnitude first, as reals (a complex division
    takes the reciprocal, which overflows for a subnormal one), and its sums
    are then rescaled by that magnitude over the largest of all.  No square
    overflows, and one that underflows is far below the margin.  The other
    remaining rows take one batched SVD per tile row, over the causal width
    of the last of them, and each row is summed left to right, as a
    per-block loop would.  Blocks are read over the support; the rest are
    zero.  nan or inf for a non-finite operator.

    ``terms`` is read one tile row at a time and never formed whole: one
    pass takes each tile row's largest magnitude and Frobenius sums, and the
    tile rows of the remaining rows are formed once more.  An operator's
    bound is that of ``Sum(op)``.
    """
    n, r, c = terms.grid.n_nodes, terms.rows.size, terms.cols.size
    row = terms._reader()

    def blocks(i, slab=None) -> np.ndarray:
        return _blocks(row(i) if slab is None else slab, i * TILE_NODES, min((i + 1) * TILE_NODES, n), r, c)

    finite, tops, sums = True, [], []
    for i in range(len(_tiles(n))):
        slab = row(i)
        tops.append(np.max(np.abs(slab), initial=0.0))
        finite = finite and bool(np.isfinite(slab).all())
        if finite:
            units = (blocks(i, slab).view(float) / (tops[-1] or 1.0)).view(complex)
            sums.append(np.linalg.norm(units, axis=(2, 3)).sum(axis=1))
    if not finite:
        return float(np.max(tops))
    scale = np.max(tops, initial=0.0)
    if scale == 0.0:
        return 0.0
    frobenius = np.concatenate([f * (top / scale) for f, top in zip(sums, tops)])

    def spectral_sums(rows) -> np.ndarray:
        # the blocks right of a row's diagonal, up to the width, are zero
        sums = []
        for tile in dict.fromkeys((rows // TILE_NODES).tolist()):  # rows increase
            local = rows[rows // TILE_NODES == tile] % TILE_NODES
            width = tile * TILE_NODES + local[-1] + 1
            norms = np.linalg.svd(blocks(tile)[local, :width], compute_uv=False)[..., 0]
            sums.append(np.cumsum(norms, axis=1)[:, -1])
        return np.concatenate(sums)

    top = np.argmax(frobenius)
    best = spectral_sums(np.array([top]))[0]
    rows = np.flatnonzero(frobenius >= best / scale * (1.0 - NORM_PRUNE_MARGIN))
    rows = rows[rows != top]
    if rows.size:
        best = max(best, np.max(spectral_sums(rows)))
    return float(best)


# -- kernel dump format ------------------------------------------------
#
# One text file per operator: a single JSON header line
#   {"name":..., "p":..., "N_t":..., "T":..., "ordering": [...]}
# followed by CSV rows; memory-kernel entries carry six fields
# (k, l, i, j, re, im), instantaneous entries five (k, i, j, re, im).
# Every causal memory entry appears once; the instantaneous entries appear
# all once, or not at all when the part is zero.  Operators carry no name:
# the header's ``name`` is the caller's label.


def dump_kernel(op: VolterraOperator, ordering, fh, name: str) -> None:
    """Write ``op`` to ``fh`` under the header label ``name``."""
    header = {
        "name": name,
        "p": op.p,
        "N_t": op.grid.steps,
        "T": op.grid.horizon,
        "ordering": list(ordering),
    }
    fh.write(json.dumps(header) + "\n")
    # one time row at a time, read from the packed kernel; repr of a Python
    # float is the round-trip text.  A part with the bits of the same part one
    # node up and one node left, at the same lag, takes that entry's text:
    # bits, so that -0.0 and 0.0 stay apart.  Only the row above is held.
    n, p = op.grid.n_nodes, op.p
    tails = [f"{l},{i},{j}," for l in range(n) for i in range(p) for j in range(p)]
    above = [None, None]  # the node row above: (bits, texts) of the real and imaginary parts
    for k0, k1, blocks in op.kernel_tiles():
        for k in range(k0, k1):
            _write_entries(fh, f"{k},", tails, blocks[k - k0, : k + 1], above, p * p)
    if op.has_instantaneous():
        tails, above = [f"{i},{j}," for i in range(p) for j in range(p)], [None, None]
        for k, block in enumerate(op.instantaneous()):
            _write_entries(fh, f"{k},", tails, block, above, 0)


def _write_entries(fh, head, tails, values, above, shift) -> None:
    """One line ``head tail re,im`` per entry of ``values``, in C order.

    ``above`` holds the bits and texts of the node row above; entry
    ``e + shift`` of this row lines up with entry ``e`` there, and ``above``
    is replaced by this row.  The row is joined from its pieces, with no
    string per line.
    """
    values = values.reshape(-1)
    re = _part_texts(values.real, above, 0, shift)
    im = _part_texts(values.imag, above, 1, shift)
    m = len(re)
    pieces = [head, None, None, ",", None, "\n"] * m
    pieces[1::6], pieces[2::6], pieces[4::6] = tails[:m], re, im
    fh.write("".join(pieces))


def _part_texts(part, above, which, shift) -> list:
    """repr of every float of ``part``, reusing the row above's text where the bits match."""
    bits = part.view(np.int64)
    texts = np.empty(part.size, dtype=object)
    fresh = np.ones(part.size, dtype=bool)
    if above[which] is not None:
        np.not_equal(bits[shift:], above[which][0], out=fresh[shift:])
        same = np.flatnonzero(~fresh[shift:])
        texts[same + shift] = above[which][1][same]
        above[which] = None  # the texts not reused die before this row's are made
    index = np.flatnonzero(fresh)
    texts[index] = np.fromiter(map(repr, part[index].tolist()), dtype=object, count=index.size)
    above[which] = (bits, texts)
    return texts.tolist()


def dump_kernel_to_path(op: VolterraOperator, ordering, path, name: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_kernel(op, ordering, fh, name)


# The header keys every kernel dump carries; dumps read together must agree on all of them.
HEADER_KEYS = ("p", "N_t", "T", "ordering")


def load_kernels(*fhs) -> list:
    """Parse kernel dumps; returns (header, memory kernel, instantaneous part) of each.

    Every header is read and checked first, and ``MemoryBudgetError`` is
    raised before any array is allocated when the arrays the headers imply
    exceed ``DEFAULT_BUDGET_BYTES`` together.  Then headers that disagree on
    a key in ``HEADER_KEYS`` raise ``HeaderMismatchError``, before any body is
    read.  Every causal memory entry
    ``(k, l, i, j)``, ``l <= k``, must appear exactly once, and the
    instantaneous entries all once or not at all (the writer leaves out an
    instantaneous part that is zero); a truncated dump, or one with a
    repeated or missing row, raises ``ValueError``.
    """
    headers = []
    for fh in fhs:
        header = json.loads(fh.readline())
        if not isinstance(header, dict) or not set(HEADER_KEYS) <= header.keys():
            raise ValueError(f"malformed kernel header: {header!r}")
        for key, least in (("p", 1), ("N_t", 2)):
            value = header[key]
            whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
            if isinstance(value, bool) or not whole or value < least:
                raise ValueError(f"malformed kernel header: {key} must be a whole number >= {least}, got {value!r}")
        headers.append((header, int(header["p"]), int(header["N_t"]) + 1))
    need = sum(17 * (n * n + n) * p * p for _, p, n in headers)  # complex128 arrays and their seen masks
    if need > DEFAULT_BUDGET_BYTES:
        shapes = " and ".join(f"p = {p}, N_t = {n - 1}" for _, p, n in headers)
        raise MemoryBudgetError(f"the kernel dump headers ({shapes}) need {need} bytes (budget {DEFAULT_BUDGET_BYTES})")
    for key in HEADER_KEYS:
        values = [header[key] for header, _, _ in headers]
        if any(value != values[0] for value in values[1:]):
            raise HeaderMismatchError(f"dumps disagree on {key!r}: " + " vs ".join(map(repr, values)))
    return [_kernel_rows(fh, *shape) for fh, shape in zip(fhs, headers)]


def _kernel_rows(fh, header: dict, p: int, n: int) -> tuple[dict, np.ndarray, np.ndarray]:
    mem = np.zeros((n, n, p, p), dtype=complex)
    inst = np.zeros((n, p, p), dtype=complex)
    seen_mem, seen_inst = np.zeros(mem.shape, dtype=bool), np.zeros(inst.shape, dtype=bool)
    for row in csv.reader(fh):
        if not row:
            continue
        if len(row) == 6:
            k, l, i, j = (int(x) for x in row[:4])
            target, seen, index, fits = mem, seen_mem, (k, l, i, j), 0 <= l <= k < n
        elif len(row) == 5:
            k, i, j = (int(x) for x in row[:3])
            target, seen, index, fits = inst, seen_inst, (k, i, j), 0 <= k < n
        else:
            fits = False
        # a negative index would wrap; acausal or out-of-range rows do not fit the header
        if not (fits and 0 <= i < p and 0 <= j < p):
            raise ValueError(f"malformed kernel row: {row!r}")
        if seen[index]:
            raise ValueError(f"malformed kernel dump: entry {index} appears twice, again in row {row!r}")
        seen[index] = True
        target[index] = complex(float(row[-2]), float(row[-1]))
    missing = np.logical_not(seen_mem, out=seen_mem)  # in place: no second mask
    missing &= (np.arange(n)[:, None] >= np.arange(n))[:, :, None, None]
    if missing.any():
        first = tuple(int(x) for x in np.unravel_index(np.argmax(missing), missing.shape))
        raise ValueError(
            f"malformed kernel dump: {np.count_nonzero(missing)} causal memory entries missing, "
            f"the first (k, l, i, j) = {first}"
        )
    count = int(np.count_nonzero(seen_inst))
    if count not in (0, seen_inst.size):
        raise ValueError(f"malformed kernel dump: {count} of {seen_inst.size} instantaneous entries present")
    return header, mem, inst
