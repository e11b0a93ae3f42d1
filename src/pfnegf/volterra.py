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
self-energy on the sample is multiplied at the sample's size.  An operator
holds one of two forms.  A kernel-built operator keeps its kernel, times an
optional scale, in the same packed layout and weighs it when the algebra
reads it, so its kernel view and dump are the exact input.  Every other
operator, one built from an instantaneous part alone included, holds the
packed matrix, and its kernel is derived from it.  The constructor checks
causality tile row by tile row as it packs.  The instantaneous part, the
one kernel reader ``kernel_tiles`` and ``flat``, the dense matrix that no
program path reads, keep every orbital.

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

from .errors import MemoryBudgetError
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
    """w[k, l] for l <= k; row 0 is empty (the integral term vanishes there)."""
    w = np.zeros((n_nodes, n_nodes))
    for k in range(1, n_nodes):
        w[k, : k + 1] = 1.0
        w[k, 0] = 0.5
        w[k, k] = 0.5
    return w


def _tiles(n_nodes: int) -> list:
    """``(k0, k1)`` node range of every tile row."""
    return [(k0, min(k0 + TILE_NODES, n_nodes)) for k0 in range(0, n_nodes, TILE_NODES)]


def packed_size(n_nodes: int, rows: int, cols: int | None = None) -> int:
    """Complex entries of one packed operator over ``rows`` x ``cols`` orbitals (default square)."""
    return rows * (rows if cols is None else cols) * sum((k1 - k0) * k1 for k0, k1 in _tiles(n_nodes))


def _slabs(buf: np.ndarray, n_nodes: int, r: int, c: int) -> list:
    """``(k0, k1, slab, blocks)`` of every tile row over ``r x c`` orbitals: 2-D and ``(k1 - k0, k1, r, c)`` views."""
    out, start = [], 0
    for k0, k1 in _tiles(n_nodes):
        size = (k1 - k0) * r * k1 * c
        slab = buf[start : start + size].reshape((k1 - k0) * r, k1 * c)
        out.append((k0, k1, slab, slab.reshape(k1 - k0, r, k1, c).transpose(0, 2, 1, 3)))
        start += size
    return out


def _support(indices, p: int) -> np.ndarray:
    indices = np.arange(p) if indices is None else np.asarray(indices, dtype=int).reshape(-1)
    if not np.array_equal(indices, np.unique(indices[(indices >= 0) & (indices < p)])):
        raise ValueError(f"a support must be increasing orbital indices below {p}, got {indices.tolist()}")
    return indices


def _nonzero(a: np.ndarray) -> bool:
    # the bits less the sign: -0.0 is zero, and a signalling nan does not warn
    return any(np.any(part.view(np.int64) << 1) for part in (a.real, a.imag))


class VolterraOperator:
    """Causal operator with an optional instantaneous part and memory kernel.

    Built from the kernel pair, it holds the packed kernel; built from an
    instantaneous part alone, or produced by the algebra, it holds the packed
    matrix, and its kernel pair is a derived view.  Either way the algebra
    reads the packed matrix (``panels``).  ``rows`` and ``cols``, increasing
    (default: every orbital), are the support: ``mem[k, l, i, j]`` is kernel
    entry ``(rows[i], cols[j])``, every other entry is zero, and an
    instantaneous part that is not zero outside the support is refused.
    ``scale``, if given, multiplies the packed kernel once, so an entry
    outside the support reads the bits of ``+0.0 * scale``; ``scale=1.0``
    turns some -0.0.
    """

    def __init__(self, grid: TimeGrid, p: int, *, inst=None, mem=None, rows=None, cols=None, scale=None):
        n = grid.n_nodes
        if inst is None and mem is None:
            raise ValueError("operator needs an instantaneous part or a kernel")
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
        if mem is None:
            panels = np.zeros(packed_size(n, r, c), dtype=complex)
            _add_diagonal(panels, inst, n, rows, cols)
            self._set(grid, p, rows, cols, inst, None, panels)
            return
        mem = np.asarray(mem, dtype=complex)  # a strided view is packed as it is
        if mem.shape != (n, n, r, c):
            raise ValueError(f"memory kernel has shape {mem.shape}, expected {(n, n, r, c)}")
        kernel = np.empty(packed_size(n, r, c), dtype=complex)
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
        # exactly one of kernel (packed memory kernel) and panels (packed matrix);
        # zero is the kernel's entry outside the support
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
        if self._panels is not None:
            return self._panels
        n, r, c = self.grid.n_nodes, self.rows.size, self.cols.size
        w = trapezoid_weights(n) * self.grid.delta
        out = np.empty_like(self._kernel)
        for (k0, k1, src, _), (_, _, dst, _) in zip(_slabs(self._kernel, n, r, c), _slabs(out, n, r, c)):
            shape = (k1 - k0, r, k1, c)
            np.multiply(src.reshape(shape), w[k0:k1, None, :k1, None], out=dst.reshape(shape))
        if self._inst is not None:
            _add_diagonal(out, self._inst, n, self.rows, self.cols)
        return out

    def _on(self, rows, cols) -> np.ndarray:
        """The packed matrix over the support ``(rows, cols)``: entries this operator does not hold are +0.0."""
        panels = self.panels()
        if np.array_equal(rows, self.rows) and np.array_equal(cols, self.cols):
            return panels
        n, r, c = self.grid.n_nodes, rows.size, cols.size
        keep = np.intersect1d(self.rows, rows), np.intersect1d(self.cols, cols)
        sr, sc = (np.searchsorted(held, k) for held, k in zip((self.rows, self.cols), keep))
        dr, dc = (np.searchsorted(held, k) for held, k in zip((rows, cols), keep))
        out = np.zeros(packed_size(n, r, c), dtype=complex)
        for (*_, a), (*_, b) in zip(_slabs(panels, n, self.rows.size, self.cols.size), _slabs(out, n, r, c)):
            b[:, :, dr[:, None], dc] = a[:, :, sr[:, None], sc]
        return out

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

    def _require_compatible(self, other: "VolterraOperator"):
        if self.grid != other.grid or self.p != other.p:
            raise ValueError("operators live on different grids or orbital spaces")

    def compose(self, other: "VolterraOperator") -> "VolterraOperator":
        """Operator product self after other; exact in the block algebra.

        The product holds ``(self.rows, other.cols)`` and contracts over the
        inner set alone: the columns of ``self`` that are rows of ``other``.
        Tile row ``I`` is ``sum_{M<=I} A_I[:, M] @ B_M``, with ``B_M`` the slab
        of tile row ``M``: the causal triangle only.
        """
        self._require_compatible(other)
        rows, inner, cols = self.rows, np.intersect1d(self.cols, other.rows), other.cols
        n, r, s, c = self.grid.n_nodes, rows.size, inner.size, cols.size
        inst = None
        if self._inst is not None and other._inst is not None:
            inst = np.einsum("kab,kbc->kac", self._inst, other._inst)
        out = np.empty(packed_size(n, r, c), dtype=complex)
        a, b = _slabs(self._on(rows, inner), n, r, s), _slabs(other._on(inner, cols), n, s, c)
        for i, ((k0, _, slab, _), (_, _, left, _)) in enumerate(zip(_slabs(out, n, r, c), a)):
            np.matmul(left[:, k0 * s :], b[i][2], out=slab)
            for m0, m1, right, _ in b[:i]:
                slab[:, : m1 * c] += left[:, m0 * s : m1 * s] @ right
        return VolterraOperator._packed(self.grid, self.p, rows, cols, inst, None, out)

    def __matmul__(self, other: "VolterraOperator") -> "VolterraOperator":
        return self.compose(other)

    def _combine(self, other: "VolterraOperator", sign: float) -> "VolterraOperator":
        self._require_compatible(other)
        inst = None
        if self._inst is not None or other._inst is not None:
            inst = self.instantaneous() + sign * other.instantaneous()
        rows, cols = np.union1d(self.rows, other.rows), np.union1d(self.cols, other.cols)
        combine = np.add if sign > 0 else np.subtract
        panels = combine(self._on(rows, cols), other._on(rows, cols))
        return VolterraOperator._packed(self.grid, self.p, rows, cols, inst, None, panels)

    def __add__(self, other: "VolterraOperator") -> "VolterraOperator":
        return self._combine(other, +1.0)

    def __sub__(self, other: "VolterraOperator") -> "VolterraOperator":
        return self._combine(other, -1.0)

    def __neg__(self) -> "VolterraOperator":
        return self.scale(-1.0)

    def scale(self, scalar) -> "VolterraOperator":
        scalar = complex(scalar)
        inst = None if self._inst is None else scalar * self._inst
        panels = scalar * self.panels()
        return VolterraOperator._packed(self.grid, self.p, self.rows, self.cols, inst, None, panels)

    def restrict(self, indices) -> "VolterraOperator":
        """Keep the given orbital indices (e.g. the sample block), read from the stored sub-blocks."""
        indices = np.asarray(indices, dtype=int)
        n, q = self.grid.n_nodes, len(indices)
        inst = None if self._inst is None else self._inst[:, indices[:, None], indices[None, :]]
        rows, cols = (np.flatnonzero(np.isin(indices, s)) for s in (self.rows, self.cols))
        src_rows, src_cols = np.searchsorted(self.rows, indices[rows]), np.searchsorted(self.cols, indices[cols])
        source = self._kernel if self._kernel is not None else self._panels
        out = np.empty(packed_size(n, rows.size, cols.size), dtype=complex)
        src, dst = _slabs(source, n, self.rows.size, self.cols.size), _slabs(out, n, rows.size, cols.size)
        for (*_, a), (*_, b) in zip(src, dst):
            b[...] = a[:, :, src_rows[:, None], src_cols]
        kernel, panels = (out, None) if self._kernel is not None else (None, out)
        return VolterraOperator._packed(self.grid, q, rows, cols, inst, kernel, panels, self._zero)

    def max_abs(self) -> float:
        """Largest entry magnitude of the matrix (exact-algebra residuals)."""
        return float(np.max(np.abs(self.panels()), initial=0.0))

    def norm_bound(self) -> float:
        """Induced sup-norm bound of the operator (see ``operator_norm_bound``)."""
        return operator_norm_bound(self)

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


def _add_diagonal(panels: np.ndarray, inst: np.ndarray, n: int, rows, cols) -> None:
    """Add the ``(rows, cols)`` block of ``inst[k]`` to the diagonal block of every node of a packed matrix."""
    inst = inst[:, rows[:, None], cols]
    for k0, k1, _, blocks in _slabs(panels, n, rows.size, cols.size):
        nodes = np.arange(k1 - k0)
        blocks[nodes, nodes + k0] += inst[k0:k1]


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


def solve_id_plus(a: VolterraOperator, b: VolterraOperator) -> VolterraOperator:
    """X with ``(Id + A) X = B`` exactly in the discrete algebra.

    The solve runs on a supported set ``S``, with ``A`` read on ``S x S``.
    ``S`` is the rows ``R`` that ``A`` and ``B`` hold, and then ``X`` holds
    ``R`` alone: the proper self-energy's solve.  When ``A`` holds fewer
    columns, ``S`` is those, and ``X = B - A X_S``: the Dyson solution's.
    With every orbital in both, this is one block forward substitution at
    ``p``.  The instantaneous part is ``(I + m_A)^{-1} m_B`` node by node;
    without an ``m_A`` it is ``m_B``, which ``B - A X_S`` keeps.
    """
    a._require_compatible(b)
    rows = np.union1d(a.rows, b.rows)
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
    return x if s is rows else b - a @ x


def operator_norm_bound(op: VolterraOperator) -> float:
    """Upper bound on the induced sup-norm: max over rows of summed block norms.

    A block's Frobenius norm bounds its spectral norm from above, so a row's
    Frobenius sum bounds its spectral sum.  The spectral sum of the row with
    the largest Frobenius sum is a first best, and only rows whose Frobenius
    sum reaches it, less a relative ``NORM_PRUNE_MARGIN`` for roundoff, can
    hold the maximum.  The real and imaginary parts are divided by the
    largest entry magnitude first, as reals: a complex division takes the
    reciprocal, which overflows for a subnormal one.  No square overflows,
    and one that underflows is far below the margin.  The other remaining
    rows take one batched SVD per tile row, over the causal width of the
    last of them, and each row is summed left to right, as a per-block loop
    would.  Blocks are read over the support; the rest are zero.  nan or inf
    for a non-finite operator.
    """
    panels, n, r, c = op.panels(), op.grid.n_nodes, op.rows.size, op.cols.size
    if not np.isfinite(panels).all():
        return float(np.max(np.abs(panels)))
    scale = np.max(np.abs(panels), initial=0.0)
    if scale == 0.0:
        return 0.0
    blocks = [b for *_, b in _slabs(panels, n, r, c)]
    frobenius = np.concatenate([
        np.linalg.norm((b.view(float) / scale).view(complex), axis=(2, 3)).sum(axis=1) for b in blocks
    ])

    def spectral_sums(rows) -> np.ndarray:
        # the blocks right of a row's diagonal, up to the width, are zero
        sums = []
        for tile in np.unique(rows // TILE_NODES):
            local = rows[rows // TILE_NODES == tile] % TILE_NODES
            width = tile * TILE_NODES + local[-1] + 1
            norms = np.linalg.svd(blocks[tile][local, :width], compute_uv=False)[..., 0]
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


def load_kernel(fh) -> tuple[dict, np.ndarray, np.ndarray]:
    """Parse a kernel dump; returns (header, memory kernel, instantaneous part).

    Every causal memory entry ``(k, l, i, j)``, ``l <= k``, must appear exactly
    once, and the instantaneous entries all once or not at all (the writer
    leaves out an instantaneous part that is zero); a truncated dump, or one
    with a repeated or missing row, raises ``ValueError``.  Raises
    ``MemoryBudgetError`` before allocating when the arrays the header implies
    exceed ``DEFAULT_BUDGET_BYTES``.
    """
    header = json.loads(fh.readline())
    if not isinstance(header, dict) or not {"p", "N_t", "T", "ordering"} <= header.keys():
        raise ValueError(f"malformed kernel header: {header!r}")
    for key, least in (("p", 1), ("N_t", 2)):
        value = header[key]
        whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
        if isinstance(value, bool) or not whole or value < least:
            raise ValueError(f"malformed kernel header: {key} must be a whole number >= {least}, got {value!r}")
    p = int(header["p"])
    n = int(header["N_t"]) + 1
    need = 17 * (n * n + n) * p * p  # complex128 kernel and instantaneous part, and their seen masks
    if need > DEFAULT_BUDGET_BYTES:
        raise MemoryBudgetError(
            f"the kernel dump header (p = {p}, N_t = {n - 1}) needs {need} bytes "
            f"(budget {DEFAULT_BUDGET_BYTES})"
        )
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


def load_kernel_from_path(path) -> tuple[dict, np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_kernel(fh)
