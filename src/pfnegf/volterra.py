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

Only the causal triangle is stored.  The nodes are cut into tiles of
``TILE_NODES``; tile row ``I`` (nodes ``k0..k1-1``) is one C-contiguous
``((k1 - k0) p, k1 p)`` slab holding those rows of the matrix up to the end of
the tile, so a diagonal tile keeps its few upper zeros.  The slabs of one
operator lie in tile order in one buffer, about half the dense ``(n p)^2``.
Compose and solve run on these slabs, one GEMM per pair of tile rows, and
never touch the acausal triangle.  An operator holds one of two forms.  A
kernel-built operator keeps its kernel in the same packed layout and weighs
it when the algebra reads it, so its kernel view and dump are the exact
input.  Every other operator, one built from an instantaneous part alone
included, holds the packed matrix, and its kernel is derived from it.  The
constructor checks causality tile row by tile row as it packs.
``kernel_tiles`` is the one kernel reader; ``flat`` expands the dense matrix
on demand, and no program path reads it.

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


def packed_size(n_nodes: int, p: int) -> int:
    """Complex entries of one packed operator."""
    return p * p * sum((k1 - k0) * k1 for k0, k1 in _tiles(n_nodes))


def _slabs(buf: np.ndarray, n_nodes: int, p: int) -> list:
    """The tile-row slabs of a packed buffer, as 2-D views in tile order."""
    slabs, start = [], 0
    for k0, k1 in _tiles(n_nodes):
        size = (k1 - k0) * p * k1 * p
        slabs.append(buf[start : start + size].reshape((k1 - k0) * p, k1 * p))
        start += size
    return slabs


def _blocks(slab: np.ndarray, p: int) -> np.ndarray:
    """``(k1 - k0, k1, p, p)`` block view of a tile-row slab."""
    rows, cols = slab.shape
    return slab.reshape(rows // p, p, cols // p, p).transpose(0, 2, 1, 3)


class VolterraOperator:
    """Causal operator with an optional instantaneous part and memory kernel.

    Built from the kernel pair, it holds the packed kernel; built from an
    instantaneous part alone, or produced by the algebra, it holds the packed
    matrix, and its kernel pair is a derived view.  Either way the algebra
    reads the packed matrix (``panels``).
    """

    def __init__(self, grid: TimeGrid, p: int, *, inst=None, mem=None):
        n = grid.n_nodes
        if inst is None and mem is None:
            raise ValueError("operator needs an instantaneous part or a kernel")
        if inst is not None:
            inst = np.asarray(inst, dtype=complex)
            if inst.shape != (n, p, p):
                raise ValueError(f"instantaneous part has shape {inst.shape}, expected {(n, p, p)}")
        if mem is None:
            panels = np.zeros(packed_size(n, p), dtype=complex)
            _add_diagonal(panels, inst, n, p)
            self._set(grid, p, inst, None, panels)
            return
        mem = np.asarray(mem, dtype=complex)  # a strided view is packed as it is
        if mem.shape != (n, n, p, p):
            raise ValueError(f"memory kernel has shape {mem.shape}, expected {(n, n, p, p)}")
        kernel = np.empty(packed_size(n, p), dtype=complex)
        for (k0, k1), slab in zip(_tiles(n), _slabs(kernel, n, p)):
            rows = mem[k0:k1]
            # the acausal blocks l > k of the tile row must be exactly zero, not nan
            upper = np.max(np.abs(rows[np.arange(n) > np.arange(k0, k1)[:, None]]), initial=0.0)
            if upper != 0.0:
                raise ValueError(f"memory kernel has acausal weight {upper:.3e}")
            _blocks(slab, p)[...] = rows[:, :k1]
        self._set(grid, p, inst, kernel, None)

    def _set(self, grid, p, inst, kernel, panels) -> None:
        # exactly one of kernel (packed memory kernel) and panels (packed matrix)
        self.grid, self.p = grid, int(p)
        self._inst, self._kernel, self._panels = inst, kernel, panels

    @classmethod
    def _packed(cls, grid, p, inst, kernel, panels) -> "VolterraOperator":
        op = cls.__new__(cls)
        op._set(grid, p, inst, kernel, panels)
        return op

    # -- views ---------------------------------------------------------

    def panels(self) -> np.ndarray:
        """The packed matrix; a kernel-built operator weighs its kernel afresh on each read."""
        if self._panels is not None:
            return self._panels
        n, p = self.grid.n_nodes, self.p
        w = trapezoid_weights(n) * self.grid.delta
        out = np.empty_like(self._kernel)
        for (k0, k1), src, dst in zip(_tiles(n), _slabs(self._kernel, n, p), _slabs(out, n, p)):
            shape = (k1 - k0, p, k1, p)
            np.multiply(src.reshape(shape), w[k0:k1, None, :k1, None], out=dst.reshape(shape))
        if self._inst is not None:
            _add_diagonal(out, self._inst, n, p)
        return out

    @property
    def flat(self) -> np.ndarray:
        """Dense ``(n p, n p)`` expansion of the packed matrix, built on each read."""
        n, p = self.grid.n_nodes, self.p
        flat = np.zeros((n * p, n * p), dtype=complex)
        for (k0, k1), slab in zip(_tiles(n), _slabs(self.panels(), n, p)):
            flat[k0 * p : k1 * p, : k1 * p] = slab
        return flat

    def instantaneous(self) -> np.ndarray:
        n, p = self.grid.n_nodes, self.p
        if self._inst is None:
            return np.zeros((n, p, p), dtype=complex)
        return self._inst

    def has_instantaneous(self) -> bool:
        return self._inst is not None and bool(np.any(self._inst))

    def kernel_tiles(self):
        """``(k0, k1, K[k0:k1, :k1])`` for every tile row, acausal blocks zero: the kernel reader."""
        n, p = self.grid.n_nodes, self.p
        if self._kernel is not None:
            for (k0, k1), slab in zip(_tiles(n), _slabs(self._kernel, n, p)):
                yield k0, k1, _blocks(slab, p)
            return
        w = trapezoid_weights(n) * self.grid.delta
        w[w == 0.0] = 1.0  # vacuous slots (node 0 and the acausal range) hold zero blocks
        for (k0, k1), slab in zip(_tiles(n), _slabs(self.panels(), n, p)):
            blocks = _blocks(slab, p).copy()
            rows = np.arange(k1 - k0)
            if self._inst is not None:
                blocks[rows, rows + k0] -= self._inst[k0:k1]
            blocks = blocks / w[k0:k1, :k1, None, None]
            blocks[np.arange(k1)[None, :] > rows[:, None] + k0] = 0.0
            if k0 == 0:
                blocks[0, 0] = 0.0
            yield k0, k1, blocks

    # -- algebra -------------------------------------------------------

    def _require_compatible(self, other: "VolterraOperator"):
        if self.grid != other.grid or self.p != other.p:
            raise ValueError("operators live on different grids or orbital spaces")

    def compose(self, other: "VolterraOperator") -> "VolterraOperator":
        """Operator product self after other; exact in the block algebra.

        Tile row ``I`` of the product is ``sum_{M<=I} A_I[:, M] @ B_M``, with
        ``B_M`` the slab of tile row ``M``: the causal triangle only.
        """
        self._require_compatible(other)
        n, p = self.grid.n_nodes, self.p
        inst = None
        if self._inst is not None and other._inst is not None:
            inst = np.einsum("kab,kbc->kac", self._inst, other._inst)
        out = np.empty(packed_size(n, p), dtype=complex)
        a, b, c = _slabs(self.panels(), n, p), _slabs(other.panels(), n, p), _slabs(out, n, p)
        tiles = _tiles(n)
        for i, (k0, _) in enumerate(tiles):
            np.matmul(a[i][:, k0 * p :], b[i], out=c[i])
            for m, (m0, m1) in enumerate(tiles[:i]):
                c[i][:, : m1 * p] += a[i][:, m0 * p : m1 * p] @ b[m]
        return VolterraOperator._packed(self.grid, p, inst, None, out)

    def __matmul__(self, other: "VolterraOperator") -> "VolterraOperator":
        return self.compose(other)

    def _combine(self, other: "VolterraOperator", sign: float) -> "VolterraOperator":
        self._require_compatible(other)
        inst = None
        if self._inst is not None or other._inst is not None:
            inst = self.instantaneous() + sign * other.instantaneous()
        combine = np.add if sign > 0 else np.subtract
        panels = combine(self.panels(), other.panels())
        return VolterraOperator._packed(self.grid, self.p, inst, None, panels)

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
        return VolterraOperator._packed(self.grid, self.p, inst, None, panels)

    def restrict(self, indices) -> "VolterraOperator":
        """Keep the given orbital indices (e.g. the sample block)."""
        indices = np.asarray(indices, dtype=int)
        n, q = self.grid.n_nodes, len(indices)
        inst = None if self._inst is None else self._inst[:, indices[:, None], indices[None, :]]
        source = self._kernel if self._kernel is not None else self._panels
        out = np.empty(packed_size(n, q), dtype=complex)
        for src, dst in zip(_slabs(source, n, self.p), _slabs(out, n, q)):
            _blocks(dst, q)[...] = _blocks(src, self.p)[:, :, indices][:, :, :, indices]
        kernel, panels = (out, None) if self._kernel is not None else (None, out)
        return VolterraOperator._packed(self.grid, q, inst, kernel, panels)

    def max_abs(self) -> float:
        """Largest entry magnitude of the matrix (exact-algebra residuals)."""
        return float(np.max(np.abs(self.panels())))

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


def _add_diagonal(panels: np.ndarray, inst: np.ndarray, n: int, p: int) -> None:
    """Add ``inst[k]`` to the diagonal block of every node of a packed matrix."""
    for (k0, k1), slab in zip(_tiles(n), _slabs(panels, n, p)):
        rows = np.arange(k1 - k0)
        _blocks(slab, p)[rows, rows + k0] += inst[k0:k1]


def block_lower_solve(a: VolterraOperator, b: VolterraOperator) -> np.ndarray:
    """Packed ``X`` with ``(Id + A) X = B``, by block forward substitution.

    Each tile row takes one GEMM per solved tile row above it.  Its diagonal
    tile of ``Id + A`` is then inverted node by node, by forward substitution
    on the tile's identity, and applied in one GEMM.  ``B`` is causal, so
    nothing right of the tile is touched.  Raises with the offending node
    index if a diagonal block of ``Id + A`` is singular.
    """
    n, p = a.grid.n_nodes, a.p
    tiles = _tiles(n)
    m_slabs = _slabs(a.panels(), n, p)
    diag = np.concatenate([
        _blocks(m, p)[np.arange(k1 - k0), np.arange(k0, k1)] for (k0, k1), m in zip(tiles, m_slabs)
    ]) + np.eye(p)
    try:
        inv = np.linalg.inv(diag)
    except np.linalg.LinAlgError:
        for k, block in enumerate(diag):
            try:
                np.linalg.inv(block)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(f"singular diagonal block at node {k}") from exc
        raise
    out = b.panels()
    if out is b._panels:
        out = out.copy()
    x_slabs = _slabs(out, n, p)
    for i, (k0, k1) in enumerate(tiles):
        m, x = m_slabs[i], x_slabs[i]
        for j, (j0, j1) in enumerate(tiles[:i]):
            x[:, : j1 * p] -= m[:, j0 * p : j1 * p] @ x_slabs[j]
        y = np.zeros(((k1 - k0) * p,) * 2, dtype=complex)
        for k in range(k0, k1):
            r = (k - k0) * p
            y[r : r + p, r : r + p] = inv[k]
            if r:
                y[r : r + p, :r] = -inv[k] @ (m[r : r + p, k0 * p : k * p] @ y[:r, :r])
        x[...] = y @ x
    return out


def solve_id_plus(a: VolterraOperator, b: VolterraOperator) -> VolterraOperator:
    """X with ``(Id + A) X = B`` exactly in the discrete algebra.

    One block forward substitution; the instantaneous part is
    ``(I + m_A)^{-1} m_B`` node by node.
    """
    a._require_compatible(b)
    panels = block_lower_solve(a, b)
    inst = b._inst
    if inst is not None and a._inst is not None:
        inst = np.linalg.solve(np.eye(a.p) + a._inst, inst)
    return VolterraOperator._packed(a.grid, a.p, inst, None, panels)


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
    would.  nan or inf for a non-finite operator.
    """
    panels, n, p = op.panels(), op.grid.n_nodes, op.p
    if not np.isfinite(panels).all():
        return float(np.max(np.abs(panels)))
    scale = np.max(np.abs(panels))
    if scale == 0.0:
        return 0.0
    slabs = _slabs(panels, n, p)
    frobenius = np.concatenate([
        np.linalg.norm(_blocks((s.view(float) / scale).view(complex), p), axis=(2, 3)).sum(axis=1) for s in slabs
    ])

    def spectral_sums(rows) -> np.ndarray:
        # the blocks right of a row's diagonal, up to the width, are zero
        sums = []
        for tile in np.unique(rows // TILE_NODES):
            local = rows[rows // TILE_NODES == tile] % TILE_NODES
            width = tile * TILE_NODES + local[-1] + 1
            norms = np.linalg.svd(_blocks(slabs[tile], p)[local, :width], compute_uv=False)[..., 0]
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
