"""Heisenberg evolution on the time grid and two-time anticommutator grids.

Evolution is exact and diagonal.  Per particle-number sector the
(number-conserving) generator is diagonalised, ``K_v[N] = Q_N diag(E_N)
Q_N^dagger``; in this "K-frame" an operator block mapping sector ``N`` to
sector ``N'`` evolves by elementwise phases,

    X(t_k)_ab = X_ab exp(i t_k (E_a - E_b)),   a in N', b in N,

so node ``k`` of any family is reached directly from ``k`` in O(size): no
step products, and no roundoff that grows with ``k``.  For a pair of
creation-type families ``A_m``, ``D_j`` the anticommutator pairing

    C[j, m, k, l] = Tr( rho { A_m(t_l), D_j(t_k)^dagger } )

is the elementwise inner product of ``conj(D_j(t_k))`` with the held side
``B_m(t_l) = rho[N+1] A_m(t_l) + A_m(t_l) rho[N]``, the state taken into
the K-frame as well.  The state and the evolution both conserve particle
number, so the pairing is a sum of independent ``N -> N+1`` sector terms.

One sweep builds a grid and any causal companions that share its families,
sector by sector, in tiles of ``sector_tile`` nodes: as many as fit the
memory of ``TILE_NODES`` nodes of the whole flat, so a small sector takes
larger tiles.  Per tile row the held tile of ``B(t_l)`` of every held family
is formed once on the sector's block, and the D tile of ``conj(D(t_k))`` of
every D family once per tile that a pair reads; each pair of tiles is one
GEMM, added into the grid, and family rows that are exact zero operators
enter none.  Tiles are formed from the stored family by phase multiplies,
with no evolution sweeps: the phases of a whole tile are formed in one
broadcast, in chunks that fit the sweep's GEMM buffer, which is idle while
tiles are formed, and a D tile is one multiply per family and chunk.  Every
sector's tiles share one buffer, so a sweep holds O(TILE_NODES) nodes of
memory in N_t beyond its grids; the held and D tiles of every family must
fit the budget together.  Every grid is kept over the nonzero rows of its D
family and of its held family, and every other entry is zero.  A retarded
kernel is a view of its grid (``causal_kernel``), and the packed operator
takes both row sets as its orbital support.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MemoryBudgetError
from .fock import ManyBodyOperator
from .grid import TimeGrid
from .thermal import DensityOperator

DEFAULT_BUDGET_BYTES = 4 * 1024**3

TILE_NODES = 8  # nodes per GEMM tile of the whole creation-type flat

SECTOR_TILE_CAP = 32  # most nodes per GEMM tile of one sector

UNITARITY_TOL = 1e-12


def _check_hermitian(generator: ManyBodyOperator) -> None:
    defect = generator.hermiticity_defect()
    if not defect <= 1e-12:  # a nan defect fails too
        raise ValueError(f"evolution generator is not Hermitian (defect {defect:.3e})")


def sector_tile(n_nodes: int, flat: int, size: int) -> int:
    """Nodes per tile of a ``size``-entry sector of a ``flat``-entry creation flat: as many as
    ``TILE_NODES`` nodes of the flat hold, at most ``SECTOR_TILE_CAP`` and ``n_nodes``.  It reads
    the sector alone, not the families paired, so companions do not move a grid's bits."""
    return min(n_nodes, SECTOR_TILE_CAP, min(TILE_NODES, n_nodes) * flat // size)


@dataclass
class CorrelatorGrid:
    """Two-time anticommutator values ``C[j, m, k, l]`` over the nonzero family rows.

    ``values[i, a]`` is row ``rows[i]`` of the D family against row
    ``cols[a]`` of the held family; every other row of either family is a
    zero operator, so its entries are zero.  A swept grid's ``values`` is a
    view of a node-major ``(k, j, l, m)`` buffer.  Retarded kernels only read
    the causal triangle ``l <= k``; a full grid holds the acausal part as
    well, for ``pairing_defect``.  A grid is handed to its kernel in place:
    ``causal_kernel`` overwrites ``values``.  The causal grids of the
    companion pairs of its sweep are in ``companions``.
    """

    values: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    companions: list = field(default_factory=list)

    def pairing_defect(self) -> float:
        """Max-abs defect of ``C[j, m, k, l] = conj(C[m, j, l, k])``.

        Meaningful only on a full grid whose rows and columns are the same
        orbitals (the entries of the others are zero on both sides); raises
        ``ValueError`` on any other.  One first index at a time, so the
        temporaries are 1/p of the grid.
        """
        v = self.values
        if not np.array_equal(self.rows, self.cols):
            raise ValueError(f"the pairing defect needs a square grid, not rows {self.rows} and columns {self.cols}")
        rows = [np.max(np.abs(v[j] - np.conj(v[:, j].transpose(0, 2, 1)))) for j in range(len(v))]
        return float(np.max(rows))

    def causal_kernel(self) -> np.ndarray:
        """(n, n, rows, cols) view of ``C``, acausal part zeroed; overwrites ``values``."""
        kernel = self.values.transpose(2, 3, 0, 1)
        kernel[np.triu_indices(kernel.shape[0], k=1)] = 0.0
        return kernel


class CorrelatorFactory:
    """Pairs registered operator families into two-time anticommutator grids.

    The state and every family live in the generator's eigenbasis, the
    K-frame, as flat arrays: the K-frame blocks of every sector, raveled and
    concatenated; a node's phases on an ``N -> N+s`` block are the outer
    product of ``exp(i t_k E)`` on sector ``N+s`` and its conjugate on ``N``.
    Families must be creation-type: the second member of a pairing enters
    through its adjoint, which Heisenberg evolution commutes with, so every
    family evolves the same way on either side.  Each family is stored once,
    as its nonzero rows; a node is that array times its phases.  A grid is
    summed over the creation sectors, holds one tile per side and costs
    O(N_t^2) phase products, no evolution sweeps; the tiles must fit ``budget``.
    """

    strategy = "recompute"  # name of the one sweep; perfbench/tracer.py reads it

    def __init__(
        self,
        rho: DensityOperator,
        generator: ManyBodyOperator,
        grid: TimeGrid,
        budget: int = DEFAULT_BUDGET_BYTES,
    ):
        _check_hermitian(generator)
        self.grid, self.budget = grid, budget
        energies, self.vecs = zip(*(np.linalg.eigh(block) for block in generator.blocks))
        defect = np.max([np.max(np.abs(np.conj(q.T) @ q - np.eye(q.shape[0]))) for q in self.vecs])
        if not defect <= UNITARITY_TOL:
            raise RuntimeError(f"generator eigenbasis unitarity defect {defect:.3e}")
        self.rho_k = []
        for q, v, p in zip(self.vecs, rho.vecs, rho.probs):
            w = np.conj(q.T) @ v
            self.rho_k.append((w * p) @ np.conj(w.T))
        self.energies, dims = np.concatenate(energies), [e.size for e in energies]
        self._offsets = np.cumsum([0] + dims)  # of every sector in ``energies``
        # Tr(rho X) = sum over the flat of rho^T * X, for number-conserving X
        self.rho_t_flat = np.concatenate([r.T.ravel() for r in self.rho_k])
        # (slice of the creation flat, block shape) of every N -> N+1
        cuts = np.cumsum([0] + [hi * lo for lo, hi in zip(dims, dims[1:])])
        self._sectors = [(slice(cuts[n], cuts[n + 1]), (dims[n + 1], dims[n])) for n in range(len(dims) - 1)]
        self._families: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def to_frame(self, op: ManyBodyOperator, s: int) -> np.ndarray:
        """Flat K-frame blocks ``Q_{N+s}^dagger X_N Q_N`` of a displacement-``s`` operator."""
        if op.displacement != s:
            raise ValueError(f"expected a displacement {s:+d} operator, got {op.displacement:+d}")
        q = self.vecs
        return np.concatenate(
            [(np.conj(q[n + s].T) @ op.blocks[n] @ q[n]).ravel() for n in range(len(q) - s)]
        )

    def add_family(self, name: str, ops: list[ManyBodyOperator]) -> None:
        if name in self._families:
            raise ValueError(f"family {name!r} already registered")
        flats = np.stack([self.to_frame(op, +1) for op in ops])
        # a zero operator's every node is exactly zero: only nonzero rows are kept
        rows = np.flatnonzero(np.any(flats != 0, axis=1))
        self._families[name] = (rows, flats[rows])

    def anticommutator_grid(
        self, name_a: str, name_d: str, full: bool = False, companions=()
    ) -> CorrelatorGrid:
        """Grid of ``Tr(rho {A_m(t_l), D_j(t_k)^dagger})`` for two families.

        Each ``(name_a, name_d)`` pair in ``companions`` gets its causal grid
        from the same sweep, in ``.companions``.  Every grid holds the nonzero
        rows of its D family against those of its held family.  The sweep runs
        over the creation sectors ``N -> N+1`` in turn, each in tiles of
        ``sector_tile`` nodes.  Per held tile row the held tile
        ``rho[N+1] x + x rho[N]`` of every held family is formed once on the
        sector's block; the D tile of every D family is formed once per D tile
        that a pair reads: every one for a full grid, from the held tile's own
        on for a causal one.  A tile's phases ``exp(i t (E_a - E_b))`` are
        formed for all its nodes in one broadcast, into the GEMM buffer in
        chunks of as many nodes as it holds; a D tile is then one multiply per
        family and chunk, and the held side is formed node by node from them.
        Each pair meets its two tiles in one GEMM over the sector's entries,
        added into the grid; the acausal entries of a causal grid stay +0.0.
        One held and one D tile of ``TILE_NODES`` nodes of the whole flat, for
        every family paired, must fit the budget together; every sector's
        tiles share that one buffer, and the phases need no memory of their own.
        """
        n, families = self.grid.n_nodes, self._families
        pairs = [(name_a, name_d, full)] + [(a, d, False) for a, d in companions]
        tile, flat = min(TILE_NODES, n), families[name_a][1].shape[1]
        need = 16 * tile * sum(families[name][1].size for side in list(zip(*pairs))[:2] for name in dict.fromkeys(side))
        if need > self.budget:
            raise MemoryBudgetError(f"one held and one D tile need {need} bytes (budget {self.budget})")
        work = np.empty(need // 16, dtype=complex)  # every sector's tiles share one buffer
        grids, live = [], []  # live: (a, d, full, node-major 2-D grid) of pairs that run GEMMs
        for a, d, is_full in pairs:
            rows_a, rows_d = families[a][0], families[d][0]
            # node-major (k, j, l, m): a tile pair's GEMM block is a 2-D slice of it
            nodes = np.zeros((n, rows_d.size, n, rows_a.size), dtype=complex)
            grids.append(CorrelatorGrid(nodes.transpose(1, 3, 0, 2), rows_d, rows_a))
            # a family without a nonzero row gives an all-zero grid and no GEMM
            if rows_a.size and rows_d.size:
                live.append((a, d, is_full, nodes.reshape(n * rows_d.size, n * rows_a.size)))
        held_live = list(dict.fromkeys(a for a, *_ in live))
        d_live = list(dict.fromkeys(d for _, d, *_ in live))
        # one buffer for the sweep's GEMM blocks, the size of the largest (out.size is n^2 rd ra), and
        # for the phases of the tiles being formed while it is idle, at least one node of every sector
        sizes = [sl.stop - sl.start for sl, _ in self._sectors]
        widest = max(sector_tile(n, flat, size) for size in sizes)
        scratch = np.empty(max([widest**2 * max([out.size // n**2 for *_, out in live], default=0)] + sizes), dtype=complex)

        def phases(t0, t1, left, right, shape):
            # (offset in the tile, one row per node) of the phases left[t] x right[t] of the nodes
            # t0..t1-1, in chunks of as many nodes as scratch holds
            step = scratch.size // (shape[0] * shape[1])
            for c0 in range(t0, t1, step):
                c1 = min(c0 + step, t1)
                chunk = scratch[: (c1 - c0) * shape[0] * shape[1]].reshape(c1 - c0, *shape)
                yield c0 - t0, np.multiply(left[c0:c1, :, None], right[c0:c1, None, :], out=chunk).reshape(c1 - c0, -1)

        for s, (sl, shape) in enumerate(self._sectors):
            size = shape[0] * shape[1]
            nodes_s, rho_lo, rho_hi = sector_tile(n, flat, size), self.rho_k[s], self.rho_k[s + 1]
            held, d_tiles, offset = {}, {}, 0
            for side, name in [(held, a) for a in held_live] + [(d_tiles, d) for d in d_live]:
                count = families[name][1].shape[0]
                side[name] = work[offset : offset + nodes_s * count * size].reshape(nodes_s, count, size)
                offset += nodes_s * count * size
            conj_d = {name: np.conj(families[name][1][:, sl]) for name in d_live}
            energies = self.energies[self._offsets[s] : self._offsets[s + 2]]  # one exponential per state
            exps = np.exp(1j * (np.arange(n)[:, None] * self.grid.delta) * energies)
            lower, upper = exps[:, : shape[1]], exps[:, shape[1] :]
            conj_lower, conj_upper = np.conj(lower), np.conj(upper)
            tiles = [(t, min(t + nodes_s, n)) for t in range(0, n, nodes_s)]
            for i, (l0, l1) in enumerate(tiles):
                for start, chunk in phases(l0, l1, upper, conj_lower, shape):
                    for l, node in enumerate(chunk, start):
                        for name in held_live:
                            x = (families[name][1][:, sl] * node).reshape(-1, *shape)
                            np.add(rho_hi @ x, x @ rho_lo, out=held[name][l].reshape(x.shape))
                for j, (k0, k1) in enumerate(tiles):
                    # a full pair reads every D tile, a causal one those from its held tile on
                    reading = [pair for pair in live if pair[2] or j >= i]
                    if not reading:
                        continue
                    # conj(D(t_k)) as conj(D) times conj(phases): bitwise the same in IEEE
                    for start, chunk in phases(k0, k1, conj_upper, lower, shape):
                        for name in dict.fromkeys(d for _, d, *_ in reading):
                            np.multiply(conj_d[name], chunk[:, None], out=d_tiles[name][start : start + len(chunk)])
                    for a, d, _, out in reading:
                        dt, b = d_tiles[d][: k1 - k0], held[a][: l1 - l0]
                        block = out[k0 * dt.shape[1] : k1 * dt.shape[1], l0 * b.shape[1] : l1 * b.shape[1]]
                        gemm = scratch[: block.size].reshape(block.shape)
                        np.matmul(dt.reshape(-1, size), b.reshape(-1, size).T, out=gemm)
                        block += gemm
        above = np.triu_indices(n, 1)
        for grid in grids[int(full) :]:  # a causal grid's diagonal tiles reached past its triangle
            grid.values[:, :, above[0], above[1]] = 0.0
        grids[0].companions = grids[1:]
        return grids[0]

    def expectation_series(self, ops: list[ManyBodyOperator]) -> np.ndarray:
        """``E[i, k] = Tr(rho X_i(t_k))`` for number-conserving operators."""
        weighted = np.stack([self.rho_t_flat * self.to_frame(op, 0) for op in ops])
        out = np.empty((len(ops), self.grid.n_nodes), dtype=complex)
        for k in range(self.grid.n_nodes):
            # contiguous products, so every entry rounds alike (numpy's outer product of a 1-state sector does not)
            exps = np.split(np.exp(1j * (k * self.grid.delta) * self.energies), self._offsets[1:-1])
            out[:, k] = weighted @ np.concatenate([np.repeat(e, e.size) * np.tile(np.conj(e), e.size) for e in exps])
        return out
