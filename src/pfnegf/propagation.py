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
the K-frame as well.

One sweep builds a grid and any causal companions that share its families,
in tiles of ``TILE_NODES`` nodes: per tile row the held tile of ``B(t_l)`` of
every held family is formed once, and the D tile of ``conj(D(t_k))`` of every
D family once per tile that a pair reads; each pair of tiles is one GEMM, and
family rows that are exact zero operators enter none.  All tiles are formed
from the stored family by phase multiplies when they are needed, with no
evolution sweeps, so a sweep holds O(TILE_NODES) nodes of memory in N_t
beyond its grids; the held and D tiles of every family must fit the budget
together.  Every grid is kept over the nonzero rows of its D family and of
its held family, and every other entry is zero.  A retarded kernel is a view
of its grid (``causal_kernel``), and the packed operator takes both row sets
as its orbital support.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MemoryBudgetError
from .fock import ManyBodyOperator
from .grid import TimeGrid
from .thermal import DensityOperator

DEFAULT_BUDGET_BYTES = 4 * 1024**3

TILE_NODES = 8  # nodes per GEMM tile on either side of a correlator grid

UNITARITY_TOL = 1e-12


def _check_hermitian(generator: ManyBodyOperator) -> None:
    defect = generator.hermiticity_defect()
    if not defect <= 1e-12:  # a nan defect fails too
        raise ValueError(f"evolution generator is not Hermitian (defect {defect:.3e})")


@dataclass
class CorrelatorGrid:
    """Two-time anticommutator values ``C[j, m, k, l]`` over the nonzero family rows.

    ``values[i, a]`` is row ``rows[i]`` of the D family against row
    ``cols[a]`` of the held family; every other row of either family is a
    zero operator, so its entries are zero.  Retarded kernels only read the
    causal triangle ``l <= k``; a full grid holds the acausal part as well,
    for ``pairing_defect``.  A grid is handed to its kernel in place:
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


def _flat_index(sector: list, s: int) -> tuple:
    """Energy indices ``(a, b)`` of every entry of a flat displacement-``s`` operator."""
    pairs = [np.meshgrid(sector[n + s], sector[n], indexing="ij") for n in range(len(sector) - s)]
    return tuple(np.concatenate([pair[i].ravel() for pair in pairs]) for i in (0, 1))


class CorrelatorFactory:
    """Pairs registered operator families into two-time anticommutator grids.

    The state and every family live in the generator's eigenbasis, the
    K-frame, as flat arrays: the K-frame blocks of every sector, raveled and
    concatenated.  ``creation_index`` and ``diag_index`` hold the energy
    indices ``(a, b)`` of every entry of a creation-type and of a
    number-conserving flat.  All registered families must be creation-type;
    the second member of a pairing enters through its adjoint (Heisenberg
    evolution commutes with the adjoint), so every family is evolved the
    same way on either side.  Each family is stored once, as its nonzero
    rows; every node is that array times its phases.  A grid holds one tile
    per side and costs O(N_t^2) elementwise phase products, no evolution
    sweeps; the tiles must fit ``budget``.
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
        d = len(energies) - 1
        self.energies = np.concatenate(energies)
        bounds = np.cumsum([0] + [e.size for e in energies])
        sector = [np.arange(bounds[n], bounds[n + 1]) for n in range(d + 1)]
        self.creation_index = _flat_index(sector, 1)
        self.diag_index = _flat_index(sector, 0)
        # Tr(rho X) = sum over the flat of rho^T * X, for number-conserving X
        self.rho_t_flat = np.concatenate([r.T.ravel() for r in self.rho_k])
        self._creation_slices = []
        offset = 0
        for n in range(d):
            shape = (sector[n + 1].size, sector[n].size)
            self._creation_slices.append((slice(offset, offset + shape[0] * shape[1]), shape))
            offset += shape[0] * shape[1]
        self._families: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def to_frame(self, op: ManyBodyOperator, s: int) -> np.ndarray:
        """Flat K-frame blocks ``Q_{N+s}^dagger X_N Q_N`` of a displacement-``s`` operator."""
        if op.displacement != s:
            raise ValueError(f"expected a displacement {s:+d} operator, got {op.displacement:+d}")
        q = self.vecs
        return np.concatenate(
            [(np.conj(q[n + s].T) @ op.blocks[n] @ q[n]).ravel() for n in range(len(q) - s)]
        )

    def phases(self, k: int, index: tuple) -> np.ndarray:
        """Evolution factors ``exp(i t_k (E_a - E_b))`` of node ``k`` over a flat.

        Formed as ``exp(i t_k E_a) conj(exp(i t_k E_b))``: one exponential
        per many-body state rather than one per flat entry.
        """
        rows, cols = index
        e = np.exp(1j * (k * self.grid.delta) * self.energies)
        return e[rows] * np.conj(e[cols])

    def anticommutator_side(self, flat: np.ndarray) -> np.ndarray:
        """``rho[N+1] X + X rho[N]`` for each row of a stacked creation-type flat."""
        out = np.empty_like(flat)
        for n, (sl, shape) in enumerate(self._creation_slices):
            x = flat[:, sl].reshape(len(flat), *shape)
            out[:, sl] = (self.rho_k[n + 1] @ x + x @ self.rho_k[n]).reshape(len(flat), -1)
        return out

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
        rows of its D family against those of its held family.  Per held tile
        row the held tile of every held family is formed once; the D tile of
        every D family is formed once per D tile that a pair reads: every one
        for a full grid, from the held tile's own on for a causal one.  Each
        pair meets its two tiles in one GEMM over the nonzero family rows; the
        acausal entries of a causal grid stay +0.0.  One held and one D tile of
        every family paired must fit the budget together.
        """
        n, index, families = self.grid.n_nodes, self.creation_index, self._families
        flat = index[0].size
        pairs = [(name_a, name_d, full)] + [(a, d, False) for a, d in companions]
        held_names = list(dict.fromkeys(a for a, _, _ in pairs))
        d_names = list(dict.fromkeys(d for _, d, _ in pairs))
        tile = min(TILE_NODES, n)
        need = 16 * tile * sum(families[name][1].size for name in held_names + d_names)
        if need > self.budget:
            raise MemoryBudgetError(f"one held and one D tile need {need} bytes (budget {self.budget})")
        work = np.empty(need // 16, dtype=complex)  # every tile shares one buffer
        held, d_tiles, offset = {}, {}, 0
        for side, name in [(held, a) for a in held_names] + [(d_tiles, d) for d in d_names]:
            fam = families[name][1]
            side[name] = work[offset : offset + tile * fam.size].reshape((tile,) + fam.shape)
            offset += tile * fam.size
        conj_d = {name: np.conj(families[name][1]) for name in d_names}
        grids, live = [], []  # live: (a, d, full, grid values) of pairs that run GEMMs
        for a, d, is_full in pairs:
            rows_a, rows_d = families[a][0], families[d][0]
            grids.append(CorrelatorGrid(np.zeros((rows_d.size, rows_a.size, n, n), dtype=complex), rows_d, rows_a))
            # a family without a nonzero row gives an all-zero grid and no GEMM
            if rows_a.size and rows_d.size:
                live.append((a, d, is_full, grids[-1].values))
        held_live = list(dict.fromkeys(a for a, *_ in live))
        tiles = [(t, min(t + TILE_NODES, n)) for t in range(0, n, TILE_NODES)]
        acausal = np.triu(np.ones((tile, tile), dtype=bool), 1)
        for i, (l0, l1) in enumerate(tiles):
            for l in range(l0, l1):
                phases = self.phases(l, index)
                for name in held_live:
                    held[name][l - l0] = self.anticommutator_side(families[name][1] * phases)
            for j, (k0, k1) in enumerate(tiles):
                # a full pair reads every D tile, a causal one those from its held tile on
                reading = [pair for pair in live if pair[2] or j >= i]
                if not reading:
                    continue
                for k in range(k0, k1):
                    # conj(D(t_k)) as conj(D) times conj(phases): bitwise the same in IEEE
                    conj_phases = np.conj(self.phases(k, index))
                    for name in dict.fromkeys(d for _, d, *_ in reading):
                        np.multiply(conj_d[name], conj_phases, out=d_tiles[name][k - k0])
                for a, d, is_full, values in reading:
                    dt, b = d_tiles[d][: k1 - k0], held[a][: l1 - l0]
                    block = dt.reshape(-1, flat) @ b.reshape(-1, flat).T
                    block = block.reshape(k1 - k0, len(values), l1 - l0, -1).transpose(1, 3, 0, 2)
                    if not is_full and k0 == l0:
                        block[..., acausal[: k1 - k0, : k1 - k0]] = 0.0
                    values[:, :, k0:k1, l0:l1] = block
        grids[0].companions = grids[1:]
        return grids[0]

    def expectation_series(self, ops: list[ManyBodyOperator]) -> np.ndarray:
        """``E[i, k] = Tr(rho X_i(t_k))`` for number-conserving operators."""
        weighted = np.stack([self.rho_t_flat * self.to_frame(op, 0) for op in ops])
        out = np.empty((len(ops), self.grid.n_nodes), dtype=complex)
        for k in range(self.grid.n_nodes):
            out[:, k] = weighted @ self.phases(k, self.diag_index)
        return out
