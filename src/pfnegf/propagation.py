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

One sweep builds every grid, in tiles of ``TILE_NODES`` nodes: a held tile
of ``B(t_l)`` meets a D tile of ``conj(D(t_k))`` in one GEMM, and family rows
that are exact zero operators enter none.  Both tiles are formed from the
stored family by phase multiplies when they are needed, with no evolution
sweeps, so a grid holds O(TILE_NODES) nodes of memory in N_t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MemoryBudgetError
from .fock import ManyBodyOperator
from .grid import TimeGrid
from .thermal import DensityOperator

DEFAULT_BUDGET_BYTES = 4 * 1024**3

TILE_NODES = 8  # nodes per GEMM tile on either side of a correlator grid

# glibc raises its dynamic mmap threshold to the size of any freed mmapped chunk
# up to 32 MiB; later multi-MB Volterra arrays would then come from the heap and
# stay resident after free, raising the peak RSS.  A tile buffer requested just
# above that cap is always mmapped and never moves the threshold, and only the
# pages the tiles touch become resident.
_TILE_BUFFER_FLOOR = 32 * 1024**2 + 4096

UNITARITY_TOL = 1e-12


def _check_hermitian(generator: ManyBodyOperator) -> None:
    defect = generator.hermiticity_defect()
    if defect > 1e-12:
        raise ValueError(f"evolution generator is not Hermitian (defect {defect:.3e})")


def stepper(generator: ManyBodyOperator, delta: float) -> ManyBodyOperator:
    """One-step unitary ``exp(-i delta K)`` per sector via eigendecomposition."""
    _check_hermitian(generator)
    blocks = []
    for block in generator.blocks:
        lam, v = np.linalg.eigh(block)
        blocks.append((v * np.exp(-1j * delta * lam)[None, :]) @ np.conj(v.T))
    return ManyBodyOperator(generator.space, 0, tuple(blocks))


def heisenberg_series(
    x: ManyBodyOperator, u: ManyBodyOperator, grid: TimeGrid
) -> list[ManyBodyOperator]:
    """Evolved copies ``x(t_k) = (U^dagger)^k x U^k`` for every node, incrementally.

    The step-product oracle of the diagonal evolution; it holds all N_t + 1
    operators at once.
    """
    u_dag = u.dagger()
    series = [x]
    for _ in range(grid.steps):
        series.append(u_dag @ series[-1] @ u)
    return series


@dataclass
class CorrelatorGrid:
    """Two-time anticommutator values ``C[j, m, k, l]``.

    Retarded kernels only read the causal triangle ``l <= k``; a full grid
    holds the acausal part as well (read by the pairing check).
    """

    values: np.ndarray

    def causal_kernel(self, prefactor) -> np.ndarray:
        """(n, n, p_d, p_a) kernel ``prefactor * C`` with the acausal part zeroed."""
        kernel = self.values.transpose(2, 3, 0, 1).copy()
        kernel[np.triu_indices(self.values.shape[2], k=1)] = 0.0
        kernel *= prefactor
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
        defect = max(np.max(np.abs(np.conj(q.T) @ q - np.eye(q.shape[0]))) for q in self.vecs)
        if defect > UNITARITY_TOL:
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
        self._families: dict[str, tuple[int, np.ndarray, np.ndarray]] = {}

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
        self._families[name] = (len(ops), rows, flats[rows])

    def anticommutator_grid(self, name_a: str, name_d: str, full: bool = False) -> CorrelatorGrid:
        """Grid of ``Tr(rho {A_m(t_l), D_j(t_k)^dagger})`` for two families.

        Each held tile of ``B(t_l)`` meets every D tile from its own on, or
        from node 0 for the full grid, in one GEMM over the nonzero family
        rows; other rows and the acausal entries of a causal grid stay +0.0.
        One held and one D tile must fit the budget.
        """
        n, index = self.grid.n_nodes, self.creation_index
        (n_a, rows_a, fam_a), (n_d, rows_d, fam_d) = self._families[name_a], self._families[name_d]
        tile, flat = min(TILE_NODES, n), fam_a.shape[1]
        held_size, need = tile * fam_a.size, 16 * tile * (fam_a.size + fam_d.size)
        if need > self.budget:
            raise MemoryBudgetError(f"one held and one D tile need {need} bytes (budget {self.budget})")
        values = np.zeros((n_d, n_a, n, n), dtype=complex)
        # a family without a nonzero row gives an all-zero grid and no GEMM
        starts = range(0, n, TILE_NODES) if rows_a.size and rows_d.size else ()
        tiles = [(t, min(t + TILE_NODES, n)) for t in starts]
        # both sides share one buffer, see _TILE_BUFFER_FLOOR
        work = np.empty(max(need, _TILE_BUFFER_FLOOR) // 16, dtype=complex)
        held = work[:held_size].reshape((tile,) + fam_a.shape)
        d_tile = work[held_size : need // 16].reshape((tile,) + fam_d.shape)
        acausal = np.triu(np.ones((tile, tile), dtype=bool), 1)
        for i, (l0, l1) in enumerate(tiles):
            b = held[: l1 - l0]
            for l in range(l0, l1):
                b[l - l0] = self.anticommutator_side(fam_a * self.phases(l, index))
            for k0, k1 in tiles if full else tiles[i:]:
                d = d_tile[: k1 - k0]
                for k in range(k0, k1):
                    np.multiply(fam_d, self.phases(k, index), out=d[k - k0])
                np.conj(d, out=d)
                block = d.reshape(-1, flat) @ b.reshape(-1, flat).T
                block = block.reshape(k1 - k0, rows_d.size, l1 - l0, -1).transpose(1, 3, 0, 2)
                if not full and k0 == l0:
                    block[..., acausal[: k1 - k0, : k1 - k0]] = 0.0
                values[rows_d[:, None], rows_a, k0:k1, l0:l1] = block
        return CorrelatorGrid(values)

    def expectation_series(self, ops: list[ManyBodyOperator]) -> np.ndarray:
        """``E[i, k] = Tr(rho X_i(t_k))`` for number-conserving operators."""
        weighted = np.stack([self.rho_t_flat * self.to_frame(op, 0) for op in ops])
        out = np.empty((len(ops), self.grid.n_nodes), dtype=complex)
        for k in range(self.grid.n_nodes):
            out[:, k] = weighted @ self.phases(k, self.diag_index)
        return out
