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

One sweep builds every grid; the storage strategy only fixes how many held
nodes ``B(t_l)`` it keeps at once.  ``history`` keeps all of them (memory
O(N_t)); ``recompute`` keeps one and reaches every ``D(t_k)`` again by a
phase multiply, which needs O(1) memory in N_t and costs O(N_t^2)
elementwise phase products, with no evolution sweeps.  Every block is the
same product either way, so their outputs agree bitwise; ``auto`` picks by
a memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MemoryBudgetError
from .fock import ManyBodyOperator
from .grid import TimeGrid
from .thermal import DensityOperator

DEFAULT_BUDGET_BYTES = 4 * 1024**3

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
        if block.shape[0] == 0:
            blocks.append(np.zeros((0, 0), dtype=complex))
            continue
        lam, v = np.linalg.eigh(block)
        blocks.append((v * np.exp(-1j * delta * lam)[None, :]) @ np.conj(v.T))
    return ManyBodyOperator(generator.space, 0, tuple(blocks))


def heisenberg_series(
    x: ManyBodyOperator,
    u: ManyBodyOperator,
    grid: TimeGrid,
    budget: int = DEFAULT_BUDGET_BYTES,
) -> list[ManyBodyOperator]:
    """Evolved copies ``x(t_k) = (U^dagger)^k x U^k`` for every node, incrementally."""
    per_op = sum(b.size * 16 for b in x.blocks if b is not None)
    need = per_op * grid.n_nodes
    if need > budget:
        raise MemoryBudgetError(
            f"storing {grid.n_nodes} evolved operators needs {need} bytes "
            f"(budget {budget}); reduce the step count or the orbital count"
        )
    u_dag = u.dagger()
    series = [x]
    for _ in range(grid.steps):
        series.append(u_dag @ series[-1] @ u)
    return series


@dataclass
class CorrelatorGrid:
    """Two-time anticommutator values ``C[j, m, k, l]``.

    Retarded kernels only read the causal triangle ``l <= k``; when ``full``
    is set the acausal part is populated as well (used by pairing checks and
    the advanced kernel).
    """

    values: np.ndarray
    grid: TimeGrid
    full: bool
    name_a: str = ""
    name_d: str = ""

    def causal_kernel(self, prefactor=1.0) -> np.ndarray:
        """(n, n, p_d, p_a) kernel ``prefactor * C`` with the acausal part zeroed."""
        n = self.grid.n_nodes
        kernel = self.values.transpose(2, 3, 0, 1).copy()
        iu = np.triu_indices(n, k=1)
        kernel[iu] = 0.0
        return prefactor * kernel


def _flat_index(sector: list, s: int) -> tuple:
    """Energy indices ``(a, b)`` of every entry of a flat displacement-``s`` operator."""
    pairs = [np.meshgrid(sector[n + s], sector[n], indexing="ij") for n in range(len(sector) - s)]
    return tuple(np.concatenate([pair[i].ravel() for pair in pairs]) for i in (0, 1))


class HeisenbergFrame:
    """The generator's eigenbasis (K-frame) with the state expressed in it.

    Operators live here as flat arrays: the K-frame blocks of every sector,
    raveled and concatenated.  ``creation_index`` and ``diag_index`` hold
    the energy indices ``(a, b)`` of every entry of a creation-type and of a
    number-conserving flat.
    """

    def __init__(self, rho: DensityOperator, generator: ManyBodyOperator, grid: TimeGrid):
        _check_hermitian(generator)
        self.grid = grid
        energies, self.vecs = zip(*(np.linalg.eigh(block) for block in generator.blocks))
        self.unitarity_defect = max(
            np.max(np.abs(np.conj(q.T) @ q - np.eye(q.shape[0]))) for q in self.vecs
        )
        if self.unitarity_defect > UNITARITY_TOL:
            raise RuntimeError(f"generator eigenbasis unitarity defect {self.unitarity_defect:.3e}")
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


class CorrelatorFactory:
    """Pairs registered operator families into two-time anticommutator grids.

    All registered families must be creation-type; the second member of a
    pairing enters through its adjoint (Heisenberg evolution commutes with
    the adjoint), so every family is evolved the same way on either side.
    Each family is stored once, in the K-frame; every node of every grid is
    that array times the node's phases.  ``recompute`` therefore costs
    O(N_t^2) elementwise phase products per grid and no evolution sweeps.
    """

    def __init__(
        self,
        rho: DensityOperator,
        generator: ManyBodyOperator,
        grid: TimeGrid,
        strategy: str = "auto",
        budget: int = DEFAULT_BUDGET_BYTES,
    ):
        if strategy not in ("auto", "history", "recompute"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.frame = HeisenbergFrame(rho, generator, grid)
        self.grid = grid
        self.requested_strategy = strategy
        self.budget = budget
        self._families: dict[str, np.ndarray] = {}
        self._resolved: str | None = None

    def add_family(self, name: str, ops: list[ManyBodyOperator]) -> None:
        if name in self._families:
            raise ValueError(f"family {name!r} already registered")
        self._families[name] = np.stack([self.frame.to_frame(op, +1) for op in ops])
        self._resolved = None

    def history_bytes(self) -> int:
        flat = self.frame.creation_index[0].size
        n_ops = sum(len(fam) for fam in self._families.values())
        return n_ops * self.grid.n_nodes * flat * 16

    @property
    def strategy(self) -> str:
        if self._resolved is None:
            need = self.history_bytes()
            if self.requested_strategy == "history":
                if need > self.budget:
                    raise MemoryBudgetError(
                        f"family histories need {need} bytes (budget {self.budget}); "
                        "use strategy='recompute' or raise the budget"
                    )
                self._resolved = "history"
            elif self.requested_strategy == "recompute":
                self._resolved = "recompute"
            else:
                self._resolved = "history" if need <= self.budget else "recompute"
        return self._resolved

    def anticommutator_grid(self, name_a: str, name_d: str, full: bool = False) -> CorrelatorGrid:
        """Grid of ``Tr(rho {A_m(t_l), D_j(t_k)^dagger})`` for two families.

        The held side ``B(t_l)`` of family A is kept for a chunk of nodes
        ``l`` (all of them under ``history``, one under ``recompute``); each
        node ``D(t_k)`` from the chunk's first node on, or from node 0 for
        the full grid, is formed by its phases and paired with the chunk.
        """
        n = self.grid.n_nodes
        frame, index = self.frame, self.frame.creation_index
        fam_a, fam_d = self._families[name_a], self._families[name_d]
        chunk = n if self.strategy == "history" else 1
        held = np.empty((chunk,) + fam_a.shape, dtype=complex)
        values = np.zeros((len(fam_d), len(fam_a), n, n), dtype=complex)
        for first in range(0, n, chunk):
            stop = first + chunk
            for l in range(first, stop):
                held[l - first] = frame.anticommutator_side(fam_a * frame.phases(l, index))
            for k in range(0 if full else first, n):
                v = np.conj(fam_d * frame.phases(k, index))
                for l in range(first, stop if full else min(stop, k + 1)):
                    values[:, :, k, l] = v @ held[l - first].T
        return CorrelatorGrid(values, self.grid, full, name_a, name_d)

    def expectation_series(self, ops: list[ManyBodyOperator]) -> np.ndarray:
        """``E[i, k] = Tr(rho X_i(t_k))`` for number-conserving operators."""
        frame = self.frame
        weighted = np.stack([frame.rho_t_flat * frame.to_frame(op, 0) for op in ops])
        out = np.empty((len(ops), self.grid.n_nodes), dtype=complex)
        for k in range(self.grid.n_nodes):
            out[:, k] = weighted @ frame.phases(k, frame.diag_index)
        return out


def two_time_kernel(
    rho: DensityOperator,
    generator: ManyBodyOperator,
    family_creation: list[ManyBodyOperator],
    family_annihilation: list[ManyBodyOperator],
    grid: TimeGrid,
    strategy: str = "auto",
    budget: int = DEFAULT_BUDGET_BYTES,
    full: bool = False,
) -> CorrelatorGrid:
    """Anticommutator grid ``C[j, m, k, l] = Tr(rho {A*_m(t_l), B_j(t_k)})``.

    ``family_creation`` holds the ``A*_m`` (displacement +1),
    ``family_annihilation`` the ``B_j`` (displacement -1); the latter are
    evolved through their adjoints.
    """
    for op in family_annihilation:
        if op.displacement != -1:
            raise ValueError("family_annihilation must hold displacement -1 operators")
    factory = CorrelatorFactory(rho, generator, grid, strategy=strategy, budget=budget)
    factory.add_family("a", family_creation)
    factory.add_family("d", [op.dagger() for op in family_annihilation])
    return factory.anticommutator_grid("a", "d", full=full)
