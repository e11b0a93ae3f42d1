"""Heisenberg evolution on the time grid and two-time anticommutator grids.

Evolution is exact: one unitary step per particle-number sector from the
eigendecomposition of the (number-conserving) generator, applied by
conjugation.  Every correlator is assembled in the eigenbasis of the state,
where the trace becomes a probability-weighted elementwise sum; for a pair
of creation-type families ``A_m``, ``D_j`` and the anticommutator pairing

    C[j, m, k, l] = Tr( rho { A_m(t_l), D_j(t_k)^dagger } )

the weights are ``p_alpha + p_gamma`` across adjacent sectors.

One sweep builds every grid; the storage strategy only fixes how many
nodes of the first family it holds at once.  ``history`` holds all of them
(fast, memory O(N_t)); ``recompute`` holds one and re-evolves the second
family for each, which needs O(1) memory in N_t at the price of O(N_t)
extra evolution sweeps.  Every block is the same product either way, so
their outputs agree bitwise; ``auto`` picks by a memory budget.
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


def stepper(generator: ManyBodyOperator, delta: float) -> ManyBodyOperator:
    """One-step unitary ``exp(-i delta K)`` per sector via eigendecomposition."""
    defect = generator.hermiticity_defect()
    if defect > 1e-12:
        raise ValueError(f"evolution generator is not Hermitian (defect {defect:.3e})")
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


class HeisenbergFrame:
    """Evolution and trace machinery in the eigenbasis of a density operator."""

    def __init__(self, rho: DensityOperator, generator: ManyBodyOperator, grid: TimeGrid):
        self.rho = rho
        self.grid = grid
        self.space = rho.space
        u = stepper(generator, grid.delta)
        self.unitarity_defect = max(
            np.max(np.abs(np.conj(b.T) @ b - np.eye(b.shape[0]))) if b.size else 0.0
            for b in u.blocks
        )
        if self.unitarity_defect > UNITARITY_TOL:
            raise RuntimeError(f"step unitary defect {self.unitarity_defect:.3e}")
        self.u_tilde = tuple(
            np.conj(v.T) @ block @ v for v, block in zip(rho.vecs, u.blocks)
        )
        d = self.space.num_orbitals
        # weights p_alpha + p_gamma for adjacent-sector (creation-type) blocks
        self._pair_weights_flat = np.concatenate(
            [
                np.add.outer(rho.probs[n + 1], rho.probs[n]).ravel()
                for n in range(d)
            ]
        )
        self._probs_flat = np.concatenate([p for p in rho.probs])

    # creation-type families: list of per-sector blocks mapping N -> N+1

    def to_frame_creation(self, op: ManyBodyOperator) -> list[np.ndarray]:
        if op.displacement != +1:
            raise ValueError("expected a creation-type (displacement +1) operator")
        d = self.space.num_orbitals
        return [
            np.conj(self.rho.vecs[n + 1].T) @ op.blocks[n] @ self.rho.vecs[n]
            for n in range(d)
        ]

    def step_creation(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        d = self.space.num_orbitals
        return [
            np.conj(self.u_tilde[n + 1].T) @ blocks[n] @ self.u_tilde[n]
            for n in range(d)
        ]

    def flatten_creation(self, blocks: list[np.ndarray]) -> np.ndarray:
        return np.concatenate([b.ravel() for b in blocks])

    def creation_flat_size(self) -> int:
        d = self.space.num_orbitals
        dims = self.space.sector_dims
        return sum(dims[n + 1] * dims[n] for n in range(d))

    # displacement-0 families, for instantaneous expectation series

    def to_frame_diag(self, op: ManyBodyOperator) -> list[np.ndarray]:
        if op.displacement != 0:
            raise ValueError("expected a number-conserving operator")
        return [
            np.conj(v.T) @ block @ v for v, block in zip(self.rho.vecs, op.blocks)
        ]

    def step_diag(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        return [np.conj(u.T) @ b @ u for u, b in zip(self.u_tilde, blocks)]

    def state_expectation(self, blocks: list[np.ndarray]) -> complex:
        diag = np.concatenate([np.diagonal(b) for b in blocks])
        return complex(np.dot(self._probs_flat, diag))


class CorrelatorFactory:
    """Pairs registered operator families into two-time anticommutator grids.

    All registered families must be creation-type; the second member of a
    pairing enters through its adjoint (Heisenberg evolution commutes with
    the adjoint), so every family is evolved the same way on either side.
    Each grid re-evolves the two families it pairs; nothing is kept between
    grids.
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
        self._families: dict[str, list[list[np.ndarray]]] = {}
        self._resolved: str | None = None

    def add_family(self, name: str, ops: list[ManyBodyOperator]) -> None:
        if name in self._families:
            raise ValueError(f"family {name!r} already registered")
        self._families[name] = [self.frame.to_frame_creation(op) for op in ops]
        self._resolved = None

    def history_bytes(self) -> int:
        flat = self.frame.creation_flat_size()
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

    def _step(self, family: list[list[np.ndarray]]) -> list[list[np.ndarray]]:
        return [self.frame.step_creation(blocks) for blocks in family]

    def _flat(self, family: list[list[np.ndarray]]) -> np.ndarray:
        return np.stack([self.frame.flatten_creation(blocks) for blocks in family])

    def anticommutator_grid(self, name_a: str, name_d: str, full: bool = False) -> CorrelatorGrid:
        """Grid of ``Tr(rho {A_m(t_l), D_j(t_k)^dagger})`` for two families.

        Family A is held, pair-weighted, for a chunk of nodes ``l`` (all of
        them under ``history``, one under ``recompute``); family D streams
        past it from the chunk's first node, or node 0 for the full grid.
        """
        n = self.grid.n_nodes
        fam_a, fam_d = self._families[name_a], self._families[name_d]
        chunk = n if self.strategy == "history" else 1
        w = self.frame._pair_weights_flat
        held = np.empty((chunk, len(fam_a), self.frame.creation_flat_size()), dtype=complex)
        values = np.zeros((len(fam_d), len(fam_a), n, n), dtype=complex)
        cur_a, first_d = fam_a, fam_d
        for first in range(0, n, chunk):
            stop = first + chunk
            for l in range(first, stop):
                if l:
                    cur_a = self._step(cur_a)
                held[l - first] = self._flat(cur_a) * w
            k0 = 0 if full else first
            cur_d = fam_d if full else first_d
            for k in range(k0, n):
                if k > k0:
                    cur_d = self._step(cur_d)
                if k == stop:
                    first_d = cur_d  # the next chunk streams D from here
                v = np.conj(self._flat(cur_d))
                for l in range(first, stop if full else min(stop, k + 1)):
                    values[:, :, k, l] = v @ held[l - first].T
        return CorrelatorGrid(values, self.grid, full, name_a, name_d)

    def expectation_series(self, ops: list[ManyBodyOperator]) -> np.ndarray:
        """``E[i, k] = Tr(rho X_i(t_k))`` for number-conserving operators, streamed."""
        n = self.grid.n_nodes
        out = np.empty((len(ops), n), dtype=complex)
        cur = [self.frame.to_frame_diag(op) for op in ops]
        for k in range(n):
            if k:
                cur = [self.frame.step_diag(b) for b in cur]
            for i, blocks in enumerate(cur):
                out[i, k] = self.frame.state_expectation(blocks)
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
