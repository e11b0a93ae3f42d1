"""Reference forms the tests compare the package against.

None of these runs in a ``negf`` task.  Each is an independent, slower or
denser way to reach what the package computes: step products of the
evolution, the Neumann series of the causal solve, dense Fock matrices, the
decoupled factorized expectation, the dressed annihilator straight from its
formula, ``F`` from a one-pair sweep, kernels packed from zero-filled dense
grids and the full p x p forward substitution of the causal solve.
"""

from __future__ import annotations

import numpy as np

from pfnegf.fock import FockSpace, ManyBodyOperator, commutator, ladder_op
from pfnegf.grid import TimeGrid
from pfnegf.propagation import _check_hermitian
from pfnegf.thermal import DensityOperator, ThermalParams
from pfnegf.volterra import VolterraOperator, trapezoid_weights

# -- Fock space ----------------------------------------------------------


def to_full(op: ManyBodyOperator) -> np.ndarray:
    fs = op.space
    full = np.zeros((fs.dim, fs.dim), dtype=complex)
    for n, block in enumerate(op.blocks):
        if not block.shape[0]:  # no target sector
            continue
        target = n + op.displacement
        r0 = fs.sector_offsets[target]
        c0 = fs.sector_offsets[n]
        full[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
    return full


def zero_operator(fs: FockSpace, displacement: int = 0) -> ManyBodyOperator:
    blocks = tuple(
        np.zeros((fs.sector_dim(n + displacement), fs.sector_dim(n)), dtype=complex)
        for n in range(fs.num_orbitals + 1)
    )
    return ManyBodyOperator(fs, displacement, blocks)


def from_full(fs: FockSpace, matrix: np.ndarray, displacement: int) -> ManyBodyOperator:
    """Slice a full matrix into sector blocks, checking off-block leakage."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (fs.dim, fs.dim):
        raise ValueError("matrix does not match the Fock-space dimension")
    d = fs.num_orbitals
    blocks = []
    recon = np.zeros_like(matrix)
    for n in range(d + 1):
        target = n + displacement
        if not 0 <= target <= d:
            blocks.append(np.zeros((0, fs.sector_dim(n)), dtype=complex))
            continue
        r0 = fs.sector_offsets[target]
        c0 = fs.sector_offsets[n]
        block = matrix[r0 : r0 + fs.sector_dim(target), c0 : c0 + fs.sector_dim(n)].copy()
        blocks.append(block)
        recon[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
    leak = np.max(np.abs(matrix - recon)) if matrix.size else 0.0
    if leak > 0.0:
        raise ValueError(f"matrix has weight {leak:.3e} outside displacement {displacement}")
    return ManyBodyOperator(fs, displacement, tuple(blocks))


def dressed_annihilator(fs: FockSpace, w_op: ManyBodyOperator, xi: float, f) -> ManyBodyOperator:
    """``b(f) = i xi [W, a(f)]``, formed from its own formula."""
    return (1j * xi) * commutator(w_op, ladder_op(fs, f, "annihilate"))


# -- thermal states ------------------------------------------------------


def density_operator(rho: DensityOperator) -> ManyBodyOperator:
    blocks = tuple(
        (v * p[None, :]) @ np.conj(v.T) for p, v in zip(rho.probs, rho.vecs)
    )
    return ManyBodyOperator(rho.space, 0, blocks)


def fermi_matrix_element(h_lead: np.ndarray, params: ThermalParams, bra, ket) -> complex:
    """Matrix element ``<bra| (Id + exp(beta(h - mu)))^{-1} |ket>``."""
    h_lead = np.asarray(h_lead, dtype=complex)
    lam, v = np.linalg.eigh(h_lead)
    occ = 1.0 / (1.0 + np.exp(params.beta * (lam - params.mu)))
    bra = np.asarray(bra, dtype=complex)
    ket = np.asarray(ket, dtype=complex)
    return complex(np.conj(bra) @ (v * occ[None, :]) @ np.conj(v.T) @ ket)


def factorized_expectation(rho_sample: DensityOperator, sample_observable: ManyBodyOperator, lead_factors, params: ThermalParams) -> complex:
    """Expectation of ``O_S * prod_nu a*(f~_nu) a(f_nu)`` in the decoupled state.

    The sample factor is traced against the interacting sample Gibbs state;
    every lead factor reduces to a Fermi-Dirac matrix element of its own
    one-particle Hamiltonian.  ``lead_factors`` is a list of
    ``(h_lead, f_tilde, f)`` triples with vectors in the lead's own basis.
    """
    value = rho_sample.expectation(sample_observable)
    for h_lead, f_tilde, f in lead_factors:
        h_lead = np.asarray(h_lead, dtype=complex)
        f_tilde = np.asarray(f_tilde, dtype=complex)
        f = np.asarray(f, dtype=complex)
        if f_tilde.shape != (h_lead.shape[0],) or f.shape != (h_lead.shape[0],):
            raise ValueError("lead factor vectors must live on the lead's orbitals")
        value *= fermi_matrix_element(h_lead, params, f, f_tilde)
    return complex(value)


# -- evolution -----------------------------------------------------------


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


# -- Volterra algebra ----------------------------------------------------


def memory_kernel(op: VolterraOperator) -> np.ndarray:
    """Dense ``(n, n, p, p)`` kernel view; exact for kernel-built operators.

    For algebraically produced operators the diagonal-in-time blocks pick
    up the O(delta) self-interaction of the trapezoid rule; that is a
    faithful property of the discrete composition, not an error.
    """
    n, p = op.grid.n_nodes, op.p
    mem = np.zeros((n, n, p, p), dtype=complex)
    for k0, k1, blocks in op.kernel_tiles():
        mem[k0:k1, :k1] = blocks
    return mem


def dense_blocks(flat, grid, p):
    """(n, n, p, p) block view of a dense ``(n p, n p)`` matrix."""
    n = grid.n_nodes
    return flat.reshape(n, p, n, p).transpose(0, 2, 1, 3)


def dense_kernel(flat, inst, grid, p):
    """Kernel view of a dense matrix: subtract ``inst``, divide by the weights."""
    n = grid.n_nodes
    blocks = dense_blocks(flat, grid, p).copy()
    blocks[np.arange(n), np.arange(n)] -= inst
    w = trapezoid_weights(n) * grid.delta
    w[w == 0.0] = 1.0
    mem = blocks / w[:, :, None, None]
    mem[np.triu_indices(n, k=1)] = 0.0
    mem[0, 0] = 0.0
    return mem


def dense_matrix(op: VolterraOperator) -> np.ndarray:
    """The ``(n p, n p)`` matrix of an operator, assembled by numpy from its kernel view and part."""
    n, p = op.grid.n_nodes, op.p
    blocks = memory_kernel(op) * (trapezoid_weights(n) * op.grid.delta)[:, :, None, None]
    blocks[np.arange(n), np.arange(n)] += op.instantaneous()
    return blocks.transpose(0, 2, 1, 3).reshape(n * p, n * p)


def full_forward_substitution(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """X with ``(Id + A) X = B`` for dense block-lower-triangular matrices, node by node over all ``p`` orbitals.

    The full p x p route the irreducible self-energy took before the algebra
    carried orbital supports: each node row subtracts the solved rows before
    it and applies the inverse of its diagonal block of ``Id + A``.
    """
    x = b.copy()
    for k in range(len(a) // p):
        node = slice(k * p, (k + 1) * p)
        x[node] -= a[node, : k * p] @ x[: k * p]
        x[node] = np.linalg.inv(np.eye(p) + a[node, node]) @ x[node]
    return x


def identity_volterra(grid: TimeGrid, p: int) -> VolterraOperator:
    inst = np.broadcast_to(np.eye(p, dtype=complex), (grid.n_nodes, p, p)).copy()
    return VolterraOperator(grid, p, inst=inst)


def neumann_inverse(a: VolterraOperator, order: int) -> VolterraOperator:
    """Truncated Neumann series ``sum_{n>=1} (-A)^n``; cross-check for the solver.

    The remainder after ``order`` terms is bounded by
    ``(C_A T)^{order+1} / order!`` in operator norm, with ``C_A`` the discrete
    Volterra constant.
    """
    acc = power = -a
    for _ in range(2, order + 1):
        power = -(power @ a)
        acc = acc + power
    return VolterraOperator._packed(a.grid, a.p, acc.rows, acc.cols, None, None, acc.panels())


# -- kernels -------------------------------------------------------------


def full_grid(corr, p: int) -> np.ndarray:
    """A correlator grid's values over all ``p`` rows of both families; the entries it does not hold are +0.0."""
    values = np.zeros((p, p) + corr.values.shape[2:], dtype=complex)
    values[corr.rows[:, None], corr.cols] = corr.values
    return values


def embedded_operator(corr, grid: TimeGrid, p: int, prefactor, inst=None) -> VolterraOperator:
    """The operator of a correlator grid by way of the dense grid; ``corr`` is left as it is.

    The held rows and columns are zero-filled to all ``p`` orbitals, the
    acausal half of the grid is zeroed, the whole grid is multiplied by
    ``prefactor`` and its transposed view is packed over every orbital.
    Packing the held sub-blocks and scaling the packed kernel must give the
    same bits.
    """
    values = full_grid(corr, p)
    kernel = values.transpose(2, 3, 0, 1)
    kernel[np.triu_indices(kernel.shape[0], k=1)] = 0.0
    values *= prefactor
    return VolterraOperator(grid, p, mem=kernel, inst=inst)


def packed_kernel_bytes(op: VolterraOperator) -> bytes:
    """Every block the kernel reader yields, the acausal ones of diagonal tiles included."""
    return b"".join(np.ascontiguousarray(blocks).tobytes() for _, _, blocks in op.kernel_tiles())


def f_map(engine) -> VolterraOperator:
    """``F`` of a kernel engine, from a one-pair sweep of its own."""
    corr = engine.factory.anticommutator_grid("a", "b")
    return VolterraOperator(engine.grid, engine.p, mem=corr.causal_kernel(), rows=corr.rows, cols=corr.cols, scale=1.0)
