"""Reference forms the tests compare the package against.

None of these runs in a ``negf`` task.  Each is an independent, slower or
denser way to reach what the package computes: step products of the
evolution, the Neumann series of the causal solve, dense Fock matrices, the
decoupled factorized expectation, the dressed annihilator straight from its
formula, the gathered phases and held side of the whole creation flat, the
correlator sweep and the expectation series with their phases formed node by
node, ``F`` from a one-pair sweep, kernels packed from zero-filled dense
grids, a Toeplitz kernel packed from its dense form, the full p x p forward
substitution of the causal solve and the two-pass induced-norm bound.  It
also holds the few readers only the tests use: the sample and lead blocks of
the decoupled one-particle Hamiltonian, a one-dump ``load_kernel`` and the
indented JSON text of a Dyson report.
"""

from __future__ import annotations

import json

import numpy as np

from pfnegf.fock import FockSpace, ManyBodyOperator, commutator, ladder_op
from pfnegf.grid import TimeGrid
from pfnegf.propagation import _check_hermitian, sector_tile
from pfnegf.thermal import DensityOperator, ThermalParams
from pfnegf.volterra import (
    NORM_PRUNE_MARGIN,
    TILE_NODES,
    VolterraOperator,
    _blocks,
    _tiles,
    load_kernels,
    trapezoid_weights,
)

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


def two_pass_norm_bound(terms) -> float:
    """``operator_norm_bound`` as it read a ``Sum`` before its one read pass.

    A first pass over the tile rows takes the largest magnitude, a second
    the rows' Frobenius sums, all divided by that one magnitude, and the
    tile rows of the rows that can hold the maximum are read once more for
    their spectral sums.
    """
    n, r, c = terms.grid.n_nodes, terms.rows.size, terms.cols.size
    row = terms._reader()

    def blocks(i) -> np.ndarray:
        return _blocks(row(i), i * TILE_NODES, min((i + 1) * TILE_NODES, n), r, c)

    tiles = range(len(_tiles(n)))
    finite, tops = True, []
    for i in tiles:
        slab = row(i)
        finite = finite and bool(np.isfinite(slab).all())
        tops.append(np.max(np.abs(slab), initial=0.0))
    if not finite:
        return float(np.max(tops))
    scale = np.max(tops, initial=0.0)
    if scale == 0.0:
        return 0.0
    frobenius = np.concatenate([
        np.linalg.norm((blocks(i).view(float) / scale).view(complex), axis=(2, 3)).sum(axis=1) for i in tiles
    ])

    def spectral_sums(rows) -> np.ndarray:
        sums = []
        for tile in dict.fromkeys((rows // TILE_NODES).tolist()):
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


# -- correlator sweep ----------------------------------------------------


def flat_index(factory, s: int) -> tuple:
    """Energy indices ``(a, b)`` of every entry of a flat displacement-``s`` operator."""
    bounds = np.cumsum([0] + [q.shape[0] for q in factory.vecs])
    sector = [np.arange(bounds[n], bounds[n + 1]) for n in range(len(bounds) - 1)]
    pairs = [np.meshgrid(sector[n + s], sector[n], indexing="ij") for n in range(len(sector) - s)]
    return tuple(np.concatenate([pair[i].ravel() for pair in pairs]) for i in (0, 1))


def node_phases(factory, k: int, index: tuple) -> np.ndarray:
    """Evolution factors ``exp(i t_k (E_a - E_b))`` of node ``k``, gathered entry by entry over a flat."""
    rows, cols = index
    e = np.exp(1j * (k * factory.grid.delta) * factory.energies)
    return e[rows] * np.conj(e[cols])


def anticommutator_side(factory, flat: np.ndarray) -> np.ndarray:
    """``rho[N+1] X + X rho[N]`` for each row of a stacked creation-type flat."""
    rho, out, offset = factory.rho_k, np.empty_like(flat), 0
    for n in range(len(rho) - 1):
        shape = (rho[n + 1].shape[0], rho[n].shape[0])
        sl = slice(offset, offset + shape[0] * shape[1])
        x = flat[:, sl].reshape(len(flat), *shape)
        out[:, sl] = (rho[n + 1] @ x + x @ rho[n]).reshape(len(flat), -1)
        offset = sl.stop
    return out


def per_node_sweep(factory, name_a: str, name_d: str, full: bool = False, companions=()) -> list:
    """``values`` of the grid and its companions' of ``anticommutator_grid``, phases formed one node at a time.

    The sweep as it ran before a tile's phases were formed in one broadcast:
    per node, the phases are an outer product of the sector's exponentials,
    built afresh, and each family's held and D node is formed from them
    alone.  The tiles, the GEMMs and their order are the sweep's own, so the
    grids must agree bit for bit.
    """
    n, families = factory.grid.n_nodes, factory._families
    pairs = [(name_a, name_d, full)] + [(a, d, False) for a, d in companions]
    flat, grids, live = families[name_a][1].shape[1], [], []
    for a, d, is_full in pairs:
        rows_a, rows_d = families[a][0], families[d][0]
        nodes = np.zeros((n, rows_d.size, n, rows_a.size), dtype=complex)
        grids.append(nodes.transpose(1, 3, 0, 2))
        if rows_a.size and rows_d.size:
            live.append((a, d, is_full, nodes.reshape(n * rows_d.size, n * rows_a.size)))
    held_live = list(dict.fromkeys(a for a, *_ in live))
    d_live = list(dict.fromkeys(d for _, d, *_ in live))
    for s, (sl, shape) in enumerate(factory._sectors):
        size = shape[0] * shape[1]
        nodes_s, rho_lo, rho_hi = sector_tile(n, flat, size), factory.rho_k[s], factory.rho_k[s + 1]
        held = {name: np.empty((nodes_s, families[name][1].shape[0], size), dtype=complex) for name in held_live}
        d_tiles = {name: np.empty((nodes_s, families[name][1].shape[0], size), dtype=complex) for name in d_live}
        conj_d = {name: np.conj(families[name][1][:, sl]) for name in d_live}
        energies = factory.energies[factory._offsets[s] : factory._offsets[s + 2]]
        exps = np.stack([np.exp(1j * (k * factory.grid.delta) * energies) for k in range(n)])
        lower, upper = exps[:, : shape[1]], exps[:, shape[1] :]
        tiles = [(t, min(t + nodes_s, n)) for t in range(0, n, nodes_s)]
        for i, (l0, l1) in enumerate(tiles):
            for l in range(l0, l1):
                phases = np.multiply.outer(upper[l], np.conj(lower[l])).ravel()
                for name in held_live:
                    x = (families[name][1][:, sl] * phases).reshape(-1, *shape)
                    np.add(rho_hi @ x, x @ rho_lo, out=held[name][l - l0].reshape(x.shape))
            for j, (k0, k1) in enumerate(tiles):
                reading = [pair for pair in live if pair[2] or j >= i]
                for k in range(k0, k1) if reading else ():
                    conj_phases = np.multiply.outer(np.conj(upper[k]), lower[k]).ravel()
                    for name in dict.fromkeys(d for _, d, *_ in reading):
                        np.multiply(conj_d[name], conj_phases, out=d_tiles[name][k - k0])
                for a, d, _, out in reading:
                    dt, b = d_tiles[d][: k1 - k0], held[a][: l1 - l0]
                    block = out[k0 * dt.shape[1] : k1 * dt.shape[1], l0 * b.shape[1] : l1 * b.shape[1]]
                    block += dt.reshape(-1, size) @ b.reshape(-1, size).T
    above = np.triu_indices(n, 1)
    for values in grids[int(full) :]:
        values[:, :, above[0], above[1]] = 0.0
    return grids


def per_node_expectation_series(factory, ops) -> np.ndarray:
    """``expectation_series`` as it ran before its phases were formed a tile of nodes at a time.

    Per node, the sector exponentials are formed afresh and their phases are
    contiguous products of ``np.repeat`` and ``np.tile``; each node is one
    ``weighted @ phases`` product, so the series must agree bit for bit.
    """
    weighted = np.stack([factory.rho_t_flat * factory.to_frame(op, 0) for op in ops])
    out = np.empty((len(ops), factory.grid.n_nodes), dtype=complex)
    for k in range(factory.grid.n_nodes):
        exps = np.split(np.exp(1j * (k * factory.grid.delta) * factory.energies), factory._offsets[1:-1])
        out[:, k] = weighted @ np.concatenate([np.repeat(e, e.size) * np.tile(np.conj(e), e.size) for e in exps])
    return out


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


def packed_toeplitz(grid: TimeGrid, p: int, lags: np.ndarray, **kwargs) -> VolterraOperator:
    """The Toeplitz kernel ``K[k, l] = lags[k - l]`` packed whole, the route ``compute_g0`` took before it held the lags.

    The dense ``(n, n, p, p)`` kernel is gathered from the ``n + 1`` lag
    blocks, block ``n`` at every acausal ``l > k``, and given to the
    constructor as ``mem``, with ``kwargs`` (instantaneous part, scale).
    """
    n = grid.n_nodes
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    return VolterraOperator(grid, p, mem=lags[np.where(lag >= 0, lag, n)], **kwargs)


def packed_kernel_bytes(op: VolterraOperator) -> bytes:
    """Every block the kernel reader yields, the acausal ones of diagonal tiles included."""
    return b"".join(np.ascontiguousarray(blocks).tobytes() for _, _, blocks in op.kernel_tiles())


def f_map(engine) -> VolterraOperator:
    """``F`` of a kernel engine, from a one-pair sweep of its own."""
    corr = engine.factory.anticommutator_grid("a", "b")
    return VolterraOperator(engine.grid, engine.p, mem=corr.causal_kernel(), rows=corr.rows, cols=corr.cols)


# -- readers only the tests use -------------------------------------------


def h_sample(one_particle) -> np.ndarray:
    """The sample block of the decoupled one-particle Hamiltonian."""
    s = one_particle.geometry.sample_slice
    return one_particle.h_decoupled[s, s]


def h_lead(one_particle, nu: int) -> np.ndarray:
    """Lead ``nu``'s block of the decoupled one-particle Hamiltonian."""
    s = one_particle.geometry.lead_slice(nu)
    return one_particle.h_decoupled[s, s]


def load_kernel(fh) -> tuple[dict, np.ndarray, np.ndarray]:
    """Parse one kernel dump; returns (header, memory kernel, instantaneous part)."""
    return load_kernels(fh)[0]


def report_json(report) -> str:
    """Indented JSON text of a ``DysonReport``."""
    return json.dumps(report.to_dict(), indent=2)
