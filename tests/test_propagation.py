import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfnegf import propagation
from pfnegf.config import parse_config, reference_config
from pfnegf.errors import MemoryBudgetError
from pfnegf.fock import (
    FockSpace,
    anticommutator,
    identity_operator,
    ladder_op,
    second_quantize,
)
from pfnegf.grid import TimeGrid
from pfnegf.negf import KernelEngine, compute_g0, verify_dyson
from pfnegf.propagation import (
    SECTOR_TILE_CAP,
    TILE_NODES,
    UNITARITY_TOL,
    CorrelatorFactory,
    CorrelatorGrid,
    sector_tile,
)
from pfnegf.thermal import gibbs
from pfnegf.volterra import VolterraOperator

from oracles import (
    anticommutator_side,
    embedded_operator,
    flat_index,
    full_grid,
    heisenberg_series,
    memory_kernel,
    node_phases,
    packed_kernel_bytes,
    per_node_sweep,
    stepper,
    to_full,
)

RNG = np.random.default_rng(3)


def propagator_matrix(op):
    return to_full(op)


class TestStepper:
    def test_zero_step(self, trimer_run):
        u = stepper(trimer_run.model.K_v, 0.0)
        assert (u - identity_operator(trimer_run.model.space)).max_abs() <= 1e-15

    def test_unitarity(self, trimer_run):
        u = stepper(trimer_run.model.K_v, 0.05)
        defect = (u.dagger() @ u - identity_operator(trimer_run.model.space)).max_abs()
        assert defect <= 1e-12

    def test_group_property(self, trimer_run):
        grid = trimer_run.grid()
        u = stepper(trimer_run.model.K_v, grid.delta)
        power = identity_operator(trimer_run.model.space)
        for _ in range(grid.steps):
            power = power @ u
        direct = stepper(trimer_run.model.K_v, grid.horizon)
        assert (power - direct).max_abs() <= 1e-10

    def test_single_orbital_phase(self):
        # closed form on one orbital: tau^t(a) = exp(-i eps t) a
        eps, t = 0.9, 0.7
        fs = FockSpace(1)
        k = second_quantize(fs, np.array([[eps]]))
        u = stepper(k, t)
        a = ladder_op(fs, np.array([1.0]), "annihilate")
        evolved = u.dagger() @ a @ u
        assert (evolved - np.exp(-1j * eps * t) * a).max_abs() <= 1e-13


class TestHeisenbergSeries:
    def test_one_particle_oracle(self, trimer_dict):
        # for xi = 0 the ladder operators evolve on the one-particle level:
        # tau^t(a(f)) = a(exp(i t h_v) f)
        trimer_dict["sample"]["xi"] = 0.0
        run = parse_config(trimer_dict)
        model = run.model
        grid = TimeGrid(2.0, 8)
        u = stepper(model.K_v, grid.delta)
        f = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        series = heisenberg_series(ladder_op(model.space, f, "annihilate"), u, grid)
        h_v = model.h_biased
        lam, v = np.linalg.eigh(h_v)
        for k, op in enumerate(series):
            ft = (v * np.exp(1j * grid.nodes[k] * lam)[None, :]) @ np.conj(v.T) @ f
            oracle = ladder_op(model.space, ft, "annihilate")
            assert (op - oracle).max_abs() <= 1e-10

    def test_conserved_operator_is_constant(self, trimer_run):
        model = trimer_run.model
        grid = TimeGrid(1.0, 4)
        u = stepper(model.K_v, grid.delta)
        for x in (model.K_v, model.N_total):
            series = heisenberg_series(x, u, grid)
            for op in series:
                assert (op - x).max_abs() <= 1e-11

    def test_norm_preserved(self, trimer_run):
        model = trimer_run.model
        grid = TimeGrid(1.5, 6)
        u = stepper(model.K_v, grid.delta)
        x = ladder_op(model.space, np.array([1.0, 2.0, -0.5j]) / np.sqrt(5.25), "create")
        series = heisenberg_series(x, u, grid)
        base = x.norm2()
        for op in series:
            assert op.norm2() == pytest.approx(base, abs=1e-10)


def ladder_families(model):
    creation = [
        ladder_op(model.space, model.basis_vector(m), "create")
        for m in range(model.num_sites)
    ]
    annihilation = [op.dagger() for op in creation]
    return creation, annihilation


def ladder_grid(rho, model, grid, full=False):
    """``Tr(rho {a*(e_m)(t_l), a(e_j)(t_k)})`` from the factory, the creation
    family on both sides (the second through its adjoint)."""
    factory = CorrelatorFactory(rho, model.K_v, grid)
    factory.add_family("a", ladder_families(model)[0])
    return factory.anticommutator_grid("a", "a", full=full).values


def stepped_grid(rho, generator, creation, annihilation, grid):
    """Independent oracle: ``Tr(rho {A*_m(t_l), B_j(t_k)})`` from stepped series.

    Every operator is evolved by repeated one-step conjugation in the
    occupation basis and every anticommutator is traced through the state's
    own eigendecomposition; nothing is shared with ``CorrelatorFactory``.
    """
    u = stepper(generator, grid.delta)
    a_t = [heisenberg_series(op, u, grid) for op in creation]
    b_t = [heisenberg_series(op, u, grid) for op in annihilation]
    n = grid.n_nodes
    out = np.empty((len(b_t), len(a_t), n, n), dtype=complex)
    for j, b in enumerate(b_t):
        for m, a in enumerate(a_t):
            for k in range(n):
                for l in range(n):
                    out[j, m, k, l] = rho.expectation(anticommutator(a[l], b[k]))
    return out


def loop_reference_grid(factory, creation_a, creation_d, full):
    """The per-(k, l) block loop the tiled sweep replaced: every family row,
    zero or not, and one ``(p_d, flat) @ (flat, p_a)`` product per block."""
    index = flat_index(factory, 1)
    fam_a = np.stack([factory.to_frame(op, +1) for op in creation_a])
    fam_d = np.stack([factory.to_frame(op, +1) for op in creation_d])
    n = factory.grid.n_nodes
    held = [anticommutator_side(factory, fam_a * node_phases(factory, l, index)) for l in range(n)]
    values = np.zeros((len(fam_d), len(fam_a), n, n), dtype=complex)
    for k in range(n):
        v = np.conj(fam_d * node_phases(factory, k, index))
        for l in range(n if full else k + 1):
            values[:, :, k, l] = v @ held[l].T
    return values


def is_positive_zero(values):
    """True when every real and imaginary part is bitwise ``+0.0``."""
    parts = np.concatenate([np.ravel(values.real), np.ravel(values.imag)])
    return not parts.any() and not np.signbit(parts).any()


COMPANIONS = [("b", "b"), ("a", "b")]


def tile_edge_steps(space):
    """Step counts whose grids put the sector tiles' edges where they can go wrong.

    At both, the largest creation sector is cut into two whole tiles and a
    ragged tail.  The smallest sector's tile spans every node of the first
    grid and stops at ``SECTOR_TILE_CAP`` nodes in the second, ahead of a tail.
    """
    dims = space.sector_dims
    sizes = [hi * lo for lo, hi in zip(dims, dims[1:])]
    flat, large, small = sum(sizes), max(sizes), min(sizes)
    tile = sector_tile(10**6, flat, large)  # the largest sector's tile once n >= TILE_NODES
    counts = [2 * tile + 3, SECTOR_TILE_CAP + 3]
    for n in counts:
        assert sector_tile(n, flat, large) == tile and n // tile >= 2 and n % tile
    assert sector_tile(counts[0], flat, small) == counts[0] <= SECTOR_TILE_CAP
    assert sector_tile(counts[1], flat, small) == SECTOR_TILE_CAP < counts[1]
    return [n - 1 for n in counts]


def assert_shared_sweep_matches_one_pair_grids(factory):
    """Every grid of a shared sweep is bitwise its one-pair grid and holds
    the same D rows and held rows, increasing, one value row and column each."""
    for name_a, name_d, full, companions in (
        ("a", "a", True, COMPANIONS),
        ("a", "a", False, COMPANIONS),
        ("b", "b", False, [("a", "a"), ("a", "b")]),
    ):
        joint = factory.anticommutator_grid(name_a, name_d, full, companions)
        alone = factory.anticommutator_grid(name_a, name_d, full=full)
        assert len(joint.companions) == len(companions)
        pairs = [(joint, alone)] + [
            (companion, factory.anticommutator_grid(a, d)) for (a, d), companion in zip(companions, joint.companions)
        ]
        for grid, one_pair in pairs:
            assert grid.values.tobytes() == one_pair.values.tobytes()
            assert grid.rows.tolist() == one_pair.rows.tolist()
            assert grid.cols.tolist() == one_pair.cols.tolist()
            assert grid.values.shape[:2] == (grid.rows.size, grid.cols.size)
            assert np.all(np.diff(grid.rows) > 0) and np.all(np.diff(grid.cols) > 0)


def degenerate_trimer(trimer_dict):
    """Noninteracting triangle: all three hoppings 0.8, so h_v has eigenvalues
    (1.6, -0.8, -0.8) and K_v is degenerate in sectors 1 and 2."""
    trimer_dict["sample"]["xi"] = 0.0
    trimer_dict["sample"]["hoppings"] = [["s0", "s1", 0.8]]
    g = [2**-0.5, 2**-0.5]
    trimer_dict["leads"][0]["coupling"] = {"d": 0.8 * 2**0.5, "f": [1.0], "g": g}
    trimer_dict["bias"] = [0.0]
    return parse_config(trimer_dict)


class TestTwoTimeKernel:
    def test_equal_time_car(self, trimer_run):
        model = trimer_run.model
        grid = TimeGrid(1.0, 4)
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        c = ladder_grid(rho, model, grid)
        for k in range(grid.n_nodes):
            np.testing.assert_allclose(c[:, :, k, k], np.eye(3), atol=1e-13)

    def test_noninteracting_oracle(self, trimer_dict):
        # one-particle matrix-exponential oracle for the full grid
        trimer_dict["sample"]["xi"] = 0.0
        run = parse_config(trimer_dict)
        model = run.model
        grid = TimeGrid(2.0, 10)
        rho = gibbs(model.K_0, run.thermal, model.N_total)
        c = ladder_grid(rho, model, grid)
        lam, v = np.linalg.eigh(model.h_biased)
        for k in range(grid.n_nodes):
            for l in range(k + 1):
                prop = (v * np.exp(-1j * (grid.nodes[k] - grid.nodes[l]) * lam)[None, :]) @ np.conj(v.T)
                np.testing.assert_allclose(c[:, :, k, l], prop, atol=1e-10)

    @pytest.mark.parametrize("case", ["trimer", "degenerate"])
    def test_full_grid_matches_stepped_oracle(self, trimer_dict, case):
        run = parse_config(trimer_dict) if case == "trimer" else degenerate_trimer(trimer_dict)
        model = run.model
        if case == "degenerate":
            energies = np.linalg.eigvalsh(model.K_v.blocks[1])
            assert np.min(np.diff(energies)) <= 1e-12
        grid = TimeGrid(3.0, 12)
        rho = gibbs(model.K_0, run.thermal, model.N_total)
        c = ladder_grid(rho, model, grid, full=True)
        oracle = stepped_grid(rho, model.K_v, *ladder_families(model), grid)
        # the last node is where stepping has accumulated the most roundoff
        np.testing.assert_allclose(c[:, :, -1, :], oracle[:, :, -1, :], rtol=0, atol=1e-12)
        np.testing.assert_allclose(c, oracle, rtol=0, atol=1e-12)

    def test_dressed_family_lead_entries_vanish(self, trimer_engine):
        grid = trimer_engine.factory.anticommutator_grid("b", "b")
        ns = trimer_engine.model.num_sample
        assert grid.rows.tolist() == list(range(ns))
        values = full_grid(grid, trimer_engine.p)
        assert np.max(np.abs(values[ns:, :, :, :])) == 0.0
        assert np.max(np.abs(values[:, ns:, :, :])) == 0.0

    def test_hermitian_pairing(self, trimer_engine):
        values = trimer_engine.factory.anticommutator_grid("a", "a", full=True).values
        mirrored = np.conj(values.transpose(1, 0, 3, 2))
        assert np.max(np.abs(values - mirrored)) <= 1e-10

    def test_anticommutator_bound(self, trimer_engine):
        # |<{A, B}>| <= 2 ||A|| ||B|| = 2 for normalized ladder vectors
        values = trimer_engine.factory.anticommutator_grid("a", "a", full=True).values
        assert np.max(np.abs(values)) <= 2.0 + 1e-10

    def test_history_raises_on_small_budget(self, trimer_run):
        # a budget below any tile pair fails before the sweep starts
        model = trimer_run.model
        grid = TimeGrid(1.0, 6)
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        factory = CorrelatorFactory(rho, model.K_v, grid, budget=1000)
        factory.add_family("a", [ladder_op(model.space, model.basis_vector(0), "create")])
        with pytest.raises(MemoryBudgetError):
            factory.anticommutator_grid("a", "a")

    def test_recompute_raises_when_tiles_exceed_budget(self, trimer_run):
        model = trimer_run.model
        grid = TimeGrid(1.0, 6)
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        creation = [ladder_op(model.space, model.basis_vector(0), "create")]
        flat = flat_index(CorrelatorFactory(rho, model.K_v, grid), 1)[0].size
        # one held tile plus one D tile of the single-row family
        need = 2 * min(TILE_NODES, grid.n_nodes) * flat * 16
        for budget in (need - 1, need):
            factory = CorrelatorFactory(rho, model.K_v, grid, budget=budget)
            factory.add_family("a", creation)
            if budget < need:
                with pytest.raises(MemoryBudgetError, match="^one held and one D tile need"):
                    factory.anticommutator_grid("a", "a")
            else:
                factory.anticommutator_grid("a", "a")
        # a shared sweep holds one held and one D tile of every family it pairs
        dressed = list(model.dressed_creation_family)
        rows_b = sum(op.max_abs() > 0.0 for op in dressed)
        assert rows_b == model.num_sample
        joint_need = 2 * min(TILE_NODES, grid.n_nodes) * (1 + rows_b) * flat * 16
        for budget in (joint_need - 1, joint_need):
            factory = CorrelatorFactory(rho, model.K_v, grid, budget=budget)
            factory.add_family("a", creation)
            factory.add_family("b", dressed)
            factory.anticommutator_grid("a", "a", True)  # one pair alone fits either budget
            if budget < joint_need:
                with pytest.raises(MemoryBudgetError, match="^one held and one D tile need"):
                    factory.anticommutator_grid("a", "a", True, COMPANIONS)
            else:
                factory.anticommutator_grid("a", "a", True, COMPANIONS)

    def test_non_hermitian_generator_rejected(self, trimer_run):
        model = trimer_run.model
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        generator = model.K_v + model.N_total * 1e-9j
        with pytest.raises(ValueError, match="not Hermitian"):
            CorrelatorFactory(rho, generator, TimeGrid(1.0, 4))

    def test_eigenbasis_defect_rejected(self, trimer_run, monkeypatch):
        model = trimer_run.model
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        eigh = np.linalg.eigh

        def skewed_eigh(block):
            lam, q = eigh(block)
            return lam, q * (1.0 + 10 * UNITARITY_TOL)

        monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
        with pytest.raises(RuntimeError, match="unitarity defect"):
            CorrelatorFactory(rho, model.K_v, TimeGrid(1.0, 4))

    def test_nan_generator_rejected(self, trimer_run):
        model = trimer_run.model
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        generator = model.K_v + model.N_total * np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            CorrelatorFactory(rho, generator, TimeGrid(1.0, 4))
        with pytest.raises(ValueError, match="not Hermitian"):
            stepper(generator, 0.1)

    def test_eigenbasis_nan_in_a_later_sector_rejected(self, trimer_run, monkeypatch):
        model = trimer_run.model
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        eigh, calls = np.linalg.eigh, []

        def nan_in_last_sector(block):
            lam, q = eigh(block)
            calls.append(block)
            return lam, q * np.nan if len(calls) == len(model.K_v.blocks) else q

        monkeypatch.setattr(np.linalg, "eigh", nan_in_last_sector)
        with pytest.raises(RuntimeError, match="unitarity defect nan"):
            CorrelatorFactory(rho, model.K_v, TimeGrid(1.0, 4))

    def test_wrong_displacement_rejected(self, trimer_run):
        model = trimer_run.model
        grid = TimeGrid(1.0, 4)
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        factory = CorrelatorFactory(rho, model.K_v, grid)
        _, annihilation = ladder_families(model)
        with pytest.raises(ValueError, match="expected a displacement \\+1 operator"):
            factory.add_family("a", annihilation)


class TestTiledSweep:
    @pytest.mark.parametrize("full", [False, True], ids=["causal", "full"])
    def test_tiles_match_loop_reference(self, trimer_run, full):
        model = trimer_run.model
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        families = {"a": list(model.creation_family), "b": list(model.dressed_creation_family)}
        pairs = (("a", "a"), ("b", "b"), ("a", "b"))
        ns = model.num_sample
        assert ns < model.num_sites
        for steps in tile_edge_steps(model.space):
            grid = TimeGrid(3.0, steps)
            factory = CorrelatorFactory(rho, model.K_v, grid)
            for name, ops in families.items():
                factory.add_family(name, ops)
            corrs = [factory.anticommutator_grid(*pair, full=full) for pair in pairs]
            grids = [full_grid(corr, model.num_sites) for corr in corrs]
            for (name_a, name_d), values in zip(pairs, grids):
                reference = loop_reference_grid(factory, families[name_a], families[name_d], full)
                np.testing.assert_allclose(values, reference, rtol=0, atol=1e-14)
                if not full:
                    above = np.triu_indices(grid.n_nodes, 1)
                    assert is_positive_zero(values[:, :, above[0], above[1]])
            # the dressed family's lead rows are zero operators: no grid holds them
            for corr in corrs[1:]:
                assert corr.rows.tolist() == list(range(ns))
            # nor a column of a grid whose held family is the dressed one
            assert corrs[1].cols.tolist() == list(range(ns)) and corrs[2].cols.tolist() == list(range(model.num_sites))
            assert corrs[1].values.shape[:2] == (ns, ns)
            assert is_positive_zero(grids[1][:, ns:]) and is_positive_zero(grids[1][ns:])
            assert np.abs(grids[1][:ns, :ns]).max() > 0.0

    @pytest.mark.parametrize("xi", [0.7, 0.0])
    def test_shared_sweep_equals_one_pair_grids(self, trimer_dict, xi):
        # at xi = 0 the dressed family has no nonzero row, so only the ladder pair runs GEMMs
        trimer_dict["sample"]["xi"] = xi
        run = parse_config(trimer_dict)
        model = run.model
        rho = gibbs(model.K_0, run.thermal, model.N_total)
        for steps in tile_edge_steps(model.space):
            factory = CorrelatorFactory(rho, model.K_v, TimeGrid(3.0, steps))
            factory.add_family("a", list(model.creation_family))
            factory.add_family("b", list(model.dressed_creation_family))
            assert_shared_sweep_matches_one_pair_grids(factory)
            dressed = factory.anticommutator_grid("a", "a", True, COMPANIONS).companions[0]
            assert dressed.rows.size == (model.num_sample if xi else 0)


class TestCorrelatorGrid:
    def test_pairing_defect_equals_dense_formula(self, trimer_engine):
        def dense(values):
            return float(np.max(np.abs(values - np.conj(values.transpose(1, 0, 3, 2)))))

        ladder = trimer_engine.factory.anticommutator_grid("a", "a", full=True)
        assert ladder.pairing_defect() == dense(ladder.values)
        assert trimer_engine.pairing_defect == dense(ladder.values)
        values = RNG.standard_normal((3, 3, 5, 5)) + 1j * RNG.standard_normal((3, 3, 5, 5))
        every = np.arange(3)
        assert CorrelatorGrid(values, every, every).pairing_defect() == dense(values) > 0.0
        # a nan in a later first index is not dropped by the row-wise maximum
        values[2, 1, 3, 0] = complex(np.nan, 0.0)
        assert np.isnan(dense(values))
        assert np.isnan(CorrelatorGrid(values, every, every).pairing_defect())

    def test_pairing_defect_needs_a_square_grid(self, trimer_engine):
        # a grid whose rows and columns differ has no pairing defect; one over
        # the same rows and columns has that of its zero-filled dense grid
        values = RNG.standard_normal((3, 3, 5, 5)) + 1j * RNG.standard_normal((3, 3, 5, 5))
        every, p = np.arange(3), trimer_engine.p
        mixed = trimer_engine.factory.anticommutator_grid("a", "b", full=True)
        assert mixed.rows.size < mixed.cols.size == p
        for grid in (CorrelatorGrid(values[:2], np.array([0, 2]), every), CorrelatorGrid(values[:0], every[:0], every), mixed):
            with pytest.raises(ValueError, match="pairing defect needs a square grid"):
                grid.pairing_defect()
        dressed = trimer_engine.factory.anticommutator_grid("b", "b", full=True)
        assert dressed.rows.tolist() == dressed.cols.tolist() == list(range(trimer_engine.model.num_sample))
        full = full_grid(dressed, p)
        assert dressed.pairing_defect() == float(np.max(np.abs(full - np.conj(full.transpose(1, 0, 3, 2)))))

    @pytest.mark.parametrize("prefactor", [-1j, 1.0])
    def test_causal_kernel_is_a_view_of_the_grid(self, trimer_engine, prefactor):
        grid = trimer_engine.factory.anticommutator_grid("a", "b", full=True)
        n, p = grid.values.shape[2], trimer_engine.p
        assert grid.rows.size < p
        oracle = embedded_operator(grid, trimer_engine.grid, p, prefactor)
        expected = grid.values.transpose(2, 3, 0, 1).copy()
        expected[np.triu_indices(n, k=1)] = 0.0
        kernel = grid.causal_kernel()
        assert np.shares_memory(kernel, grid.values)
        assert kernel.tobytes() == expected.tobytes()
        above = np.triu_indices(n, 1)
        assert not grid.values[:, :, above[0], above[1]].any()
        # packed from its rows and scaled once: the bits of the dense route
        op = VolterraOperator(trimer_engine.grid, p, mem=kernel, rows=grid.rows, scale=prefactor)
        assert packed_kernel_bytes(op) == packed_kernel_bytes(oracle)
        assert op.flat.tobytes() == oracle.flat.tobytes()


class TestExpectationSeries:
    def test_conserved_quantity_constant(self, trimer_run):
        model = trimer_run.model
        grid = TimeGrid(1.0, 5)
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        factory = CorrelatorFactory(rho, model.K_v, grid)
        series = factory.expectation_series([model.N_total])
        np.testing.assert_allclose(series[0], series[0, 0], atol=1e-12)

    def test_equal_time_value_is_direct_trace(self, trimer_run):
        model = trimer_run.model
        grid = TimeGrid(1.0, 5)
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        factory = CorrelatorFactory(rho, model.K_v, grid)
        obs = model.contact_operator(0, 1)
        series = factory.expectation_series([obs])
        assert series[0, 0] == pytest.approx(rho.expectation(obs), abs=1e-13)

    def test_matches_stepped_oracle(self, trimer_run):
        model = trimer_run.model
        grid = TimeGrid(3.0, 12)
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        ops = [model.contact_operator(j, m) for j in range(2) for m in range(2)]
        series = CorrelatorFactory(rho, model.K_v, grid).expectation_series(ops)
        u = stepper(model.K_v, grid.delta)
        oracle = [[rho.expectation(x) for x in heisenberg_series(op, u, grid)] for op in ops]
        np.testing.assert_allclose(series, oracle, rtol=0, atol=1e-12)


def _unit_vector(draw, size):
    """A random complex unit vector of length 1 or 2, as config [re, im] pairs."""
    phase = np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    if size == 2:
        angle = draw(st.floats(0.0, np.pi / 2))
        entries = [np.cos(angle), np.sin(angle) * phase]
    else:
        entries = [phase]
    return [[float(np.real(z)), float(np.imag(z))] for z in entries]


@st.composite
def small_models(draw, xi=st.floats(-1.0, 1.0)):
    """1-2 sample sites, one lead of 1-2 sites and maybe a second 1-site lead (d <= 5)."""
    amplitude = st.floats(-1.5, 1.5)
    n_sample, n_lead = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    sites = [f"s{i}" for i in range(n_sample)]
    lead_sites = [f"l{i}" for i in range(n_lead)]

    def edge(a, b):
        return [a, b, [draw(amplitude), draw(amplitude)]]

    def coupling(n_sites):
        return {
            "d": draw(st.floats(0.1, 1.0)),
            "f": _unit_vector(draw, n_sites),
            "g": _unit_vector(draw, n_sample),
        }

    leads = [{
        "sites": lead_sites,
        "hoppings": [edge("l0", "l1")] if n_lead == 2 else [],
        "coupling": coupling(n_lead),
    }]
    if draw(st.booleans()):
        leads.append({"sites": ["r0"], "hoppings": [], "coupling": coupling(1)})
    return {
        "sample": {
            "sites": sites,
            "hoppings": [edge("s0", "s1")] if n_sample == 2 else [],
            "w": [["s0", "s1", draw(st.floats(0.0, 1.5))]] if n_sample == 2 else [],
            "xi": draw(xi),
        },
        "leads": leads,
        "bias": [draw(st.floats(-1.0, 1.0)) for _ in leads],
        "thermal": {"beta": draw(st.floats(0.2, 3.0)), "mu": draw(st.floats(-1.0, 1.0))},
        # from inside the first tile to one node past the second tile edge
        "grid": {"T": draw(st.floats(0.5, 3.0)), "steps": draw(st.integers(2, 2 * TILE_NODES + 1))},
    }


# a draw whose F residual has a subnormal largest entry: its norm bound read 0.0
SUBNORMAL_RESIDUAL_MODEL = {
    "sample": {
        "sites": ["s0", "s1"],
        "hoppings": [["s0", "s1", [0.5, -0.25]]],
        "w": [["s0", "s1", 2.871393014033211e-100]],
        "xi": 3.4426291299431166e-197,
    },
    "leads": [{
        "sites": ["l0"],
        "hoppings": [],
        "coupling": {"d": 0.4, "f": [[1.0, 0.0]], "g": [[1.0, 0.0], [0.0, 0.0]]},
    }],
    "bias": [0.0],
    "thermal": {"beta": 1.0, "mu": 0.0},
    "grid": {"T": 1.0, "steps": 2},
}


class TestRandomModels:
    @settings(max_examples=15, deadline=None)
    @given(small_models())
    @example(SUBNORMAL_RESIDUAL_MODEL)
    def test_grids_on_random_models(self, cfg):
        run = parse_config(cfg)
        model, grid = run.model, run.grid()
        rho = gibbs(model.K_0, run.thermal, model.N_total)
        creation, annihilation = ladder_families(model)
        families = {"a": creation, "b": list(model.dressed_creation_family)}
        pairs = (("a", "a", True), ("a", "a", False), ("a", "b", False), ("b", "b", False))
        factory = CorrelatorFactory(rho, model.K_v, grid)
        for name, ops in families.items():
            factory.add_family(name, ops)
        grids = [
            full_grid(factory.anticommutator_grid(name_a, name_d, full=full), model.num_sites)
            for name_a, name_d, full in pairs
        ]
        for (name_a, name_d, full), values in zip(pairs, grids):
            reference = loop_reference_grid(factory, families[name_a], families[name_d], full)
            np.testing.assert_allclose(values, reference, rtol=0, atol=1e-14)
        assert_shared_sweep_matches_one_pair_grids(factory)
        ladder = grids[0]
        oracle = stepped_grid(rho, model.K_v, creation, annihilation, grid)
        np.testing.assert_allclose(ladder, oracle, rtol=0, atol=1e-12)
        for k in range(grid.n_nodes):
            np.testing.assert_allclose(ladder[:, :, k, k], np.eye(model.num_sites), rtol=0, atol=1e-12)
        # the exact-algebra Dyson identities hold whatever the kernels are
        report = verify_dyson(KernelEngine(model, run.thermal, grid))
        for name in ("irreducible_dyson", "resolvent_dyson", "sample_restricted_dyson"):
            assert report.residual(name) <= 1e-11, name
        assert report.residual("lead_support") <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(small_models(xi=st.just(0.0)))
    def test_free_limit_on_random_models(self, cfg):
        # without interaction the many-body kernel is the one-particle G0
        run = parse_config(cfg)
        engine = KernelEngine(run.model, run.thermal, run.grid())
        # the dressed family is all zero operators: its companions run no GEMM
        assert_shared_sweep_matches_one_pair_grids(engine.factory)
        g0 = compute_g0(run.model.h_biased, run.grid())
        np.testing.assert_allclose(
            memory_kernel(engine.gxi), memory_kernel(g0), rtol=0, atol=1e-10
        )


def lead3_config(steps: int) -> dict:
    """The reference model with a third site on each lead (d = 8), horizon 1.0."""
    cfg = reference_config()
    for lead in cfg["leads"]:
        sites, new = lead["sites"], f"{lead['sites'][-1][:-1]}{len(lead['sites'])}"
        lead["hoppings"].append([sites[-1], new, lead["hoppings"][-1][2]])
        sites.append(new)
        lead["coupling"]["f"].append(0.0)
    return cfg | {"grid": {"T": 1.0, "steps": steps}}


class TestTilePhases:
    """A tile's phases are formed in one broadcast, in chunks of the GEMM buffer: the per-node loop's bits."""

    @staticmethod
    def assert_equals_per_node_sweep(run):
        model = run.model
        factory = CorrelatorFactory(gibbs(model.K_0, run.thermal, model.N_total), model.K_v, run.grid())
        factory.add_family("a", list(model.creation_family))
        factory.add_family("b", list(model.dressed_creation_family))
        joint = factory.anticommutator_grid("a", "a", True, COMPANIONS)
        expected = per_node_sweep(factory, "a", "a", True, COMPANIONS)
        assert len(expected) == 1 + len(joint.companions)
        for grid, values in zip([joint] + joint.companions, expected):
            assert grid.values.tobytes() == values.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(small_models())
    def test_grids_equal_the_per_node_sweep_on_random_models(self, cfg):
        self.assert_equals_per_node_sweep(parse_config(cfg))

    def test_lead3_geometry_takes_chunks_of_a_tile(self, monkeypatch):
        # 25 nodes: the 3,920-entry sector (56 -> 70 states) takes 23-node tiles, and the
        # GEMM buffer holds 25^2 x 8 x 8 = 40,000 entries, 10 nodes of that sector's phases
        run = parse_config(lead3_config(24))
        chunks = []

        class Spy:  # numpy, with the node counts of the phase chunks of that sector recorded
            def __getattr__(self, name):
                return getattr(np, name)

            def multiply(self, *args, out=None):
                if out is not None and out.shape[1:] == (70, 56):
                    chunks.append(out.shape[0])
                return np.multiply(*args, out=out)

        monkeypatch.setattr(propagation, "np", Spy())
        self.assert_equals_per_node_sweep(run)
        monkeypatch.undo()
        assert sector_tile(25, 11440, 3920) == 23
        # held and D tiles of the nodes 0..22 in chunks of 10, 10 and 3, then the ragged tile of 2
        assert set(chunks) == {10, 3, 2} and chunks[:3] == [10, 10, 3]
