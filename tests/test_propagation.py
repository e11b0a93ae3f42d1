import numpy as np
import pytest

from pfnegf.config import parse_config
from pfnegf.errors import MemoryBudgetError
from pfnegf.fock import (
    build_fock_space,
    identity_operator,
    ladder_op,
    second_quantize,
)
from pfnegf.grid import TimeGrid
from pfnegf.negf import KernelEngine
from pfnegf.propagation import (
    CorrelatorFactory,
    heisenberg_series,
    stepper,
    two_time_kernel,
)
from pfnegf.thermal import gibbs

RNG = np.random.default_rng(3)


def propagator_matrix(op):
    return op.to_full()


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
        fs = build_fock_space(1)
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

    def test_memory_guard(self, trimer_run):
        model = trimer_run.model
        grid = TimeGrid(1.0, 500)
        u = stepper(model.K_v, grid.delta)
        with pytest.raises(MemoryBudgetError):
            heisenberg_series(model.K_v, u, grid, budget=1000)


def ladder_families(model):
    creation = [
        ladder_op(model.space, model.basis_vector(m), "create")
        for m in range(model.num_sites)
    ]
    annihilation = [op.dagger() for op in creation]
    return creation, annihilation


class TestTwoTimeKernel:
    def test_equal_time_car(self, trimer_run):
        model = trimer_run.model
        grid = TimeGrid(1.0, 4)
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        creation, annihilation = ladder_families(model)
        c = two_time_kernel(rho, model.K_v, creation, annihilation, grid)
        for k in range(grid.n_nodes):
            np.testing.assert_allclose(c.values[:, :, k, k], np.eye(3), atol=1e-13)

    def test_noninteracting_oracle(self, trimer_dict):
        # one-particle matrix-exponential oracle for the full grid
        trimer_dict["sample"]["xi"] = 0.0
        run = parse_config(trimer_dict)
        model = run.model
        grid = TimeGrid(2.0, 10)
        rho = gibbs(model.K_0, run.thermal, model.N_total)
        creation, annihilation = ladder_families(model)
        c = two_time_kernel(rho, model.K_v, creation, annihilation, grid)
        lam, v = np.linalg.eigh(model.h_biased)
        for k in range(grid.n_nodes):
            for l in range(k + 1):
                prop = (v * np.exp(-1j * (grid.nodes[k] - grid.nodes[l]) * lam)[None, :]) @ np.conj(v.T)
                np.testing.assert_allclose(c.values[:, :, k, l], prop, atol=1e-10)

    def test_dressed_family_lead_entries_vanish(self, trimer_engine):
        values = trimer_engine.dressed_grid.values
        ns = trimer_engine.model.num_sample
        assert np.max(np.abs(values[ns:, :, :, :])) == 0.0
        assert np.max(np.abs(values[:, ns:, :, :])) == 0.0

    def test_hermitian_pairing(self, trimer_engine):
        values = trimer_engine.ladder_grid.values
        mirrored = np.conj(values.transpose(1, 0, 3, 2))
        assert np.max(np.abs(values - mirrored)) <= 1e-10

    def test_anticommutator_bound(self, trimer_engine):
        # |<{A, B}>| <= 2 ||A|| ||B|| = 2 for normalized ladder vectors
        assert np.max(np.abs(trimer_engine.ladder_grid.values)) <= 2.0 + 1e-10

    @pytest.mark.parametrize("full", [False, True], ids=["causal", "full"])
    def test_storage_strategies_agree(self, trimer_run, full):
        model = trimer_run.model
        grid = TimeGrid(1.5, 10)
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        creation, annihilation = ladder_families(model)
        by_history = two_time_kernel(
            rho, model.K_v, creation, annihilation, grid, strategy="history", full=full
        )
        by_recompute = two_time_kernel(
            rho, model.K_v, creation, annihilation, grid, strategy="recompute", full=full
        )
        # both strategies form every block by the same product
        np.testing.assert_array_equal(by_history.values, by_recompute.values)

    def test_engine_grids_strategies_agree(self, trimer_run):
        # the dressed and mixed pairings, not only the a/a ladder
        grid = TimeGrid(1.5, 10)
        engines = [
            KernelEngine(trimer_run.model, trimer_run.thermal, grid, strategy=strategy)
            for strategy in ("history", "recompute")
        ]
        for name in ("ladder_grid", "dressed_grid", "mixed_grid"):
            history, recompute = (getattr(engine, name) for engine in engines)
            np.testing.assert_array_equal(history.values, recompute.values)

    def test_auto_falls_back_on_small_budget(self, trimer_run):
        model = trimer_run.model
        grid = TimeGrid(1.0, 6)
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        factory = CorrelatorFactory(rho, model.K_v, grid, strategy="auto", budget=1000)
        factory.add_family("a", [ladder_op(model.space, model.basis_vector(0), "create")])
        assert factory.strategy == "recompute"

    def test_history_raises_on_small_budget(self, trimer_run):
        model = trimer_run.model
        grid = TimeGrid(1.0, 6)
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        factory = CorrelatorFactory(rho, model.K_v, grid, strategy="history", budget=1000)
        factory.add_family("a", [ladder_op(model.space, model.basis_vector(0), "create")])
        with pytest.raises(MemoryBudgetError):
            factory.anticommutator_grid("a", "a")

    def test_wrong_displacement_rejected(self, trimer_run):
        model = trimer_run.model
        grid = TimeGrid(1.0, 4)
        rho = gibbs(model.K_0, trimer_run.thermal, model.N_total)
        creation, _ = ladder_families(model)
        with pytest.raises(ValueError, match="displacement"):
            two_time_kernel(rho, model.K_v, creation, creation, grid)


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
