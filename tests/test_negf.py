import json

import numpy as np
import pytest

from pfnegf.config import parse_config, reference_config
from pfnegf.grid import TimeGrid
from pfnegf.model import Model
from pfnegf.negf import (
    DEFAULT_TOLERANCES,
    KernelEngine,
    approx_split,
    compute_g0,
    convergence_study,
    dyson_solution,
    fit_convergence_order,
    irreducible_sigma,
    verify_dyson,
)
from pfnegf.volterra import VolterraOperator, identity_volterra


def noninteracting_reference():
    cfg = reference_config()
    cfg["sample"]["xi"] = 0.0
    return parse_config(cfg)


@pytest.fixture(scope="module")
def ref_engine_xi0():
    run = noninteracting_reference()
    return KernelEngine(run.model, run.thermal, TimeGrid(run.horizon, 40))


class TestFreeKernel:
    def test_equal_time_blocks(self, reference_run):
        g0 = compute_g0(reference_run.model.h_biased, TimeGrid(2.0, 10))
        mem = g0.memory_kernel()
        for k in range(11):
            np.testing.assert_allclose(mem[k, k], -1j * np.eye(6), atol=0)

    def test_dimer_cosine(self, dimer_dict):
        # closed 2x2 form: <s0|exp(-i t h)|s0> = cos(tau t) for h = [[0,tau],[tau,0]]
        run = parse_config(dimer_dict)
        tau = 0.7
        grid = TimeGrid(3.0, 30)
        g0 = compute_g0(run.model.h_biased, grid)
        mem = g0.restrict(np.arange(1)).memory_kernel()
        for k in range(grid.n_nodes):
            assert mem[k, 0, 0, 0] == pytest.approx(-1j * np.cos(tau * grid.nodes[k]), abs=1e-12)

    def test_restriction_matches_full(self, reference_run):
        grid = TimeGrid(2.0, 10)
        g0 = compute_g0(reference_run.model.h_biased, grid)
        sub = g0.restrict(np.arange(2))
        np.testing.assert_array_equal(sub.memory_kernel(), g0.memory_kernel()[:, :, :2, :2])

    def test_volterra_constant_is_unitary_bound(self, reference_run):
        g0 = compute_g0(reference_run.model.h_biased, TimeGrid(2.0, 10))
        assert g0.volterra_constant() <= 1.0 + 1e-12


class TestInteractingKernel:
    def test_noninteracting_reduction(self, ref_engine_xi0):
        diff = np.max(
            np.abs(ref_engine_xi0.gxi.memory_kernel() - ref_engine_xi0.g0.memory_kernel())
        )
        assert diff <= 1e-9

    def test_equal_time_normalization(self, ref_engine_25):
        mem = ref_engine_25.gxi.memory_kernel()
        for k in range(ref_engine_25.grid.n_nodes):
            np.testing.assert_allclose(mem[k, k], -1j * np.eye(6), atol=1e-10)

    def test_volterra_constant_bound(self, ref_engine_25):
        assert ref_engine_25.gxi.volterra_constant() <= 2.0 + 1e-10

    def test_memory_only(self, ref_engine_25):
        assert not ref_engine_25.gxi.has_instantaneous()


class TestSelfEnergy:
    def test_noninteracting_self_energy_vanishes(self, ref_engine_xi0):
        sigma_tilde = ref_engine_xi0.sigma_tilde
        assert np.max(np.abs(sigma_tilde.memory_kernel())) == 0.0
        assert np.max(np.abs(sigma_tilde.instantaneous())) == 0.0
        assert np.max(np.abs(ref_engine_xi0.f_map.memory_kernel())) == 0.0

    def test_lead_support_exact(self, ref_engine_25):
        ns = ref_engine_25.model.num_sample
        for op in (ref_engine_25.sigma_tilde,):
            mem, inst = op.memory_kernel(), op.instantaneous()
            assert np.max(np.abs(mem[:, :, ns:, :])) == 0.0
            assert np.max(np.abs(mem[:, :, :, ns:])) == 0.0
            assert np.max(np.abs(inst[:, ns:, :])) == 0.0
            assert np.max(np.abs(inst[:, :, ns:])) == 0.0

    def test_irreducible_support(self, ref_engine_25):
        ns = ref_engine_25.model.num_sample
        sigma = ref_engine_25.sigma
        mask = np.ones((6, 6), dtype=bool)
        mask[:ns, :ns] = False
        assert np.max(np.abs(sigma.memory_kernel()[..., mask])) <= 1e-12
        assert np.max(np.abs(sigma.instantaneous()[:, mask])) <= 1e-12

    def test_instantaneous_part_inherited(self, ref_engine_25):
        np.testing.assert_array_equal(
            ref_engine_25.sigma.instantaneous(), ref_engine_25.sigma_tilde.instantaneous()
        )

    def test_zero_self_energy_passthrough(self, ref_engine_25):
        g0 = ref_engine_25.g0
        zero = ref_engine_25.sigma_tilde.scale(0.0)
        sigma = irreducible_sigma(g0, zero)
        assert sigma.max_abs() == 0.0

    def test_f_map_lead_rows_vanish(self, ref_engine_25):
        ns = ref_engine_25.model.num_sample
        mem = ref_engine_25.f_map.memory_kernel()
        assert np.max(np.abs(mem[:, :, ns:, :])) == 0.0


class TestDysonIdentities:
    def test_exact_algebra_identities(self, ref_engine_25):
        g0, sigma = ref_engine_25.g0, ref_engine_25.sigma
        g_alg = ref_engine_25.g_alg
        residual = (g_alg - g0 - g0 @ sigma @ g_alg).max_abs()
        assert residual <= 1e-11
        residual_resolvent = (dyson_solution(g0, sigma) - g_alg).max_abs()
        assert residual_resolvent <= 1e-11

    def test_report_carries_every_check(self, ref_engine_25, ref_engine_xi0):
        # no check is conditional: every report lists each tolerance name once
        for engine in (ref_engine_25, ref_engine_xi0):
            names = [c.name for c in verify_dyson(engine).checks]
            assert len(names) == len(DEFAULT_TOLERANCES) == 14
            assert set(names) == set(DEFAULT_TOLERANCES)

    def test_exact_identities_grid_independent(self, ref_engine_25, ref_engine_50):
        for engine in (ref_engine_25, ref_engine_50):
            report = verify_dyson(engine)
            assert report.residual("irreducible_dyson") <= 1e-11
            assert report.residual("resolvent_dyson") <= 1e-11

    def test_noninteracting_all_checks_pass(self, ref_engine_xi0):
        report = verify_dyson(ref_engine_xi0)
        assert report.passed
        for name in ("reducible_dyson", "fmap_factorization", "fmap_dyson"):
            assert report.residual(name) <= 1e-9

    def test_quadrature_convergence_order(self, trimer_engine):
        study = convergence_study(trimer_engine, [16, 32, 64])
        for name, order in study["summary"]["fitted_orders"].items():
            assert order >= 1.8, name

    def test_convergence_rows_equal_verify_residuals(self, trimer_run, trimer_engine):
        study = convergence_study(trimer_engine, [12, 24])
        engine = KernelEngine(trimer_run.model, trimer_run.thermal, TimeGrid(trimer_run.horizon, 12))
        report = verify_dyson(engine)
        row = study["summary"]["rows"][0]
        assert row["steps"] == 12
        for name in ("reducible_dyson", "fmap_factorization", "fmap_dyson"):
            assert row[name] == report.residual(name), name

    @pytest.mark.parametrize("strategy", ["history", "recompute"])
    def test_convergence_reuses_engine_bitwise(self, trimer_dict, strategy):
        # an engine at the finest steps, verified first as the CLI's verify
        # task does, serves that row from its caches and gives the table of a
        # fresh engine byte for byte; configs that still carry the retired
        # strategy key parse and run unchanged
        run = parse_config(trimer_dict | {"strategy": strategy})
        grid = TimeGrid(run.horizon, 24)
        engine = KernelEngine(run.model, run.thermal, grid)
        report = verify_dyson(engine)
        fresh = convergence_study(KernelEngine(run.model, run.thermal, grid), [12, 24])
        reused = convergence_study(engine, [12, 24])
        assert reused["csv"] == fresh["csv"]
        assert json.dumps(reused["summary"]) == json.dumps(fresh["summary"])
        assert reused["summary"]["rows"][1]["reducible_dyson"] == report.residual("reducible_dyson")
        # the full ladder grid's causal blocks are the same products as a causal grid's
        causal = engine.factory.anticommutator_grid("a", "a")
        assert engine.ladder_grid.causal_kernel(-1j).tobytes() == causal.causal_kernel(-1j).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_kernel_fails_its_checks(self, trimer_run, bad):
        grid = TimeGrid(1.0, 10)
        engine = KernelEngine(trimer_run.model, trimer_run.thermal, grid)
        mem = engine.g0.memory_kernel().copy()
        mem[6, 2, 1, 0] = bad
        # set before first use: every check then reads this kernel
        engine.gxi = VolterraOperator(grid, engine.p, mem=mem)
        report = verify_dyson(engine)
        failed = {c.name for c in report.checks if not c.passed}
        assert {"reducible_dyson", "volterra_constant_gxi"} <= failed
        assert not report.passed

    def test_sample_restricted_residual_tracks_full(self, ref_engine_25):
        report = verify_dyson(ref_engine_25)
        assert report.residual("sample_restricted_dyson") <= (
            report.residual("irreducible_dyson") + 1e-12
        )

    def test_fit_convergence_order_on_synthetic_data(self):
        deltas = [0.1, 0.05, 0.025]
        residuals = [d**2 for d in deltas]
        assert fit_convergence_order(deltas, residuals) == pytest.approx(2.0, abs=1e-12)


class TestApproxSplit:
    def test_exact_self_energy_reproduces_solution(self, ref_engine_25):
        g_app, residual = approx_split(
            ref_engine_25.sigma, ref_engine_25.sigma, ref_engine_25.g0, ref_engine_25.g_alg
        )
        assert residual <= 1e-11
        assert (g_app - ref_engine_25.g_alg).max_abs() <= 1e-11

    def test_zero_approximation_reduces_to_free(self, ref_engine_25):
        zero = ref_engine_25.sigma.scale(0.0)
        g_app, residual = approx_split(
            ref_engine_25.sigma, zero, ref_engine_25.g0, ref_engine_25.g_alg
        )
        assert residual <= 1e-11
        assert (g_app - ref_engine_25.g0).max_abs() <= 1e-12


class TestOrderingInvariance:
    def test_reversed_sign_order_kernels_agree(self, trimer_run):
        base = trimer_run.model
        reversed_model = Model(
            one_particle=base.one_particle,
            interaction=base.interaction,
            sign_order=tuple(reversed(range(base.num_sites))),
        )
        grid = TimeGrid(1.5, 10)
        eng_a = KernelEngine(base, trimer_run.thermal, grid)
        eng_b = KernelEngine(reversed_model, trimer_run.thermal, grid)
        assert np.max(np.abs(eng_a.gxi.memory_kernel() - eng_b.gxi.memory_kernel())) <= 1e-10
        assert (
            np.max(np.abs(eng_a.sigma_tilde.memory_kernel() - eng_b.sigma_tilde.memory_kernel()))
            <= 1e-10
        )
        assert (
            np.max(np.abs(eng_a.sigma_tilde.instantaneous() - eng_b.sigma_tilde.instantaneous()))
            <= 1e-10
        )


class TestIdentityOperator:
    def test_identity_composition_neutral_on_kernels(self, ref_engine_25):
        ident = identity_volterra(ref_engine_25.grid, 6)
        np.testing.assert_array_equal((ident @ ref_engine_25.g0).flat, ref_engine_25.g0.flat)
