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
from pfnegf.propagation import CorrelatorGrid
from pfnegf.volterra import VolterraOperator

from oracles import f_map, identity_volterra, memory_kernel


def noninteracting_reference():
    cfg = reference_config()
    cfg["sample"]["xi"] = 0.0
    return parse_config(cfg)


@pytest.fixture(scope="module")
def ref_engine_xi0():
    run = noninteracting_reference()
    return KernelEngine(run.model, run.thermal, TimeGrid(run.horizon, 40))


def copied_kernel(values, prefactor):
    """A causal kernel as a transposed copy of its grid, acausal part zeroed, then scaled."""
    kernel = values.transpose(2, 3, 0, 1).copy()
    kernel[np.triu_indices(values.shape[2], k=1)] = 0.0
    kernel *= prefactor
    return kernel


class TestKernelsFromGrids:
    @pytest.mark.parametrize("engine_name", ["trimer_engine", "ref_engine_25"])
    def test_operators_equal_the_copy_path(self, request, engine_name):
        # each grid is handed to its packed operator in place, byte for byte
        # what packing a contiguous copy of the causal kernel gives
        engine = request.getfixturevalue(engine_name)
        factory, grid, p = engine.factory, engine.grid, engine.p
        contact, _ = engine.contact_expectations
        copied = {
            "gxi": VolterraOperator(
                grid, p, mem=copied_kernel(factory.anticommutator_grid("a", "a", full=True).values, -1j)
            ),
            "sigma_tilde": VolterraOperator(
                grid,
                p,
                mem=copied_kernel(factory.anticommutator_grid("b", "b").values, -1j),
                inst=(1j * contact).transpose(2, 0, 1).copy(),
            ),
            "f_map": VolterraOperator(
                grid, p, mem=copied_kernel(factory.anticommutator_grid("a", "b").values, 1.0)
            ),
        }
        built = {"gxi": engine.gxi, "sigma_tilde": engine.sigma_tilde, "f_map": f_map(engine)}
        for name, expected in copied.items():
            op = built[name]
            assert op.panels().tobytes() == expected.panels().tobytes(), name
            assert memory_kernel(op).tobytes() == memory_kernel(expected).tobytes(), name
            assert op.instantaneous().tobytes() == expected.instantaneous().tobytes(), name
        # the engine keeps operators, never a grid
        assert not any(isinstance(value, CorrelatorGrid) for value in vars(engine).values())


class TestFreeKernel:
    def test_equal_time_blocks(self, reference_run):
        g0 = compute_g0(reference_run.model.h_biased, TimeGrid(2.0, 10))
        mem = memory_kernel(g0)
        for k in range(11):
            np.testing.assert_allclose(mem[k, k], -1j * np.eye(6), atol=0)

    def test_dimer_cosine(self, dimer_dict):
        # closed 2x2 form: <s0|exp(-i t h)|s0> = cos(tau t) for h = [[0,tau],[tau,0]]
        run = parse_config(dimer_dict)
        tau = 0.7
        grid = TimeGrid(3.0, 30)
        g0 = compute_g0(run.model.h_biased, grid)
        mem = memory_kernel(g0.restrict(np.arange(1)))
        for k in range(grid.n_nodes):
            assert mem[k, 0, 0, 0] == pytest.approx(-1j * np.cos(tau * grid.nodes[k]), abs=1e-12)

    def test_restriction_matches_full(self, reference_run):
        grid = TimeGrid(2.0, 10)
        g0 = compute_g0(reference_run.model.h_biased, grid)
        sub = g0.restrict(np.arange(2))
        np.testing.assert_array_equal(memory_kernel(sub), memory_kernel(g0)[:, :, :2, :2])

    def test_volterra_constant_is_unitary_bound(self, reference_run):
        g0 = compute_g0(reference_run.model.h_biased, TimeGrid(2.0, 10))
        assert g0.volterra_constant() <= 1.0 + 1e-12

    def test_nan_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            compute_g0(np.array([[0.0, np.nan], [np.nan, 0.0]]), TimeGrid(1.0, 2))


class TestInteractingKernel:
    def test_noninteracting_reduction(self, ref_engine_xi0):
        diff = np.max(
            np.abs(memory_kernel(ref_engine_xi0.gxi) - memory_kernel(ref_engine_xi0.g0))
        )
        assert diff <= 1e-9

    def test_equal_time_normalization(self, ref_engine_25):
        mem = memory_kernel(ref_engine_25.gxi)
        for k in range(ref_engine_25.grid.n_nodes):
            np.testing.assert_allclose(mem[k, k], -1j * np.eye(6), atol=1e-10)

    def test_volterra_constant_bound(self, ref_engine_25):
        assert ref_engine_25.gxi.volterra_constant() <= 2.0 + 1e-10

    def test_memory_only(self, ref_engine_25):
        assert not ref_engine_25.gxi.has_instantaneous()


class TestSelfEnergy:
    def test_noninteracting_self_energy_vanishes(self, ref_engine_xi0):
        sigma_tilde = ref_engine_xi0.sigma_tilde
        assert np.max(np.abs(memory_kernel(sigma_tilde))) == 0.0
        assert np.max(np.abs(sigma_tilde.instantaneous())) == 0.0
        assert np.max(np.abs(memory_kernel(f_map(ref_engine_xi0)))) == 0.0

    def test_lead_support_exact(self, ref_engine_25):
        ns = ref_engine_25.model.num_sample
        for op in (ref_engine_25.sigma_tilde,):
            mem, inst = memory_kernel(op), op.instantaneous()
            assert np.max(np.abs(mem[:, :, ns:, :])) == 0.0
            assert np.max(np.abs(mem[:, :, :, ns:])) == 0.0
            assert np.max(np.abs(inst[:, ns:, :])) == 0.0
            assert np.max(np.abs(inst[:, :, ns:])) == 0.0

    def test_irreducible_support(self, ref_engine_25):
        ns = ref_engine_25.model.num_sample
        sigma = ref_engine_25.sigma
        mask = np.ones((6, 6), dtype=bool)
        mask[:ns, :ns] = False
        assert np.max(np.abs(memory_kernel(sigma)[..., mask])) <= 1e-12
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
        mem = memory_kernel(f_map(ref_engine_25))
        assert np.max(np.abs(mem[:, :, ns:, :])) == 0.0

    @pytest.mark.parametrize("engine_name", ["ref_engine_25", "trimer_engine"])
    def test_f_equal_time_diagonal_is_the_contact_part(self, request, engine_name):
        # F(j,t; m,t) = <{a*(e_m), b(e_j)}(t)>: the correlator sweep and the
        # evolved contact operators reach it along independent paths
        engine = request.getfixturevalue(engine_name)
        n, ns = engine.grid.n_nodes, engine.model.num_sample
        diag = memory_kernel(f_map(engine))[np.arange(n), np.arange(n)]
        contact = engine.contact_expectations[0].transpose(2, 0, 1)
        assert np.max(np.abs(diag[:, :ns, :ns] - contact[:, :ns, :ns])) <= 1e-13
        assert np.max(np.abs(diag[:, :ns, ns:] - contact[:, :ns, ns:])) <= 1e-14
        assert np.max(np.abs(diag[:, ns:] - contact[:, ns:])) == 0.0


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
        full = engine.factory.anticommutator_grid("a", "a", full=True)
        causal = engine.factory.anticommutator_grid("a", "a")
        assert full.causal_kernel(-1j).tobytes() == causal.causal_kernel(-1j).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_kernel_fails_its_checks(self, trimer_run, bad):
        grid = TimeGrid(1.0, 10)
        engine = KernelEngine(trimer_run.model, trimer_run.thermal, grid)
        mem = memory_kernel(engine.g0).copy()
        mem[6, 2, 1, 0] = bad
        # set before first use: every check then reads this kernel
        engine.gxi = VolterraOperator(grid, engine.p, mem=mem)
        report = verify_dyson(engine)
        failed = {c.name for c in report.checks if not c.passed}
        assert {"reducible_dyson", "volterra_constant_gxi"} <= failed
        assert not report.passed

    def test_contact_lead_defect_sees_a_nan(self, trimer_dict, monkeypatch):
        run = parse_config(trimer_dict)
        model, contact = run.model, run.model.contact_operator
        ns = model.num_sample

        def nan_on_leads(j, m):
            return contact(j, m) * np.nan if max(j, m) >= ns else contact(j, m)

        monkeypatch.setattr(model, "contact_operator", nan_on_leads)
        engine = KernelEngine(model, run.thermal, TimeGrid(1.0, 4))
        assert np.isnan(engine.contact_expectations[1])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("part", ["kernel", "instantaneous"])
    def test_lead_support_sees_a_nan_in_sigma(self, trimer_run, part):
        grid = TimeGrid(1.0, 10)
        engine = KernelEngine(trimer_run.model, trimer_run.thermal, grid)
        p, n = engine.p, grid.n_nodes
        # a nan in a lead block of Sigma, the second of the four support terms
        if part == "kernel":
            mem = np.zeros((n, n, p, p), dtype=complex)
            mem[6, 2, p - 1, 0] = np.nan
            engine.sigma = VolterraOperator(grid, p, mem=mem)
        else:
            inst = np.zeros((n, p, p), dtype=complex)
            inst[6, p - 1, 0] = np.nan
            engine.sigma = VolterraOperator(grid, p, inst=inst)
        report = verify_dyson(engine)
        assert np.isnan(report.residual("lead_support"))
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "residuals", [[0.0, 0.0], [1e-3, 0.0], [np.nan, 1e-3], [1e-3, np.inf], [-1e-3, 1e-4]]
    )
    def test_fit_convergence_order_is_nan_without_a_log(self, residuals):
        # a residual with no finite logarithm gives a nan order, without a warning
        assert np.isnan(fit_convergence_order([0.1, 0.05], residuals))


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
        assert np.max(np.abs(memory_kernel(eng_a.gxi) - memory_kernel(eng_b.gxi))) <= 1e-10
        assert (
            np.max(np.abs(memory_kernel(eng_a.sigma_tilde) - memory_kernel(eng_b.sigma_tilde)))
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
