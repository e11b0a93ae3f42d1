import collections
import io
import json
import tracemalloc

import numpy as np
import pytest

from pfnegf.config import parse_config, reference_config
from pfnegf.errors import MemoryBudgetError
from pfnegf.grid import TimeGrid
from pfnegf import negf, volterra
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
from pfnegf.propagation import CorrelatorFactory, CorrelatorGrid
from pfnegf.volterra import VolterraOperator, dump_kernel, packed_size

from oracles import (
    dense_kernel,
    dense_matrix,
    embedded_operator,
    f_map,
    full_forward_substitution,
    full_grid,
    identity_volterra,
    memory_kernel,
    packed_kernel_bytes,
)


def noninteracting_reference():
    cfg = reference_config()
    cfg["sample"]["xi"] = 0.0
    return parse_config(cfg)


@pytest.fixture(scope="module")
def ref_engine_xi0():
    run = noninteracting_reference()
    return KernelEngine(run.model, run.thermal, TimeGrid(run.horizon, 40))


@pytest.fixture(scope="module")
def lead3_engine_25():
    """The reference model with one more site at the far end of each lead (p = 8)."""
    cfg = reference_config()
    for lead in cfg["leads"]:
        sites, new = lead["sites"], lead["sites"][-1][:-1] + str(len(lead["sites"]))
        lead["hoppings"].append([sites[-1], new, 1.0])
        lead["coupling"]["f"].append(0.0)
        sites.append(new)
    run = parse_config(cfg)
    assert run.model.num_sites == 8
    return KernelEngine(run.model, run.thermal, TimeGrid(run.horizon, 25))


def copied_kernel(corr, p, prefactor=None):
    """A causal kernel as a transposed copy of its grid over all ``p`` rows, acausal part zeroed, then scaled if a prefactor is given."""
    kernel = full_grid(corr, p).transpose(2, 3, 0, 1).copy()
    kernel[np.triu_indices(kernel.shape[0], k=1)] = 0.0
    if prefactor is not None:
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
                grid, p, mem=copied_kernel(factory.anticommutator_grid("a", "a", full=True), p, -1j)
            ),
            "sigma_tilde": VolterraOperator(
                grid,
                p,
                mem=copied_kernel(factory.anticommutator_grid("b", "b"), p, -1j),
                inst=(1j * contact).transpose(2, 0, 1).copy(),
            ),
            "f_map": VolterraOperator(
                grid, p, mem=copied_kernel(factory.anticommutator_grid("a", "b"), p)
            ),
        }
        built = {"gxi": engine.gxi, "sigma_tilde": engine.sigma_tilde, "f_map": f_map(engine)}
        for name, expected in copied.items():
            op = built[name]
            assert op.flat.tobytes() == expected.flat.tobytes(), name
            assert memory_kernel(op).tobytes() == memory_kernel(expected).tobytes(), name
            assert op.instantaneous().tobytes() == expected.instantaneous().tobytes(), name
        # the engine keeps operators, never a grid
        assert not any(isinstance(value, CorrelatorGrid) for value in vars(engine).values())


class TestConstruction:
    def test_every_kernel_and_residual_is_built_at_construction(self, trimer_engine):
        names = {"g0", "contact_expectations", "pairing_defect", "gxi", "sigma_tilde", "sigma", "g_alg", "quadrature"}
        assert names <= vars(trimer_engine).keys()

    def test_tile_budget_is_checked_at_construction(self, reference_run):
        # the geometry of the CLI's recompute memory-guard test: the Volterra
        # algebra of 3 nodes fits 200 kB, the tiles of the ladder grid do not
        grid = TimeGrid(reference_run.horizon, 2)
        with pytest.raises(MemoryBudgetError, match="^one held and one D tile need"):
            KernelEngine(reference_run.model, reference_run.thermal, grid, budget=200_000)


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

    def test_noninteracting_kernel_is_signed_zero(self, ref_engine_xi0):
        # the dressed grid holds no row, so every packed entry is +0.0 * -1j,
        # bit for bit what the zero-filled dense route packs
        engine = ref_engine_xi0
        dressed = engine.factory.anticommutator_grid("b", "b")
        assert dressed.rows.size == 0
        sigma_tilde = engine.sigma_tilde
        oracle = embedded_operator(dressed, engine.grid, engine.p, -1j, inst=sigma_tilde.instantaneous())
        packed = np.frombuffer(packed_kernel_bytes(sigma_tilde), dtype=complex)
        assert packed.size and not packed.any()
        assert not np.signbit(packed.real).any() and np.signbit(packed.imag).all()
        assert packed_kernel_bytes(sigma_tilde) == packed_kernel_bytes(oracle)
        assert sigma_tilde.flat.tobytes() == oracle.flat.tobytes()
        texts = []
        for op in (sigma_tilde, oracle):
            texts.append(io.StringIO())
            dump_kernel(op, [f"o{i}" for i in range(engine.p)], texts[-1], "sigma_tilde")
        assert texts[0].getvalue() == texts[1].getvalue()
        assert "\n0,0,0,0,0.0,-0.0\n" in texts[0].getvalue()

    def test_lead_support_exact(self, ref_engine_25):
        ns = ref_engine_25.model.num_sample
        for op in (ref_engine_25.sigma_tilde,):
            mem, inst = memory_kernel(op), op.instantaneous()
            assert np.max(np.abs(mem[:, :, ns:, :])) == 0.0
            assert np.max(np.abs(mem[:, :, :, ns:])) == 0.0
            assert np.max(np.abs(inst[:, ns:, :])) == 0.0
            assert np.max(np.abs(inst[:, :, ns:])) == 0.0

    def test_irreducible_support(self, ref_engine_25, lead3_engine_25):
        # the lead blocks of Sigma come out of the full p x p forward
        # substitution exactly zero, kernel and instantaneous part alike;
        # the engine's Sigma, held on its support, agrees with that route
        for engine in (ref_engine_25, lead3_engine_25):
            ns, p, grid = engine.model.num_sample, engine.p, engine.grid
            g0, sigma_tilde = dense_matrix(engine.g0), dense_matrix(engine.sigma_tilde)
            full = full_forward_substitution(sigma_tilde @ g0, sigma_tilde, p)
            inst = engine.sigma_tilde.instantaneous()  # Sigma~ G0 has no instantaneous part
            kernel = dense_kernel(full, inst, grid, p)
            mask = np.ones((p, p), dtype=bool)
            mask[:ns, :ns] = False
            assert np.max(np.abs(kernel[..., mask])) == 0.0, p
            assert np.max(np.abs(inst[:, mask])) == 0.0, p
            sigma = engine.sigma
            assert sigma.rows.tolist() == sigma.cols.tolist() == list(range(ns))
            sample = np.ix_(sigma.rows, sigma.cols)
            held = memory_kernel(sigma)[:, :, sample[0], sample[1]]
            assert np.max(np.abs(held - kernel[:, :, sample[0], sample[1]])) <= 1e-13 * np.max(np.abs(held))
            np.testing.assert_array_equal(sigma.instantaneous(), inst)
            assert np.max(np.abs(memory_kernel(sigma)[..., mask])) == 0.0, p

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
        residual_resolvent = (dyson_solution(g0, g0 @ sigma) - g_alg).max_abs()
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
        # task does, serves that row with the residuals it holds and gives the
        # table of a fresh engine byte for byte; configs that still carry the retired
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
        assert full.causal_kernel().tobytes() == causal.causal_kernel().tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_kernel_fails_its_checks(self, trimer_run, bad, monkeypatch):
        # one causal off-diagonal entry of the ladder grid, poisoned before the
        # engine packs it into Gxi, makes the residuals that weigh Gxi's
        # memory kernel non-finite
        sweep = CorrelatorFactory.anticommutator_grid

        def poisoned(factory, *args, **kwargs):
            grid = sweep(factory, *args, **kwargs)
            grid.values[1, 0, 6, 2] = bad  # j, m, k, l with l < k
            return grid

        monkeypatch.setattr(CorrelatorFactory, "anticommutator_grid", poisoned)
        engine = KernelEngine(trimer_run.model, trimer_run.thermal, TimeGrid(1.0, 10))
        assert not np.isfinite(memory_kernel(engine.gxi)[6, 2, 1, 0])
        report = verify_dyson(engine)
        for name in ("reducible_dyson", "fmap_dyson", "volterra_constant_gxi"):
            assert not np.isfinite(report.residual(name)), name
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


class TestSharedProducts:
    """Products that two checks share are formed once and give the fresh residuals."""

    def test_compose_count(self, reference_run, monkeypatch):
        calls = []
        compose = VolterraOperator.compose

        def counted(self, other):
            calls.append(1)
            return compose(self, other)

        monkeypatch.setattr(VolterraOperator, "compose", counted)
        engine = KernelEngine(reference_run.model, reference_run.thermal, TimeGrid(reference_run.horizon, 25))
        verify_dyson(engine)
        assert len(calls) <= 17

    def test_residuals_equal_fresh_expressions(self, ref_engine_25):
        engine = ref_engine_25
        report = verify_dyson(engine)
        g0, sigma, g_alg = engine.g0, engine.sigma, engine.g_alg
        grid, p = engine.grid, engine.p
        assert sigma.panels().tobytes() == irreducible_sigma(g0, engine.sigma_tilde).panels().tobytes()
        fresh = {
            "irreducible_dyson": (g_alg - g0 - g0 @ sigma @ g_alg).max_abs(),
            "resolvent_dyson": (dyson_solution(g0, g0 @ sigma) - g_alg).max_abs(),
        }
        for name, sigma_app in (
            ("approx_split_zero", VolterraOperator(grid, p, inst=np.zeros((grid.n_nodes, p, p)))),
            ("approx_split_half", sigma.scale(0.5)),
            (
                "approx_split_instantaneous",
                VolterraOperator(grid, p, inst=sigma.instantaneous().copy(), rows=sigma.rows, cols=sigma.cols),
            ),
        ):
            fresh[name] = approx_split(sigma, sigma_app, g0, g_alg)[1]
        for name, residual in fresh.items():
            assert report.residual(name) == residual, name


class TestTileRowEvaluation:
    """Residuals and ``g_alg`` are formed one tile row at a time, so few full-p buffers are live at once."""

    def test_live_peak_in_full_p_buffers(self, reference_run, monkeypatch):
        # 101 nodes are 7 tile rows; at 26 nodes each of the 2 rows holds about
        # half an operator, and one residual formed whole adds too little to
        # tell.  Measured with numpy 2.4: 2.21 after the sweep and 1.84 in
        # verify.  Formed whole, g_alg reads 2.33 after the sweep, and
        # reducible_dyson 2.79 and fmap_dyson 3.49; in verify an approximate
        # split's G_app reads 2.38, resolvent_dyson 2.58 and
        # irreducible_dyson 3.34.  Each bound sits between the two.
        run, grid = reference_run, TimeGrid(reference_run.horizon, 100)
        buffer = 16 * packed_size(grid.n_nodes, run.model.num_sites)  # complex128
        contact = negf._contact_expectations

        def traced_from_here(*args):
            # the engine calls _contact_expectations first once the sweep is
            # done, Gxi packed and the ladder grid dropped; what follows is the
            # algebra, its kept outputs included
            tracemalloc.start()
            return contact(*args)

        monkeypatch.setattr(negf, "_contact_expectations", traced_from_here)
        try:
            engine = KernelEngine(run.model, run.thermal, grid)
            algebra = tracemalloc.get_traced_memory()[1] / buffer
            tracemalloc.stop()
            tracemalloc.start()
            verify_dyson(engine)
            checks = tracemalloc.get_traced_memory()[1] / buffer
        finally:
            tracemalloc.stop()
        assert algebra <= 2.27
        assert checks <= 2.1


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


class TestSplitCounts:
    """Counted costs of one approximate split (ROADMAP direction 8): each product tile row is formed once."""

    def test_each_product_row_is_formed_once(self, ref_engine_100, monkeypatch):
        # G_app = G0 - (-G0 Sigma_app) X_S is read as a term of the residual and as the left
        # factor of (G_app (Sigma - Sigma_app)) G_ref; its product rows are formed once for both
        e = ref_engine_100
        reads, product_reader = collections.Counter(), volterra._product_reader

        def counted(a, b, *args):
            read = product_reader(a, b, *args)

            def counting(i, out=None):
                reads[id(a), id(b), i] += 1
                return read(i, out)

            return counting

        monkeypatch.setattr(volterra, "_product_reader", counted)
        instantaneous = VolterraOperator(e.grid, e.p, inst=e.sigma.instantaneous(), rows=e.sigma.rows, cols=e.sigma.cols)
        for sigma_app in (e.sigma.scale(0.5), instantaneous):
            reads.clear()
            g_app, residual = approx_split(e.sigma, sigma_app, e.g0, e.g_alg)
            (_, solved_product, _), = [term for term in g_app.terms if term[2] is None and term[1] is not e.g0]
            (_, left, right), = solved_product.terms
            rows = len(range(0, e.grid.n_nodes, volterra.TILE_NODES))
            # G0 Sigma_app, G_app's product, G_app (Sigma - Sigma_app) and its product with G_ref
            assert len(reads) == 4 * rows and set(reads.values()) == {1}
            assert [reads[id(left), id(right), i] for i in range(rows)] == [1] * rows
            assert residual <= DEFAULT_TOLERANCES["approx_split_half"]

    def test_instantaneous_split_weighs_no_kernel(self, ref_engine_100):
        # Sigma_app from the instantaneous part alone, held as its matrix: the same residual bits,
        # and a read of it is a view of the one buffer it holds
        e = ref_engine_100
        built = VolterraOperator(e.grid, e.p, inst=e.sigma.instantaneous().copy(), rows=e.sigma.rows, cols=e.sigma.cols)
        held = built.holding_matrix()
        assert held.panels().tobytes() == built.panels().tobytes()
        assert held.instantaneous().tobytes() == built.instantaneous().tobytes()
        read, rows = held._reader(held.rows, held.cols), len(range(0, e.grid.n_nodes, volterra.TILE_NODES))
        assert all(np.shares_memory(read(i), held.panels()) for i in range(rows))
        residuals = [approx_split(e.sigma, sigma_app, e.g0, e.g_alg)[1] for sigma_app in (built, held)]
        assert repr(residuals[0]) == repr(residuals[1])


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
