"""Acceptance suite on the reference model.

Reference model: 2-site interacting sample between two 2-site leads
(d = 6, 64 many-body states), beta = 1, mu = 0, xi = 0.5, bias (0.4, -0.4),
pair weight w(s0, s1) = 1, horizon T = 4, grids N_t in {25, 50, 100}.
Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to stream
them) and asserts at its stated tolerance.
"""

import json
import os
import random

import numpy as np

from conftest import run_child, trimer_config
from oracles import memory_kernel, report_json
from pfnegf.config import parse_config, reference_config
from pfnegf.fock import anticommutator, identity_operator, ladder_op
from pfnegf.grid import TimeGrid
from pfnegf.negf import KernelEngine, verify_dyson
from pfnegf.thermal import (
    gamma_closed_form,
    gibbs,
    pf_expectation_via_gamma,
    picard_gamma,
    random_number_conserving_hermitian,
)


def record(criterion: str, value: float, tolerance: float, passed: bool) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"{verdict} {criterion}: value={value:.6e} tolerance={tolerance:.6e}")
    assert passed, f"{criterion}: {value!r} exceeds {tolerance!r}"


class TestAcceptance:
    def test_criterion_01_car_suite(self, reference_run):
        space = reference_run.model.space
        ident = identity_operator(space)
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(20):
            f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            mixed = anticommutator(
                ladder_op(space, f, "annihilate"), ladder_op(space, g, "create")
            ) - complex(np.vdot(f, g)) * ident
            pair = anticommutator(
                ladder_op(space, f, "annihilate"), ladder_op(space, g, "annihilate")
            )
            worst = max(worst, mixed.max_abs(), pair.max_abs())
        record("criterion-01 CAR suite", worst, 1e-12, worst <= 1e-12)

    def test_criterion_02_noninteracting_reduction(self, reference_run):
        cfg = reference_config()
        cfg["sample"]["xi"] = 0.0
        from pfnegf.config import parse_config

        run = parse_config(cfg)
        engine = KernelEngine(run.model, run.thermal, TimeGrid(run.horizon, 50))
        diff = float(np.max(np.abs(memory_kernel(engine.gxi) - memory_kernel(engine.g0))))
        record("criterion-02 noninteracting reduction", diff, 1e-9, diff <= 1e-9)

    def test_criterion_03_one_particle_oracle(self, reference_run):
        cfg = reference_config()
        cfg["sample"]["xi"] = 0.0
        from pfnegf.config import parse_config

        run = parse_config(cfg)
        grid = TimeGrid(run.horizon, 50)
        engine = KernelEngine(run.model, run.thermal, grid)
        lam, v = np.linalg.eigh(run.model.h_biased)
        mem = memory_kernel(engine.gxi)
        worst = 0.0
        for k in range(grid.n_nodes):
            for l in range(k + 1):
                phase = np.exp(-1j * (grid.nodes[k] - grid.nodes[l]) * lam)
                oracle = -1j * (v * phase[None, :]) @ np.conj(v.T)
                worst = max(worst, float(np.max(np.abs(mem[k, l] - oracle))))
        record("criterion-03 one-particle oracle", worst, 1e-9, worst <= 1e-9)

    def test_criterion_04_gamma_identity(self, reference_run, reference_rho):
        model = reference_run.model
        beta = reference_run.thermal.beta
        gamma, info = picard_gamma(model.K_D, model.H_T, beta)
        spectral = (gamma - gamma_closed_form(model.K_D, model.K_0, beta)).norm2()
        record(
            "criterion-04a dressing-operator identity",
            spectral,
            1e-8,
            spectral <= 1e-8 and info.converged,
        )
        rho_d = gibbs(model.K_D, reference_run.thermal, model.N_total, label="decoupled")
        rng = random.Random(99)
        worst = 0.0
        for _ in range(10):
            obs = random_number_conserving_hermitian(model.space, rng)
            direct = reference_rho.expectation(obs)
            dressed = pf_expectation_via_gamma(rho_d, gamma, obs)
            assert abs(direct) > 1e-3
            worst = max(worst, abs(dressed - direct) / abs(direct))
        record("criterion-04b dressed expectations", worst, 1e-9, worst <= 1e-9)

    def test_criterion_05_reducible_dyson_convergence(self, ref_engine_50, ref_engine_100):
        r50 = verify_dyson(ref_engine_50).residual("reducible_dyson")
        r100 = verify_dyson(ref_engine_100).residual("reducible_dyson")
        ratio = r50 / r100
        record(
            "criterion-05a Richardson ratio (reducible Dyson)",
            ratio,
            5.0,
            3.0 <= ratio <= 5.0,
        )
        record("criterion-05b absolute residual at N_t=100", r100, 1e-3, r100 <= 1e-3)

    def test_criterion_06_exact_algebra_identities(self, ref_engine_50, ref_engine_100):
        worst = 0.0
        for engine in (ref_engine_50, ref_engine_100):
            report = verify_dyson(engine)
            worst = max(
                worst,
                report.residual("irreducible_dyson"),
                report.residual("resolvent_dyson"),
            )
        record("criterion-06 discrete-algebra consistency", worst, 1e-11, worst <= 1e-11)

    def test_criterion_07_proof_step_orders(self, ref_engine_25, ref_engine_50, ref_engine_100):
        from pfnegf.negf import fit_convergence_order

        engines = (ref_engine_25, ref_engine_50, ref_engine_100)
        deltas = [e.grid.delta for e in engines]
        reports = [verify_dyson(e) for e in engines]
        for key, label in (
            ("fmap_factorization", "criterion-07a consistency-map factorization order"),
            ("fmap_dyson", "criterion-07b integrated equation-of-motion order"),
        ):
            order = fit_convergence_order(deltas, [r.residual(key) for r in reports])
            record(label, order, 2.0, order >= 2.0 - 0.2)

    def test_criterion_08_lead_support(self, ref_engine_100):
        report = verify_dyson(ref_engine_100)
        value = report.residual("lead_support")
        record("criterion-08 lead support of self-energies", value, 1e-12, value <= 1e-12)

    def test_criterion_09_volterra_bounds(self, ref_engine_100):
        c_gxi = ref_engine_100.gxi.volterra_constant()
        c_g0 = ref_engine_100.g0.volterra_constant()
        record("criterion-09a interacting kernel constant", c_gxi, 2.0 + 1e-10, c_gxi <= 2.0 + 1e-10)
        record("criterion-09b free kernel constant", c_g0, 1.0 + 1e-12, c_g0 <= 1.0 + 1e-12)

    def test_criterion_10_equal_time_and_pairing(self, ref_engine_100):
        report = verify_dyson(ref_engine_100)
        et = report.residual("equal_time_normalization")
        hp = report.residual("hermitian_pairing")
        record("criterion-10a equal-time normalization", et, 1e-10, et <= 1e-10)
        record("criterion-10b Hermitian pairing", hp, 1e-10, hp <= 1e-10)

    def test_criterion_11_approximate_splitting(self, ref_engine_100):
        report = verify_dyson(ref_engine_100)
        worst = max(
            report.residual("approx_split_zero"),
            report.residual("approx_split_half"),
            report.residual("approx_split_instantaneous"),
        )
        record("criterion-11 approximate-propagator splitting", worst, 1e-11, worst <= 1e-11)

    def test_criterion_12a_cli_determinism(self, tmp_path):
        cfg_data = trimer_config()
        cfg_data["tasks"] = ["g0", "gxi", "sigma", "verify"]
        cfg_data["grid"]["steps"] = 20
        cfg_data["tolerances"] = {
            name: 0.1 for name in ("reducible_dyson", "fmap_factorization", "fmap_dyson")
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_data))
        trees = []
        for out in ("out1", "out2"):
            # a child process each: the rerun shares no state with its predecessor,
            # and the pair is the suite's run of ``python -m pfnegf.cli``
            result = run_child(["-m", "pfnegf.cli", "run", str(cfg), "--out", str(tmp_path / out)], tmp_path)
            assert result.returncode == 0, result.stderr
            tree = {}
            for name in sorted(os.listdir(tmp_path / out)):
                tree[name] = (tmp_path / out / name).read_bytes()
            trees.append(tree)
        identical = trees[0] == trees[1]
        record("criterion-12a bit-identical reruns", float(not identical), 0.0, identical)

    def test_criterion_12b_storage_strategies(self):
        # the retired strategy key selects nothing: the Dyson report of a
        # config that carries it is byte-equal to that of one without it
        reports = []
        for extra in ({}, {"strategy": "history"}, {"strategy": "recompute"}):
            run = parse_config(reference_config() | extra)
            engine = KernelEngine(run.model, run.thermal, TimeGrid(run.horizon, 25))
            reports.append(report_json(verify_dyson(engine, run.tolerances, run.model_hash)))
        differing = sum(report != reports[0] for report in reports[1:])
        record("criterion-12b storage strategies agree", float(differing), 0.0, differing == 0)
