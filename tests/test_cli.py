import copy
import dataclasses
import hashlib
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import DUMP_DAMAGES, damage_dump, dimer_config, run_child, run_cli, trimer_config
from pfnegf.config import parse_config, reference_config
from pfnegf.errors import ConfigError
from pfnegf.negf import DEFAULT_TOLERANCES
from pfnegf.propagation import CorrelatorFactory
from pfnegf.thermal import gibbs

THREAD_VARS = ("NEGF_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for fname in files:
            path = os.path.join(dirpath, fname)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


class TestRun:
    @pytest.fixture(scope="class")
    def trimer_12(self, tmp_path_factory):
        """One run of the 12-step trimer with g0, gxi, sigma and verify: its
        directory, config path and result; tests only read it."""
        root = tmp_path_factory.mktemp("trimer_12")
        cfg_data = trimer_config()
        cfg_data["tasks"] = ["g0", "gxi", "sigma", "verify"]
        cfg_data["grid"]["steps"] = 12
        # determinism is the point here, not quadrature accuracy
        cfg_data["tolerances"] = {name: 0.1 for name in ("reducible_dyson", "fmap_factorization", "fmap_dyson")}
        cfg = write_config(root, cfg_data)
        return root, cfg, run_cli(["run", str(cfg), "--out", str(root / "out1")], root)

    def test_g0_task(self, tmp_path):
        cfg = write_config(tmp_path, dimer_config())
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "g0.kernel.csv").exists()

    def test_verify_noninteracting_passes(self, tmp_path):
        cfg_data = trimer_config()
        cfg_data["sample"]["xi"] = 0.0
        cfg_data["tasks"] = ["verify"]
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 0, result.stderr
        report = json.loads((tmp_path / "out" / "dyson_report.json").read_text())
        assert report["pass"] is True

    def test_verify_interacting_reference_scale(self, tmp_path):
        cfg_data = trimer_config()
        cfg_data["tasks"] = ["verify", "gamma-check"]
        cfg_data["grid"]["steps"] = 60
        # quadrature tolerances are calibrated to the reference grid; this
        # model at this grid sits near 1.1e-3, so give it honest headroom
        cfg_data["tolerances"] = {"reducible_dyson": 5e-3, "fmap_dyson": 5e-3}
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 0, result.stderr
        gamma = json.loads((tmp_path / "out" / "gamma_report.json").read_text())
        assert gamma["pass"] is True

    def test_converge_task(self, tmp_path):
        cfg_data = trimer_config()
        cfg_data["tasks"] = ["converge"]
        cfg_data["grid"]["steps"] = [16, 32, 64]
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 0, result.stderr
        summary = json.loads((tmp_path / "out" / "convergence.json").read_text())
        for order in summary["fitted_orders"].values():
            assert order >= 1.8
        assert (tmp_path / "out" / "convergence.csv").exists()

    def test_run_leaves_numpy_ma_unimported(self, tmp_path):
        # numpy's sorting set routines (unique, intersect1d, union1d) import
        # numpy.ma, and numpy.random imports secrets, hashlib and OpenSSL's
        # libcrypto; a run with every task needs none of them
        cfg_data = trimer_config()
        cfg_data["tasks"] = ["g0", "gxi", "sigma", "verify", "converge", "gamma-check"]
        cfg_data["grid"]["steps"] = [6, 12]
        cfg = write_config(tmp_path, cfg_data)
        child = (
            "import json, os, sys\n"
            "from pfnegf.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "maps = open('/proc/self/maps').read() if os.path.exists('/proc/self/maps') else ''\n"
            "loaded = {name: name in sys.modules for name in ('numpy.ma', 'numpy.random', 'secrets', '_hashlib')}\n"
            "print(json.dumps({'code': code, **loaded, 'libcrypto': 'libcrypto' in maps}))\n"
        )
        result = run_child(["-c", child, "run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 0, result.stderr
        # at 6 and 12 steps the quadrature checks fail by design: exit 1
        assert json.loads(result.stdout.splitlines()[-1]) == {
            "code": 1,
            "numpy.ma": False,
            "numpy.random": False,
            "secrets": False,
            "_hashlib": False,
            "libcrypto": False,
        }
        assert len(os.listdir(tmp_path / "out")) == 8

    def test_sigma_task_writes_both_kernels(self, trimer_12):
        root, _, result = trimer_12
        assert result.returncode == 0, result.stderr
        assert (root / "out1" / "sigma_tilde.kernel.csv").exists()
        assert (root / "out1" / "sigma.kernel.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 2
        assert result.error()["type"] == "config"

    def test_unknown_task_exit_code(self, tmp_path):
        cfg_data = dimer_config()
        cfg_data["tasks"] = ["frobnicate"]
        cfg = write_config(tmp_path, cfg_data)
        assert run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path).returncode == 2

    @pytest.mark.parametrize(
        "tolerances, extra, name",
        [
            ({"reducible_dysn": 1e-30}, [], "reducible_dysn"),
            ({}, ["--tolerance", "irreducible_dysn=1e-40"], "irreducible_dysn"),
        ],
        ids=["config", "flag"],
    )
    def test_unknown_tolerance_name_exit_code(self, tmp_path, tolerances, extra, name):
        # a misspelled check name would otherwise leave its default in force
        cfg_data = trimer_config() | {"tolerances": tolerances}
        cfg_data["grid"]["steps"] = 12
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out"), *extra], tmp_path)
        assert result.returncode == 2
        record = result.error()
        assert record["type"] == "config"
        assert name in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--steps", "1"), ("--budget", "0")])
    def test_bad_override_exit_code(self, tmp_path, flag, value):
        # the same bounds the config file enforces: steps >= 2, budget > 0
        cfg = write_config(tmp_path, dimer_config())
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out"), flag, value], tmp_path)
        assert result.returncode == 2
        assert result.error()["type"] == "config"

    def test_memory_guard_exit_code(self, tmp_path):
        # a budget nothing fits aborts at the first guard, before any artifact
        cfg_data = trimer_config()
        cfg_data["tasks"] = ["gxi"]
        cfg_data["budget"] = 100
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 3, result.stderr
        assert result.error()["type"] == "memory"
        assert not (tmp_path / "out" / "gxi.kernel.csv").exists()

    def test_recompute_memory_guard_exit_code(self, tmp_path):
        # the recompute sweep holds one held tile and one D tile, and they must
        # fit too: the Volterra algebra of 3 nodes fits this budget, the tiles
        # of the ladder grid do not
        cfg_data = reference_config() | {"tasks": ["gxi"], "budget": 200_000}
        cfg_data["grid"]["steps"] = 2
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 3, result.stderr
        record = result.error()
        assert record["type"] == "memory"
        assert "one held and one D tile need" in record["message"]
        assert not (tmp_path / "out" / "gxi.kernel.csv").exists()

    def test_algebra_memory_guard_exit_code(self, tmp_path):
        # the correlator tiles fit this budget; the Volterra algebra of verify does not
        cfg_data = trimer_config()
        cfg_data["grid"]["steps"] = 60
        cfg_data["tolerances"] = {"reducible_dyson": 5e-3, "fmap_dyson": 5e-3}
        budget = 1_000_000
        run = parse_config(cfg_data)
        rho = gibbs(run.model.K_0, run.thermal, run.model.N_total)
        factory = CorrelatorFactory(rho, run.model.K_v, run.grid(), budget=budget)
        factory.add_family("b", list(run.model.dressed_creation_family))
        factory.anticommutator_grid("b", "b")
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(
            ["run", str(cfg), "--out", str(tmp_path / "out"), "--budget", str(budget)], tmp_path
        )
        assert result.returncode == 3, result.stderr
        record = result.error()
        assert record["type"] == "memory"
        assert "Volterra algebra" in record["message"]

    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "under-file"])
    def test_unusable_out_path_exit_code(self, tmp_path, out):
        # --out naming an existing file (or a path under one) is a usage error
        (tmp_path / "taken").write_text("not a directory\n")
        cfg = write_config(tmp_path, dimer_config())
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / out)], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert result.error()["type"] == "output"

    def test_unwritable_artifact_exit_code(self, tmp_path):
        # a directory where the g0 dump should go
        (tmp_path / "out" / "g0.kernel.csv").mkdir(parents=True)
        cfg = write_config(tmp_path, dimer_config())
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert result.error()["type"] == "output"

    @pytest.mark.parametrize(
        "extra", [["--strategy", "auto"], ["--steps", "abc"]], ids=["unknown-flag", "bad-int"]
    )
    def test_usage_error_exit_code(self, tmp_path, extra):
        cfg = write_config(tmp_path, dimer_config())
        result = run_cli(["run", str(cfg), *extra], tmp_path)
        assert result.returncode == 2
        assert result.error()["type"] == "usage"
        assert run_cli(["run", "-h"], tmp_path).returncode == 0

    def test_failed_check_exit_code(self, tmp_path):
        cfg_data = trimer_config()
        cfg_data["grid"]["steps"] = 12
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(
            [
                "run",
                str(cfg),
                "--out",
                str(tmp_path / "out"),
                "--tolerance",
                "equal_time_normalization=1e-30",
            ],
            tmp_path,
        )
        assert result.returncode == 1
        report = json.loads((tmp_path / "out" / "dyson_report.json").read_text())
        assert report["pass"] is False

    def test_reruns_bit_identical(self, tmp_path, trimer_12):
        root, cfg, first = trimer_12
        assert first.returncode == 0, first.stderr
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out2")], tmp_path)
        assert result.returncode == 0, result.stderr
        tree1 = read_tree(root / "out1")
        tree2 = read_tree(tmp_path / "out2")
        assert tree1.keys() == tree2.keys()
        for name in tree1:
            assert tree1[name] == tree2[name], f"artifact {name} differs between reruns"

    def test_negf_num_threads_pins_blas(self, tmp_path):
        # NEGF_NUM_THREADS=1 alone must give the artifacts of an explicit
        # single-thread BLAS run; at 60 steps the sigma kernel's last digits
        # depend on the BLAS thread count on a multi-core machine
        cfg_data = trimer_config()
        cfg_data["tasks"] = ["sigma"]
        cfg_data["grid"]["steps"] = 60
        cfg = write_config(tmp_path, cfg_data)
        base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        settings = {
            "negf": {"NEGF_NUM_THREADS": "1"},
            "explicit": {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
        }
        for out, threads in settings.items():
            result = run_child(["-m", "pfnegf.cli", "run", str(cfg), "--out", str(tmp_path / out)], tmp_path,
                               env={**base, **threads})
            assert result.returncode == 0, result.stderr
        tree1 = read_tree(tmp_path / "negf")
        tree2 = read_tree(tmp_path / "explicit")
        assert tree1.keys() == tree2.keys()
        for name in tree1:
            assert tree1[name] == tree2[name], f"artifact {name} depends on how the thread count is set"


def reference_at_12_steps(**changes):
    cfg = reference_config()
    cfg["grid"]["steps"] = 12
    for path, value in changes.items():
        *outer, key = path.split(".")
        target = cfg
        for part in outer:
            target = target[int(part) if part.isdigit() else part]
        target[int(key) if key.isdigit() else key] = value
    return cfg


class TestNonFiniteResults:
    """A zero residual or an overflow fails its check, exit 1, with strict JSON."""

    def test_zero_residual_converge(self, tmp_path):
        # at xi = 0 the F map and Sigma~ G0 are both exactly zero on every grid
        cfg_data = reference_at_12_steps(**{"sample.xi": 0, "grid.steps": [12, 24], "tasks": ["converge"]})
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 1
        record = result.error()
        assert record["type"] == "check"
        assert "convergence_order_fmap_factorization" in record["message"]
        text = (tmp_path / "out" / "convergence.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        summary = json.loads(text)
        assert summary["rows"][0]["fmap_factorization"] == 0.0
        assert summary["fitted_orders"]["fmap_factorization"] is None
        assert summary["richardson_ratios"]["fmap_factorization"] == [None]

    @pytest.mark.parametrize("beta", [60.0, 400.0])
    def test_gamma_check_overflow(self, tmp_path, beta):
        cfg_data = reference_at_12_steps(**{"thermal.beta": beta, "tasks": ["gamma-check"]})
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 1
        record = result.error()
        assert record == {"type": "check", "message": "failed checks: gamma_check"}
        text = (tmp_path / "out" / "gamma_report.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        report = json.loads(text)
        assert report["pass"] is False and report["picard_converged"] is False
        assert report["picard_final_delta"] is None


class TestMalformedConfig:
    """A value of the wrong type or range is a configuration error, exit 2."""

    @pytest.mark.parametrize(
        "path, value",
        [
            ("tolerances", {"lead_support": None}),
            ("tolerances", {"lead_support": [1e-12]}),
            ("budget", [1]),
            ("budget", 1.5),
            ("budget", True),
            ("grid.steps", None),
            ("grid.steps", [[12]]),
            ("grid.steps", 12.9),
            ("grid.T", 0),
            ("grid.T", -1),
            ("sample.xi", None),
            ("sample.xi", [0.5]),
            ("sample.hoppings", None),
            ("leads.0.coupling.d", None),
            ("leads.0.coupling.d", [0.5]),
            ("tasks", 5),
            # every number is a finite JSON number, in every section
            ("sample.xi", math.nan),
            ("sample.xi", math.inf),
            ("leads.0.coupling.d", math.nan),
            ("leads.0.coupling.d", math.inf),
            ("sample.hoppings.0.2", math.nan),
            ("leads.1.hoppings.0.2", -math.inf),
            ("sample.w.0.2", math.nan),
            ("sample.w.0.2", math.inf),
            ("sample.xi", "0.5"),
            ("thermal.mu", "0"),
            ("grid.T", "4"),
            ("bias", [None, 0.0]),
            ("sample.w.0.2", [1.0, 0.5]),
            ("grid", [4.0, 12]),
            ("tolerances", {"lead_support": math.inf}),
            # rules of RunConfig itself, not only of the command line
            ("tolerances", {"reducible_dysn": 1e-3}),
            ("tolerances", {"lead_support": math.nan}),
            ("tasks", ["verify", "converge"]),
            # a repeated step count would give converge fewer distinct grids
            ("grid.steps", [20, 20]),
            ("grid.steps", [20, 20, 40]),
            # a repeated task would run again
            ("tasks", ["verify", "verify", "g0", "g0"]),
            ("tasks", ["g0", "gxi", "g0"]),
        ],
    )
    def test_parse_rejects(self, path, value):
        with pytest.raises(ConfigError):
            parse_config(reference_at_12_steps(**{path: value}))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            pytest.param("sample.xi", math.nan, "sample.xi: expected a finite number, got nan",
                         id="sample.xi-sample.xi"),
            pytest.param("sample.w.0.2", math.nan, "sample.w[0]: expected a finite number, got nan",
                         id="sample.w.0.2-sample.w[0]"),
            # a site label is a JSON string or number, and a lead is an object
            pytest.param("sample.hoppings.0.0", [1], "sample.hoppings[0]: a site label must be",
                         id="sample.hoppings.0.0-sample.hoppings[0]"),
            pytest.param("sample.w.0.0", [1], "sample.w[0]: a site label must be",
                         id="sample.w.0.0-sample.w[0]"),
            pytest.param("leads.1.hoppings.0.1", None, "leads[1].hoppings[0]: a site label must be",
                         id="leads.1.hoppings.0.1-leads[1].hoppings[0]"),
            pytest.param("sample.sites.0", ["s0"], "sample.sites[0]: a site label must be",
                         id="sample.sites.0-sample.sites[0]"),
            pytest.param("leads.0.sites.1", True, "leads[0].sites[1]: a site label must be",
                         id="leads.0.sites.1-leads[0].sites[1]"),
            pytest.param("sample.sites", "s0", "sample.sites: expected a list of site labels",
                         id="sample.sites-sample.sites"),
            pytest.param("leads.0", ["x"], "leads[0]: expected a JSON object",
                         id="leads.0-leads[0]"),
            pytest.param("grid.steps", [20, 40, 20], "grid.steps: each step count may appear once",
                         id="grid.steps-repeated"),
            pytest.param("sample.w", [["s0", "s1", 1.0], ["s1", "s0", 2.0]],
                         "sample.w[1]: pair ('s1', 's0') is given twice", id="sample.w-repeated"),
            pytest.param("tasks", ["verify", "verify", "g0", "g0"],
                         "tasks: each task may appear once, got 'verify' more than once", id="tasks-repeated"),
        ],
    )
    def test_message_names_the_key(self, path, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(reference_at_12_steps(**{path: value}))

    @pytest.mark.parametrize(
        "path, message",
        [
            ("taks", "taks: unknown key; the root takes"),
            ("sample.xii", "sample.xii: unknown key; sample takes sites, hoppings, w, xi"),
            ("leads.0.site", "leads[0].site: unknown key; leads[0] takes sites, hoppings, coupling"),
            ("leads.1.coupling.h", "leads[1].coupling.h: unknown key; leads[1].coupling takes d, f, g"),
            ("thermal.bta", "thermal.bta: unknown key; thermal takes beta, mu"),
            ("grid.stpes", "grid.stpes: unknown key; grid takes T, steps"),
        ],
        ids=["root", "sample", "lead", "coupling", "thermal", "grid"],
    )
    def test_unknown_key_is_refused(self, path, message):
        # a misspelt key would otherwise fall back to its default: xii leaves xi at 0.0
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(reference_at_12_steps(**{path: 0.5}))

    def test_overrides_are_checked(self):
        config = parse_config(reference_at_12_steps())
        for change in (
            {"steps_list": [1]},
            {"steps_list": [12, 12]},
            {"tasks": ["g0", "g0"]},
            {"budget": 0},
            {"tolerances": {"lead_support": math.nan}},
        ):
            with pytest.raises(ConfigError):
                dataclasses.replace(config, **change)

    @pytest.mark.parametrize(
        "cfg_data, extra",
        [
            (reference_at_12_steps(tolerances={"lead_support": "nan"}), []),
            (reference_at_12_steps(), ["--tolerance", "lead_support=nan"]),
            (reference_at_12_steps(tasks=["g0", "converge"]), ["--steps", "12"]),
            (reference_at_12_steps(**{"grid.steps": [20, 20], "tasks": ["g0", "converge"]}), []),
            (reference_at_12_steps(**{"sample.xii": 0.5}), []),
            # a repeated pair would silently replace the first weight: w would read 2.0
            (reference_at_12_steps(**{"sample.w": [["s0", "s1", 1.0], ["s1", "s0", 2.0]]}), []),
            # run as listed, verify would run twice and its record list each failed check twice
            (reference_at_12_steps(tasks=["verify", "verify", "g0", "g0"]), []),
        ],
        ids=["nan-config", "nan-flag", "converge-one-step-count", "converge-repeated-step-count", "unknown-key",
             "repeated-pair", "repeated-task"],
    )
    def test_run_rejects_before_any_task(self, tmp_path, cfg_data, extra):
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out"), *extra], tmp_path)
        assert result.returncode == 2
        assert result.error()["type"] == "config"
        assert not (tmp_path / "out").exists()

    def test_zero_horizon_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, reference_at_12_steps(**{"grid.T": 0}))
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert result.error()["type"] == "config"


def make_dump(root, out_name, steps=12):
    cfg_data = dimer_config()
    cfg_data["grid"]["steps"] = steps
    cfg = write_config(root, cfg_data, name=f"{out_name}.json")
    result = run_cli(["run", str(cfg), "--out", str(root / out_name)], root)
    assert result.returncode == 0, result.stderr
    return root / out_name / "g0.kernel.csv"


class TestDiff:
    @pytest.fixture(scope="class")
    def dumps(self, tmp_path_factory):
        """Two 12-step dimer ``g0`` dumps from separate runs; tests only read them."""
        root = tmp_path_factory.mktemp("dumps")
        return make_dump(root, "a"), make_dump(root, "b")

    def test_identical_dumps(self, tmp_path, dumps):
        a, b = dumps
        result = run_cli(["diff", str(a), str(b)], tmp_path)
        assert result.returncode == 0
        assert "overall max abs difference: 0.0" in result.stdout

    def test_grid_mismatch(self, tmp_path, dumps):
        a = dumps[0]
        b = make_dump(tmp_path, "b", steps=24)
        result = run_cli(["diff", str(a), str(b)], tmp_path)
        assert result.returncode == 2
        assert result.error()["type"] == "header-mismatch"

    @pytest.mark.parametrize("key, value", [("T", 5.0), ("N_t", 24), ("p", 3), ("ordering", ["l0", "s0"])])
    def test_header_mismatch_is_found_before_the_bodies(self, tmp_path, dumps, key, value):
        # the second body is cut short: were it parsed, the dump would be malformed
        a = dumps[0]
        header, body = a.read_text().split("\n", 1)
        bad = tmp_path / "bad.csv"
        bad.write_text(json.dumps(json.loads(header) | {key: value}) + "\n" + body[: len(body) // 2])
        for pair in ([a, bad], [bad, a]):
            result = run_cli(["diff", *map(str, pair)], tmp_path)
            assert result.returncode == 2
            error = result.error()
            assert error["type"] == "header-mismatch"
            assert error["message"].startswith(f"dumps disagree on {key!r}")

    @pytest.mark.parametrize(
        "row",
        [
            "-1,0,0,0,5.0,0.0",
            "3,5,0,0,5.0,0.0",
            "13,0,0,0,5.0,0.0",
            "0,0,2,0,5.0,0.0",
            "13,0,0,5.0,0.0",
        ],
        ids=["negative", "acausal", "node-range", "orbital-range", "instantaneous-range"],
    )
    def test_malformed_row_exit_code(self, tmp_path, dumps, row):
        a = dumps[0]
        bad = tmp_path / "bad.csv"
        bad.write_text(a.read_text() + row + "\n")
        result = run_cli(["diff", str(a), str(bad)], tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.error()["type"] == "malformed-dump"

    @pytest.mark.parametrize("damage", DUMP_DAMAGES)
    def test_incomplete_or_repeated_dump_exit_code(self, tmp_path, dumps, damage):
        # every row is in range; a dump read as zero-padded or overwritten would exit 0
        a = dumps[0]
        bad = tmp_path / "bad.csv"
        bad.write_text(damage_dump(a.read_text(), damage))
        for pair in ([a, bad], [bad, a]):
            result = run_cli(["diff", *map(str, pair)], tmp_path)
            assert result.returncode == 2
            error = result.error()
            assert error["type"] == "malformed-dump"
            assert "malformed kernel dump" in error["message"]

    def test_malformed_header_exit_code(self, tmp_path, dumps):
        a = dumps[0]
        header, rest = a.read_text().split("\n", 1)
        bad = tmp_path / "bad.csv"
        bad.write_text(json.dumps(json.loads(header) | {"p": None}) + "\n" + rest)
        result = run_cli(["diff", str(a), str(bad)], tmp_path)
        assert result.returncode == 2
        assert result.error()["type"] == "malformed-dump"

    def test_oversized_header_exit_code(self, tmp_path, dumps):
        # p = 300, N_t = 2000 implies 5.24 TiB of arrays: refused before any allocation
        header = json.loads(dumps[0].read_text().split("\n", 1)[0])
        big = tmp_path / "big.csv"
        big.write_text(json.dumps(header | {"p": 300, "N_t": 2000}) + "\n")
        result = run_cli(["diff", str(dumps[0]), str(big)], tmp_path)
        assert result.returncode == 3
        error = result.error()
        assert error["type"] == "memory"
        assert "p = 300, N_t = 2000" in error["message"]

    def test_pair_over_budget_together_exit_code(self, tmp_path, dumps):
        # each header implies 2.19 GB of arrays, within the 4 GiB budget on its
        # own; the pair is refused before either dump is allocated
        header = json.loads(dumps[0].read_text().split("\n", 1)[0]) | {"p": 100, "N_t": 112}
        pair = [tmp_path / "one.csv", tmp_path / "two.csv"]
        for path in pair:
            path.write_text(json.dumps(header) + "\n")
        result = run_cli(["diff", *map(str, pair)], tmp_path)
        assert result.returncode == 3, result.stderr
        assert "Traceback" not in result.stderr
        error = result.error()
        assert error["type"] == "memory"
        assert error["message"].count("p = 100, N_t = 112") == 2

    @pytest.mark.parametrize("which", ["missing", "directory"])
    def test_unreadable_dump_exit_code(self, tmp_path, dumps, which):
        a = dumps[0]
        other = tmp_path / "nope.csv" if which == "missing" else a.parent
        for pair in ([str(other), str(a)], [str(a), str(other)]):
            result = run_cli(["diff", *pair], tmp_path)
            assert result.returncode == 2, result.stderr
            assert "Traceback" not in result.stderr
            assert result.error()["type"] == "unreadable-dump"

    def test_nan_entry_shows_in_the_overall_difference(self, tmp_path, dumps):
        a = dumps[0]
        header, first, *rest = a.read_text().splitlines()
        fields = first.split(",")
        fields[4] = "nan"
        mutated = tmp_path / "nan.csv"
        mutated.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        result = run_cli(["diff", str(a), str(mutated)], tmp_path)
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert any(line.endswith(",nan,0.0") for line in lines[1:-1])
        assert lines[-1] == "# overall max abs difference: nan"

    def test_reports_block_differences(self, tmp_path, dumps):
        a = dumps[0]
        text = a.read_text().splitlines()
        header, first, rest = text[0], text[1], text[2:]
        fields = first.split(",")
        fields[4] = repr(float(fields[4]) + 0.5)
        mutated = tmp_path / "mutated.csv"
        mutated.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        result = run_cli(["diff", str(a), str(mutated)], tmp_path)
        assert result.returncode == 0
        assert "0.5" in result.stdout


class TestOverridesEqualConfigValues:
    """``--steps``, ``--budget`` and ``--tolerance`` write the artifacts of a file holding their values."""

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(6, 12),
        st.integers(10**8, 2**40),
        st.sampled_from(sorted(DEFAULT_TOLERANCES)),
        st.floats(1e-12, 1.0),
    )
    def test_flag_equals_file_value(self, steps, budget, name, tolerance):
        cfg_data = trimer_config() | {"tasks": ["g0", "gxi", "sigma", "verify"], "budget": budget}
        cfg_data["grid"]["steps"] = steps
        cfg_data["tolerances"] = {name: tolerance}
        # each run replaces one value of the file above with its flag
        flagged = {
            "steps": (cfg_data | {"grid": cfg_data["grid"] | {"steps": 24}}, ["--steps", str(steps)]),
            "budget": ({k: v for k, v in cfg_data.items() if k != "budget"}, ["--budget", str(budget)]),
            "tolerance": (cfg_data | {"tolerances": {}}, ["--tolerance", f"{name}={tolerance!r}"]),
        }
        # hypothesis runs many examples per test call: a fresh directory each, not tmp_path
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            expected = run_cli(["run", str(write_config(root, cfg_data)), "--out", str(root / "file")], root)
            assert expected.returncode in (0, 1), expected.stderr
            report = json.loads((root / "file" / "dyson_report.json").read_text())
            assert report["grid"]["steps"] == steps and isinstance(report["grid"]["steps"], int)
            for flag, (data, extra) in flagged.items():
                cfg = write_config(root, data, name=f"{flag}.json")
                result = run_cli(["run", str(cfg), "--out", str(root / flag), *extra], root)
                assert result.returncode == expected.returncode, (flag, result.stderr)
                assert read_tree(root / flag) == read_tree(root / "file"), f"{flag}: artifacts differ"


class TestTaskSubsetsEqualAllTaskRun:
    """Any nonempty list of distinct tasks, in any order, writes the all-task run's artifacts and fails its checks."""

    ARTIFACTS = {
        "g0": ("g0.kernel.csv",),
        "gxi": ("gxi.kernel.csv",),
        "sigma": ("sigma_tilde.kernel.csv", "sigma.kernel.csv"),
        "verify": ("dyson_report.json",),
        "converge": ("convergence.csv", "convergence.json"),
        "gamma-check": ("gamma_report.json",),
    }

    @staticmethod
    def config(steps, tasks):
        # at 6-12 steps verify fails its quadrature checks by design, and the order bound of
        # 1.96 fails converge's reducible_dyson order (1.92-1.95) but not its fmap orders
        cfg = trimer_config() | {"tasks": list(tasks), "tolerances": {"convergence_min_order": 1.96}}
        cfg["grid"]["steps"] = list(steps)
        return cfg

    @staticmethod
    def owner(check):
        """The task whose run fails ``check``."""
        if check == "gamma_check":
            return "gamma-check"
        return "converge" if check.startswith("convergence_order_") else "verify"

    @staticmethod
    def run(root, cfg):
        """The artifacts and failed checks of one run; exit 0 or 1, with the check record on a failure."""
        result = run_cli(["run", str(write_config(root, cfg)), "--out", str(root / "out")], root)
        assert result.returncode in (0, 1), result.stderr
        failed = set()
        if result.returncode == 1:
            error = result.error()
            assert error["type"] == "check", error
            failed = set(error["message"].removeprefix("failed checks: ").split(", "))
            assert error["message"] == "failed checks: " + ", ".join(sorted(failed))
        return read_tree(root / "out"), failed

    @pytest.fixture(scope="class")
    def all_task_runs(self):
        """(artifacts, failed checks) of the all-task run, per step pair, each formed on first use."""
        return {}

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(6, 12), min_size=2, max_size=2, unique=True),
        st.lists(st.sampled_from(sorted(ARTIFACTS)), min_size=1, unique=True),
    )
    def test_subset_equals_all_task_run(self, all_task_runs, steps, tasks):
        steps = tuple(sorted(steps))  # the model hash reads the list as written
        if steps not in all_task_runs:
            with tempfile.TemporaryDirectory() as tmp:
                all_task_runs[steps] = self.run(Path(tmp), self.config(steps, self.ARTIFACTS))
        artifacts, failed = all_task_runs[steps]
        assert {self.owner(check) for check in failed} == {"verify", "converge"}
        # hypothesis runs many examples per test call: a fresh directory each, not tmp_path
        with tempfile.TemporaryDirectory() as tmp:
            got, got_failed = self.run(Path(tmp), self.config(steps, tasks))
        assert got == {name: artifacts[name] for task in tasks for name in self.ARTIFACTS[task]}
        assert got_failed == {check for check in failed if self.owner(check) in tasks}


class TestReferenceConfigRoundTrip:
    def test_reference_config_parses(self, tmp_path):
        cfg = write_config(tmp_path, reference_config())
        result = run_cli(
            [
                "run",
                str(cfg),
                "--out",
                str(tmp_path / "out"),
                "--steps",
                "10",
                "--tolerance",
                "reducible_dyson=0.1",
                "--tolerance",
                "fmap_factorization=0.1",
                "--tolerance",
                "fmap_dyson=0.1",
            ],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr


class TestModelHashWithoutOpenSSL:
    """``model_hash`` is the SHA-256 of the canonical model JSON, taken from CPython's builtin
    module: a verify run maps neither ``_hashlib`` nor OpenSSL's ``libcrypto``."""

    CHILD = (
        "import json, os, sys\n"
        "from pfnegf.cli import main\n"
        "code = main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
        "maps = open('/proc/self/maps').read() if os.path.exists('/proc/self/maps') else ''\n"
        "print(json.dumps({'code': code, 'hashlib': '_hashlib' in sys.modules, 'libcrypto': 'libcrypto' in maps}))\n"
    )

    @staticmethod
    def canonical_sha256(cfg):
        hashed = {key: cfg[key] for key in ("sample", "leads", "bias", "thermal", "grid")}
        return hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest()

    def test_verify_run_loads_no_openssl(self, tmp_path):
        cfg_data = trimer_config()
        assert cfg_data["tasks"] == ["verify"]
        # the checks' pass or fail is not the point here, the modules the run maps are
        cfg_data["tolerances"] = {name: 0.1 for name in ("reducible_dyson", "fmap_factorization", "fmap_dyson")}
        cfg = write_config(tmp_path, cfg_data)
        result = run_child(["-c", self.CHILD, str(cfg), str(tmp_path / "out")], tmp_path)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == {"code": 0, "hashlib": False, "libcrypto": False}
        report = json.loads((tmp_path / "out" / "dyson_report.json").read_text())
        assert report["model_hash"] == self.canonical_sha256(cfg_data)

    def test_reference_config_hash(self):
        cfg = reference_config()
        assert parse_config(cfg).model_hash == self.canonical_sha256(copy.deepcopy(cfg))

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(-2.0, 2.0),
        st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        st.floats(0.1, 5.0),
        st.text(min_size=1, max_size=3).filter(lambda s: s not in ("s0", "s1")),
        st.integers(2, 40),
    )
    def test_drawn_config_hash(self, xi, amplitude, beta, label, steps):
        cfg = trimer_config()
        cfg["sample"]["xi"], cfg["sample"]["hoppings"][0][2] = xi, list(amplitude)
        cfg["leads"][0]["sites"] = [label]
        cfg["thermal"]["beta"], cfg["grid"]["steps"] = beta, steps
        expected = self.canonical_sha256(copy.deepcopy(cfg))
        assert parse_config(cfg).model_hash == expected
