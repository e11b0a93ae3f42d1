import json
import os

import pytest
from conftest import dimer_config, run_cli, trimer_config
from pfnegf.config import parse_config, reference_config

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

    def test_sigma_task_writes_both_kernels(self, tmp_path):
        cfg_data = trimer_config()
        cfg_data["tasks"] = ["sigma"]
        cfg_data["grid"]["steps"] = 12
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "sigma_tilde.kernel.csv").exists()
        assert (tmp_path / "out" / "sigma.kernel.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 2
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"]["type"] == "config"

    def test_unknown_task_exit_code(self, tmp_path):
        cfg_data = dimer_config()
        cfg_data["tasks"] = ["frobnicate"]
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 2

    def test_strategy_values_accepted_for_compatibility(self, tmp_path):
        # the key selects nothing, but its three values still parse
        for strategy in ("auto", "history", "recompute"):
            parse_config(dimer_config() | {"strategy": strategy})
        cfg = write_config(tmp_path, dimer_config() | {"strategy": "tiles"})
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 2
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"]["type"] == "config"

    @pytest.mark.parametrize("flag, value", [("--steps", "1"), ("--budget", "0")])
    def test_bad_override_exit_code(self, tmp_path, flag, value):
        # the same bounds the config file enforces: steps >= 2, budget > 0
        cfg = write_config(tmp_path, dimer_config())
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out"), flag, value], tmp_path)
        assert result.returncode == 2, result.stderr
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"]["type"] == "config"

    def test_memory_guard_exit_code(self, tmp_path):
        cfg_data = trimer_config()
        cfg_data["tasks"] = ["gxi"]
        cfg_data["strategy"] = "history"
        cfg_data["budget"] = 100
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 3
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"]["type"] == "memory"

    def test_recompute_memory_guard_exit_code(self, tmp_path):
        # recompute holds one held tile and one D tile, and they must fit too
        cfg_data = trimer_config()
        cfg_data["tasks"] = ["gxi"]
        cfg_data["strategy"] = "recompute"
        cfg_data["budget"] = 100
        cfg = write_config(tmp_path, cfg_data)
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
        assert result.returncode == 3
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"]["type"] == "memory"

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

    def test_reruns_bit_identical(self, tmp_path):
        cfg_data = trimer_config()
        cfg_data["tasks"] = ["g0", "gxi", "sigma", "verify"]
        cfg_data["grid"]["steps"] = 12
        # determinism is the point here, not quadrature accuracy
        cfg_data["tolerances"] = {name: 0.1 for name in ("reducible_dyson", "fmap_factorization", "fmap_dyson")}
        cfg = write_config(tmp_path, cfg_data)
        for out in ("out1", "out2"):
            result = run_cli(["run", str(cfg), "--out", str(tmp_path / out)], tmp_path)
            assert result.returncode == 0, result.stderr
        tree1 = read_tree(tmp_path / "out1")
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
            result = run_cli(["run", str(cfg), "--out", str(tmp_path / out)], tmp_path, env={**base, **threads})
            assert result.returncode == 0, result.stderr
        tree1 = read_tree(tmp_path / "negf")
        tree2 = read_tree(tmp_path / "explicit")
        assert tree1.keys() == tree2.keys()
        for name in tree1:
            assert tree1[name] == tree2[name], f"artifact {name} depends on how the thread count is set"


class TestDiff:
    def make_dump(self, tmp_path, out_name, steps=12):
        cfg_data = dimer_config()
        cfg_data["grid"]["steps"] = steps
        cfg = write_config(tmp_path, cfg_data, name=f"{out_name}.json")
        result = run_cli(["run", str(cfg), "--out", str(tmp_path / out_name)], tmp_path)
        assert result.returncode == 0, result.stderr
        return tmp_path / out_name / "g0.kernel.csv"

    def test_identical_dumps(self, tmp_path):
        a = self.make_dump(tmp_path, "a")
        b = self.make_dump(tmp_path, "b")
        result = run_cli(["diff", str(a), str(b)], tmp_path)
        assert result.returncode == 0
        assert "overall max abs difference: 0.0" in result.stdout

    def test_grid_mismatch(self, tmp_path):
        a = self.make_dump(tmp_path, "a", steps=12)
        b = self.make_dump(tmp_path, "b", steps=24)
        result = run_cli(["diff", str(a), str(b)], tmp_path)
        assert result.returncode == 2
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"]["type"] == "header-mismatch"

    def test_storage_strategies_cross_diff(self, tmp_path):
        # same math through two code paths: the dumps must agree exactly
        dumps = []
        for strategy in ("history", "recompute"):
            cfg_data = trimer_config()
            cfg_data["tasks"] = ["gxi"]
            cfg_data["grid"]["steps"] = 12
            cfg_data["strategy"] = strategy
            cfg = write_config(tmp_path, cfg_data, name=f"{strategy}.json")
            out = tmp_path / strategy
            result = run_cli(["run", str(cfg), "--out", str(out)], tmp_path)
            assert result.returncode == 0, result.stderr
            dumps.append(out / "gxi.kernel.csv")
        result = run_cli(["diff", str(dumps[0]), str(dumps[1])], tmp_path)
        assert result.returncode == 0
        assert "overall max abs difference: 0.0" in result.stdout

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
    def test_malformed_row_exit_code(self, tmp_path, row):
        a = self.make_dump(tmp_path, "a")
        bad = tmp_path / "bad.csv"
        bad.write_text(a.read_text() + row + "\n")
        result = run_cli(["diff", str(a), str(bad)], tmp_path)
        assert result.returncode == 2, result.stderr
        record = json.loads(result.stderr.strip().splitlines()[-1])
        assert record["error"]["type"] == "malformed-dump"

    def test_reports_block_differences(self, tmp_path):
        a = self.make_dump(tmp_path, "a")
        text = (tmp_path / "a" / "g0.kernel.csv").read_text().splitlines()
        header, first, rest = text[0], text[1], text[2:]
        fields = first.split(",")
        fields[4] = repr(float(fields[4]) + 0.5)
        mutated = tmp_path / "mutated.csv"
        mutated.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        result = run_cli(["diff", str(a), str(mutated)], tmp_path)
        assert result.returncode == 0
        assert "0.5" in result.stdout


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
