"""Batch front end: run kernel computations and verification suites.

    negf run CONFIG [--out DIR] [--steps N] [--budget BYTES]
                    [--tolerance NAME=VAL ...]
    negf diff DUMP_A DUMP_B

Exit status: 0 all enabled checks passed, 1 a check failed, 2 usage or
configuration error, malformed or unreadable kernel dump, two dumps whose
headers disagree on the grid or the ordering (found before either body is
read), or an artifact that cannot be written, 3 memory-guard abort (also for
two kernel dumps whose headers imply arrays beyond the default budget
together).
``--steps``, ``--budget`` and ``--tolerance`` replace ``grid.steps``,
``budget`` and tolerance values in the configuration's JSON object, which is
then checked and hashed as a file holding them would be (``pfnegf.config``).
Configuration errors exit before any task runs.  Failures emit a
machine-readable JSON error record on stderr.  Artifacts are deterministic:
rerunning the same configuration reproduces them byte for byte (fix the BLAS
thread count with NEGF_NUM_THREADS when in doubt).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_MEMORY = 3


def _error_record(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def _parse_tolerance_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"expected NAME=VALUE, got {pair!r}")
        name, value = pair.split("=", 1)
        out[name.strip()] = float(value)
    return out


def _write_text(path, text) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path, data) -> None:
    """Indented JSON of ``data``; a number that is not finite is written as null."""
    data = json.loads(json.dumps(data), parse_constant=lambda _: None)  # NaN, Infinity
    _write_text(path, json.dumps(data, indent=2) + "\n")


def run_command(args) -> int:
    from .config import load_config, parse_config, read_config
    from .errors import ConfigError, MemoryBudgetError

    try:
        config = load_config(args.config)  # the file as written is checked first
        tolerances = _parse_tolerance_overrides(args.tolerance)
        if args.steps is not None or args.budget is not None or tolerances:
            # so its root, grid and tolerances are JSON objects; parse_config checks and hashes the flags' values
            data = read_config(args.config)
            if args.steps is not None:
                data["grid"]["steps"] = args.steps
            if args.budget is not None:
                data["budget"] = args.budget
            data["tolerances"] = data.get("tolerances", {}) | tolerances
            config = parse_config(data)
    except (ConfigError, ValueError) as exc:
        _error_record("config", str(exc))
        return EXIT_CONFIG

    try:
        os.makedirs(args.out, exist_ok=True)
        failed = _execute_tasks(config, args.out)
    except MemoryBudgetError as exc:
        _error_record("memory", str(exc))
        return EXIT_MEMORY
    except OSError as exc:
        _error_record("output", f"cannot write output: {exc}")
        return EXIT_CONFIG

    if failed:
        _error_record("check", "failed checks: " + ", ".join(sorted(failed)))
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _execute_tasks(config, out_dir) -> list:
    from .negf import KernelEngine, compute_g0, convergence_study, verify_dyson
    from .thermal import gamma_check
    from .volterra import dump_kernel_to_path

    ordering = config.model.geometry.site_labels
    failed = []
    engine = None

    def get_engine():
        nonlocal engine
        if engine is None:
            engine = KernelEngine(config.model, config.thermal, config.grid(), budget=config.budget)
        return engine

    for task in config.tasks:
        if task == "g0":
            # not kept: a G0 held through the other tasks raises the run's peak
            g0 = compute_g0(config.model.h_biased, config.grid())
            dump_kernel_to_path(g0, ordering, os.path.join(out_dir, "g0.kernel.csv"), "G0")
            del g0
        elif task == "gxi":
            path = os.path.join(out_dir, "gxi.kernel.csv")
            dump_kernel_to_path(get_engine().gxi, ordering, path, "Gxi")
        elif task == "sigma":
            eng = get_engine()
            path = os.path.join(out_dir, "sigma_tilde.kernel.csv")
            dump_kernel_to_path(eng.sigma_tilde, ordering, path, "SigmaTilde")
            dump_kernel_to_path(eng.sigma, ordering, os.path.join(out_dir, "sigma.kernel.csv"), "Sigma")
        elif task == "verify":
            report = verify_dyson(
                get_engine(), tolerances=config.tolerances, model_hash=config.model_hash
            )
            _write_json(os.path.join(out_dir, "dyson_report.json"), report.to_dict())
            if not report.passed:
                failed.extend(c.name for c in report.checks if not c.passed)
        elif task == "converge":
            study = convergence_study(get_engine(), config.steps_list)
            _write_text(os.path.join(out_dir, "convergence.csv"), study["csv"])
            _write_json(os.path.join(out_dir, "convergence.json"), study["summary"])
            min_order = config.tolerances.get("convergence_min_order", 1.8)
            for name, order in study["summary"]["fitted_orders"].items():
                if not order >= min_order:  # a nan order fails as well
                    failed.append(f"convergence_order_{name}")
        elif task == "gamma-check":
            summary = gamma_check(config.model, config.thermal)
            _write_json(os.path.join(out_dir, "gamma_report.json"), summary)
            if not summary["pass"]:
                failed.append("gamma_check")
    return failed


def diff_command(args) -> int:
    import numpy as np

    from .errors import HeaderMismatchError, MemoryBudgetError
    from .volterra import load_kernels

    try:
        with open(args.dump_a, encoding="utf-8") as fh_a, open(args.dump_b, encoding="utf-8") as fh_b:
            (header_a, mem_a, inst_a), (_, mem_b, inst_b) = load_kernels(fh_a, fh_b)
    except MemoryBudgetError as exc:
        _error_record("memory", str(exc))
        return EXIT_MEMORY
    except HeaderMismatchError as exc:
        _error_record("header-mismatch", str(exc))
        return EXIT_CONFIG
    except ValueError as exc:
        _error_record("malformed-dump", str(exc))
        return EXIT_CONFIG
    except OSError as exc:
        _error_record("unreadable-dump", f"cannot read kernel dump: {exc}")
        return EXIT_CONFIG

    p = int(header_a["p"])
    print("i,j,max_abs_memory_diff,max_abs_instantaneous_diff")
    diffs = [0.0]
    for i in range(p):
        for j in range(p):
            mem_diff = float(np.max(np.abs(mem_a[:, :, i, j] - mem_b[:, :, i, j])))
            inst_diff = float(np.max(np.abs(inst_a[:, i, j] - inst_b[:, i, j])))
            diffs += [mem_diff, inst_diff]
            print(f"{i},{j},{mem_diff!r},{inst_diff!r}")
    print(f"# overall max abs difference: {float(np.max(diffs))!r}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors leave a JSON error record, like every other failure."""

    def error(self, message):
        _error_record("usage", f"{self.prog}: {message}")
        sys.exit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="negf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the tasks listed in a configuration")
    run.add_argument("config", help="path to the JSON run configuration")
    run.add_argument("--out", default="negf_out", help="output directory for artifacts")
    run.add_argument("--steps", type=int, default=None, help="override the step count")
    run.add_argument("--budget", type=int, default=None, help="memory budget in bytes")
    run.add_argument(
        "--tolerance", action="append", metavar="NAME=VAL", help="override a check tolerance"
    )
    run.set_defaults(func=run_command)

    diff = sub.add_parser("diff", help="compare two kernel dumps")
    diff.add_argument("dump_a")
    diff.add_argument("dump_b")
    diff.set_defaults(func=diff_command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
