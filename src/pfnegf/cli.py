"""Batch front end: run kernel computations and verification suites.

    negf run CONFIG [--out DIR] [--steps N] [--strategy S]
                    [--budget BYTES] [--tolerance NAME=VAL ...]
    negf diff DUMP_A DUMP_B

Exit status: 0 all enabled checks passed, 1 a check failed, 2 configuration
error or malformed kernel dump, 3 memory-guard abort.  Failures emit a machine-readable JSON error
record on stderr.  Artifacts are deterministic: rerunning the same
configuration reproduces them byte for byte (fix the BLAS thread count with
NEGF_NUM_THREADS when in doubt).  ``--strategy`` and the config key
``strategy`` are accepted for compatibility and select nothing: every
correlator grid is built by the one tiled sweep.
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


def run_command(args) -> int:
    from .config import load_config
    from .errors import ConfigError, MemoryBudgetError

    try:
        config = load_config(args.config)
        overrides = _parse_tolerance_overrides(args.tolerance)
        if args.steps is not None and args.steps < 2:
            raise ConfigError("--steps must be an integer >= 2")
        if args.budget is not None and args.budget <= 0:
            raise ConfigError("--budget must be positive")
    except (ConfigError, ValueError) as exc:
        _error_record("config", str(exc))
        return EXIT_CONFIG

    config.tolerances.update(overrides)
    if args.budget is not None:
        config.budget = args.budget
    if args.steps is not None:
        config.steps_list = [args.steps]

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)

    try:
        failed = _execute_tasks(config, out_dir)
    except MemoryBudgetError as exc:
        _error_record("memory", str(exc))
        return EXIT_MEMORY
    except ConfigError as exc:
        _error_record("config", str(exc))
        return EXIT_CONFIG

    if failed:
        _error_record("check", "failed checks: " + ", ".join(sorted(failed)))
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _execute_tasks(config, out_dir) -> list:
    from .errors import ConfigError
    from .negf import KernelEngine, compute_g0, convergence_study
    from .propagation import DEFAULT_BUDGET_BYTES
    from .thermal import gamma_check
    from .volterra import dump_kernel_to_path

    budget = config.budget if config.budget is not None else DEFAULT_BUDGET_BYTES
    ordering = config.model.geometry.site_labels
    failed = []
    engine = None

    def get_engine():
        nonlocal engine
        if engine is None:
            engine = KernelEngine(config.model, config.thermal, config.grid(), budget=budget)
        return engine

    for task in config.tasks:
        if task == "g0":
            g0 = compute_g0(config.model.h_biased, config.grid())
            dump_kernel_to_path(g0, ordering, os.path.join(out_dir, "g0.kernel.csv"))
        elif task == "gxi":
            dump_kernel_to_path(get_engine().gxi, ordering, os.path.join(out_dir, "gxi.kernel.csv"))
        elif task == "sigma":
            eng = get_engine()
            dump_kernel_to_path(eng.sigma_tilde, ordering, os.path.join(out_dir, "sigma_tilde.kernel.csv"))
            dump_kernel_to_path(eng.sigma, ordering, os.path.join(out_dir, "sigma.kernel.csv"))
        elif task == "verify":
            report = get_engine().verify(tolerances=config.tolerances, model_hash=config.model_hash)
            _write_text(os.path.join(out_dir, "dyson_report.json"), report.to_json() + "\n")
            if not report.passed:
                failed.extend(c.name for c in report.checks if not c.passed)
        elif task == "converge":
            if len(config.steps_list) < 2:
                raise ConfigError("converge task needs at least two step counts in grid.steps")
            study = convergence_study(
                config.model,
                config.thermal,
                config.horizon,
                config.steps_list,
                budget=budget,
                engine=get_engine(),
            )
            _write_text(os.path.join(out_dir, "convergence.csv"), study["csv"])
            _write_text(
                os.path.join(out_dir, "convergence.json"),
                json.dumps(study["summary"], indent=2) + "\n",
            )
            min_order = config.tolerances.get("convergence_min_order", 1.8)
            for name, order in study["summary"]["fitted_orders"].items():
                if order < min_order:
                    failed.append(f"convergence_order_{name}")
        elif task == "gamma-check":
            summary = gamma_check(config.model, config.thermal)
            _write_text(
                os.path.join(out_dir, "gamma_report.json"), json.dumps(summary, indent=2) + "\n"
            )
            if not summary["pass"]:
                failed.append("gamma_check")
    return failed


def diff_command(args) -> int:
    import numpy as np

    from .volterra import load_kernel_from_path

    try:
        header_a, mem_a, inst_a = load_kernel_from_path(args.dump_a)
        header_b, mem_b, inst_b = load_kernel_from_path(args.dump_b)
    except ValueError as exc:
        _error_record("malformed-dump", str(exc))
        return EXIT_CONFIG
    for key in ("p", "N_t", "T", "ordering"):
        if header_a[key] != header_b[key]:
            _error_record(
                "header-mismatch",
                f"dumps disagree on {key!r}: {header_a[key]!r} vs {header_b[key]!r}",
            )
            return EXIT_CONFIG

    p = int(header_a["p"])
    print("i,j,max_abs_memory_diff,max_abs_instantaneous_diff")
    overall = 0.0
    for i in range(p):
        for j in range(p):
            mem_diff = float(np.max(np.abs(mem_a[:, :, i, j] - mem_b[:, :, i, j])))
            inst_diff = float(np.max(np.abs(inst_a[:, i, j] - inst_b[:, i, j])))
            overall = max(overall, mem_diff, inst_diff)
            print(f"{i},{j},{mem_diff!r},{inst_diff!r}")
    print(f"# overall max abs difference: {overall!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="negf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the tasks listed in a configuration")
    run.add_argument("config", help="path to the JSON run configuration")
    run.add_argument("--out", default="negf_out", help="output directory for artifacts")
    run.add_argument("--steps", type=int, default=None, help="override the step count")
    run.add_argument(
        "--strategy",
        choices=("auto", "history", "recompute"),
        help="accepted for compatibility; every grid uses the one tiled sweep",
    )
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
