"""Drift guard: the reference config's kernels and residuals against a checked-in record.

``data/reference_drift.json`` holds, for the reference model
(``pfnegf.reference_config()``), the 14 residuals of ``verify_dyson`` at 100
steps, the three convergence rows (25, 50 and 100 steps), and about 200
seeded memory and 200 seeded instantaneous entries each of ``G0``, ``Gxi``,
``Sigma~`` and ``Sigma`` at 100 steps, with each part's largest magnitude.
A change that moves a kernel or a quadrature residual beyond roundoff fails
here, even when every gate still passes.  The bounds:

* a kernel entry within ``KERNEL_BOUND`` times that part's largest magnitude;
* a quadrature residual, a convergence row and a Volterra constant within
  ``QUADRATURE_BOUND`` and ``CONSTANT_BOUND`` relative;
* an exact-algebra or roundoff residual only against its tolerance: its
  value is roundoff, which any change of order may move.

The test prints the largest relative move of every residual, convergence
row and kernel part against the record (a kernel entry's move relative to
that part's largest magnitude).  The record was written with BLAS on one
thread, so with one thread a change that keeps every bit shows zeros:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest tests/test_drift.py -q -rP

Refresh the record only in a change that says why it moves:

    PYTHONPATH=src python tests/test_drift.py
"""

import json
import re
from pathlib import Path

import numpy as np

from pfnegf.config import parse_config, reference_config
from pfnegf.grid import TimeGrid
from pfnegf.negf import QUADRATURE_CHECKS, KernelEngine, verify_dyson

from oracles import memory_kernel

RECORD = Path(__file__).parent / "data" / "reference_drift.json"
KERNELS = ("g0", "gxi", "sigma_tilde", "sigma")
ENTRIES = 200
KERNEL_BOUND = 1e-12
QUADRATURE_BOUND = 1e-8
CONSTANT_BOUND = 1e-12


def kernel_parts(op) -> tuple:
    """The memory kernel and the instantaneous part over every orbital."""
    return memory_kernel(op), op.instantaneous()


def draw_entries(op, seed: int) -> dict:
    """Indices of ``ENTRIES`` seeded causal memory entries and instantaneous entries on the operator's support."""
    rng = np.random.default_rng(seed)
    n = op.grid.n_nodes
    k = rng.integers(0, n, ENTRIES)
    l = (rng.random(ENTRIES) * (k + 1)).astype(int)  # l <= k
    i, j = rng.choice(op.rows, ENTRIES), rng.choice(op.cols, ENTRIES)
    node = rng.integers(0, n, ENTRIES)
    return {"memory": np.stack([k, l, i, j], axis=1), "instantaneous": np.stack([node, i, j], axis=1)}


def entries(part: np.ndarray, index) -> list:
    """``[*index, re, im]`` of each indexed entry of ``part``."""
    index = np.asarray(index, dtype=int)
    values = part[tuple(index.T)]
    return [[*map(int, at), float(v.real), float(v.imag)] for at, v in zip(index, values)]


def convergence_rows(engines) -> list:
    return [{"steps": e.grid.steps, **{name: e.quadrature[name] for name in QUADRATURE_CHECKS}} for e in engines]


def build_record(engines) -> dict:
    """The record of ``engines`` (25, 50 and 100 steps); entries are drawn on the last."""
    fine = engines[-1]
    report = verify_dyson(fine)
    kernels = {}
    for seed, name in enumerate(KERNELS):
        op = getattr(fine, name)
        drawn = draw_entries(op, seed)
        kernels[name] = {}
        for part_name, part in zip(("memory", "instantaneous"), kernel_parts(op)):
            kernels[name][part_name] = {
                "max_abs": float(np.max(np.abs(part))),
                "entries": entries(part, drawn[part_name]),
            }
    return {
        "steps": fine.grid.steps,
        "residuals": {c.name: {"residual": c.residual, "tolerance": c.tolerance, "kind": c.kind} for c in report.checks},
        "convergence": convergence_rows(engines),
        "kernels": kernels,
    }


def relative(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def move(value: float, reference: float) -> float:
    """``relative``, reading 0.0 for equal values (zeros included) and inf for a move away from zero: printed only."""
    return 0.0 if value == reference else abs(value - reference) / abs(reference) if reference else float("inf")


def test_reference_record(ref_engine_25, ref_engine_50, ref_engine_100):
    record = json.loads(RECORD.read_text())
    engines = (ref_engine_25, ref_engine_50, ref_engine_100)
    assert record["steps"] == ref_engine_100.grid.steps

    report = verify_dyson(ref_engine_100)
    rows = convergence_rows(engines)
    # (largest magnitude kept, its move, largest move of a drawn entry) of each kernel part
    kernels = {}
    for name in KERNELS:
        for part_name, part in zip(("memory", "instantaneous"), kernel_parts(getattr(ref_engine_100, name))):
            kept = record["kernels"][name][part_name]
            index = np.array([entry[:-2] for entry in kept["entries"]])
            expected = np.array([complex(*entry[-2:]) for entry in kept["entries"]])
            top = kept["max_abs"]
            kernels[name, part_name] = top, abs(np.max(np.abs(part)) - top), np.max(np.abs(part[tuple(index.T)] - expected))

    print("largest relative move against the record (a kernel part's, relative to its largest magnitude)")
    for check in report.checks:
        print(f"  residual {check.name}: {move(check.residual, record['residuals'][check.name]['residual']):.3e}")
    for row, kept in zip(rows, record["convergence"]):
        print(f"  convergence row {row['steps']}: {max(move(row[name], kept[name]) for name in QUADRATURE_CHECKS):.3e}")
    for (name, part_name), (top, *moves) in kernels.items():
        print(f"  kernel {name} {part_name}: {max(moves) / top if top else max(moves):.3e}")

    assert sorted(c.name for c in report.checks) == sorted(record["residuals"])
    for check in report.checks:
        kept = record["residuals"][check.name]
        if check.kind == "quadrature":
            assert relative(check.residual, kept["residual"]) <= QUADRATURE_BOUND, check.name
        elif check.kind == "bound":
            assert relative(check.residual, kept["residual"]) <= CONSTANT_BOUND, check.name
        else:
            assert check.passed, (check.name, check.residual, check.tolerance)

    assert [row["steps"] for row in rows] == [row["steps"] for row in record["convergence"]]
    for row, kept in zip(rows, record["convergence"]):
        for name in QUADRATURE_CHECKS:
            assert relative(row[name], kept[name]) <= QUADRATURE_BOUND, (row["steps"], name)

    for (name, part_name), (top, top_move, worst) in kernels.items():
        bound = KERNEL_BOUND * top
        assert top_move <= bound, (name, part_name)
        assert worst <= bound, (name, part_name, worst, bound)


def write_record() -> None:
    """Build the reference engines and write the record, one kernel entry a line."""
    run = parse_config(reference_config())
    engines = [KernelEngine(run.model, run.thermal, TimeGrid(run.horizon, steps)) for steps in (25, 50, 100)]
    text = json.dumps(build_record(engines), indent=1)
    # every list that holds no list or object goes on one line
    text = re.sub(r"\[([^\[\]{}]*)\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(text + "\n")


if __name__ == "__main__":
    write_record()
