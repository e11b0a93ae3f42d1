"""Report-only size ladder: how the layers scale with orbitals and steps.

    python3 perfbench/ladder.py

Runs ``verify`` once per size, traced, on the reference model (d = 6) and on
the model with 3-site leads (d = 8), and prints the per-layer self times and
the fitted exponent ``t ~ N_t^k`` of the correlator grid and the Volterra
layers for each d.  It is run on demand only and is not part of the
benchmark in ``BENCHMARK.json``; nothing gates on its numbers.  The largest
point (d = 8, N_t = 200) needs about 1.6 GB and a minute or more.

d = 10 is left out: its history would need 20 * 101 * C(20, 9) * 16 B,
about 5.4 GB, at N_t = 100, over the default 4 GiB budget, and the
``recompute`` strategy at that size is far past desk time.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import sys

import run as bench
import tracer
import workloads

ORBITALS = (6, 8)
STEPS = (50, 100, 200)
LAYERS = ("propagation.grid_s", "volterra.compose_s", "volterra.solve_s", "volterra.norm_s")


def ladder_config(d: int, steps: int, reference: dict) -> dict:
    """``verify`` at ``steps`` on the reference model (d = 6) or lead3-verify's (d = 8)."""
    cfg = workloads.build("lead3-verify", 0, reference) if d == 8 else copy.deepcopy(reference)
    cfg["tasks"] = ["verify"]
    cfg["grid"]["steps"] = steps
    return cfg


def exponent(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> int:
    sys.path.insert(0, str(bench.ROOT / "src"))
    from pfnegf.config import reference_config

    reference = reference_config()
    rows = []
    with bench.scratch_dir(f"ladder-{os.getpid()}") as work:
        for d in ORBITALS:
            for steps in STEPS:
                path = work / f"d{d}-n{steps}.json"
                path.write_text(json.dumps(ladder_config(d, steps, reference)), encoding="utf-8")
                out, spans = work / "out", work / "spans.json"
                child = bench.spawn(bench.traced_argv(path, out, spans), work / "log.txt")
                # the default tolerances are calibrated at 100 steps; coarser
                # grids may fail the quadrature checks, which is reported
                problems = bench.gate("ladder", child, out)
                metrics = tracer.layer_metrics(bench.load_spans(spans))
                shutil.rmtree(out, ignore_errors=True)
                row = {"d": d, "steps": steps, "wall_s": child.wall_s, "rss_mb": child.rss_mb}
                row.update({name: metrics[name][0] for name in LAYERS})
                rows.append(row)
                print(f"d={d} N_t={steps}: wall {child.wall_s:.2f} s, peak rss {child.rss_mb:.0f} MB, "
                      + ", ".join(f"{name} {row[name]:.3f}" for name in LAYERS)
                      + ("" if not problems else "; checks not passing: " + "; ".join(problems)),
                      flush=True)
    for d in ORBITALS:
        mine = [r for r in rows if r["d"] == d]
        fits = {name: exponent([r["steps"] for r in mine], [r[name] for r in mine]) for name in LAYERS}
        print(f"d={d} exponents in N_t: " + ", ".join(f"{k} {v:.2f}" for k, v in fits.items()))
    print("d=10 left out: its history needs 20*101*C(20,9)*16 B = 5.4 GB at N_t = 100, over the "
          "default 4 GiB budget, and recompute at that size is far past desk time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
