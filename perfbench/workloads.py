"""Benchmark workloads, generated from the package's reference model.

Each workload is a run configuration derived from
``pfnegf.reference_config()``.  The seed perturbs only continuous values
(hopping amplitudes, bias, the interaction strength xi and the lead coupling
strengths), each by a factor drawn uniformly from
``[1 - PERTURBATION, 1 + PERTURBATION]``.  Seed 0 gives the reference values
exactly.  Orbital count, step counts, tasks and strategy never depend on the
seed, so every seed does the same amount of work.
"""

from __future__ import annotations

import copy
import random

PERTURBATION = 0.05

ALL_TASKS = ["g0", "gxi", "sigma", "verify", "converge", "gamma-check"]

# Why each workload is in the benchmark; which optimisation it exercises or
# bypasses.
WORKLOADS = {
    "ref-cli": "the reference run a user makes: all six tasks, steps 25/50/100; "
    "Volterra algebra, Dyson checks and kernel dumps dominate",
    "lead3-verify": "3-site leads (d = 8, 256 states), verify at 100 steps, history storage; "
    "correlator assembly dominates, so a correlator optimisation must win here",
    "ref-recompute": "reference model, verify at 100 steps, recompute storage; "
    "the O(1)-memory re-evolution sweep dominates",
}


def _lengthen_leads(cfg: dict) -> None:
    """Add one site to the far end of every lead chain."""
    for lead in cfg["leads"]:
        sites = lead["sites"]
        last = lead["hoppings"][-1][2]
        prefix = sites[-1].rstrip("0123456789")
        new = f"{prefix}{len(sites)}"
        lead["hoppings"].append([sites[-1], new, last])
        sites.append(new)
        lead["coupling"]["f"].append(0.0)


def _perturb(cfg: dict, seed: int) -> None:
    if seed == 0:
        return
    rng = random.Random(seed)

    def scaled(value: float) -> float:
        return value * (1.0 + PERTURBATION * (2.0 * rng.random() - 1.0))

    sample = cfg["sample"]
    for edge in sample["hoppings"]:
        edge[2] = scaled(edge[2])
    sample["xi"] = scaled(sample["xi"])
    for lead in cfg["leads"]:
        for edge in lead["hoppings"]:
            edge[2] = scaled(edge[2])
        lead["coupling"]["d"] = scaled(lead["coupling"]["d"])
    cfg["bias"] = [scaled(v) for v in cfg["bias"]]


def build(name: str, seed: int, reference: dict) -> dict:
    """Run configuration of workload ``name`` for ``seed``.

    ``reference`` is the dict returned by ``pfnegf.reference_config()``.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    cfg = copy.deepcopy(reference)
    if name == "ref-cli":
        cfg["tasks"] = list(ALL_TASKS)
        cfg["grid"]["steps"] = [25, 50, 100]
    else:
        cfg["tasks"] = ["verify"]
        cfg["grid"]["steps"] = 100
    if name == "lead3-verify":
        _lengthen_leads(cfg)
        cfg["strategy"] = "auto"
    if name == "ref-recompute":
        cfg["strategy"] = "recompute"
    _perturb(cfg, seed)
    return cfg


def trimer(steps) -> dict:
    """The test suite's cheapest interacting model (2-site sample, 1-site lead).

    Used by the traced run's self-check with every task enabled.
    """
    return {
        "sample": {
            "sites": ["s0", "s1"],
            "hoppings": [["s0", "s1", 1.0]],
            "w": [["s0", "s1", 1.0]],
            "xi": 0.7,
        },
        "leads": [
            {"sites": ["l0"], "hoppings": [], "coupling": {"d": 0.6, "f": [1.0], "g": [1.0, 0.0]}}
        ],
        "bias": [0.3],
        "thermal": {"beta": 1.0, "mu": 0.2},
        "grid": {"T": 3.0, "steps": list(steps)},
        "tasks": list(ALL_TASKS),
    }
