"""JSON run-configuration parsing and the bundled reference model.

Schema (all complex scalars may be a number or a ``[re, im]`` pair)::

    {
      "sample": {"sites": [...], "hoppings": [[a, b, amp], ...],
                  "w": [[a, b, val], ...], "xi": number},
      "leads":  [{"sites": [...], "hoppings": [...],
                  "coupling": {"d": number, "f": [...], "g": [...]}}, ...],
      "bias":    [v_1, ..., v_M],
      "thermal": {"beta": number, "mu": number},
      "grid":    {"T": number, "steps": int or [int, ...]},
      "tasks":   ["g0" | "gxi" | "sigma" | "verify" | "converge" | "gamma-check", ...],
      "tolerances": {check_name: value, ...},        # optional
      "budget":   bytes                               # optional, default 4 GiB
    }

Hopping edges with ``a == b`` are on-site energies (real).  Coupling vectors
``f`` and ``g`` are given over the lead's own sites and the sample sites
respectively.  When ``steps`` is a list, the convergence task uses all
entries and every other task uses the largest.  Keys outside the schema
are ignored.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import TimeGrid
from .lattice import LeadCoupling, TwoBodyPotential, build_geometry, build_hamiltonians
from .model import Model
from .propagation import DEFAULT_BUDGET_BYTES
from .thermal import ThermalParams

KNOWN_TASKS = ("g0", "gxi", "sigma", "verify", "converge", "gamma-check")


def _as_complex(value, context: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{context}: expected a number or [re, im] pair, got {value!r}")


def _as_complex_vector(values, context: str) -> np.ndarray:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{context}: expected a list of components")
    return np.array([_as_complex(v, context) for v in values], dtype=complex)


def _edges(raw, context: str):
    edges = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ConfigError(f"{context}: expected [site_a, site_b, amplitude] entries")
        edges.append((entry[0], entry[1], _as_complex(entry[2], context)))
    return edges


def _pair_matrix(sites, raw, context: str) -> np.ndarray:
    index = {label: i for i, label in enumerate(sites)}
    w = np.zeros((len(sites), len(sites)))
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ConfigError(f"{context}: expected [site_a, site_b, value] entries")
        a, b, val = entry
        if a not in index or b not in index:
            raise ConfigError(f"{context}: pair ({a!r}, {b!r}) references an unknown sample site")
        if a == b:
            raise ConfigError(f"{context}: diagonal pair weight at {a!r} is not allowed")
        w[index[a], index[b]] = float(val)
        w[index[b], index[a]] = float(val)
    return w


@dataclass
class RunConfig:
    model: Model
    thermal: ThermalParams
    horizon: float
    steps_list: list
    tasks: list
    tolerances: dict
    budget: int
    model_hash: str

    @property
    def steps(self) -> int:
        return max(self.steps_list)

    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.steps)


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    try:
        sample = data["sample"]
        leads = data["leads"]
        thermal_raw = data["thermal"]
        grid_raw = data["grid"]
    except KeyError as exc:
        raise ConfigError(f"missing configuration section {exc.args[0]!r}") from None

    try:
        geometry = build_geometry(sample["sites"], [lead["sites"] for lead in leads])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed geometry section: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    bias = data.get("bias", [0.0] * geometry.num_leads)
    couplings = []
    for nu, lead in enumerate(leads):
        try:
            raw = lead["coupling"]
            coupling = LeadCoupling(
                strength=float(raw["d"]),
                lead_vector=_as_complex_vector(raw["f"], f"lead {nu} coupling f"),
                sample_vector=_as_complex_vector(raw["g"], f"lead {nu} coupling g"),
            )
        except KeyError as exc:
            raise ConfigError(f"lead {nu}: missing coupling entry {exc.args[0]!r}") from None
        except ValueError as exc:
            raise ConfigError(f"lead {nu}: {exc}") from None
        couplings.append(coupling)

    try:
        one_particle = build_hamiltonians(
            geometry,
            _edges(sample.get("hoppings", []), "sample hoppings"),
            [_edges(lead.get("hoppings", []), f"lead {nu} hoppings") for nu, lead in enumerate(leads)],
            couplings,
            bias,
        )
        interaction = TwoBodyPotential(
            matrix=_pair_matrix(sample["sites"], sample.get("w", []), "sample w"),
            strength=float(sample.get("xi", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    try:
        thermal = ThermalParams(beta=float(thermal_raw["beta"]), mu=float(thermal_raw.get("mu", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed thermal section: {exc}") from None

    try:
        horizon = float(grid_raw["T"])
        steps_raw = grid_raw["steps"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed grid section: {exc}") from None
    steps_list = [int(s) for s in (steps_raw if isinstance(steps_raw, list) else [steps_raw])]
    if not steps_list or any(s < 2 for s in steps_list):
        raise ConfigError("grid.steps must hold integers >= 2")

    tasks = data.get("tasks", ["verify"])
    if not tasks:
        raise ConfigError("tasks must be a nonempty list")
    for task in tasks:
        if task not in KNOWN_TASKS:
            raise ConfigError(f"unknown task {task!r}; known tasks: {', '.join(KNOWN_TASKS)}")

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be an object of name -> value")
    tolerances = {str(k): float(v) for k, v in tolerances.items()}

    budget = data.get("budget")
    budget = DEFAULT_BUDGET_BYTES if budget is None else int(budget)
    if budget <= 0:
        raise ConfigError("budget must be positive")

    hashed = {
        "sample": sample,
        "leads": leads,
        "bias": list(bias),
        "thermal": thermal_raw,
        "grid": grid_raw,
    }
    digest = hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest()

    model = Model(one_particle=one_particle, interaction=interaction)
    return RunConfig(
        model=model,
        thermal=thermal,
        horizon=horizon,
        steps_list=steps_list,
        tasks=list(tasks),
        tolerances=tolerances,
        budget=budget,
        model_hash=digest,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from None
    return parse_config(data)


def reference_config() -> dict:
    """Desk-scale reference model: interacting dimer between two 2-site leads."""
    return {
        "sample": {
            "sites": ["s0", "s1"],
            "hoppings": [["s0", "s1", 1.0]],
            "w": [["s0", "s1", 1.0]],
            "xi": 0.5,
        },
        "leads": [
            {
                "sites": ["lL0", "lL1"],
                "hoppings": [["lL0", "lL1", 1.0]],
                "coupling": {"d": 0.5, "f": [1.0, 0.0], "g": [1.0, 0.0]},
            },
            {
                "sites": ["lR0", "lR1"],
                "hoppings": [["lR0", "lR1", 1.0]],
                "coupling": {"d": 0.5, "f": [1.0, 0.0], "g": [0.0, 1.0]},
            },
        ],
        "bias": [0.4, -0.4],
        "thermal": {"beta": 1.0, "mu": 0.0},
        "grid": {"T": 4.0, "steps": [25, 50, 100]},
        "tasks": ["verify"],
    }
