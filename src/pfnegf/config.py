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

Every number is a finite JSON number; strings, null, booleans, NaN and
Infinity are errors whose message names the key, e.g. ``sample.w[0]``.
Site labels are JSON strings or numbers and every lead is an object; a
label of another type is reported with its key as well, e.g.
``leads[0].sites[1]`` or ``sample.hoppings[0]``.
Hopping edges with ``a == b`` are on-site energies (real).  Coupling vectors
``f`` and ``g`` are given over the lead's own sites and the sample sites
respectively.  When ``steps`` is a list, the convergence task uses all
entries (at least two, none repeated) and every other task uses the largest.  Tolerance
names are checks of ``verify`` or ``convergence_min_order``.  A key outside
the schema, at any level, is an error that names its key path, e.g.
``sample.xii``; the retired root key ``strategy`` is still read, and selects
nothing.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

try:  # CPython's builtin SHA-256: hashlib would map OpenSSL's libcrypto, 3.4 MB resident, for one digest
    from _sha2 import sha256  # 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:  # a build without builtin hashes
        from hashlib import sha256

from .errors import ConfigError
from .grid import TimeGrid
from .lattice import LeadCoupling, TwoBodyPotential, build_geometry, build_hamiltonians
from .model import Model
from .negf import DEFAULT_TOLERANCES
from .propagation import DEFAULT_BUDGET_BYTES
from .thermal import ThermalParams

KNOWN_TASKS = ("g0", "gxi", "sigma", "verify", "converge", "gamma-check")


def _number(value, context: str) -> float:
    """A finite JSON number; booleans, null, strings, lists, NaN and ±inf are refused."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return float(value)


def _whole(value, context: str) -> int:
    if not _number(value, context).is_integer():
        raise ConfigError(f"{context}: expected a whole number, got {value!r}")
    return int(value)


def _as_complex(value, context: str) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0], context), _number(value[1], context))
    return complex(_number(value, context))


def _as_complex_vector(values, context: str) -> np.ndarray:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{context}: expected a list of components, got {values!r}")
    return np.array([_as_complex(v, f"{context}[{i}]") for i, v in enumerate(values)], dtype=complex)


def _label(value, context: str):
    """A site label: a JSON string or number."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{context}: a site label must be a string or a number, got {value!r}")
    return value


def _sites(section: dict, context: str) -> list:
    raw = section.get("sites")
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{context}.sites: expected a list of site labels, got {raw!r}")
    return [_label(label, f"{context}.sites[{i}]") for i, label in enumerate(raw)]


def _entries(raw, context: str):
    """``[site_a, site_b, value]`` entries with the value's key path."""
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{context}: expected a list of [site_a, site_b, value] entries")
    for k, entry in enumerate(raw):
        path = f"{context}[{k}]"
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ConfigError(f"{path}: expected [site_a, site_b, value], got {entry!r}")
        yield _label(entry[0], path), _label(entry[1], path), entry[2], path


def _edges(raw, context: str):
    return [(a, b, _as_complex(amp, path)) for a, b, amp, path in _entries(raw, context)]


def _pair_matrix(sites, raw, context: str) -> np.ndarray:
    index = {label: i for i, label in enumerate(sites)}
    w, seen = np.zeros((len(sites), len(sites))), set()
    for a, b, val, path in _entries(raw, context):
        if a not in index or b not in index:
            raise ConfigError(f"{path}: pair ({a!r}, {b!r}) references an unknown sample site")
        if a == b:
            raise ConfigError(f"{path}: diagonal pair weight at {a!r} is not allowed")
        pair = frozenset((index[a], index[b]))
        if pair in seen:  # it would silently replace the first weight
            raise ConfigError(f"{path}: pair ({a!r}, {b!r}) is given twice")
        seen.add(pair)
        w[index[a], index[b]] = w[index[b], index[a]] = _number(val, path)
    return w


def _known_keys(section: dict, keys: tuple, context: str) -> None:
    """Refuse the first key of ``section`` outside ``keys``, named by its key path under ``context``."""
    for key in section:
        if key not in keys:
            path = f"{context}.{key}" if context else str(key)
            raise ConfigError(f"{path}: unknown key; {context or 'the root'} takes {', '.join(keys)}")


def _section(data: dict, key: str, kind):
    if key not in data:
        raise ConfigError(f"missing configuration section {key!r}")
    if not isinstance(data[key], kind):
        raise ConfigError(f"{key}: expected a JSON {'object' if kind is dict else 'list'}, got {data[key]!r}")
    return data[key]


@dataclass
class RunConfig:
    """Checked run settings; ``dataclasses.replace`` checks the new values too."""

    model: Model
    thermal: ThermalParams
    horizon: float
    steps_list: list
    tasks: list
    tolerances: dict
    budget: int
    model_hash: str

    def __post_init__(self):
        self.horizon = _number(self.horizon, "grid.T")
        if not isinstance(self.steps_list, list) or not self.steps_list:
            raise ConfigError("grid.steps must hold at least one step count")
        self.steps_list = [_whole(s, "grid.steps") for s in self.steps_list]
        if len(set(self.steps_list)) < len(self.steps_list):
            raise ConfigError(f"grid.steps: each step count may appear once, got {self.steps_list}")
        try:
            for steps in self.steps_list:
                TimeGrid(self.horizon, steps)
        except ValueError as exc:
            raise ConfigError(f"malformed grid section: {exc}") from None

        if not isinstance(self.tasks, list) or not self.tasks:
            raise ConfigError("tasks must be a nonempty list")
        for task in self.tasks:
            if task not in KNOWN_TASKS:
                raise ConfigError(f"unknown task {task!r}; known tasks: {', '.join(KNOWN_TASKS)}")
        self.tasks = list(self.tasks)
        if "converge" in self.tasks and len(self.steps_list) < 2:
            raise ConfigError("converge task needs at least two step counts in grid.steps")

        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances must be an object of name -> value")
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES) - {"convergence_min_order"})
        if unknown:
            raise ConfigError(f"unknown tolerance name(s): {', '.join(unknown)}")
        self.tolerances = {k: _number(v, f"tolerances.{k}") for k, v in self.tolerances.items()}

        self.budget = _whole(self.budget, "budget")
        if self.budget <= 0:
            raise ConfigError(f"budget: must be positive, got {self.budget}")

    @property
    def steps(self) -> int:
        return max(self.steps_list)

    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.steps)


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    # the retired key strategy selects nothing
    _known_keys(data, ("sample", "leads", "bias", "thermal", "grid", "tasks", "tolerances", "budget", "strategy"), "")
    sample = _section(data, "sample", dict)
    leads = _section(data, "leads", (list, tuple))
    thermal_raw = _section(data, "thermal", dict)
    grid_raw = _section(data, "grid", dict)
    _known_keys(sample, ("sites", "hoppings", "w", "xi"), "sample")
    _known_keys(thermal_raw, ("beta", "mu"), "thermal")
    _known_keys(grid_raw, ("T", "steps"), "grid")

    for nu, lead in enumerate(leads):
        if not isinstance(lead, dict):
            raise ConfigError(f"leads[{nu}]: expected a JSON object, got {lead!r}")
        _known_keys(lead, ("sites", "hoppings", "coupling"), f"leads[{nu}]")
    try:
        geometry = build_geometry(
            _sites(sample, "sample"), [_sites(lead, f"leads[{nu}]") for nu, lead in enumerate(leads)]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    bias = data.get("bias", [0.0] * geometry.num_leads)
    if not isinstance(bias, (list, tuple)):
        raise ConfigError(f"bias: expected a list of one value per lead, got {bias!r}")
    couplings = []
    for nu, lead in enumerate(leads):
        context = f"leads[{nu}].coupling"
        raw = lead.get("coupling")
        if not isinstance(raw, dict):
            raise ConfigError(f"{context}: expected an object with d, f and g, got {raw!r}")
        _known_keys(raw, ("d", "f", "g"), context)
        strength = _number(raw.get("d"), f"{context}.d")
        f, g = (_as_complex_vector(raw.get(key), f"{context}.{key}") for key in "fg")
        try:
            couplings.append(LeadCoupling(strength=strength, lead_vector=f, sample_vector=g))
        except ValueError as exc:
            raise ConfigError(f"{context}: {exc}") from None

    try:
        one_particle = build_hamiltonians(
            geometry,
            _edges(sample.get("hoppings", []), "sample.hoppings"),
            [_edges(lead.get("hoppings", []), f"leads[{nu}].hoppings") for nu, lead in enumerate(leads)],
            couplings,
            [_number(v, f"bias[{nu}]") for nu, v in enumerate(bias)],
        )
        interaction = TwoBodyPotential(
            matrix=_pair_matrix(geometry.sample_sites, sample.get("w", []), "sample.w"),
            strength=_number(sample.get("xi", 0.0), "sample.xi"),
        )
        thermal = ThermalParams(
            beta=_number(thermal_raw.get("beta"), "thermal.beta"),
            mu=_number(thermal_raw.get("mu", 0.0), "thermal.mu"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    steps = grid_raw.get("steps")
    budget = data.get("budget")
    hashed = {"sample": sample, "leads": leads, "bias": list(bias), "thermal": thermal_raw, "grid": grid_raw}
    return RunConfig(
        model=Model(one_particle=one_particle, interaction=interaction),
        thermal=thermal,
        horizon=grid_raw.get("T"),
        steps_list=steps if isinstance(steps, list) else [steps],
        tasks=data.get("tasks", ["verify"]),
        tolerances=data.get("tolerances", {}),
        budget=DEFAULT_BUDGET_BYTES if budget is None else budget,
        model_hash=sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest(),
    )


def read_config(path):
    """The JSON value of the configuration file at ``path``; an unreadable file or invalid JSON is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from None


def load_config(path) -> RunConfig:
    return parse_config(read_config(path))


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
