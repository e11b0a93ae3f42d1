"""Spans around the public functions of each pfnegf layer, and their analysis.

The traced child process calls ``install`` before running the command line
entry point.  Every target below is wrapped wherever the package holds a
reference to it, so a name bound with ``from ... import`` in another module
is traced as well; a target that no longer exists raises instead of reading
as zero.  Spans keep name, start, end and parent index, stay in memory and
are written out once, when the traced process ends.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly (one thread, stack discipline), so the self
times of all spans sum to the root span's duration.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (layer, module, attribute path) of every traced function.
TARGETS = (
    ("config.load", "pfnegf.config", "load_config"),
    ("thermal.gibbs", "pfnegf.thermal", "gibbs"),
    ("thermal.gamma_check", "pfnegf.thermal", "gamma_check"),
    ("thermal.gamma_check", "pfnegf.thermal", "picard_gamma"),
    ("propagation.engine_init", "pfnegf.negf", "KernelEngine.__init__"),
    ("propagation.grid", "pfnegf.propagation", "CorrelatorFactory.anticommutator_grid"),
    ("propagation.expectation", "pfnegf.propagation", "CorrelatorFactory.expectation_series"),
    ("negf.g0", "pfnegf.negf", "compute_g0"),
    ("negf.sigma", "pfnegf.negf", "irreducible_sigma"),
    ("negf.verify", "pfnegf.negf", "verify_dyson"),
    ("negf.converge", "pfnegf.negf", "convergence_study"),
    ("volterra.compose", "pfnegf.volterra", "VolterraOperator.compose"),
    ("volterra.solve", "pfnegf.volterra", "block_lower_solve"),
    ("volterra.norm", "pfnegf.volterra", "operator_norm_bound"),
    ("volterra.norm", "pfnegf.volterra", "VolterraOperator.volterra_constant"),
    ("volterra.dump", "pfnegf.volterra", "dump_kernel_to_path"),
)

# Lazily built many-body operators and families of ``Model`` (fock, lattice).
MODEL_BUILDERS = (
    "space", "H", "H_T", "N_total", "N_lead", "W", "K_v", "K_0", "K_D",
    "creation_family", "dressed_creation_family", "contact_operator",
)

LAYERS = tuple(dict.fromkeys(["model.operators"] + [layer for layer, _, _ in TARGETS]))


class Tracer:
    """In-memory span recorder; the root span is open from construction."""

    def __init__(self, start: float):
        self.spans = []
        self._stack = []
        self.open("run", start)

    def open(self, name: str, start: float | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        now = time.monotonic() if start is None else start
        self.spans.append({"name": name, "start": now, "end": None, "parent": parent})
        self._stack.append(index)
        return index

    def close(self, index: int) -> dict:
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index]['name']} closed out of order")
        span = self.spans[index]
        span["end"] = time.monotonic()
        return span

    def wrap(self, layer: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(index)
            if info is not None:
                span.update(info(args, kwargs, result))
            return result

        return traced


def _picard_info(args, kwargs, result):
    return {"picard_orders": int(result[1].orders_used)}


def _grid_info(args, kwargs, result):
    factory = args[0]
    full = args[3] if len(args) > 3 else kwargs.get("full", False)
    values = result.values
    n = values.shape[2]
    history = factory.strategy == "history"
    return {
        "n_nodes": n,
        "full": bool(full),
        "blocks": n * n if full else n * (n + 1) // 2,
        "filled_blocks": int((values != 0).any(axis=(0, 1)).sum()),
        "factory": id(factory),
        "strategy": factory.strategy,
        "history_bytes": factory.history_bytes() if history else 0,
    }


def _compose_info(args, kwargs, result):
    # complex matmul of the two dense flats: 8 real flops per multiply-add
    (rows, inner), cols = args[0].flat.shape, args[1].flat.shape[1]
    return {"gflop": 8.0 * rows * inner * cols / 1e9}


def _dump_info(args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


INFO = {
    ("pfnegf.thermal", "picard_gamma"): _picard_info,
    ("pfnegf.propagation", "CorrelatorFactory.anticommutator_grid"): _grid_info,
    ("pfnegf.volterra", "VolterraOperator.compose"): _compose_info,
    ("pfnegf.volterra", "dump_kernel_to_path"): _dump_info,
}


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded pfnegf module."""
    import importlib
    from functools import cached_property

    # import every target's module first, so that every module holding a
    # reference to a target is loaded before the references are replaced
    owners = {name: importlib.import_module(name) for _, name, _ in TARGETS}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pfnegf"]
    for layer, module_name, path in TARGETS:
        owner = owners[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(layer, original, INFO.get((module_name, path)))
        if outer:
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)

    from pfnegf.model import Model

    for name in MODEL_BUILDERS:
        member = Model.__dict__[name]
        if isinstance(member, cached_property):
            prop = cached_property(tracer.wrap("model.operators", member.func))
            prop.__set_name__(Model, name)
            setattr(Model, name, prop)
        else:
            setattr(Model, name, tracer.wrap("model.operators", member))


# -- analysis (runs in the benchmark process; imports nothing from pfnegf) --


def self_times(spans) -> list:
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans) -> dict:
    """Per-layer self times, call counts and computed sizes of one traced run."""
    own = self_times(spans)
    time_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for span, t in zip(spans, own):
        if span["name"] in time_s:
            time_s[span["name"]] += t
            calls[span["name"]] += 1

    def total(layer, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == layer)

    # a factory's id can be reused once it is freed; its grid size tells engines apart
    histories = {
        (s["factory"], s["n_nodes"]): s["history_bytes"]
        for s in spans
        if s["name"] == "propagation.grid"
    }
    metrics = {f"{layer}_s": (t, "s") for layer, t in time_s.items()}
    metrics.update({
        "thermal.gibbs_calls": (calls["thermal.gibbs"], "count"),
        "thermal.picard_orders": (total("thermal.gamma_check", "picard_orders"), "count"),
        "propagation.grid_calls": (calls["propagation.grid"], "count"),
        "propagation.grid_blocks": (total("propagation.grid", "blocks"), "count"),
        "propagation.history_bytes": (sum(histories.values()), "B"),
        "volterra.compose_calls": (calls["volterra.compose"], "count"),
        "volterra.compose_gflop": (total("volterra.compose", "gflop"), "GFLOP"),
        "volterra.solve_calls": (calls["volterra.solve"], "count"),
        "volterra.norm_calls": (calls["volterra.norm"], "count"),
        "volterra.dump_mb": (total("volterra.dump", "bytes") / 1e6, "MB"),
    })
    return metrics


def shares(spans) -> dict:
    """Share of the root span's duration spent in each module (self time)."""
    own = self_times(spans)
    root = spans[0]["end"] - spans[0]["start"]
    out = {}
    for span, t in zip(spans, own):
        module = "other" if span["parent"] < 0 else span["name"].split(".")[0]
        out[module] = out.get(module, 0.0) + t / root
    return out
