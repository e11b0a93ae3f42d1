"""Retarded Green kernels, self-energies and the Dyson-identity checks.

The free kernel is ``-i exp(-i(t-t')h_v)``.  The interacting retarded kernel
and the reducible self-energy are two-time anticommutator grids:

    G(j,t; m,t')        = -i <{ a*(e_m)(t'), a(e_j)(t) }>
    Sigma~(j,t; m,t')   = -i <{ b*(e_m)(t'), b(e_j)(t) }>   (memory part)
                          +i <{a*(e_m), b(e_j)}(t)>          (instantaneous part)

with ``b`` the interaction-dressed ladder operators.  The map

    F(j,t; m,t')        = +  <{ a*(e_m)(t'), b(e_j)(t) }>

ties the two together: in the discrete Volterra algebra one must find
``G = G0 + G0 F`` and ``F = Sigma~ G0`` up to quadrature error, while the
chain

    G_alg := G0 + G0 Sigma~ G0,
    Sigma := Sigma~ (Id + G0 Sigma~)^{-1},
    G_alg  = G0 + G0 Sigma G_alg = (Id - G0 Sigma)^{-1} G0

holds exactly (to roundoff) whatever the kernels are.  ``verify_dyson``
measures all of it and reports residual-vs-tolerance verdicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import TimeGrid
from .model import Model
from .propagation import (
    DEFAULT_BUDGET_BYTES,
    CorrelatorFactory,
    CorrelatorGrid,
)
from .thermal import DensityOperator, ThermalParams, gibbs
from .volterra import (
    VolterraOperator,
    block_lower_solve,
    flat_max_abs,
    invert_id_plus,
    operator_norm_bound,
)

# Exact-algebra identities are roundoff-limited; quadrature-limited residuals
# get absolute defaults calibrated to the desk-scale reference grid and are
# additionally order-tested by the convergence study.
DEFAULT_TOLERANCES = {
    "reducible_dyson": 1e-3,
    "fmap_factorization": 1e-2,
    "fmap_dyson": 1e-2,
    "irreducible_dyson": 1e-11,
    "resolvent_dyson": 1e-11,
    "sample_restricted_dyson": 1e-11,
    "approx_split_zero": 1e-11,
    "approx_split_half": 1e-11,
    "approx_split_instantaneous": 1e-11,
    "lead_support": 1e-12,
    "equal_time_normalization": 1e-10,
    "hermitian_pairing": 1e-10,
    "volterra_constant_g0": 1.0 + 1e-12,
    "volterra_constant_gxi": 2.0 + 1e-10,
}

QUADRATURE_CHECKS = ("reducible_dyson", "fmap_factorization", "fmap_dyson")


def compute_g0(h_biased: np.ndarray, grid: TimeGrid) -> VolterraOperator:
    """Free retarded kernel ``K[k, l] = -i exp(-i (t_k - t_l) h_v)``."""
    h = np.asarray(h_biased, dtype=complex)
    if np.max(np.abs(h - np.conj(h.T))) > 1e-12:
        raise ValueError("one-particle Hamiltonian must be Hermitian")
    p = h.shape[0]
    lam, v = np.linalg.eigh(h)
    n = grid.n_nodes
    # kernel depends on k - l only; build one propagator per lag
    lags = np.empty((n, p, p), dtype=complex)
    lags[0] = np.eye(p)
    for m in range(1, n):
        lags[m] = (v * np.exp(-1j * m * grid.delta * lam)[None, :]) @ np.conj(v.T)
    mem = np.zeros((n, n, p, p), dtype=complex)
    for k in range(n):
        for l in range(k + 1):
            mem[k, l] = -1j * lags[k - l]
    return VolterraOperator(grid, p, mem=mem, name="G0")


class KernelEngine:
    """Shared-state computation of every kernel for one model, state and grid.

    The creation family and the dressed family are registered once, in the
    eigenbasis of ``K_v``; each of the three grids (interacting kernel,
    reducible self-energy, consistency map) is built on first use, reaching
    every node of the families it pairs by elementwise phase factors and
    pairing tiles of nodes in one GEMM each.  That costs O(N_t^2) phase
    products, no evolution sweeps and O(TILE_NODES) memory in N_t.  Derived
    objects (irreducible self-energy, algebraic Dyson solution) are exact
    flat-algebra products.
    """

    def __init__(
        self,
        model: Model,
        thermal: ThermalParams,
        grid: TimeGrid,
        budget: int = DEFAULT_BUDGET_BYTES,
        rho: DensityOperator | None = None,
        full_correlator: bool = True,
    ):
        self.model = model
        self.grid = grid
        self.thermal = thermal
        self.rho = rho if rho is not None else gibbs(model.K_0, thermal, model.N_total, label="pf")
        self.factory = CorrelatorFactory(self.rho, model.K_v, grid, budget=budget)
        self.factory.add_family("a", list(model.creation_family))
        self.factory.add_family("b", list(model.dressed_creation_family))
        self.full_correlator = full_correlator

    @property
    def p(self) -> int:
        return self.model.num_sites

    @cached_property
    def ladder_grid(self) -> CorrelatorGrid:
        return self.factory.anticommutator_grid("a", "a", full=self.full_correlator)

    @cached_property
    def dressed_grid(self) -> CorrelatorGrid:
        return self.factory.anticommutator_grid("b", "b", full=False)

    @cached_property
    def mixed_grid(self) -> CorrelatorGrid:
        return self.factory.anticommutator_grid("a", "b", full=False)

    @cached_property
    def g0(self) -> VolterraOperator:
        return compute_g0(self.model.h_biased, self.grid)

    @cached_property
    def gxi(self) -> VolterraOperator:
        op = VolterraOperator(
            self.grid, self.p, mem=self.ladder_grid.causal_kernel(-1j), name="Gxi"
        )
        return op

    @cached_property
    def contact_expectations(self) -> tuple[np.ndarray, float]:
        """Instantaneous entries ``<{a*(e_m), b(e_j)}(t_k)>`` plus support defect.

        Only sample-sample pairs are evolved; for pairs touching a lead the
        equal-time anticommutator is built once and its (exactly vanishing)
        magnitude is recorded as part of the lead-support evidence.
        """
        model, grid = self.model, self.grid
        d, ns = model.num_sites, model.num_sample
        values = np.zeros((d, d, grid.n_nodes), dtype=complex)
        sample_ops = []
        sample_pairs = []
        lead_defect = 0.0
        for j in range(d):
            for m in range(d):
                if j < ns and m < ns:
                    sample_pairs.append((j, m))
                    sample_ops.append(model.contact_operator(j, m))
                else:
                    lead_defect = max(lead_defect, model.contact_operator(j, m).max_abs())
        series = self.factory.expectation_series(sample_ops)
        for (j, m), row in zip(sample_pairs, series):
            values[j, m] = row
        return values, lead_defect

    @cached_property
    def sigma_tilde(self) -> VolterraOperator:
        mem = self.dressed_grid.causal_kernel(-1j)
        contact, _ = self.contact_expectations
        inst = (1j * contact).transpose(2, 0, 1).copy()
        return VolterraOperator(self.grid, self.p, mem=mem, inst=inst, name="SigmaTilde")

    @cached_property
    def f_map(self) -> VolterraOperator:
        return VolterraOperator(
            self.grid, self.p, mem=self.mixed_grid.causal_kernel(1.0), name="F"
        )

    @cached_property
    def sigma(self) -> VolterraOperator:
        op = irreducible_sigma(self.g0, self.sigma_tilde)
        return op

    @cached_property
    def g_alg(self) -> VolterraOperator:
        """Discrete-algebra Dyson solution ``G0 + G0 Sigma~ G0``."""
        op = self.g0 + self.g0 @ self.sigma_tilde @ self.g0
        op.name = "Galg"
        return op

    @cached_property
    def quadrature(self) -> dict:
        """The three quadrature-limited residuals (see ``quadrature_residuals``)."""
        return quadrature_residuals(self.g0, self.gxi, self.sigma_tilde, self.g_alg, self.f_map)

    def verify(self, tolerances: dict | None = None, model_hash: str = "") -> "DysonReport":
        return verify_dyson(
            self.g0,
            self.gxi,
            self.sigma_tilde,
            self.sigma,
            self.grid,
            f_map=self.f_map,
            engine=self,
            tolerances=tolerances,
            model_hash=model_hash,
        )


def irreducible_sigma(g0: VolterraOperator, sigma_tilde: VolterraOperator) -> VolterraOperator:
    """Proper self-energy ``Sigma = Sigma~ (Id + G0 Sigma~)^{-1}``.

    ``G0 Sigma~`` is memory-only (the free kernel has no instantaneous part),
    so the inverse exists by forward substitution; the instantaneous part of
    the result equals that of ``Sigma~`` identically.
    """
    resolvent = invert_id_plus(g0 @ sigma_tilde)
    sigma = sigma_tilde + sigma_tilde @ resolvent
    sigma.name = "Sigma"
    return sigma


def restrict_to_sample(op: VolterraOperator, num_sample: int) -> VolterraOperator:
    return op.restrict(np.arange(num_sample))


def advanced_from_retarded(retarded: VolterraOperator) -> np.ndarray:
    """Advanced kernel ``adv[k, l] = -K_ret[l, k]`` on the acausal range l >= k."""
    mem = retarded.memory_kernel()
    n = retarded.grid.n_nodes
    adv = np.zeros_like(mem)
    for k in range(n):
        for l in range(k, n):
            adv[k, l] = -mem[l, k]
    return adv


def dyson_solution(g0: VolterraOperator, sigma: VolterraOperator) -> VolterraOperator:
    """Solve ``G = (Id - G0 Sigma)^{-1} G0`` exactly in the discrete algebra."""
    n, p = g0.grid.n_nodes, g0.p
    eye = np.eye(n * p, dtype=complex)
    m = eye - (g0 @ sigma).flat
    flat = block_lower_solve(m, g0.flat, g0.grid, p)
    return VolterraOperator(g0.grid, p, flat=flat, inst=None, name="Gdyson")


def approx_split(
    sigma: VolterraOperator,
    sigma_app: VolterraOperator,
    g0: VolterraOperator,
    g_reference: VolterraOperator,
) -> tuple[VolterraOperator, float]:
    """Approximate-propagator splitting around an approximating self-energy.

    Returns ``G_app = (Id - G0 Sigma_app)^{-1} G0`` and the max-abs residual
    of ``G_ref = G_app + G_app (Sigma - Sigma_app) G_ref``, which is an exact
    discrete-algebra identity whenever ``G_ref`` solves the full equation.
    """
    g_app = dyson_solution(g0, sigma_app)
    correction = sigma - sigma_app
    residual = flat_max_abs(
        g_reference.flat - g_app.flat - (g_app @ correction @ g_reference).flat
    )
    return g_app, residual


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    kind: str

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "check_name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "kind": self.kind,
            "pass": self.passed,
        }


@dataclass
class DysonReport:
    """Residual-vs-tolerance record for every verified identity."""

    model_hash: str
    horizon: float
    steps: int
    checks: list = field(default_factory=list)

    def add(self, name: str, residual: float, tolerance: float, kind: str) -> CheckResult:
        result = CheckResult(name, float(residual), float(tolerance), kind)
        self.checks.append(result)
        return result

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def residual(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.residual
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "model_hash": self.model_hash,
            "grid": {"T": self.horizon, "steps": self.steps},
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "DysonReport":
        report = cls(data["model_hash"], data["grid"]["T"], data["grid"]["steps"])
        for entry in data["checks"]:
            report.add(entry["check_name"], entry["residual"], entry["tolerance"], entry["kind"])
        return report

    @classmethod
    def from_json(cls, text: str) -> "DysonReport":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other) -> bool:
        return isinstance(other, DysonReport) and self.to_dict() == other.to_dict()


def fit_convergence_order(deltas, residuals) -> float:
    """Least-squares slope of log(residual) against log(delta)."""
    deltas = np.asarray(deltas, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    slope = np.polyfit(np.log(deltas), np.log(residuals), 1)[0]
    return float(slope)


def convergence_study(
    model: Model,
    thermal: ThermalParams,
    horizon: float,
    steps_list,
    budget: int = DEFAULT_BUDGET_BYTES,
    engine: KernelEngine | None = None,
) -> dict:
    """Quadrature-residual table over a family of grids plus fitted orders.

    The state is grid-independent and shared across the study; each grid gets
    its own kernel engine, which builds only what the three quadrature-limited
    identities need (see ``quadrature_residuals``).  An ``engine`` already
    built for the same model and state serves its own grid and lends its
    state to the others; its causal blocks are the same products as a
    causal-only engine's, so the table does not change.  The exact-algebra
    checks are grid-independent and belong to ``verify_dyson``.  Returns the
    CSV text, the rows, and fitted orders for the three identities.
    """
    steps_list = sorted(int(s) for s in steps_list)
    rho = engine.rho if engine is not None else gibbs(model.K_0, thermal, model.N_total, label="pf")
    names = QUADRATURE_CHECKS
    rows = []
    for steps in steps_list:
        grid = TimeGrid(horizon, steps)
        if engine is None or engine.grid != grid:
            engine_at = KernelEngine(
                model, thermal, grid, budget=budget, rho=rho, full_correlator=False
            )
        else:
            engine_at = engine
        rows.append({"steps": steps, "delta": grid.delta} | engine_at.quadrature)
    deltas = [row["delta"] for row in rows]
    fitted = {name: fit_convergence_order(deltas, [row[name] for row in rows]) for name in names}
    lines = ["steps,delta," + ",".join(names)]
    for row in rows:
        lines.append(
            f"{row['steps']},{row['delta']!r}," + ",".join(repr(row[name]) for name in names)
        )
    summary = {
        "rows": rows,
        "fitted_orders": fitted,
        "richardson_ratios": {
            name: [rows[i][name] / rows[i + 1][name] for i in range(len(rows) - 1)]
            for name in names
        },
    }
    return {"csv": "\n".join(lines) + "\n", "summary": summary}


def _lead_support_defect(op: VolterraOperator, num_sample: int) -> float:
    mem = op.memory_kernel()
    inst = op.instantaneous()
    mask = np.ones((op.p, op.p), dtype=bool)
    mask[:num_sample, :num_sample] = False
    worst = float(np.max(np.abs(mem[..., mask]))) if mask.any() else 0.0
    worst = max(worst, float(np.max(np.abs(inst[:, mask]))) if mask.any() else 0.0)
    return worst


def _pairing_defect(grid_values: np.ndarray) -> float:
    mirrored = np.conj(grid_values.transpose(1, 0, 3, 2))
    return float(np.max(np.abs(grid_values - mirrored)))


def quadrature_residuals(
    g0: VolterraOperator,
    gxi: VolterraOperator,
    sigma_tilde: VolterraOperator,
    g_alg: VolterraOperator,
    f_map: VolterraOperator | None = None,
) -> dict:
    """Induced-norm residuals of the quadrature-limited identities.

    ``reducible_dyson`` compares ``Gxi`` with ``g_alg = G0 + G0 Sigma~ G0``;
    given ``F``, ``fmap_factorization`` and ``fmap_dyson`` are added as well.
    """
    grid, p = g0.grid, g0.p
    residuals = {"reducible_dyson": operator_norm_bound(gxi.flat - g_alg.flat, grid, p)}
    if f_map is not None:
        residuals["fmap_factorization"] = operator_norm_bound(
            f_map.flat - (sigma_tilde @ g0).flat, grid, p
        )
        residuals["fmap_dyson"] = operator_norm_bound(
            gxi.flat - g0.flat - (g0 @ f_map).flat, grid, p
        )
    return residuals


def verify_dyson(
    g0: VolterraOperator,
    gxi: VolterraOperator,
    sigma_tilde: VolterraOperator,
    sigma: VolterraOperator,
    grid: TimeGrid,
    f_map: VolterraOperator | None = None,
    engine: KernelEngine | None = None,
    tolerances: dict | None = None,
    model_hash: str = "",
) -> DysonReport:
    """Measure every identity residual and grade it against its tolerance.

    Quadrature-limited identities are measured with the induced-norm bound of
    the discrete operator difference (max over row nodes of summed block
    spectral norms); exact-algebra identities with the max-abs entry of the
    flat difference.  Given the ``engine`` that built the kernels, its cached
    ``g_alg`` and quadrature residuals are used, so a convergence study on
    the same engine does not compute them again.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    report = DysonReport(model_hash, grid.horizon, grid.steps)
    p = g0.p

    if engine is not None:
        g_alg, quadrature = engine.g_alg, engine.quadrature
    else:
        g_alg = g0 + g0 @ sigma_tilde @ g0
        quadrature = quadrature_residuals(g0, gxi, sigma_tilde, g_alg, f_map)

    report.add("reducible_dyson", quadrature["reducible_dyson"], tol["reducible_dyson"], "quadrature")
    report.add(
        "irreducible_dyson",
        flat_max_abs(g_alg.flat - g0.flat - (g0 @ sigma @ g_alg).flat),
        tol["irreducible_dyson"],
        "exact-algebra",
    )
    report.add(
        "resolvent_dyson",
        flat_max_abs(dyson_solution(g0, sigma).flat - g_alg.flat),
        tol["resolvent_dyson"],
        "exact-algebra",
    )

    for name in ("fmap_factorization", "fmap_dyson"):
        if name in quadrature:
            report.add(name, quadrature[name], tol[name], "quadrature")

    num_sample = engine.model.num_sample if engine is not None else None
    if num_sample is not None and num_sample < p:
        support = max(
            _lead_support_defect(sigma_tilde, num_sample),
            _lead_support_defect(sigma, num_sample),
            max(op.max_abs() for op in engine.model.dressed_creation_family[num_sample:]),
            engine.contact_expectations[1],
        )
        report.add("lead_support", support, tol["lead_support"], "roundoff")

        sub = np.arange(num_sample)
        g_alg_s, g0_s, sigma_s = (x.restrict(sub) for x in (g_alg, g0, sigma))
        report.add(
            "sample_restricted_dyson",
            flat_max_abs(g_alg_s.flat - g0_s.flat - (g0_s @ sigma_s @ g_alg_s).flat),
            tol["sample_restricted_dyson"],
            "exact-algebra",
        )

    nodes = np.arange(grid.n_nodes)
    equal_time = float(np.max(np.abs(gxi.memory_kernel()[nodes, nodes] + 1j * np.eye(p))))
    report.add("equal_time_normalization", equal_time, tol["equal_time_normalization"], "roundoff")

    if engine is not None and engine.ladder_grid.full:
        report.add(
            "hermitian_pairing",
            _pairing_defect(engine.ladder_grid.values),
            tol["hermitian_pairing"],
            "roundoff",
        )

    report.add("volterra_constant_g0", g0.volterra_constant(), tol["volterra_constant_g0"], "bound")
    report.add("volterra_constant_gxi", gxi.volterra_constant(), tol["volterra_constant_gxi"], "bound")

    zero = VolterraOperator(grid, p, mem=np.zeros_like(sigma_tilde.memory_kernel()), name="0")
    half = sigma.scale(0.5)
    inst_only = VolterraOperator(
        grid, p,
        inst=sigma.instantaneous().copy(),
        mem=np.zeros((grid.n_nodes, grid.n_nodes, p, p), dtype=complex),
        name="Sigma_inst",
    )
    for name, sigma_app in (
        ("approx_split_zero", zero),
        ("approx_split_half", half),
        ("approx_split_instantaneous", inst_only),
    ):
        _, residual = approx_split(sigma, sigma_app, g0, g_alg)
        report.add(name, residual, tol[name], "exact-algebra")

    return report
