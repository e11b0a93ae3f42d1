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

from dataclasses import dataclass, field

import numpy as np

from .errors import MemoryBudgetError
from .grid import TimeGrid
from .model import Model
from .propagation import DEFAULT_BUDGET_BYTES, CorrelatorFactory
from .thermal import ThermalParams, gibbs
from .volterra import Sum, VolterraOperator, packed_size, solve_id_plus

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

# Full-p packed Volterra operators' worth of memory that ``verify`` holds at
# once.  tracemalloc on the lead3-verify (d = 8) and ref-recompute (d = 6)
# benchmark configs, 101 nodes, seed 0, traced from before the engine is
# built, measured a peak of 10.1 and 5.0 full-p packed buffers in the engine
# (the sweep's, set while Gxi is packed) and 6.0 and 5.3 in ``verify``,
# everything the engine keeps included.  The residuals are reduced tile row
# by tile row, so a tile row's few slabs are all they add.
ALGEBRA_OPERATORS = 16


def compute_g0(h_biased: np.ndarray, grid: TimeGrid) -> VolterraOperator:
    """Free retarded kernel ``K[k, l] = -i exp(-i (t_k - t_l) h_v)``."""
    h = np.asarray(h_biased, dtype=complex)
    if not np.max(np.abs(h - np.conj(h.T))) <= 1e-12:  # a nan matrix fails too
        raise ValueError("one-particle Hamiltonian must be Hermitian")
    p = h.shape[0]
    lam, v = np.linalg.eigh(h)
    n = grid.n_nodes
    # kernel depends on k - l only: one block per lag, and a zero block at
    # index n for every acausal l > k
    lags = np.zeros((n + 1, p, p), dtype=complex)
    lags[0] = -1j * np.eye(p, dtype=complex)
    for m in range(1, n):
        lags[m] = -1j * ((v * np.exp(-1j * m * grid.delta * lam)[None, :]) @ np.conj(v.T))
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    return VolterraOperator(grid, p, mem=lags[np.where(lag >= 0, lag, n)])


class KernelEngine:
    """Every kernel and residual of one model and grid, computed at construction.

    The state is the partition-free one, the Gibbs state of the coupled and
    unbiased ``K_0`` at ``thermal``.  The creation family and the dressed
    family are registered once, in the eigenbasis of ``K_v``.  The three grids
    (interacting kernel, reducible self-energy, consistency map) come from one
    sweep: it reaches every node of the two families by elementwise phase
    factors and, particle-number sector by sector, forms each held and D tile
    once for all three grids and pairs tiles of nodes in one GEMM per grid.
    That costs O(N_t^2) phase products, no evolution sweeps and O(TILE_NODES)
    memory in N_t.  Each grid holds only the nonzero rows of its two families
    (the dressed family vanishes on the leads), and each kernel is packed with
    those rows as its orbital support: ``Sigma~`` holds sample x sample, ``F``
    sample x all, and ``Gxi`` and ``G0`` every orbital.  Derived objects
    (irreducible self-energy, algebraic Dyson solution) are exact products of
    the packed causal algebra, which carries the support along.

    The constructor runs the whole chain in one order, which sets both the
    bits and the memory peak, and drops each temporary after its last read:
    the full ladder grid (both triangles) gives ``pairing_defect`` and then
    ``gxi``; ``F``, packed unscaled (it is never dumped, and its two norm
    bounds read magnitudes alone), gives its two quadrature residuals;
    ``Sigma~ G0``, formed for one of them, gives ``sigma``.  No grid is kept.
    Each quadrature residual is a ``volterra.Sum`` reduced one tile row at a
    time, so no difference and no product ``Sum(G0) @ F`` is formed whole,
    and ``g_alg`` is written slab by slab into its own buffer.  ``budget``
    covers ``ALGEBRA_OPERATORS`` full-p packed operators, checked first, and
    the held and D tiles of both families, checked before the sweep starts;
    either raises ``MemoryBudgetError`` from the constructor.
    """

    def __init__(
        self,
        model: Model,
        thermal: ThermalParams,
        grid: TimeGrid,
        budget: int = DEFAULT_BUDGET_BYTES,
    ):
        need = ALGEBRA_OPERATORS * 16 * packed_size(grid.n_nodes, model.num_sites)  # complex128
        if need > budget:
            raise MemoryBudgetError(
                f"the Volterra algebra needs {need} bytes (budget {budget}); "
                "reduce the step count or the orbital count"
            )
        self.model, self.grid, self.thermal, self.budget = model, grid, thermal, budget
        self.p = p = model.num_sites
        rho = gibbs(model.K_0, thermal, model.N_total, label="pf")
        self.factory = CorrelatorFactory(rho, model.K_v, grid, budget=budget)
        self.factory.add_family("a", list(model.creation_family))
        self.factory.add_family("b", list(model.dressed_creation_family))

        def packed(corr, scale=None, inst=None) -> VolterraOperator:
            mem = corr.causal_kernel()
            return VolterraOperator(grid, p, inst=inst, mem=mem, rows=corr.rows, cols=corr.cols, scale=scale)

        self.g0 = g0 = compute_g0(model.h_biased, grid)
        ladder = self.factory.anticommutator_grid("a", "a", True, [("b", "b"), ("a", "b")])
        dressed, mixed = ladder.companions
        self.pairing_defect = ladder.pairing_defect()  # before causal_kernel zeroes the acausal half
        self.gxi = gxi = packed(ladder, -1j)
        del ladder
        self.contact_expectations = _contact_expectations(model, self.factory)
        contact = self.contact_expectations[0]
        self.sigma_tilde = sigma_tilde = packed(dressed, -1j, inst=(1j * contact).transpose(2, 0, 1).copy())
        del dressed
        f_map = packed(mixed)
        del mixed
        fmap_dyson = (Sum(gxi) - g0 - Sum(g0) @ f_map).norm_bound()
        sigma_tilde_g0 = sigma_tilde @ g0
        fmap_factorization = (Sum(f_map) - sigma_tilde_g0).norm_bound()
        del f_map
        self.sigma = irreducible_sigma(g0, sigma_tilde, sigma_tilde_g0)
        del sigma_tilde_g0
        # the discrete-algebra Dyson solution, g0 + (g0 Sigma~) g0
        self.g_alg = (Sum(g0) + Sum(g0 @ sigma_tilde) @ g0).evaluate()
        # induced-norm residuals of the three quadrature-limited identities
        self.quadrature = {
            "reducible_dyson": (Sum(gxi) - self.g_alg).norm_bound(),
            "fmap_factorization": fmap_factorization,
            "fmap_dyson": fmap_dyson,
        }


def _contact_expectations(model: Model, factory: CorrelatorFactory) -> tuple[np.ndarray, float]:
    """Instantaneous entries ``<{a*(e_m), b(e_j)}(t_k)>`` plus support defect.

    Only sample-sample pairs are evolved; for pairs touching a lead the
    equal-time anticommutator is built once and its (exactly vanishing)
    magnitude is recorded as part of the lead-support evidence.
    """
    d, ns = model.num_sites, model.num_sample
    values = np.zeros((d, d, factory.grid.n_nodes), dtype=complex)
    sample_ops = []
    sample_pairs = []
    lead_defects = []
    for j in range(d):
        for m in range(d):
            if j < ns and m < ns:
                sample_pairs.append((j, m))
                sample_ops.append(model.contact_operator(j, m))
            else:
                lead_defects.append(model.contact_operator(j, m).max_abs())
    series = factory.expectation_series(sample_ops)
    for (j, m), row in zip(sample_pairs, series):
        values[j, m] = row
    # every geometry has a lead site, so some pair touches a lead
    return values, float(np.max(lead_defects))


def irreducible_sigma(
    g0: VolterraOperator, sigma_tilde: VolterraOperator, sigma_tilde_g0: VolterraOperator | None = None
) -> VolterraOperator:
    """Proper self-energy ``Sigma = Sigma~ (Id + G0 Sigma~)^{-1}``.

    Computed as ``(Id + Sigma~ G0)^{-1} Sigma~`` by the push-through identity
    ``Sigma~ (Id + G0 Sigma~)^{-1} = (Id + Sigma~ G0)^{-1} Sigma~``, which holds
    exactly in any matrix algebra: one compose and one causal solve.
    ``Sigma~ G0`` is memory-only (the free kernel has no instantaneous part),
    so the solve exists by forward substitution and the instantaneous part of
    the result equals that of ``Sigma~`` identically.  A caller that holds
    the product ``Sigma~ G0`` passes it as ``sigma_tilde_g0``.
    """
    if sigma_tilde_g0 is None:
        sigma_tilde_g0 = sigma_tilde @ g0
    return solve_id_plus(sigma_tilde_g0, sigma_tilde).evaluate()


def dyson_solution(g0: VolterraOperator, g0_sigma: VolterraOperator) -> Sum:
    """``G = (Id - G0 Sigma)^{-1} G0`` exactly in the discrete algebra, as a ``Sum``, from ``g0_sigma = G0 Sigma``."""
    return solve_id_plus(-g0_sigma, g0)


def approx_split(
    sigma: VolterraOperator,
    sigma_app: VolterraOperator,
    g0: VolterraOperator,
    g_reference: VolterraOperator,
) -> tuple[Sum, float]:
    """Approximate-propagator splitting around an approximating self-energy.

    Returns ``G_app = (Id - G0 Sigma_app)^{-1} G0``, as a ``Sum`` that is
    never formed whole, and the max-abs residual of
    ``G_ref = G_app + G_app (Sigma - Sigma_app) G_ref``, which is an exact
    discrete-algebra identity whenever ``G_ref`` solves the full equation.
    The residual is reduced tile row by tile row.  ``G_app`` is read twice
    in it, as a term and as the left factor, and each of its tile rows is
    formed once for both: the left factor's columns are copied from the row
    before the row becomes the residual's accumulator.
    """
    g_app = dyson_solution(g0, g0 @ sigma_app)
    correction = sigma - sigma_app
    del sigma_app  # not read again
    return g_app, (Sum(g_reference) - g_app - g_app @ correction @ g_reference).max_abs()


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


def fit_convergence_order(deltas, residuals) -> float:
    """Least-squares slope of log(residual) against log(delta).

    nan unless every residual is positive and finite.
    """
    deltas = np.asarray(deltas, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if not np.all((residuals > 0) & np.isfinite(residuals)):
        return float("nan")
    slope = np.polyfit(np.log(deltas), np.log(residuals), 1)[0]
    return float(slope)


def convergence_study(engine: KernelEngine, steps_list) -> dict:
    """Quadrature-residual table over a family of grids plus fitted orders.

    ``engine`` serves its own grid with the residuals it already holds
    (``KernelEngine.quadrature``).  Every other grid gets a kernel engine of
    the same model, thermal parameters, horizon and budget, of which only
    those residuals are read.  The exact-algebra checks are grid-independent
    and belong to ``verify_dyson``.
    Returns the CSV text, the rows, and fitted orders for the three
    identities.  A zero residual gives a nan or inf Richardson ratio and a nan
    order.
    """
    steps_list = sorted(int(s) for s in steps_list)
    names = QUADRATURE_CHECKS
    rows = []
    for steps in steps_list:
        grid = TimeGrid(engine.grid.horizon, steps)
        engine_at = engine
        if engine.grid != grid:
            engine_at = KernelEngine(engine.model, engine.thermal, grid, budget=engine.budget)
        rows.append({"steps": steps, "delta": grid.delta} | engine_at.quadrature)
    deltas = [row["delta"] for row in rows]
    fitted = {name: fit_convergence_order(deltas, [row[name] for row in rows]) for name in names}
    lines = ["steps,delta," + ",".join(names)]
    for row in rows:
        lines.append(
            f"{row['steps']},{row['delta']!r}," + ",".join(repr(row[name]) for name in names)
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = {
            name: [float(np.divide(rows[i][name], rows[i + 1][name])) for i in range(len(rows) - 1)]
            for name in names
        }
    summary = {"rows": rows, "fitted_orders": fitted, "richardson_ratios": ratios}
    return {"csv": "\n".join(lines) + "\n", "summary": summary}


def _lead_support_defect(op: VolterraOperator, num_sample: int) -> float:
    # every geometry has a lead site, so the mask is never empty
    mask = np.ones((op.p, op.p), dtype=bool)
    mask[:num_sample, :num_sample] = False
    worst = float(np.max([np.max(np.abs(blocks[..., mask])) for _, _, blocks in op.kernel_tiles()]))
    return float(np.max([worst, np.max(np.abs(op.instantaneous()[:, mask]))]))


def verify_dyson(
    engine: KernelEngine,
    tolerances: dict | None = None,
    model_hash: str = "",
) -> DysonReport:
    """Measure every identity residual on ``engine``'s kernels and grade it.

    Quadrature-limited identities are measured with the induced-norm bound of
    the discrete operator difference (``norm_bound``: max over row nodes of
    summed block spectral norms); exact-algebra identities with its max-abs
    entry (``max_abs``).  Every operator, ``g_alg`` and the quadrature residuals
    are the ones the engine built, which a convergence study on the same
    engine reads as well.  Each exact-algebra residual is a ``volterra.Sum``
    reduced one tile row at a time, in the association and order of the
    expression formed whole: the Dyson solution (``dyson_solution``, as in
    each approximate split), the differences and the products with ``g_alg``
    are never formed whole.  Only ``G0 Sigma``, shared by two checks, and the
    sample-size operators are.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    grid, model = engine.grid, engine.model
    g0, gxi, sigma_tilde, sigma = engine.g0, engine.gxi, engine.sigma_tilde, engine.sigma
    g_alg, quadrature = engine.g_alg, engine.quadrature
    report = DysonReport(model_hash, grid.horizon, grid.steps)
    p = g0.p

    # G0 Sigma is formed once for resolvent_dyson and irreducible_dyson, and
    # freed before the approximate splits
    g0_sigma = g0 @ sigma
    resolvent = (dyson_solution(g0, g0_sigma) - g_alg).max_abs()
    irreducible = (Sum(g_alg) - g0 - Sum(g0_sigma) @ g_alg).max_abs()
    del g0_sigma

    report.add("reducible_dyson", quadrature["reducible_dyson"], tol["reducible_dyson"], "quadrature")
    report.add("irreducible_dyson", irreducible, tol["irreducible_dyson"], "exact-algebra")
    report.add("resolvent_dyson", resolvent, tol["resolvent_dyson"], "exact-algebra")
    for name in ("fmap_factorization", "fmap_dyson"):
        report.add(name, quadrature[name], tol[name], "quadrature")

    num_sample = model.num_sample
    support = np.max([
        _lead_support_defect(sigma_tilde, num_sample),
        _lead_support_defect(sigma, num_sample),
        *(op.max_abs() for op in model.dressed_creation_family[num_sample:]),
        engine.contact_expectations[1],
    ])
    report.add("lead_support", support, tol["lead_support"], "roundoff")

    sub = np.arange(num_sample)
    g_alg_s, g0_s, sigma_s = (x.restrict(sub) for x in (g_alg, g0, sigma))
    report.add(
        "sample_restricted_dyson",
        (Sum(g_alg_s) - g0_s - Sum(g0_s @ sigma_s) @ g_alg_s).max_abs(),
        tol["sample_restricted_dyson"],
        "exact-algebra",
    )
    del g_alg_s, g0_s, sigma_s

    equal_time = float(np.max([
        np.max(np.abs(blocks[np.arange(k1 - k0), np.arange(k0, k1)] + 1j * np.eye(p)))
        for k0, k1, blocks in gxi.kernel_tiles()
    ]))
    report.add("equal_time_normalization", equal_time, tol["equal_time_normalization"], "roundoff")
    report.add("hermitian_pairing", engine.pairing_defect, tol["hermitian_pairing"], "roundoff")

    report.add("volterra_constant_g0", g0.volterra_constant(), tol["volterra_constant_g0"], "bound")
    report.add("volterra_constant_gxi", gxi.volterra_constant(), tol["volterra_constant_gxi"], "bound")

    # with Sigma_app = 0, G_app is G0 and the split residual is irreducible_dyson's
    report.add("approx_split_zero", irreducible, tol["approx_split_zero"], "exact-algebra")
    # each approximating self-energy is built for its own check and freed after it; the
    # instantaneous one holds its matrix, so its zero kernel is not weighed on every read
    for name, sigma_app in (
        ("approx_split_half", lambda: sigma.scale(0.5)),
        ("approx_split_instantaneous", lambda: VolterraOperator(
            grid, p, inst=sigma.instantaneous().copy(), rows=sigma.rows, cols=sigma.cols
        ).holding_matrix()),
    ):
        residual = approx_split(sigma, sigma_app(), g0, g_alg)[1]
        report.add(name, residual, tol[name], "exact-algebra")

    return report
