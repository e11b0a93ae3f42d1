"""Thermal states of the coupled and decoupled system.

The initial state is the grand-canonical Gibbs state of the *coupled but
unbiased* interacting Hamiltonian; the decoupled Gibbs state serves as a
reference.  At finite size the two are linked by the dressing operator
``Gamma(beta) = exp(beta K_D) exp(-beta K_0)``, which solves

    Gamma'(x) = -B(ix) Gamma(x),   Gamma(0) = Id,
    B(alpha)  = exp(-i alpha K_D) H_T exp(i alpha K_D),

and turns every coupled expectation into a decoupled one:

    <O> = Tr(rho_D Gamma O) / Tr(rho_D Gamma).

``picard_gamma`` builds Gamma(beta) by the norm-convergent iterated-integral
series, with each nested integral evaluated by Gauss-Legendre quadrature;
the closed form is kept as an independent cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, ManyBodyOperator, commutator, identity_operator
from .lattice import HERMITICITY_TOL

COMMUTATION_TOL = 1e-12
STATE_TOL = 1e-12

QUAD_NODES = 16  # Gauss-Legendre nodes per nested integral of the Picard series
PICARD_MAX_ORDER = 30  # the series' default order cap
PICARD_RTOL = 1e-10  # and its default stopping increment, relative to the partial sum

# gamma_check: random observables (plus N_total), the seed of the standard library's
# MT19937 (random.Random) that draws their uniform entries, pass thresholds
GAMMA_CHECK_OBSERVABLES = 10
GAMMA_CHECK_SEED = 7
GAMMA_TOL = 1e-8
EXPECTATION_RTOL = 1e-9


@dataclass(frozen=True)
class ThermalParams:
    """Inverse temperature and chemical potential of the initial state."""

    beta: float
    mu: float = 0.0

    def __post_init__(self):
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ValueError("beta must be positive and finite")
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")


class DensityOperator:
    """Positive unit-trace operator stored through its sector eigendecomposition.

    ``probs[N]`` and ``vecs[N]`` hold the eigenvalues and eigenvectors of the
    block on sector ``N``, with shapes ``(sector_dim(N),)`` and
    ``(sector_dim(N), sector_dim(N))``, for every sector of ``space``; the
    eigenbasis is reused heavily when two-time correlators are assembled.
    """

    def __init__(self, space: FockSpace, probs, vecs, label: str = ""):
        self.space = space
        self.probs = tuple(np.asarray(p, dtype=float) for p in probs)
        self.vecs = tuple(np.asarray(v, dtype=complex) for v in vecs)
        self.label = label
        dims = [space.sector_dim(n) for n in range(space.num_orbitals + 1)]
        if [np.shape(x) for x in self.probs + self.vecs] != [(d,) for d in dims] + [(d, d) for d in dims]:
            raise ValueError(f"the weight and eigenvector blocks do not fit sector dimensions {dims}")
        total = sum(p.sum() for p in self.probs)
        if not abs(total - 1.0) <= STATE_TOL:  # a nan weight fails too
            raise ValueError(f"density operator trace {total!r} deviates from 1")
        low = min(p.min() for p in self.probs)  # every sector holds a state
        if not low >= -STATE_TOL:
            raise ValueError(f"density operator has negative weight {low:.3e}")

    def expectation(self, observable: ManyBodyOperator) -> complex:
        """Trace against the state, as a probability-weighted eigenvector sum."""
        if observable.space is not self.space:
            raise ValueError("observable lives on a different Fock space")
        if observable.displacement != 0:
            return 0.0 + 0.0j
        total = 0.0 + 0.0j
        for p, v, block in zip(self.probs, self.vecs, observable.blocks):
            diag = np.einsum("ai,ab,bi->i", np.conj(v), block, v)
            total += np.dot(p, diag)
        return complex(total)


def gibbs(kernel: ManyBodyOperator, params: ThermalParams, number_op: ManyBodyOperator, label: str = "") -> DensityOperator:
    """Grand-canonical Gibbs state ``exp(-beta(K - mu N)) / Z``.

    Computed per particle-number sector through an eigendecomposition with a
    global spectral shift, so large ``beta`` cannot overflow.
    """
    if kernel.displacement != 0 or number_op.displacement != 0:
        raise ValueError("Gibbs weight requires number-conserving operators")
    defect = kernel.hermiticity_defect()
    if not defect <= HERMITICITY_TOL:  # a nan defect fails too
        raise ValueError(f"Gibbs kernel is not Hermitian (defect {defect:.3e})")
    comm = commutator(kernel, number_op).max_abs()
    scale = max(kernel.max_abs(), 1.0)
    if not comm <= COMMUTATION_TOL * scale:
        raise ValueError("Gibbs kernel must commute with the number operator")

    eigvals, eigvecs = [], []
    for k_block, n_block in zip(kernel.blocks, number_op.blocks):
        a = k_block - params.mu * n_block
        lam, v = np.linalg.eigh(a)
        eigvals.append(lam)
        eigvecs.append(v)
    shift = min(lam.min() for lam in eigvals if lam.size)
    weights = [np.exp(-params.beta * (lam - shift)) for lam in eigvals]
    z = sum(w.sum() for w in weights)
    probs = [w / z for w in weights]
    return DensityOperator(kernel.space, probs, eigvecs, label=label)


@dataclass(frozen=True)
class PicardInfo:
    """Convergence record of the iterated-integral series."""

    orders_used: int
    final_delta: float
    converged: bool


def _integration_matrices(beta: float, nodes: int):
    """Gauss-Legendre nodes on [0, beta] plus exact polynomial integration maps.

    Returns ``(x, s_partial, s_end)`` with ``s_partial[i, j]`` integrating the
    degree-(nodes-1) interpolant from 0 to ``x[i]`` and ``s_end`` from 0 to
    ``beta``.  Built through the Legendre expansion of the Lagrange basis, so
    all entries are exact for polynomials up to that degree.
    """
    leg = np.polynomial.legendre
    xi, wq = leg.leggauss(nodes)
    x = 0.5 * beta * (xi + 1.0)
    # c[n, j]: Legendre coefficients of the Lagrange polynomial through node j
    c = leg.legvander(xi, nodes - 1).T * wq * (np.arange(nodes) + 0.5)[:, None]
    s_partial = 0.5 * beta * leg.legval(xi, leg.legint(c, lbnd=-1)).T
    s_end = 0.5 * beta * wq
    return x, s_partial, s_end


def picard_gamma(
    k_decoupled: ManyBodyOperator,
    h_tunneling: ManyBodyOperator,
    beta: float,
    max_order: int = PICARD_MAX_ORDER,
    rtol: float = PICARD_RTOL,
) -> tuple[ManyBodyOperator, PicardInfo]:
    """Dressing operator ``Gamma(beta)`` from the iterated-integral series.

    Worked per particle-number sector in the eigenbasis of the decoupled
    Hamiltonian, where the generator is an elementwise-exponential dressing
    of the tunneling block.  The series is norm convergent at finite
    dimension; ``converged`` is False if it has not settled below ``rtol``
    (default ``PICARD_RTOL``) within ``max_order`` terms (default
    ``PICARD_MAX_ORDER``), or if a term is not finite (the exponential
    dressing overflows at large ``beta``): the sum then stops before it.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    space = k_decoupled.space
    if beta == 0:
        return identity_operator(space), PicardInfo(0, 0.0, True)

    x, s_partial, s_end = _integration_matrices(beta, QUAD_NODES)
    blocks = []
    orders_used = 0
    worst_delta = 0.0
    converged = True
    for k_block, t_block in zip(k_decoupled.blocks, h_tunneling.blocks):
        dim = k_block.shape[0]
        if not np.any(t_block):
            blocks.append(np.eye(dim, dtype=complex))
            continue
        lam, v = np.linalg.eigh(k_block)
        t_tilde = np.conj(v.T) @ t_block @ v
        gap = lam[:, None] - lam[None, :]
        generators = np.array([-np.exp(xj * gap) * t_tilde for xj in x])
        terms = np.broadcast_to(np.eye(dim, dtype=complex), (QUAD_NODES, dim, dim)).copy()
        gamma = np.eye(dim, dtype=complex)
        order = 0
        delta = np.inf
        for order in range(1, max_order + 1):
            integrand = generators @ terms
            terms = np.einsum("ij,jab->iab", s_partial, integrand)
            increment = np.einsum("j,jab->ab", s_end, integrand)
            total = gamma + increment
            if not np.isfinite(total).all():
                delta = np.inf  # the series overflowed: keep the last finite partial sum
                break
            gamma = total
            delta = np.linalg.norm(increment, 2) / max(np.linalg.norm(gamma, 2), 1.0)
            if delta <= rtol:
                break
        if not delta <= rtol:
            converged = False
        worst_delta = max(worst_delta, delta)
        orders_used = max(orders_used, order)
        blocks.append(v @ gamma @ np.conj(v.T))
    op = ManyBodyOperator(space, 0, tuple(blocks))
    return op, PicardInfo(orders_used, float(worst_delta), converged)


def gamma_closed_form(k_decoupled: ManyBodyOperator, k_coupled: ManyBodyOperator, beta: float) -> ManyBodyOperator:
    """Reference ``exp(beta K_D) exp(-beta K_0)`` via sector eigendecompositions."""
    blocks = []
    for kd_block, k0_block in zip(k_decoupled.blocks, k_coupled.blocks):
        lam_d, v_d = np.linalg.eigh(kd_block)
        lam_0, v_0 = np.linalg.eigh(k0_block)
        shift = 0.5 * (lam_d.max() + lam_0.min())
        left = (v_d * np.exp(beta * (lam_d - shift))[None, :]) @ np.conj(v_d.T)
        right = (v_0 * np.exp(-beta * (lam_0 - shift))[None, :]) @ np.conj(v_0.T)
        blocks.append(left @ right)
    return ManyBodyOperator(k_decoupled.space, 0, tuple(blocks))


def pf_expectation_via_gamma(rho_decoupled: DensityOperator, gamma: ManyBodyOperator, observable: ManyBodyOperator) -> complex:
    """Coupled-state expectation from the decoupled state and Gamma(beta)."""
    denominator = rho_decoupled.expectation(gamma)
    if abs(denominator) < 1e-12:
        raise RuntimeError("vanishing <Gamma> denominator: state construction is broken")
    numerator = rho_decoupled.expectation(gamma @ observable)
    return complex(numerator / denominator)


def random_number_conserving_hermitian(space: FockSpace, rng: random.Random) -> ManyBodyOperator:
    """Hermitian number-conserving operator whose entries ``rng`` draws.

    Each sector block reads ``16 dim^2`` bytes of ``rng`` as little-endian
    64-bit words; the top 53 bits of each word give one real or imaginary
    part, uniform on [-1, 1) (real and imaginary parts interleaved, row by
    row), and the block is then made Hermitian.  The standard library's
    generator, unlike ``numpy.random``, loads no ``hashlib`` or OpenSSL.
    """
    blocks = []
    for dim in space.sector_dims:
        words = np.frombuffer(rng.randbytes(16 * dim * dim), dtype="<u8")
        a = ((words >> np.uint64(11)) * 2.0**-52 - 1.0).view(complex).reshape(dim, dim)
        blocks.append(0.5 * (a + np.conj(a.T)))
    return ManyBodyOperator(space, 0, tuple(blocks))


@np.errstate(over="ignore", invalid="ignore")  # an overflow at large beta fails the check
def gamma_check(model, params: ThermalParams) -> dict:
    """Cross-check the dressing operator and the dressed expectation formula.

    Compares the iterated-integral ``Gamma(beta)`` against the closed form in
    spectral norm, then checks that dressed decoupled expectations reproduce
    direct coupled-state traces on a battery of random Hermitian observables
    (plus the total number operator), drawn with uniform entries from
    ``random.Random(GAMMA_CHECK_SEED)``.  Returns a JSON-ready summary; a
    non-finite error, or a Picard series that did not converge, fails it.
    """
    gamma_p, info = picard_gamma(model.K_D, model.H_T, params.beta)
    closed = gamma_closed_form(model.K_D, model.K_0, params.beta)
    spectral_error = (gamma_p - closed).norm2()

    rho_pf = gibbs(model.K_0, params, model.N_total, label="pf")
    rho_d = gibbs(model.K_D, params, model.N_total, label="decoupled")
    rng = random.Random(GAMMA_CHECK_SEED)
    observables = [
        random_number_conserving_hermitian(model.space, rng) for _ in range(GAMMA_CHECK_OBSERVABLES)
    ]
    observables.append(model.N_total)
    errors = []
    for obs in observables:
        direct = rho_pf.expectation(obs)
        dressed = pf_expectation_via_gamma(rho_d, gamma_p, obs)
        errors.append(abs(dressed - direct) / max(abs(direct), 1e-12))
    worst = np.max(errors)  # nan if any error is; a non-finite error fails below
    passed = bool(spectral_error <= GAMMA_TOL and worst <= EXPECTATION_RTOL and info.converged)
    return {
        "gamma_spectral_error": float(spectral_error),
        "gamma_tolerance": GAMMA_TOL,
        "picard_orders": info.orders_used,
        "picard_final_delta": info.final_delta,
        "picard_converged": info.converged,
        "expectation_max_rel_error": float(worst),
        "expectation_rtol": EXPECTATION_RTOL,
        "n_observables": len(observables),
        "pass": passed,
    }
