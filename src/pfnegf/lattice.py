"""Site geometry and one-particle Hamiltonians of a sample wired to finite leads.

The one-particle Hilbert space is a tight-binding space over labelled sites:
sample sites first, then the sites of every lead in declaration order.  All
exported matrices follow this canonical orbital ordering, which keeps
sample-restricted objects a plain leading-block slice.

Each lead couples to the sample through a rank-two bridge
``d_nu (|f_nu><g_nu| + |g_nu><f_nu|)`` with a unit vector ``f_nu`` living on
the lead and a unit vector ``g_nu`` living on the sample.  Leads are finite
chains (hopping structure is free; nearest-neighbour by default in the
shipped configs), so every trace taken later is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12  # every Hermiticity check of the package


@dataclass(frozen=True)
class Geometry:
    """Ordered site layout: ``sample_sites`` then each lead's sites."""

    sample_sites: tuple
    leads: tuple

    def __post_init__(self):
        if len(self.sample_sites) < 1:
            raise ValueError("sample must contain at least one site")
        if len(self.leads) < 1:
            raise ValueError("need at least one lead")
        for idx, lead in enumerate(self.leads):
            if len(lead) < 1:
                raise ValueError(f"lead {idx} is empty")
        seen = set()
        for label in self.site_labels:
            if label in seen:
                raise ValueError(f"duplicate site label {label!r}")
            seen.add(label)

    @property
    def num_sample(self) -> int:
        return len(self.sample_sites)

    @property
    def num_leads(self) -> int:
        return len(self.leads)

    @property
    def num_sites(self) -> int:
        return self.num_sample + sum(len(lead) for lead in self.leads)

    @property
    def site_labels(self) -> tuple:
        labels = list(self.sample_sites)
        for lead in self.leads:
            labels.extend(lead)
        return tuple(labels)

    def lead_slice(self, nu: int) -> slice:
        start = self.num_sample + sum(len(self.leads[i]) for i in range(nu))
        return slice(start, start + len(self.leads[nu]))

    @property
    def sample_slice(self) -> slice:
        return slice(0, self.num_sample)


@dataclass(frozen=True)
class LeadCoupling:
    """Rank-two sample-lead bridge: strength and the two unit vectors.

    ``lead_vector`` has one component per site of its lead, ``sample_vector``
    one per sample site; both are embedded at the right orbital range when
    the tunneling matrix is assembled, so the support constraint holds by
    construction.
    """

    strength: float
    lead_vector: np.ndarray
    sample_vector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lead_vector", np.asarray(self.lead_vector, dtype=complex))
        object.__setattr__(self, "sample_vector", np.asarray(self.sample_vector, dtype=complex))
        for name, vec in (("lead_vector", self.lead_vector), ("sample_vector", self.sample_vector)):
            if vec.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if not abs(np.linalg.norm(vec) - 1.0) <= UNIT_NORM_TOL:  # a nan vector fails too
                raise ValueError(f"{name} must have unit norm within {UNIT_NORM_TOL}")


@dataclass(frozen=True)
class TwoBodyPotential:
    """Sample-only pair potential ``w`` and the overall interaction strength."""

    matrix: np.ndarray
    strength: float

    def __post_init__(self):
        w = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("pair potential must be a square matrix")
        if not np.max(np.abs(w - w.T)) <= HERMITICITY_TOL:  # a nan matrix fails too
            raise ValueError("pair potential must be symmetric")
        if w.size and not np.max(np.abs(np.diag(w))) <= HERMITICITY_TOL:
            raise ValueError("pair potential must have zero diagonal")

    def embedded(self, geometry: Geometry) -> np.ndarray:
        """Zero-padded d x d matrix supported on the sample block."""
        if self.matrix.shape[0] != geometry.num_sample:
            raise ValueError("pair potential size does not match the sample")
        full = np.zeros((geometry.num_sites, geometry.num_sites))
        full[geometry.sample_slice, geometry.sample_slice] = self.matrix
        return full


@dataclass(frozen=True)
class OnePartHamiltonian:
    """All one-particle matrices of the coupled, biased system."""

    geometry: Geometry
    h_decoupled: np.ndarray
    h_tunneling: np.ndarray
    bias: np.ndarray

    @property
    def h(self) -> np.ndarray:
        return self.h_decoupled + self.h_tunneling

    @property
    def h_biased(self) -> np.ndarray:
        return self.h + np.diag(self.bias_profile)

    @property
    def bias_profile(self) -> np.ndarray:
        profile = np.zeros(self.geometry.num_sites)
        for nu, v in enumerate(self.bias):
            profile[self.geometry.lead_slice(nu)] = v
        return profile

    def lead_projector(self, nu: int) -> np.ndarray:
        p = np.zeros((self.geometry.num_sites, self.geometry.num_sites))
        s = self.geometry.lead_slice(nu)
        p[s, s] = np.eye(s.stop - s.start)
        return p


def build_geometry(sample_sites, leads) -> Geometry:
    """Canonical geometry: sample sites first, then leads in declaration order."""
    return Geometry(tuple(sample_sites), tuple(tuple(lead) for lead in leads))


def _hopping_matrix(labels, edges, context: str) -> np.ndarray:
    """Hermitian matrix from an edge list ``(site_a, site_b, amplitude)``.

    Only one direction per pair may be given; the conjugate is mirrored.
    Diagonal entries (``site_a == site_b``) are on-site energies and must be
    real.
    """
    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    h = np.zeros((n, n), dtype=complex)
    seen = set()
    for a, b, amp in edges:
        if a not in index or b not in index:
            raise ValueError(f"{context}: edge ({a!r}, {b!r}) references an unknown site")
        i, j = index[a], index[b]
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"{context}: duplicate edge between {a!r} and {b!r}")
        seen.add(key)
        amp = complex(amp)
        if i == j:
            if not abs(amp.imag) <= HERMITICITY_TOL:  # a nan part fails too
                raise ValueError(f"{context}: on-site energy at {a!r} must be real")
            h[i, i] = amp.real
        else:
            h[i, j] = amp
            h[j, i] = np.conj(amp)
    return h


def build_hamiltonians(
    geometry: Geometry,
    sample_hoppings,
    lead_hoppings,
    couplings,
    bias,
) -> OnePartHamiltonian:
    """Assemble the decoupled, tunneling and biased one-particle matrices.

    Parameters
    ----------
    sample_hoppings, lead_hoppings :
        Edge lists for the sample block and one per lead (see
        :func:`_hopping_matrix`).
    couplings : list of LeadCoupling
        One bridge per lead.
    bias : sequence of float
        Potential shift per lead, added on the lead diagonal only.
    """
    d = geometry.num_sites
    if len(lead_hoppings) != geometry.num_leads:
        raise ValueError("need one hopping list per lead")
    if len(couplings) != geometry.num_leads:
        raise ValueError("need one coupling per lead")
    bias = np.asarray(bias, dtype=float)
    if bias.shape != (geometry.num_leads,):
        raise ValueError("bias vector length must equal the number of leads")

    h_d = np.zeros((d, d), dtype=complex)
    s = geometry.sample_slice
    h_d[s, s] = _hopping_matrix(geometry.sample_sites, sample_hoppings, "sample")
    for nu, edges in enumerate(lead_hoppings):
        ls = geometry.lead_slice(nu)
        h_d[ls, ls] = _hopping_matrix(geometry.leads[nu], edges, f"lead {nu}")

    h_t = np.zeros((d, d), dtype=complex)
    for nu, coupling in enumerate(couplings):
        ls = geometry.lead_slice(nu)
        if coupling.lead_vector.shape != (ls.stop - ls.start,):
            raise ValueError(f"lead {nu}: lead vector length does not match the lead")
        if coupling.sample_vector.shape != (geometry.num_sample,):
            raise ValueError(f"lead {nu}: sample vector length does not match the sample")
        f = np.zeros(d, dtype=complex)
        g = np.zeros(d, dtype=complex)
        f[ls] = coupling.lead_vector
        g[s] = coupling.sample_vector
        h_t += coupling.strength * (np.outer(f, np.conj(g)) + np.outer(g, np.conj(f)))

    for name, matrix in (("h_D", h_d), ("h_T", h_t)):
        defect = np.max(np.abs(matrix - np.conj(matrix.T)))
        if not defect <= HERMITICITY_TOL:  # a nan matrix fails too
            raise ValueError(f"{name} is not Hermitian (defect {defect:.3e})")
    return OnePartHamiltonian(geometry, h_d, h_t, bias)
