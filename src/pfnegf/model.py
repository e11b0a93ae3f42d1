"""Bundle of a concrete model: geometry, one-particle matrices, Fock operators.

Everything downstream (thermal states, kernels, verification) consumes a
``Model``; the many-body operators are built lazily and cached.  The two
ladder families are the largest of them, and a kernel engine releases them
once it has taken what it reads (``release_ladder_families``).  The
interacting Hamiltonian pieces follow

    K_v = H + sum_nu v_nu N_nu + xi W,     K_0 = K_v at v = 0,
    K_D = K_0 - H_T  (coupled interactions off, tunneling removed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import (
    FockSpace,
    ManyBodyOperator,
    anticommutator,
    build_interaction,
    dressed_creation,
    ladder_op,
    second_quantize,
)
from .lattice import Geometry, OnePartHamiltonian, TwoBodyPotential


@dataclass
class Model:
    one_particle: OnePartHamiltonian
    interaction: TwoBodyPotential
    sign_order: tuple | None = None

    @property
    def geometry(self) -> Geometry:
        return self.one_particle.geometry

    @cached_property
    def space(self) -> FockSpace:
        return FockSpace(self.geometry.num_sites, sign_order=self.sign_order)

    @cached_property
    def h_biased(self) -> np.ndarray:
        return self.one_particle.h_biased

    # -- second-quantized pieces ----------------------------------------

    @cached_property
    def H(self) -> ManyBodyOperator:
        return second_quantize(self.space, self.one_particle.h)

    @cached_property
    def H_T(self) -> ManyBodyOperator:
        return second_quantize(self.space, self.one_particle.h_tunneling)

    @cached_property
    def N_total(self) -> ManyBodyOperator:
        return second_quantize(self.space, np.eye(self.geometry.num_sites))

    def N_lead(self, nu: int) -> ManyBodyOperator:
        return second_quantize(self.space, self.one_particle.lead_projector(nu))

    @cached_property
    def W(self) -> ManyBodyOperator:
        return build_interaction(self.space, self.interaction.embedded(self.geometry))

    @cached_property
    def K_v(self) -> ManyBodyOperator:
        op = self.K_0
        for nu, v in enumerate(self.one_particle.bias):
            if v != 0.0:
                op = op + float(v) * self.N_lead(nu)
        return op

    @cached_property
    def K_0(self) -> ManyBodyOperator:
        return self.H + self.interaction.strength * self.W

    @cached_property
    def K_D(self) -> ManyBodyOperator:
        return self.K_0 - self.H_T

    # -- ladder families -------------------------------------------------

    def basis_vector(self, orbital: int) -> np.ndarray:
        e = np.zeros(self.geometry.num_sites, dtype=complex)
        e[orbital] = 1.0
        return e

    @cached_property
    def creation_family(self) -> tuple:
        """``a*(e_m)`` for every orbital, in canonical ordering."""
        return tuple(
            ladder_op(self.space, self.basis_vector(m), "create")
            for m in range(self.geometry.num_sites)
        )

    @cached_property
    def dressed_creation_family(self) -> tuple:
        """``b*(e_j) = i xi [W, a*(e_j)]`` for every orbital.

        Lead entries are exactly zero operators.  They stay in the family,
        so it has one entry per orbital, but the correlator sweep leaves them
        out: a zero operator times any finite phases is exactly zero at every
        node, so a grid holds only the nonzero rows and its other entries are
        zero.  The lead-support evidence therefore still comes from these
        operators themselves (their largest entry, which must vanish, taken by
        the kernel engine) and from the lead blocks of the assembled
        self-energies.
        """
        return tuple(
            dressed_creation(self.space, self.W, self.interaction.strength, self.basis_vector(j))
            for j in range(self.geometry.num_sites)
        )

    def release_ladder_families(self) -> None:
        """Drop both cached ladder families; the next read builds them again."""
        for name in ("creation_family", "dressed_creation_family"):
            vars(self).pop(name, None)  # how a cached_property is reset

    def dressed_annihilation(self, j: int) -> ManyBodyOperator:
        return self.dressed_creation_family[j].dagger()

    def contact_operator(self, j: int, m: int) -> ManyBodyOperator:
        """Equal-time anticommutator ``{a*(e_m), b(e_j)}`` (number conserving)."""
        return anticommutator(self.creation_family[m], self.dressed_annihilation(j))

    @property
    def num_sample(self) -> int:
        return self.geometry.num_sample

    @property
    def num_sites(self) -> int:
        return self.geometry.num_sites
