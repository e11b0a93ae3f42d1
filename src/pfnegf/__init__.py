"""Partition-free NEGF at desk scale.

Exact-diagonalization computation of the free and interacting retarded Green
kernels, the reducible and irreducible self-energies of a small interacting
sample coupled to finite leads, and numerical verification of the Dyson
identities that tie them together.

Set ``NEGF_NUM_THREADS`` to pin the BLAS/OpenMP thread pools; an explicit
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` or ``MKL_NUM_THREADS`` wins.
The pools read these when numpy is first loaded, so the variable takes effect
only if this package is imported before numpy, as ``python -m pfnegf.cli``
does.
"""

import os as _os


def _apply_thread_env() -> None:
    threads = _os.environ.get("NEGF_NUM_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            _os.environ.setdefault(var, threads)


# before any submodule import: they load numpy
_apply_thread_env()

from .config import load_config, parse_config, reference_config
from .errors import ConfigError, MemoryBudgetError
from .fock import (
    FockSpace,
    ManyBodyOperator,
    anticommutator,
    build_interaction,
    commutator,
    identity_operator,
    ladder_op,
    second_quantize,
)
from .grid import TimeGrid
from .lattice import (
    Geometry,
    LeadCoupling,
    OnePartHamiltonian,
    TwoBodyPotential,
    build_geometry,
    build_hamiltonians,
)
from .model import Model
from .negf import (
    DysonReport,
    KernelEngine,
    approx_split,
    compute_g0,
    convergence_study,
    irreducible_sigma,
    verify_dyson,
)
from .propagation import CorrelatorFactory, CorrelatorGrid
from .thermal import (
    DensityOperator,
    ThermalParams,
    gamma_check,
    gamma_closed_form,
    gibbs,
    pf_expectation_via_gamma,
    picard_gamma,
)
from .volterra import VolterraOperator, solve_id_plus

__version__ = "0.1.0"
