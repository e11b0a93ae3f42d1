"""Fermionic Fock space and second-quantized operators for spinless orbitals.

Basis states are occupation bitstrings: bit ``j`` of an integer is the
occupation of orbital ``j``.  The full basis is grouped into particle-number
sectors (sector sizes are binomial coefficients), ordered by particle number
and by bitstring value inside each sector.  Every operator is stored as one
dense complex block per source sector:

* number-conserving operators (displacement 0) are block diagonal,
* a creation operator maps sector ``N`` to ``N + 1`` (displacement +1),
* an annihilation operator maps ``N`` to ``N - 1`` (displacement -1).

A slot whose target sector does not exist (sector ``d + 1`` for a creator,
``-1`` for an annihilator) is an array with zero rows, so every slot obeys
one shape rule and the algebra needs no special case for it.

Ladder matrices carry Jordan-Wigner signs along a configurable orbital
order.  Physical expectation values never depend on that order; keeping it
configurable lets tests verify exactly this invariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .lattice import HERMITICITY_TOL

DEFAULT_ORBITAL_CAP = 14


class FockSpace:
    """Occupation-number basis for ``num_orbitals`` spinless fermionic modes.

    Parameters
    ----------
    num_orbitals : int
        Number of one-particle orbitals ``d``; the many-body dimension is
        ``2**d``.  At most ``DEFAULT_ORBITAL_CAP``, a guard against
        accidental exponential blow-up.
    sign_order : sequence of int, optional
        Permutation of ``range(d)`` giving the position of each orbital in
        the Jordan-Wigner string.  Defaults to the orbital index itself.

    The space keeps its basis tables and occupations, but no operator
    blocks: ``creation_blocks`` builds an orbital's blocks on every call,
    and a caller that reads them more than once keeps them for the call.
    """

    def __init__(self, num_orbitals: int, sign_order=None):
        d = int(num_orbitals)
        if d < 1:
            raise ValueError("need at least one orbital")
        if d > DEFAULT_ORBITAL_CAP:
            raise ValueError(
                f"{d} orbitals exceed the cap of {DEFAULT_ORBITAL_CAP}: the {2**d}-state "
                "basis would not fit the intended desk scale"
            )
        self.num_orbitals = d
        self.dim = 1 << d

        popcount = np.zeros(self.dim, dtype=np.int64)
        for s in range(self.dim):
            popcount[s] = s.bit_count()
        self._popcount = popcount
        self.sector_states = tuple(
            np.flatnonzero(popcount == n).astype(np.int64) for n in range(d + 1)
        )
        self.sector_dims = tuple(len(states) for states in self.sector_states)
        assert self.sector_dims == tuple(comb(d, n) for n in range(d + 1))

        offsets = np.zeros(d + 2, dtype=np.int64)
        np.cumsum(self.sector_dims, out=offsets[1:])
        self.sector_offsets = tuple(int(x) for x in offsets[: d + 1])

        pos = np.empty(self.dim, dtype=np.int64)
        for states in self.sector_states:
            pos[states] = np.arange(len(states))
        self.pos_in_sector = pos

        if sign_order is None:
            sign_order = np.arange(d)
        sign_order = np.asarray(sign_order, dtype=np.int64)
        if sorted(sign_order.tolist()) != list(range(d)):
            raise ValueError("sign_order must be a permutation of range(d)")
        self.sign_order = sign_order
        # mask of orbitals that precede j in the Jordan-Wigner string
        self._sign_masks = tuple(
            sum(1 << i for i in range(d) if sign_order[i] < sign_order[j])
            for j in range(d)
        )
        self._occupation_cache: dict[int, np.ndarray] = {}

    def sector_dim(self, n: int) -> int:
        if 0 <= n <= self.num_orbitals:
            return self.sector_dims[n]
        return 0

    def occupations(self, n: int) -> np.ndarray:
        """(dim_n, d) 0/1 array of occupations for sector ``n``."""
        if n not in self._occupation_cache:
            states = self.sector_states[n]
            bits = (states[:, None] >> np.arange(self.num_orbitals)[None, :]) & 1
            self._occupation_cache[n] = bits.astype(np.float64)
        return self._occupation_cache[n]

    def creation_blocks(self, orbital: int) -> tuple:
        """Sector blocks of ``a*_orbital``, built anew; entry ``N`` maps sector N to N+1."""
        d = self.num_orbitals
        bit = 1 << orbital
        blocks = []
        for n in range(d + 1):
            src = self.sector_states[n]
            free = (src & bit) == 0
            s = src[free]
            t = s | bit
            block = np.zeros((self.sector_dim(n + 1), self.sector_dims[n]), dtype=complex)
            signs = 1.0 - 2.0 * (self._popcount[s & self._sign_masks[orbital]] & 1)
            block[self.pos_in_sector[t], self.pos_in_sector[s]] = signs
            blocks.append(block)
        return tuple(blocks)


@dataclass(frozen=True)
class ManyBodyOperator:
    """Dense sector-blocked operator on a :class:`FockSpace`.

    ``blocks[N]`` maps sector ``N`` to sector ``N + displacement``.  Every
    slot is an array of shape ``(sector_dim(N + displacement), sector_dim(N))``;
    a target sector that does not exist gives zero rows.
    """

    space: FockSpace
    displacement: int
    blocks: tuple

    def __post_init__(self):
        d = self.space.num_orbitals
        if len(self.blocks) != d + 1:
            raise ValueError("expected one block slot per source sector")
        for n, block in enumerate(self.blocks):
            expected = (self.space.sector_dim(n + self.displacement), self.space.sector_dim(n))
            if not (isinstance(block, np.ndarray) and block.shape == expected):
                shape = getattr(block, "shape", type(block).__name__)
                raise ValueError(f"block {n} is {shape}, expected an array of shape {expected}")

    def _require_same_space(self, other: "ManyBodyOperator"):
        if self.space is not other.space:
            raise ValueError("operators live on different Fock spaces")

    def __add__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        self._require_same_space(other)
        if self.displacement != other.displacement:
            raise ValueError("cannot add operators with different sector displacement")
        blocks = tuple(a + b for a, b in zip(self.blocks, other.blocks))
        return ManyBodyOperator(self.space, self.displacement, blocks)

    def __sub__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "ManyBodyOperator":
        scalar = complex(scalar)
        blocks = tuple(scalar * b for b in self.blocks)
        return ManyBodyOperator(self.space, self.displacement, blocks)

    __rmul__ = __mul__

    def __matmul__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        self._require_same_space(other)
        disp = self.displacement + other.displacement
        blocks = []
        for n, right in enumerate(other.blocks):
            mid = n + other.displacement
            if 0 <= mid <= self.space.num_orbitals:
                left = self.blocks[mid]
            else:  # no middle sector: right has zero rows, and the product is +0.0
                left = np.zeros((self.space.sector_dim(n + disp), 0), dtype=complex)
            blocks.append(left @ right)
        return ManyBodyOperator(self.space, disp, tuple(blocks))

    def dagger(self) -> "ManyBodyOperator":
        d = self.space.num_orbitals
        disp = -self.displacement
        blocks = tuple(
            np.conj(self.blocks[n + disp].T) if 0 <= n + disp <= d
            else np.zeros((0, self.space.sector_dims[n]), dtype=complex)
            for n in range(d + 1)
        )
        return ManyBodyOperator(self.space, disp, blocks)

    def max_abs(self) -> float:
        vals = [np.max(np.abs(b)) for b in self.blocks if b.size]
        return float(np.max(vals)) if vals else 0.0

    def norm2(self) -> float:
        """Spectral norm; exact because blocks occupy disjoint row/col spaces.

        nan or inf for a non-finite operator.
        """
        blocks = [b for b in self.blocks if min(b.shape)]
        vals = [np.linalg.norm(b, 2) if np.isfinite(b).all() else np.max(np.abs(b)) for b in blocks]
        return float(np.max(vals)) if vals else 0.0

    def hermiticity_defect(self) -> float:
        if self.displacement != 0:
            raise ValueError("hermiticity is only meaningful at displacement 0")
        vals = [np.max(np.abs(b - np.conj(b.T))) for b in self.blocks if b.size]
        return float(np.max(vals)) if vals else 0.0

def identity_operator(fs: FockSpace) -> ManyBodyOperator:
    blocks = tuple(np.eye(dim, dtype=complex) for dim in fs.sector_dims)
    return ManyBodyOperator(fs, 0, blocks)


def commutator(a: ManyBodyOperator, b: ManyBodyOperator) -> ManyBodyOperator:
    return a @ b - b @ a


def anticommutator(a: ManyBodyOperator, b: ManyBodyOperator) -> ManyBodyOperator:
    return a @ b + b @ a


def ladder_op(fs: FockSpace, f, kind: str) -> ManyBodyOperator:
    """Smeared ladder operator ``a*(f)`` or ``a(f)``.

    ``a*(f) = sum_j f_j a*_j`` is linear in ``f``; ``a(f) = sum_j conj(f_j) a_j``
    is antilinear.  The operator norm of either is ``||f||``.  The blocks of
    one orbital of ``f``'s support at a time are built and added into every
    sector, so no orbital's blocks outlive the call.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (fs.num_orbitals,):
        raise ValueError(f"vector has shape {f.shape}, expected ({fs.num_orbitals},)")
    if kind not in ("create", "annihilate"):
        raise ValueError("kind must be 'create' or 'annihilate'")
    d = fs.num_orbitals
    blocks = tuple(np.zeros((fs.sector_dim(n + 1), fs.sector_dim(n)), dtype=complex) for n in range(d + 1))
    for j in np.flatnonzero(f):  # every sector sums the orbitals in ascending order
        for acc, creation in zip(blocks, fs.creation_blocks(j)):
            acc += f[j] * creation
    creator = ManyBodyOperator(fs, +1, blocks)
    if kind == "create":
        return creator
    return creator.dagger()


def second_quantize(fs: FockSpace, h) -> ManyBodyOperator:
    """Second quantization ``sum_jk h_jk a*_j a_k`` of a Hermitian matrix.

    The creation blocks of the orbitals that hop are built once per call and
    dropped with it.
    """
    h = np.asarray(h, dtype=complex)
    d = fs.num_orbitals
    if h.shape != (d, d):
        raise ValueError(f"one-particle matrix has shape {h.shape}, expected ({d}, {d})")
    if not np.max(np.abs(h - np.conj(h.T))) <= HERMITICITY_TOL:  # a nan matrix fails too
        raise ValueError("one-particle matrix must be Hermitian")
    diag = np.real(np.diag(h))
    hops = [(j, k) for j, k in zip(*np.nonzero(h)) if j != k]
    creation = {j: fs.creation_blocks(j) for j in {j for hop in hops for j in hop}}
    blocks = []
    for n in range(d + 1):
        block = np.diag(fs.occupations(n) @ diag).astype(complex)
        # a*_j a_k passes through sector n - 1, which sector 0 lacks
        for j, k in hops if n else ():
            block += h[j, k] * (creation[j][n - 1] @ creation[k][n - 1].T)
        blocks.append(block)
    return ManyBodyOperator(fs, 0, tuple(blocks))


def build_interaction(fs: FockSpace, w) -> ManyBodyOperator:
    """Pair interaction ``(1/2) sum_xy w(x,y) a*_x a*_y a_y a_x``.

    Diagonal in the occupation basis with eigenvalue
    ``(1/2) sum_xy w(x,y) n_x n_y`` on each bitstring.  Requires a real
    symmetric matrix with zero diagonal.
    """
    w = np.asarray(w, dtype=float)
    d = fs.num_orbitals
    if w.shape != (d, d):
        raise ValueError(f"pair potential has shape {w.shape}, expected ({d}, {d})")
    if not np.max(np.abs(w - w.T)) <= HERMITICITY_TOL:  # a nan matrix fails too
        raise ValueError("pair potential must be symmetric")
    if not np.max(np.abs(np.diag(w))) <= HERMITICITY_TOL:
        raise ValueError("pair potential must have zero diagonal")
    blocks = []
    for n in range(d + 1):
        occ = fs.occupations(n)
        vals = 0.5 * np.einsum("si,ij,sj->s", occ, w, occ)
        blocks.append(np.diag(vals).astype(complex))
    return ManyBodyOperator(fs, 0, tuple(blocks))


def dressed_creation(fs: FockSpace, w_op: ManyBodyOperator, xi: float, f) -> ManyBodyOperator:
    """Interaction-dressed creator ``b*(f) = i xi [W, a*(f)]``.

    Its adjoint is the dressed annihilator ``b(f) = i xi [W, a(f)]``.  Both
    vanish identically when ``f`` is supported outside the interaction (the
    pair potential commutes with any operator supported there) and when
    ``xi == 0``.
    """
    return (1j * xi) * commutator(w_op, ladder_op(fs, f, "create"))
