"""Discrete algebra of causal (Volterra) operators on a uniform time grid.

A causal operator acts on grid functions ``psi(t_k)`` in C^p as

    (A psi)(t_k) = m_k psi(t_k) + delta * sum_{l<=k} w_{kl} K[k, l] psi(t_l)

with trapezoid weights ``w_{kk} = w_{k0} = 1/2`` and 1 in between (the
integral term is absent at ``k = 0``).  The pair ``(m, K)`` is the
instantaneous part and the memory kernel.

The algebra itself is *defined* on the flattened block-lower-triangular
matrices with blocks ``m_k delta_{kl} + delta w_{kl} K[k, l]``: composition
is the exact matrix product, and the one causal solve, ``X`` with
``(Id + A) X = B``, is exact block forward substitution.  Sums, scalings,
orbital restriction and residual norms are operator methods as well, so the
flat layout is private to this module.  The kernel pair is a view,
reconstructed from the flat matrix when an operator was produced
algebraically.  This makes every operator identity of the continuum theory
hold exactly in the discrete algebra, so identity residuals isolate the
quadrature error of independently computed kernels.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .grid import TimeGrid

CAUSALITY_TOL = 0.0


def trapezoid_weights(n_nodes: int) -> np.ndarray:
    """w[k, l] for l <= k; row 0 is empty (the integral term vanishes there)."""
    w = np.zeros((n_nodes, n_nodes))
    for k in range(1, n_nodes):
        w[k, : k + 1] = 1.0
        w[k, 0] = 0.5
        w[k, k] = 0.5
    return w


class VolterraOperator:
    """Causal operator with an optional instantaneous part and memory kernel.

    Exactly one construction path fixes the primary data: either the kernel
    pair (then the flat matrix is assembled from it) or a flat matrix from an
    algebraic operation (then the kernel pair is a derived view).  Either
    way, ``flat`` is the object the algebra operates on.
    """

    def __init__(self, grid: TimeGrid, p: int, *, inst=None, mem=None, flat=None, name: str = ""):
        self.grid = grid
        self.p = int(p)
        self.name = name
        n = grid.n_nodes
        if flat is None and inst is None and mem is None:
            raise ValueError("operator needs an instantaneous part, a kernel, or a flat matrix")
        if inst is not None:
            inst = np.asarray(inst, dtype=complex)
            if inst.shape != (n, p, p):
                raise ValueError(f"instantaneous part has shape {inst.shape}, expected {(n, p, p)}")
        if mem is not None:
            mem = np.asarray(mem, dtype=complex)
            if mem.shape != (n, n, p, p):
                raise ValueError(f"memory kernel has shape {mem.shape}, expected {(n, n, p, p)}")
            upper = _strict_upper_max(mem)
            if upper > CAUSALITY_TOL:
                raise ValueError(f"memory kernel has acausal weight {upper:.3e}")
        if flat is not None:
            flat = np.asarray(flat, dtype=complex)
            if flat.shape != (n * p, n * p):
                raise ValueError(f"flat matrix has shape {flat.shape}, expected {(n * p, n * p)}")
        self._inst = inst
        self._mem = mem
        self._flat = flat

    # -- views ---------------------------------------------------------

    @property
    def flat(self) -> np.ndarray:
        if self._flat is None:
            self._flat = self._assemble_flat()
        return self._flat

    def _assemble_flat(self) -> np.ndarray:
        grid, p, n = self.grid, self.p, self.grid.n_nodes
        blocks = np.zeros((n, n, p, p), dtype=complex)
        if self._mem is not None:
            w = trapezoid_weights(n) * grid.delta
            blocks += self._mem * w[:, :, None, None]
        if self._inst is not None:
            idx = np.arange(n)
            blocks[idx, idx] += self._inst
        return blocks.transpose(0, 2, 1, 3).reshape(n * p, n * p)

    def flat_blocks(self) -> np.ndarray:
        """(n, n, p, p) view of the flat matrix."""
        n, p = self.grid.n_nodes, self.p
        return self.flat.reshape(n, p, n, p).transpose(0, 2, 1, 3)

    def instantaneous(self) -> np.ndarray:
        n, p = self.grid.n_nodes, self.p
        if self._inst is None:
            return np.zeros((n, p, p), dtype=complex)
        return self._inst

    def has_instantaneous(self) -> bool:
        return self._inst is not None and bool(np.any(self._inst))

    def memory_kernel(self) -> np.ndarray:
        """Kernel view; exact for kernel-built operators, derived otherwise.

        For algebraically produced operators the diagonal-in-time blocks pick
        up the O(delta) self-interaction of the trapezoid rule; that is a
        faithful property of the discrete composition, not an error.
        """
        if self._mem is not None:
            return self._mem
        n, p = self.grid.n_nodes, self.p
        blocks = self.flat_blocks().copy()
        idx = np.arange(n)
        blocks[idx, idx] -= self.instantaneous()
        w = trapezoid_weights(n) * self.grid.delta
        w[w == 0.0] = 1.0  # vacuous slots (node 0 and the acausal range) hold zero blocks
        mem = blocks / w[:, :, None, None]
        iu = np.triu_indices(n, k=1)
        mem[iu] = 0.0
        mem[0, 0] = 0.0
        return mem

    # -- algebra -------------------------------------------------------

    def _require_compatible(self, other: "VolterraOperator"):
        if self.grid != other.grid or self.p != other.p:
            raise ValueError("operators live on different grids or orbital spaces")

    def compose(self, other: "VolterraOperator") -> "VolterraOperator":
        """Operator product self after other; exact in the flat algebra."""
        self._require_compatible(other)
        inst = None
        if self._inst is not None and other._inst is not None:
            inst = np.einsum("kab,kbc->kac", self._inst, other._inst)
        return VolterraOperator(
            self.grid,
            self.p,
            flat=self.flat @ other.flat,
            inst=inst,
            name=f"({self.name}*{other.name})",
        )

    def __matmul__(self, other: "VolterraOperator") -> "VolterraOperator":
        return self.compose(other)

    def _combine(self, other: "VolterraOperator", sign: float) -> "VolterraOperator":
        self._require_compatible(other)
        inst = None
        if self._inst is not None or other._inst is not None:
            inst = self.instantaneous() + sign * other.instantaneous()
        return VolterraOperator(self.grid, self.p, flat=self.flat + sign * other.flat, inst=inst,
                                name=f"({self.name}{'+' if sign > 0 else '-'}{other.name})")

    def __add__(self, other: "VolterraOperator") -> "VolterraOperator":
        return self._combine(other, +1.0)

    def __sub__(self, other: "VolterraOperator") -> "VolterraOperator":
        return self._combine(other, -1.0)

    def __neg__(self) -> "VolterraOperator":
        return self.scale(-1.0)

    def scale(self, scalar) -> "VolterraOperator":
        scalar = complex(scalar)
        inst = None if self._inst is None else scalar * self._inst
        return VolterraOperator(self.grid, self.p, flat=scalar * self.flat, inst=inst, name=self.name)

    def restrict(self, indices) -> "VolterraOperator":
        """Keep the given orbital indices (e.g. the sample block)."""
        indices = np.asarray(indices, dtype=int)
        sub = indices[:, None], indices[None, :]
        inst = None if self._inst is None else self._inst[:, sub[0], sub[1]]
        if self._mem is not None:
            return VolterraOperator(self.grid, len(indices), inst=inst,
                                    mem=self._mem[:, :, sub[0], sub[1]], name=f"{self.name}|restricted")
        blocks = self.flat_blocks()[:, :, sub[0], sub[1]]
        n, q = self.grid.n_nodes, len(indices)
        flat = blocks.transpose(0, 2, 1, 3).reshape(n * q, n * q)
        return VolterraOperator(self.grid, q, flat=flat, inst=inst, name=f"{self.name}|restricted")

    def max_abs(self) -> float:
        """Largest entry magnitude of the flat matrix (exact-algebra residuals)."""
        return float(np.max(np.abs(self.flat)))

    def norm_bound(self) -> float:
        """Induced sup-norm bound of the operator (see ``operator_norm_bound``)."""
        return operator_norm_bound(self.flat, self.grid, self.p)

    def volterra_constant(self) -> float:
        """Discrete Volterra constant: max spectral norm over memory blocks.

        nan or inf for a non-finite kernel.
        """
        blocks = self.memory_kernel()[np.tril_indices(self.grid.n_nodes)]
        if not np.isfinite(blocks).all():
            return float(np.max(np.abs(blocks)))
        return float(np.max(np.linalg.svd(blocks, compute_uv=False)[:, 0]))


def identity_volterra(grid: TimeGrid, p: int) -> VolterraOperator:
    inst = np.broadcast_to(np.eye(p, dtype=complex), (grid.n_nodes, p, p)).copy()
    return VolterraOperator(grid, p, inst=inst, name="Id")


def _strict_upper_max(blocks: np.ndarray) -> float:
    n = blocks.shape[0]
    iu = np.triu_indices(n, k=1)
    vals = blocks[iu]
    return float(np.max(np.abs(vals))) if vals.size else 0.0


def block_lower_solve(flat: np.ndarray, rhs: np.ndarray, grid: TimeGrid, p: int) -> np.ndarray:
    """Solve ``flat @ X = rhs`` for block-lower-triangular ``flat``.

    Forward substitution over node-row blocks; raises with the offending node
    index if a diagonal block is singular.
    """
    n = grid.n_nodes
    m = flat.reshape(n, p, n, p)
    x = np.zeros_like(rhs)
    for k in range(n):
        acc = rhs[k * p : (k + 1) * p, :].copy()
        if k:
            acc -= m[k, :, :k, :].reshape(p, k * p) @ x[: k * p, :]
        try:
            x[k * p : (k + 1) * p, :] = np.linalg.solve(m[k, :, k, :], acc)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"singular diagonal block at node {k}") from exc
    return x


def solve_id_plus(a: VolterraOperator, b: VolterraOperator) -> VolterraOperator:
    """X with ``(Id + A) X = B`` exactly in the discrete algebra.

    One block forward substitution; the instantaneous part is
    ``(I + m_A)^{-1} m_B`` node by node.
    """
    a._require_compatible(b)
    n, p = a.grid.n_nodes, a.p
    m = a.flat.copy()
    m[np.diag_indices(n * p)] += 1.0
    flat = block_lower_solve(m, b.flat, a.grid, p)
    inst = b._inst
    if inst is not None and a._inst is not None:
        inst = np.linalg.solve(np.eye(p) + a._inst, inst)
    return VolterraOperator(a.grid, p, flat=flat, inst=inst, name=f"solve(Id+{a.name},{b.name})")


def neumann_inverse(a: VolterraOperator, order: int) -> VolterraOperator:
    """Truncated Neumann series ``sum_{n>=1} (-A)^n``; cross-check for the solver.

    The remainder after ``order`` terms is bounded by
    ``(C_A T)^{order+1} / order!`` in operator norm, with ``C_A`` the discrete
    Volterra constant.
    """
    acc = -a.flat.copy()
    power = -a.flat
    for _ in range(2, order + 1):
        power = -(power @ a.flat)
        acc += power
    return VolterraOperator(a.grid, a.p, flat=acc, inst=None, name=f"neumann({a.name})")


def operator_norm_bound(flat: np.ndarray, grid: TimeGrid, p: int) -> float:
    """Upper bound on the induced sup-norm: max over rows of summed block norms.

    The block norms come from one batched SVD; each row is summed left to
    right, as a per-block loop would.  nan or inf for a non-finite ``flat``.
    """
    if not np.isfinite(flat).all():
        return float(np.max(np.abs(flat)))
    n = grid.n_nodes
    blocks = flat.reshape(n, p, n, p).transpose(0, 2, 1, 3)
    norms = np.linalg.svd(blocks, compute_uv=False)[..., 0]
    rows = np.zeros(n)
    for l in range(n):
        rows += norms[:, l]
    return float(np.max(rows))


# -- kernel dump format ------------------------------------------------
#
# One text file per operator: a single JSON header line
#   {"name":..., "p":..., "N_t":..., "T":..., "ordering": [...]}
# followed by CSV rows; memory-kernel entries carry six fields
# (k, l, i, j, re, im), instantaneous entries five (k, i, j, re, im).


def dump_kernel(op: VolterraOperator, ordering, fh) -> None:
    header = {
        "name": op.name,
        "p": op.p,
        "N_t": op.grid.steps,
        "T": op.grid.horizon,
        "ordering": list(ordering),
    }
    fh.write(json.dumps(header) + "\n")
    # one time row at a time; repr of a Python float is the round-trip text
    mem = op.memory_kernel()
    n, p = op.grid.n_nodes, op.p
    tails = [f"{l},{i},{j}," for l in range(n) for i in range(p) for j in range(p)]
    for k in range(n):
        _write_entries(fh, f"{k},", tails, mem[k, : k + 1])
    if op.has_instantaneous():
        tails = [f"{i},{j}," for i in range(p) for j in range(p)]
        for k, block in enumerate(op.instantaneous()):
            _write_entries(fh, f"{k},", tails, block)


def _write_entries(fh, head, tails, values) -> None:
    """One line ``head tail re,im`` per entry of ``values``, in C order."""
    fh.write("".join(
        f"{head}{tail}{re!r},{im!r}\n"
        for tail, re, im in zip(tails, values.real.ravel().tolist(), values.imag.ravel().tolist())
    ))


def dump_kernel_to_path(op: VolterraOperator, ordering, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_kernel(op, ordering, fh)


def load_kernel(fh) -> tuple[dict, np.ndarray, np.ndarray]:
    """Parse a kernel dump; returns (header, memory kernel, instantaneous part)."""
    header = json.loads(fh.readline())
    if not isinstance(header, dict) or not {"p", "N_t", "T", "ordering"} <= header.keys():
        raise ValueError(f"malformed kernel header: {header!r}")
    p = int(header["p"])
    n = int(header["N_t"]) + 1
    mem = np.zeros((n, n, p, p), dtype=complex)
    inst = np.zeros((n, p, p), dtype=complex)
    for row in csv.reader(fh):
        if not row:
            continue
        if len(row) == 6:
            k, l, i, j = (int(x) for x in row[:4])
            target, index, fits = mem, (k, l, i, j), 0 <= l <= k < n
        elif len(row) == 5:
            k, i, j = (int(x) for x in row[:3])
            target, index, fits = inst, (k, i, j), 0 <= k < n
        else:
            fits = False
        # a negative index would wrap; acausal or out-of-range rows do not fit the header
        if not (fits and 0 <= i < p and 0 <= j < p):
            raise ValueError(f"malformed kernel row: {row!r}")
        target[index] = complex(float(row[-2]), float(row[-1]))
    return header, mem, inst


def load_kernel_from_path(path) -> tuple[dict, np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_kernel(fh)
