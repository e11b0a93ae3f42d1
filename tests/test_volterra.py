import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pfnegf import volterra
from pfnegf.grid import TimeGrid
from pfnegf.negf import compute_g0
from pfnegf.propagation import CorrelatorGrid
from pfnegf.volterra import (
    TILE_NODES,
    Sum,
    VolterraOperator,
    dump_kernel,
    operator_norm_bound,
    solve_id_plus,
    trapezoid_weights,
)

from conftest import DUMP_DAMAGES, damage_dump
from oracles import (
    dense_blocks,
    dense_kernel,
    dense_matrix,
    embedded_operator,
    identity_volterra,
    load_kernel,
    memory_kernel,
    neumann_inverse,
    packed_kernel_bytes,
    packed_toeplitz,
    two_pass_norm_bound,
)

RNG = np.random.default_rng(5)
GRID = TimeGrid(2.0, 20)


def scalar_memory(grid, fn):
    n = grid.n_nodes
    mem = np.zeros((n, n, 1, 1), dtype=complex)
    t = grid.nodes
    for k in range(n):
        for l in range(k + 1):
            mem[k, l, 0, 0] = fn(t[k], t[l])
    return VolterraOperator(grid, 1, mem=mem)


def random_memory_operator(grid, p, seed=0):
    rng = np.random.default_rng(seed)
    n = grid.n_nodes
    mem = np.zeros((n, n, p, p), dtype=complex)
    for k in range(n):
        for l in range(k + 1):
            mem[k, l] = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return VolterraOperator(grid, p, mem=mem)


def loop_norm_bound(flat, grid, p):
    """Per-block reference for ``operator_norm_bound``."""
    n = grid.n_nodes
    blocks = dense_blocks(flat, grid, p)
    best = 0.0
    for k in range(n):
        best = max(best, sum(np.linalg.norm(blocks[k, l], 2) for l in range(n)))
    return float(best)


def loop_volterra_constant(op):
    """Per-block reference for ``VolterraOperator.volterra_constant``."""
    mem = memory_kernel(op)
    best = 0.0
    for k in range(op.grid.n_nodes):
        for l in range(k + 1):
            best = max(best, np.linalg.norm(mem[k, l], 2))
    return float(best)


def resolvent(a):
    """R with ``(Id + A)(Id + R) = Id``, from the one causal solve."""
    ident = identity_volterra(a.grid, a.p)
    return solve_id_plus(a, ident).evaluate() - ident


def apply(op, psi):
    """Action of ``op`` on a grid function: its flat matrix, trapezoid weights included."""
    return (op.flat @ psi.ravel()).reshape(psi.shape)


def kernel_bytes(op, ordering):
    buf = io.BytesIO()
    dump_kernel(op, ordering, buf, "K")
    return buf.getvalue()


def load_bytes(data):
    return load_kernel(io.BytesIO(data))


def assert_causal(op):
    """The strict-upper (acausal) blocks of the expanded matrix are exactly zero."""
    blocks = dense_blocks(op.flat, op.grid, op.p)
    assert np.all(blocks[np.triu_indices(op.grid.n_nodes, k=1)] == 0.0)


def reference_dump(op, ordering):
    """Reference kernel dump assembled block by block from the dense kernel view."""
    header = {"name": "K", "p": op.p, "N_t": op.grid.steps, "T": op.grid.horizon,
              "ordering": list(ordering), "instantaneous": op.has_instantaneous()}
    mem = memory_kernel(op)
    blocks = [mem[k, l] for k in range(op.grid.n_nodes) for l in range(k + 1)]
    if op.has_instantaneous():
        blocks += list(op.instantaneous())
    return json.dumps(header).encode() + b"\n" + b"".join(b.astype("<c16").tobytes() for b in blocks)


# a float step count once gave a float n_nodes, and compute_g0 then died with a TypeError
@pytest.mark.parametrize("steps", [2.5, math.nan, 3.0, True], ids=["fraction", "nan", "whole-float", "bool"])
def test_time_grid_refuses_a_non_integer_step_count(steps):
    with pytest.raises(ValueError, match="steps must be an integer"):
        TimeGrid(1.0, steps)


def test_time_grid_accepts_a_numpy_integer_step_count():
    grid = TimeGrid(1.0, np.int64(4))
    assert grid.n_nodes == 5
    assert compute_g0(np.eye(2), grid).grid.n_nodes == 5


class TestApply:
    def test_constant_kernel_on_constant_function(self):
        # trapezoid integrates constants exactly: (A psi)(t_k) = t_k * c
        op = scalar_memory(GRID, lambda t, s: 1.0)
        c = 2.5
        psi = np.full((GRID.n_nodes, 1), c)
        out = apply(op, psi)
        np.testing.assert_allclose(out[:, 0].real, GRID.nodes * c, atol=1e-14)

    def test_linear_function_exact(self):
        # trapezoid integrates linear integrands exactly: int_0^t s ds = t^2/2
        op = scalar_memory(GRID, lambda t, s: 1.0)
        psi = GRID.nodes[:, None].astype(complex)
        out = apply(op, psi)
        np.testing.assert_allclose(out[:, 0].real, GRID.nodes**2 / 2.0, atol=1e-13)


class TestCompose:
    def test_identity_neutral(self):
        b = random_memory_operator(GRID, 2)
        left = identity_volterra(GRID, 2) @ b
        np.testing.assert_array_equal(left.flat, b.flat)

    def test_flatten_homomorphism(self):
        # the product of the expansions; bitwise when the grid fits in one tile
        for steps in (TILE_NODES - 1, GRID.steps):
            grid = TimeGrid(GRID.horizon, steps)
            a = random_memory_operator(grid, 2, seed=1)
            b = random_memory_operator(grid, 2, seed=2)
            dense = a.flat @ b.flat
            if grid.n_nodes <= TILE_NODES:
                np.testing.assert_array_equal((a @ b).flat, dense)
            else:
                assert np.max(np.abs((a @ b).flat - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_constant_kernels_compose_to_lag(self):
        # iterated integral of two unit kernels: int_{t'}^{t} ds = t - t'.
        # Exact trapezoid values: interior entries hit t_k - t_l exactly; the
        # t' = 0 column sits at t_k - delta/2 (node 0 carries no quadrature
        # row) and the time diagonal carries the self-weight delta/2.
        a = scalar_memory(GRID, lambda t, s: 1.0)
        composed = a @ a
        mem = memory_kernel(composed)
        t, delta = GRID.nodes, GRID.delta
        for k in range(GRID.n_nodes):
            for l in range(1, k):
                assert mem[k, l, 0, 0] == pytest.approx(t[k] - t[l], abs=1e-13)
            if k >= 1:
                assert mem[k, 0, 0, 0] == pytest.approx(t[k] - delta / 2, abs=1e-13)
            assert mem[k, k, 0, 0] == pytest.approx(0.0 if k == 0 else delta / 2, abs=1e-15)

    def test_memory_only_composition_has_no_instantaneous_part(self):
        a = random_memory_operator(GRID, 2, seed=3)
        b = random_memory_operator(GRID, 2, seed=4)
        assert not (a @ b).has_instantaneous()

    def test_causality_preserved(self):
        a = random_memory_operator(GRID, 2, seed=5)
        b = random_memory_operator(GRID, 2, seed=6)
        assert_causal(a @ b)


class TestInversion:
    def test_zero_operator(self):
        zero = VolterraOperator(GRID, 2, mem=np.zeros((GRID.n_nodes, GRID.n_nodes, 2, 2)))
        assert resolvent(zero).max_abs() == 0.0

    def test_inverse_residual(self):
        a = random_memory_operator(GRID, 3, seed=7)
        r = resolvent(a)
        ident = identity_volterra(GRID, 3)
        assert ((ident + a) @ (ident + r) - ident).max_abs() <= 1e-12

    def test_inverse_is_causal(self):
        a = random_memory_operator(GRID, 2, seed=8)
        assert_causal(resolvent(a))

    def test_neumann_agrees_within_factorial_bound(self):
        a = random_memory_operator(GRID, 2, seed=9).scale(0.05)
        r_exact = resolvent(a)
        c_a = a.volterra_constant()
        horizon = GRID.horizon
        for order in (4, 8, 12):
            r_series = neumann_inverse(a, order)
            diff = (r_series - r_exact).norm_bound()
            bound = (c_a * horizon) ** (order + 1) / math.factorial(order)
            assert diff <= bound + 1e-12

    def test_scalar_resolvent_matches_analytic(self):
        # (Id + A)^{-1} = Id + R with R(t,t') = lam * exp(lam (t - t'))
        # when A has the constant kernel -lam; trapezoid error is O(delta^2)
        lam = 0.8
        errors = []
        for steps in (20, 40):
            grid = TimeGrid(2.0, steps)
            a = scalar_memory(grid, lambda t, s: -lam)
            mem = memory_kernel(resolvent(a))
            worst = 0.0
            t = grid.nodes
            for k in range(3, grid.n_nodes):
                for l in range(1, k - 1):
                    worst = max(
                        worst, abs(mem[k, l, 0, 0] - lam * np.exp(lam * (t[k] - t[l])))
                    )
            errors.append(worst)
        assert errors[0] / errors[1] >= 3.0

    def test_singular_block_reported(self):
        n = GRID.n_nodes
        inst = np.zeros((n, 1, 1), dtype=complex)
        inst[3, 0, 0] = -1.0  # makes Id + m singular at node 3
        a = VolterraOperator(GRID, 1, inst=inst, mem=np.zeros((n, n, 1, 1)))
        with pytest.raises(np.linalg.LinAlgError, match="node 3"):
            solve_id_plus(a, identity_volterra(GRID, 1)).evaluate()

    def test_instantaneous_parts_on_both_sides(self):
        # (Id + A) X = B with m_X = (I + m_A)^{-1} m_B node by node
        p, n = 2, GRID.n_nodes
        rng = np.random.default_rng(16)
        inst_a = 0.3 * (rng.standard_normal((n, p, p)) + 1j * rng.standard_normal((n, p, p)))
        inst_b = rng.standard_normal((n, p, p)) + 1j * rng.standard_normal((n, p, p))
        mem_a = random_memory_operator(GRID, p, seed=17).scale(0.1)
        mem_b = random_memory_operator(GRID, p, seed=18)
        a = mem_a + VolterraOperator(GRID, p, inst=inst_a)
        b = mem_b + VolterraOperator(GRID, p, inst=inst_b)
        x = solve_id_plus(a, b).evaluate()
        ident = identity_volterra(GRID, p)
        assert ((ident + a) @ x - b).max_abs() <= 1e-12
        expected = np.linalg.solve(np.eye(p) + inst_a, inst_b)
        np.testing.assert_allclose(x.instantaneous(), expected, rtol=0, atol=1e-12)
        # m_B itself when A has no instantaneous part, none when B has none
        np.testing.assert_array_equal(solve_id_plus(mem_a, b).evaluate().instantaneous(), inst_b)
        assert not solve_id_plus(a, mem_b).evaluate().has_instantaneous()


class TestCacheState:
    OPERATIONS = {
        "restrict": lambda a, b: memory_kernel(a.restrict([0, 1])),
        "sum": lambda a, b: (a + b).flat,
        "scale": lambda a, b: a.scale(0.3 - 0.7j).flat,
    }

    @pytest.mark.parametrize("operation", list(OPERATIONS))
    def test_results_do_not_depend_on_a_flat_read(self, operation):
        h = np.array([[0.4, 1.0, 0.0], [1.0, -0.2, 0.6], [0.0, 0.6, 0.1]])

        def operands():
            return compute_g0(h, GRID), random_memory_operator(GRID, 3, seed=14)

        fresh = self.OPERATIONS[operation](*operands())
        a, b = operands()
        a.flat, b.flat  # fill the flat caches first
        np.testing.assert_array_equal(self.OPERATIONS[operation](a, b), fresh)


def concatenated_volterra_constant(op):
    """``volterra_constant`` as one SVD over all kernel blocks, concatenated."""
    p = op.p
    blocks = np.concatenate([b.reshape(-1, p, p) for _, _, b in op.kernel_tiles()])
    if not np.isfinite(blocks).all():
        return float(np.max(np.abs(blocks)))
    return float(np.max(np.linalg.svd(blocks, compute_uv=False)[:, 0]))


class TestNormAndConstants:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "spots",
        [
            {},
            {(3, 1): np.inf},
            {(TILE_NODES + 2, 4): np.nan},
            {(2, 0): np.inf, (2 * TILE_NODES + 1, 7): np.nan},
            {(2 * TILE_NODES + 1, 2 * TILE_NODES): complex(np.inf, np.nan)},
        ],
        ids=["finite", "inf", "nan", "inf-and-nan", "inf-nan-entry"],
    )
    def test_constant_equals_concatenated_svd(self, spots):
        grid = TimeGrid(1.0, 2 * TILE_NODES + 2)
        mem = memory_kernel(random_memory_operator(grid, 2, seed=50))
        for (k, l), bad in spots.items():
            mem[k, l, 0, 1] = bad
        a = VolterraOperator(grid, 2, mem=mem)
        for op in (a, a.restrict([1]), a @ random_memory_operator(grid, 2, seed=51)):
            assert repr(op.volterra_constant()) == repr(concatenated_volterra_constant(op))

    def test_zero_kernel_constant(self):
        zero = VolterraOperator(GRID, 2, mem=np.zeros((GRID.n_nodes, GRID.n_nodes, 2, 2)))
        assert zero.volterra_constant() == 0.0

    def test_norm_bound_property(self):
        a = random_memory_operator(GRID, 3, seed=10)
        c_a = a.volterra_constant()
        w = trapezoid_weights(GRID.n_nodes) * GRID.delta
        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            psi = rng.standard_normal((GRID.n_nodes, 3)) + 1j * rng.standard_normal((GRID.n_nodes, 3))
            out = apply(a, psi)
            norms = np.linalg.norm(psi, axis=1)
            for k in range(GRID.n_nodes):
                quadrature = float(w[k, : k + 1] @ norms[: k + 1])
                assert np.linalg.norm(out[k]) <= c_a * quadrature + 1e-10

    @pytest.mark.parametrize("p", [1, 3])
    def test_batched_norms_equal_loop_reference(self, p):
        # the loop reference also sums the acausal zero blocks of every row
        grid = TimeGrid(1.0, TILE_NODES + 4)
        a = random_memory_operator(grid, p, seed=20 + p)
        b = random_memory_operator(grid, p, seed=30 + p)
        n = grid.n_nodes
        rng = np.random.default_rng(40 + p)
        inst = rng.standard_normal((n, p, p)) + 1j * rng.standard_normal((n, p, p))
        c = a @ b + VolterraOperator(grid, p, inst=inst)
        for op in (a, a @ b, c):
            assert operator_norm_bound(Sum(op)) == loop_norm_bound(op.flat, grid, p)
            assert op.volterra_constant() == loop_volterra_constant(op)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_block_gives_non_finite_norms(self, bad):
        grid = TimeGrid(1.0, 10)
        n = grid.n_nodes
        mem = np.zeros((n, n, 2, 2), dtype=complex)
        mem[4, 1, 0, 1] = bad
        op = VolterraOperator(grid, 2, mem=mem)
        assert not np.isfinite(operator_norm_bound(Sum(op)))
        assert not np.isfinite(op.volterra_constant())

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_batched_norm_bound_property(self, data):
        # drawn causal operators: a kernel pair, and its sum with a product
        steps = data.draw(st.integers(2, 5), label="steps")
        p = data.draw(st.integers(1, 4), label="p")
        grid = TimeGrid(1.0, steps)
        n = grid.n_nodes
        elements = st.floats(-1e6, 1e6)
        mem = data.draw(arrays(np.float64, (2, n, n, p, p), elements=elements), label="mem")
        inst = data.draw(arrays(np.float64, (2, n, p, p), elements=elements), label="inst")
        mem = mem[0] + 1j * mem[1]
        mem[np.triu_indices(n, k=1)] = 0.0
        op = VolterraOperator(grid, p, inst=inst[0] + 1j * inst[1], mem=mem)
        for x in (op, op + op @ op):
            assert operator_norm_bound(Sum(x)) == loop_norm_bound(x.flat, grid, p)


class TestRestriction:
    def test_restrict_identity(self):
        op = identity_volterra(GRID, 4)
        sub = op.restrict([0, 1])
        np.testing.assert_array_equal(sub.flat, identity_volterra(GRID, 2).flat)

    def test_restrict_kernel_entries(self):
        a = random_memory_operator(GRID, 3, seed=11)
        sub = a.restrict([0, 1])
        np.testing.assert_array_equal(memory_kernel(sub), memory_kernel(a)[:, :, :2, :2])

    @pytest.mark.parametrize("instantaneous", [False, True])
    @pytest.mark.parametrize("indices", [[-1], [3], [0, 0], [2, 1, 2]])
    def test_restrict_refuses_orbitals_outside_or_repeated(self, indices, instantaneous):
        # a negative index would wrap to the last orbital, one past the end
        # would be dropped or raise IndexError, and a repeat would duplicate
        a = random_memory_operator(GRID, 3, seed=12)
        if instantaneous:
            a = a + VolterraOperator(GRID, 3, inst=np.ones((GRID.n_nodes, 3, 3), dtype=complex))
        with pytest.raises(ValueError, match=r"distinct orbitals in \[0, 3\)"):
            a.restrict(indices)


class TestDumpFormat:
    def test_round_trip(self):
        a = random_memory_operator(GRID, 2, seed=12)
        header, mem, inst = load_bytes(kernel_bytes(a, ["x", "y"]))
        assert header["p"] == 2
        assert header["N_t"] == GRID.steps
        assert header["ordering"] == ["x", "y"]
        assert header["instantaneous"] is False
        np.testing.assert_array_equal(mem, memory_kernel(a))
        assert np.max(np.abs(inst)) == 0.0

    def test_round_trip_with_instantaneous_part(self):
        n = GRID.n_nodes
        inst = RNG.standard_normal((n, 2, 2)) + 1j * RNG.standard_normal((n, 2, 2))
        a = VolterraOperator(GRID, 2, inst=inst, mem=np.zeros((n, n, 2, 2)))
        buf = io.BytesIO()
        dump_kernel(a, ["x", "y"], buf, "withinst")
        buf.seek(0)
        header, mem, inst_back = load_kernel(buf)
        assert header["name"] == "withinst"
        assert header["instantaneous"] is True
        np.testing.assert_array_equal(inst_back, inst)
        assert np.max(np.abs(mem)) == 0.0

    @pytest.mark.parametrize(
        "row",
        [
            "-1,0,0,0,5.0,0.0",
            "1,2,0,0,5.0,0.0",
            "3,0,0,0,5.0,0.0",
            "1,0,0,-1,5.0,0.0",
            "1,0,2,0,5.0,0.0",
            "-1,0,0,5.0,0.0",
            "3,0,0,5.0,0.0",
            "1,0,2,5.0,0.0",
        ],
    )
    def test_rejects_rows_outside_the_header(self, row):
        # a 2-step, p = 2 dump, nodes 0..2: the layout has no place for an entry outside
        # the header, so the entry, written as the layout writes one, makes the body over-long
        data = kernel_bytes(random_memory_operator(TimeGrid(1.0, 2), 2, seed=15), ["x", "y"])
        load_bytes(data)
        entry = np.array([complex(*map(float, row.split(",")[-2:]))], dtype="<c16")
        with pytest.raises(ValueError, match="malformed kernel dump: the body runs past"):
            load_bytes(data + entry.tobytes())

    @pytest.mark.parametrize(
        "header",
        ['{"p": 2}', "[2, 2]"]
        # p a whole number >= 1, N_t a whole number >= 2, neither a bool
        + [
            json.dumps({"p": 2, "N_t": 2, "T": 1.0, "ordering": ["x", "y"]} | shape)
            for shape in ({"p": None}, {"p": 1.7}, {"p": True}, {"p": 0}, {"N_t": 1}, {"N_t": "2"})
        ],
    )
    def test_rejects_header_without_its_keys(self, header):
        # the body has the length of a 2-step, p = 2 dump without an instantaneous part
        with pytest.raises(ValueError, match="malformed kernel header"):
            load_bytes(header.encode() + b"\n" + bytes(6 * 4 * 16))

    def test_dump_deterministic(self):
        a = random_memory_operator(GRID, 2, seed=13)
        assert kernel_bytes(a, ["x", "y"]) == kernel_bytes(a, ["x", "y"])

    def test_bytes_equal_reference_layout(self):
        grid = TimeGrid(1.0, 6)
        n = grid.n_nodes
        mem = np.zeros((n, n, 2, 2), dtype=complex)
        for k in range(1, n):
            for l in range(k + 1):
                mem[k, l] = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        mem[2, 1] = [[-0.0, 1e-05], [1e16, 5e-324]]
        mem[3, 0] = [[complex(-0.0, -0.0), 0.0], [complex(1e-05, 5e-324), complex(1e16, -0.0)]]
        inst = np.zeros((n, 2, 2), dtype=complex)
        inst[1] = [[complex(-0.0, 1e16), 1e-05], [0.0, complex(5e-324, -1e-05)]]
        inst[4, 0, 1] = 0.25 - 3.0j
        a = VolterraOperator(grid, 2, inst=inst, mem=mem)
        assert kernel_bytes(a, ["x", "y"]) == reference_dump(a, ["x", "y"])

    @pytest.mark.parametrize("damage", DUMP_DAMAGES)
    def test_rejects_incomplete_or_repeated_dumps(self, damage):
        # a multi-tile kernel with an instantaneous part; a damaged body read as
        # zero-padded or cut short would pass for a kernel
        grid, p = THREE_TILES, 2
        n = grid.n_nodes
        inst = RNG.standard_normal((n, p, p)) + 1j * RNG.standard_normal((n, p, p))
        a = VolterraOperator(grid, p, inst=inst, mem=memory_kernel(random_memory_operator(grid, p, seed=14)))
        data = kernel_bytes(a, ["x", "y"])
        load_bytes(data)
        with pytest.raises(ValueError, match="malformed kernel dump"):
            load_bytes(damage_dump(data, damage))

    def test_multi_tile_g0_round_trip(self):
        h = np.array([[0.4, 1.0, 0.0], [1.0, -0.2, 0.6], [0.0, 0.6, 0.1]])
        g0 = compute_g0(h, THREE_TILES)
        header, mem, inst = load_bytes(kernel_bytes(g0, ["a", "b", "c"]))
        assert header["N_t"] == THREE_TILES.steps
        assert mem.tobytes() == memory_kernel(g0).tobytes()
        assert inst.tobytes() == g0.instantaneous().tobytes()


# float64 parts whose bits a dump must keep apart: both zeros, quiet
# and signalling nan payloads and signs, both infinities, subnormals, and a
# few ordinary values
DUMP_PARTS = np.concatenate([
    np.array(
        [0, 1 << 63, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0xFFF8000000000123,
         0x7FF0000000000001, 0xFFF0000000000123, 0x7FF0000000000000, 0xFFF0000000000000, 1,
         0x800FFFFFFFFFFFFF],
        dtype=np.uint64,
    ).view(float),
    [1.0, -2.5, 0.1, 1e16],
])
SIGNALLING_NAN = 0x7FF0000000000001


@st.composite
def repeating_operators(draw):
    """Kernel-built operators on more than one tile row whose entries repeat up and left.

    ``toeplitz`` repeats every entry, ``partial`` overwrites some real and
    some imaginary parts of a Toeplitz kernel, and ``random`` draws each
    entry.  The instantaneous part, if any, is one block at every node, and
    ``partial`` overwrites some of its parts too.  Parts come from
    ``DUMP_PARTS``, so equal bits, and equal values with different bits, meet
    along the diagonals.
    """
    steps = draw(st.integers(TILE_NODES, 2 * TILE_NODES + 2), label="steps")
    p = draw(st.integers(1, 3), label="p")
    kind = draw(st.sampled_from(["toeplitz", "partial", "random"]), label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    grid = TimeGrid(1.0, steps)
    n = grid.n_nodes

    def parts(shape):
        # set part by part: ``re + 1j * im`` turns an infinite part into nan
        out = np.empty(shape, dtype=complex)
        out.real, out.imag = rng.choice(DUMP_PARTS, size=shape), rng.choice(DUMP_PARTS, size=shape)
        return out

    lag = np.subtract.outer(np.arange(n), np.arange(n))
    lags = np.concatenate([parts((n, p, p)), np.zeros((1, p, p))])
    mem = parts((n, n, p, p)) if kind == "random" else lags[np.where(lag >= 0, lag, n)]
    inst = np.broadcast_to(parts((p, p)), (n, p, p)).copy()
    if kind == "partial":
        for part in (mem.real, mem.imag, inst.real, inst.imag):
            hit = rng.random(part.shape) < 0.1
            part[hit] = rng.choice(DUMP_PARTS, size=np.count_nonzero(hit))
    mem[lag < 0] = 0.0
    if not draw(st.booleans(), label="instantaneous"):
        inst = None
    return VolterraOperator(grid, p, inst=inst, mem=mem)


class TestDumpRoundTrip:
    """A dump reads back with the bits of the kernel reader and of the instantaneous part."""

    @settings(max_examples=40, deadline=None)
    @given(repeating_operators())
    def test_load_equals_the_kernel_reader(self, op):
        ordering = [f"o{i}" for i in range(op.p)]
        data = kernel_bytes(op, ordering)
        assert data == reference_dump(op, ordering)
        header, mem, inst = load_bytes(data)
        causal = np.tri(op.grid.n_nodes, dtype=bool)
        assert mem[causal].tobytes() == memory_kernel(op)[causal].tobytes()
        assert not mem[~causal].view(np.int64).any()
        # the writer leaves out an instantaneous part that is zero, signed zeros included
        assert header["instantaneous"] == op.has_instantaneous()
        expected = op.instantaneous() if op.has_instantaneous() else np.zeros_like(inst)
        assert inst.tobytes() == expected.tobytes()


class TestInstantaneousBits:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_signalling_nan_dumps_without_a_warning(self):
        grid = TimeGrid(1.0, 4)
        n = grid.n_nodes
        inst = np.zeros((n, 1, 1), dtype=complex)
        inst.real.view(np.uint64)[2, 0, 0] = SIGNALLING_NAN
        op = VolterraOperator(grid, 1, inst=inst, mem=np.zeros((n, n, 1, 1), dtype=complex))
        assert op.instantaneous().real.view(np.uint64)[2, 0, 0] == SIGNALLING_NAN
        assert op.has_instantaneous()
        data = kernel_bytes(op, ["x"])
        assert data == reference_dump(op, ["x"])
        # the payload survives the round trip
        assert load_bytes(data)[2].real.view(np.uint64)[2, 0, 0] == SIGNALLING_NAN

    def test_negative_zeros_are_zero(self):
        # the sign bit alone is no entry; the least subnormal is
        grid = TimeGrid(1.0, 4)
        n = grid.n_nodes
        for tiny, expected in ((-0.0, False), (5e-324, True)):
            inst = np.full((n, 1, 1), complex(-0.0, -0.0))
            inst.imag[1, 0, 0] = tiny
            op = VolterraOperator(grid, 1, inst=inst, mem=np.zeros((n, n, 1, 1), dtype=complex))
            assert op.has_instantaneous() is expected


FINITE_PARTS = DUMP_PARTS[np.isfinite(DUMP_PARTS)]


def drawn_support(draw, p, label):
    """Increasing orbital indices below ``p``: none, one, all or some."""
    kind = draw(st.sampled_from(["none", "one", "all", "some"]), label=f"{label} kind")
    if kind == "one":
        return np.array([draw(st.integers(0, p - 1), label=label)])
    if kind == "some":
        return np.array(sorted(draw(st.sets(st.integers(0, p - 1)), label=label)), dtype=int)
    return np.arange(p if kind == "all" else 0)


@st.composite
def held_row_grids(draw):
    """A full correlator grid over drawn increasing D rows and held rows.

    Its parts come from the finite ``DUMP_PARTS``, signed zeros and
    subnormals included; the acausal half is not zero.
    """
    p = draw(st.integers(1, 3), label="p")
    rows, cols = drawn_support(draw, p, "rows"), drawn_support(draw, p, "cols")
    grid = TimeGrid(1.0, draw(st.sampled_from([2, TILE_NODES, TILE_NODES + 2]), label="steps"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    values = np.empty((rows.size, cols.size, grid.n_nodes, grid.n_nodes), dtype=complex)
    values.real, values.imag = rng.choice(FINITE_PARTS, size=values.shape), rng.choice(FINITE_PARTS, size=values.shape)
    return grid, p, CorrelatorGrid(values, rows, cols)


class TestHeldRowPacking:
    """A kernel packed from its held rows and scaled once has the bits of the dense route."""

    @settings(max_examples=40, deadline=None)
    @given(held_row_grids(), st.sampled_from([-1j, 1.0]))
    def test_equals_the_zero_filled_dense_route(self, drawn, prefactor):
        grid, p, corr = drawn
        oracle = embedded_operator(corr, grid, p, prefactor)
        op = VolterraOperator(grid, p, mem=corr.causal_kernel(), rows=corr.rows, cols=corr.cols, scale=prefactor)
        assert packed_kernel_bytes(op) == packed_kernel_bytes(oracle)
        assert op.flat.tobytes() == oracle.flat.tobytes()
        ordering = [f"o{i}" for i in range(p)]
        assert kernel_bytes(op, ordering) == kernel_bytes(oracle, ordering)

    def test_rows_not_given_carry_the_scaled_zero(self):
        # +0.0 * -1j is 0.0 - 0.0j, and +0.0 * 1.0 stays +0.0
        grid, p = TimeGrid(1.0, 3), 3
        n = grid.n_nodes
        mem = np.zeros((n, n, 1, p), dtype=complex)
        mem[np.tril_indices(n)] = 1.0
        for scale, imag_sign in ((-1j, True), (1.0, False)):
            kernel = memory_kernel(VolterraOperator(grid, p, mem=mem, rows=[1], scale=scale))
            zero_rows = kernel[:, :, [0, 2]]
            assert not zero_rows.any() and not np.signbit(zero_rows.real).any()
            assert (np.signbit(zero_rows.imag) == imag_sign).all()
            assert (kernel[np.tril_indices(n)][:, 1] == scale).all()

    def test_row_count_must_match(self):
        n = GRID.n_nodes
        with pytest.raises(ValueError, match="memory kernel has shape"):
            VolterraOperator(GRID, 2, mem=np.zeros((n, n, 1, 2), dtype=complex))
        with pytest.raises(ValueError, match="memory kernel has shape"):
            VolterraOperator(GRID, 2, mem=np.zeros((n, n, 2, 2), dtype=complex), rows=[1])


class TestConstruction:
    def test_no_dense_matrix_input(self):
        # a dense matrix could carry acausal weight that the kernel view hides
        n = GRID.n_nodes
        flat = np.zeros((n, n), dtype=complex)
        flat[0, 2] = 1.0
        with pytest.raises(TypeError):
            VolterraOperator(GRID, 1, flat=flat)

    def test_acausal_kernel_rejected(self):
        n = GRID.n_nodes
        mem = np.zeros((n, n, 1, 1), dtype=complex)
        mem[0, 2] = 1.0
        with pytest.raises(ValueError, match="acausal weight"):
            VolterraOperator(GRID, 1, mem=mem)

    # (nodes, k, l) of the one acausal entry: T nodes are one tile row, T + 1
    # put the last node in a tile row of its own, 2 T + 3 make three tile rows
    T = TILE_NODES
    ACAUSAL_SPOTS = {
        "diagonal-tile-T": (T, 3, 4),
        "diagonal-tile-T+1": (T + 1, T - 2, T - 1),
        "diagonal-tile-2T+3": (2 * T + 3, T + 4, T + 11),
        "right-of-row-T+1": (T + 1, T - 1, T),
        "right-of-row-2T+3-first": (2 * T + 3, 0, 2 * T + 2),
        "right-of-row-2T+3-middle": (2 * T + 3, 2 * T - 1, 2 * T),
        "last-row-T": (T, 0, T - 1),
        "last-row-2T+3": (2 * T + 3, 2 * T, 2 * T + 2),
    }

    @pytest.mark.parametrize("n, k, l", ACAUSAL_SPOTS.values(), ids=ACAUSAL_SPOTS.keys())
    def test_acausal_weight_found_in_every_tile_spot(self, n, k, l):
        grid = TimeGrid(1.0, n - 1)
        mem = memory_kernel(random_memory_operator(grid, 2, seed=n))
        VolterraOperator(grid, 2, mem=mem)  # the causal part alone is accepted
        for bad in (1e-300j, np.nan):  # the tolerance is exactly zero
            mem[k, l, 1, 0] = bad
            with pytest.raises(ValueError, match="acausal weight"):
                VolterraOperator(grid, 2, mem=mem)

    def test_strided_kernel_packs_like_its_copy(self):
        # the transposed view causal_kernel hands over, against its contiguous copy
        n, p = 2 * TILE_NODES + 3, 3
        grid = TimeGrid(1.0, n - 1)
        values = RNG.standard_normal((p, p, n, n)) + 1j * RNG.standard_normal((p, p, n, n))
        view = CorrelatorGrid(values, np.arange(p), np.arange(p)).causal_kernel()
        assert np.shares_memory(view, values) and not view.flags.c_contiguous
        packed = VolterraOperator(grid, p, mem=view, scale=-1j)
        copied = VolterraOperator(grid, p, mem=np.ascontiguousarray(view), scale=-1j)
        assert packed.panels().tobytes() == copied.panels().tobytes()
        assert memory_kernel(packed).tobytes() == memory_kernel(copied).tobytes()


# n = 3 (the smallest grid), one tile, one past it, and two tiles plus three nodes
ORACLE_STEPS = (2, TILE_NODES - 1, TILE_NODES, 2 * TILE_NODES + 2)


def dense_flat(grid, p, inst, mem):
    """The matrix of a kernel pair, assembled by numpy alone."""
    n = grid.n_nodes
    blocks = mem * (trapezoid_weights(n) * grid.delta)[:, :, None, None]
    if inst is not None:
        blocks[np.arange(n), np.arange(n)] += inst
    return blocks.transpose(0, 2, 1, 3).reshape(n * p, n * p)


def dense_restrict(flat, grid, p, indices):
    n, q = grid.n_nodes, len(indices)
    blocks = dense_blocks(flat, grid, p)[:, :, indices][:, :, :, indices]
    return blocks.transpose(0, 2, 1, 3).reshape(n * q, n * q)


def relative_error(actual, expected):
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


@st.composite
def operator_pairs(draw):
    """Two drawn operators on one grid, with their kernel pairs and dense matrices."""
    steps = draw(st.sampled_from(ORACLE_STEPS), label="steps")
    p = draw(st.integers(1, 4), label="p")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    grid = TimeGrid(1.0, steps)
    n = grid.n_nodes
    out = []
    for scale in (0.3, 1.0):  # A small enough for a well-conditioned Id + A
        mem = scale * (rng.standard_normal((n, n, p, p)) + 1j * rng.standard_normal((n, n, p, p)))
        mem[np.triu_indices(n, k=1)] = 0.0
        inst = None
        if draw(st.booleans(), label="instantaneous"):
            inst = scale * (rng.standard_normal((n, p, p)) + 1j * rng.standard_normal((n, p, p)))
        op = VolterraOperator(grid, p, inst=inst, mem=mem)
        out.append((op, inst, mem, dense_flat(grid, p, inst, mem)))
    return grid, p, out[0], out[1]


class TestPackedAgainstDenseOracle:
    """Packed algebra against numpy on the dense matrices of the kernel pairs."""

    @settings(max_examples=25, deadline=None)
    @given(operator_pairs())
    def test_compose(self, pair):
        grid, p, (a, _, _, da), (b, _, _, db) = pair
        product, expected = (a @ b).flat, da @ db
        if grid.n_nodes <= TILE_NODES:
            np.testing.assert_array_equal(product, expected)
        else:
            assert relative_error(product, expected) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(operator_pairs())
    def test_solve_id_plus(self, pair):
        grid, p, (a, _, _, da), (b, _, _, db) = pair
        expected = np.linalg.solve(np.eye(len(da)) + da, db)
        assert relative_error(solve_id_plus(a, b).evaluate().flat, expected) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(operator_pairs(), st.data())
    def test_linear_operations_bitwise(self, pair, data):
        grid, p, (a, inst_a, mem_a, da), (b, inst_b, _, db) = pair
        s = complex(data.draw(st.floats(-2, 2), label="re"), data.draw(st.floats(-2, 2), label="im"))
        np.testing.assert_array_equal((a + b).flat, da + db)
        np.testing.assert_array_equal((a - b).flat, da - db)
        np.testing.assert_array_equal(a.scale(s).flat, s * da)
        np.testing.assert_array_equal(memory_kernel(a), mem_a)
        total = a + b
        inst_total = a.instantaneous() + b.instantaneous()
        np.testing.assert_array_equal(memory_kernel(total), dense_kernel(da + db, inst_total, grid, p))
        for op, dense in ((a, da), (total, da + db)):
            assert op.max_abs() == np.max(np.abs(dense))
            assert op.norm_bound() == loop_norm_bound(dense, grid, p)
        indices = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True))
        np.testing.assert_array_equal(a.restrict(indices).flat, dense_restrict(da, grid, p, indices))
        np.testing.assert_array_equal(
            memory_kernel(a.restrict(indices)), mem_a[:, :, indices][:, :, :, indices]
        )
        np.testing.assert_array_equal(
            total.restrict(indices).flat, dense_restrict(da + db, grid, p, indices)
        )


def count_svd_blocks(monkeypatch) -> list:
    """Record how many blocks each ``np.linalg.svd`` call is given."""
    counted, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        counted.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return counted


# three tile rows, the last one partial
THREE_TILES = TimeGrid(1.0, 2 * TILE_NODES + 5)


def dominant_tail(mem, rows, factor=8.0):
    """Scale the given kernel rows by a power of two, so they hold the largest row sums."""
    mem[rows] *= factor
    return mem


def tied_rows_kernel(grid, p, seed):
    """Random kernel whose last two rows have bitwise equal, dominant block-norm sums.

    Row ``n - 2`` repeats row ``n - 1`` block by block; its diagonal block,
    which carries half the trapezoid weight, is doubled, and the last
    diagonal block of row ``n - 1`` is zero.
    """
    n = grid.n_nodes
    mem = memory_kernel(random_memory_operator(grid, p, seed)).copy()
    mem[n - 2, : n - 2] = mem[n - 1, : n - 2]
    mem[n - 2, n - 2] = 2.0 * mem[n - 1, n - 2]
    mem[n - 1, n - 1] = 0.0
    return dominant_tail(mem, slice(n - 2, n))


def rank_one_kernel(grid, p, seed):
    """Random causal kernel of rank-1 blocks: Frobenius and spectral norms agree."""
    rng = np.random.default_rng(seed)
    n = grid.n_nodes
    u = rng.standard_normal((n, n, p, 1)) + 1j * rng.standard_normal((n, n, p, 1))
    v = rng.standard_normal((n, n, 1, p)) + 1j * rng.standard_normal((n, n, 1, p))
    mem = u @ v
    mem[np.triu_indices(n, k=1)] = 0.0
    return dominant_tail(mem, slice(n - 3, n))


def permuted_rows_kernel(grid, seed):
    """p = 1 kernel whose last four rows permute one set of values.

    Their exact row sums are equal; the computed ones, summed left to right,
    differ in the last bits, which a pruning margin must allow for.
    """
    rng = np.random.default_rng(seed)
    n = grid.n_nodes
    mem = memory_kernel(random_memory_operator(grid, 1, seed)).copy()
    values = rng.standard_normal(n - 5) + 1j * rng.standard_normal(n - 5)
    ends = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    for k in range(n - 4, n):
        interior = np.concatenate([values, np.zeros(k - 1 - len(values))])
        mem[k, 1:k, 0, 0] = rng.permutation(interior)
        mem[k, 0, 0, 0], mem[k, k, 0, 0] = ends
    return dominant_tail(mem, slice(n - 4, n))


class TestPrunedNormBound:
    """``operator_norm_bound`` takes SVDs only of rows that can hold the maximum."""

    KERNELS = {
        "random-p3": lambda grid: memory_kernel(random_memory_operator(grid, 3, seed=60)),
        "tied-rows-p2": lambda grid: tied_rows_kernel(grid, 2, seed=61),
        "tied-rows-p1": lambda grid: tied_rows_kernel(grid, 1, seed=62),
        "rank-one-p3": lambda grid: rank_one_kernel(grid, 3, seed=63),
        "rank-one-p1": lambda grid: rank_one_kernel(grid, 1, seed=64),
        "permuted-rows-p1": lambda grid: permuted_rows_kernel(grid, seed=65),
    }

    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_equals_loop_reference_and_skips_rows(self, monkeypatch, kernel):
        grid = THREE_TILES
        mem = self.KERNELS[kernel](grid)
        n, p = grid.n_nodes, mem.shape[-1]
        rng = np.random.default_rng(66)
        inst = rng.standard_normal((n, p, p)) + 1j * rng.standard_normal((n, p, p))
        for op in (VolterraOperator(grid, p, mem=mem), VolterraOperator(grid, p, mem=mem, inst=inst)):
            expected = loop_norm_bound(op.flat, grid, p)
            counted = count_svd_blocks(monkeypatch)
            assert operator_norm_bound(Sum(op)) == expected
            assert sum(counted) < n * (n + 1) // 2  # some rows took no SVD
            monkeypatch.undo()

    def test_tied_rows_both_reach_the_bound(self):
        # the two tied rows give the same sum, which is the bound
        grid, p = THREE_TILES, 2
        n = grid.n_nodes
        op = VolterraOperator(grid, p, mem=tied_rows_kernel(grid, p, seed=61))
        blocks = dense_blocks(op.flat, grid, p)
        sums = [sum(np.linalg.norm(blocks[k, l], 2) for l in range(n)) for k in (n - 2, n - 1)]
        assert sums[0] == sums[1] == operator_norm_bound(Sum(op))

    def test_tiny_and_huge_entries(self):
        # squares of the entries would under- or overflow without the scaling,
        # and the reciprocal of a subnormal largest entry overflows
        grid = THREE_TILES
        mem = memory_kernel(random_memory_operator(grid, 2, seed=67))
        for scale in (1e-200, 1e200, 1e-300, 1e-310, 1e-320):
            op = VolterraOperator(grid, 2, mem=mem * scale)
            assert operator_norm_bound(Sum(op)) == loop_norm_bound(op.flat, grid, 2)

    def test_row_of_underflowing_squares_is_kept(self):
        # row n - 1 holds the largest sum in entries whose squares underflow
        # to zero, row 1 one entry whose square does not
        n = THREE_TILES.n_nodes
        grid = TimeGrid(float(n - 1), n - 1)  # unit step: trapezoid weights 1 and 1/2
        mem = np.zeros((n, n, 2, 2), dtype=complex)
        mem[1, 0, 0, 0] = 6e-162
        mem[n - 1, 1 : n - 1] = 1e-162
        op = VolterraOperator(grid, 2, mem=mem)
        expected = loop_norm_bound(op.flat, grid, 2)
        assert expected > 1e-161
        assert operator_norm_bound(Sum(op)) == expected

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "spots, expected",
        [
            ({(TILE_NODES + 3, 2): np.inf}, np.inf),
            ({(2 * TILE_NODES + 1, 7): np.nan}, np.nan),
            ({(3, 1): np.inf, (2 * TILE_NODES + 4, 2 * TILE_NODES + 4): np.nan}, np.nan),
        ],
        ids=["inf", "nan", "inf-and-nan"],
    )
    def test_non_finite_entries(self, spots, expected):
        # an inf entry gives inf, a nan anywhere gives nan
        grid = THREE_TILES
        mem = memory_kernel(random_memory_operator(grid, 2, seed=68))
        for (k, l), bad in spots.items():
            mem[k, l, 1, 0] = bad
        assert repr(operator_norm_bound(Sum(VolterraOperator(grid, 2, mem=mem)))) == repr(expected)


# largest magnitude of a tile row's kernel entries: zero, subnormal, tiny, unit and huge
TILE_TOPS = (0.0, 1e-320, 1e-310, 1e-300, 1e-150, 1.0, 1e150, 1e300)


@st.composite
def norm_bound_operators(draw):
    """An operator on a drawn support whose tile rows span 600 decades, perhaps with a nan or an inf.

    Each tile row of the kernel (and of the instantaneous part, if drawn)
    has its own largest magnitude from ``TILE_TOPS``, so a row whose squares
    underflow at one scale sits beside one that would overflow at another.
    """
    p = draw(st.integers(1, 3), label="p")
    rows, cols = drawn_support(draw, p, "rows"), drawn_support(draw, p, "cols")
    grid = TimeGrid(1.0, draw(st.sampled_from([2, TILE_NODES, 2 * TILE_NODES + 2]), label="steps"))
    n = grid.n_nodes
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    tops = np.repeat([draw(st.sampled_from(TILE_TOPS), label="tile top") for _ in range(0, n, TILE_NODES)], TILE_NODES)[:n]
    shape = (n, n, rows.size, cols.size)
    mem = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * tops[:, None, None, None] / 4
    mem[np.triu_indices(n, k=1)] = 0.0
    inst = None
    if draw(st.booleans(), label="instantaneous"):
        inst = np.zeros((n, p, p), dtype=complex)
        inst[:, rows[:, None], cols] = rng.standard_normal((n, rows.size, cols.size)) * tops[:, None, None]
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]), label="non-finite entry")
    if bad is not None and mem.size:
        k = rng.integers(n)
        mem[k, rng.integers(k + 1), rng.integers(rows.size), rng.integers(cols.size)] = bad
    return VolterraOperator(grid, p, inst=inst, mem=mem, rows=rows, cols=cols)


class TestOneReadNormBound:
    """``operator_norm_bound`` reads each tile row once for its magnitude and its Frobenius sums."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(norm_bound_operators(), norm_bound_operators())
    def test_equals_the_two_pass_bound(self, op, other):
        # an operator and a lazy sum with a product term, against the two passes that read them
        # twice: the same bits, from SVDs of the same rows (rows on either side of the pruning
        # margin sit further from it than the roundoff of either scaling)
        cases = [Sum(op)]
        if (other.grid, other.p) == (op.grid, op.p):
            cases.append(Sum(op) - other - Sum(other) @ op)
        for terms in cases:
            svds = []
            for bound in (operator_norm_bound, two_pass_norm_bound):
                with pytest.MonkeyPatch.context() as patch:
                    svds.append(count_svd_blocks(patch))
                    svds.append(repr(bound(terms)))
            assert svds[1] == svds[3]
            assert sum(svds[0]) == sum(svds[2])

    def test_each_tile_row_is_read_once_before_the_spectral_pass(self, monkeypatch):
        grid = THREE_TILES
        op = random_memory_operator(grid, 2, seed=69)
        expected = two_pass_norm_bound(Sum(op))
        assert expected == loop_norm_bound(op.flat, grid, 2)
        reads, reader = [], Sum._reader

        def counted(self, *args):
            read = reader(self, *args)
            return lambda i, out=None: reads.append(i) or read(i, out)

        monkeypatch.setattr(Sum, "_reader", counted)
        assert operator_norm_bound(Sum(op)) == expected
        tiles = len(range(0, grid.n_nodes, TILE_NODES))
        # one pass reads every tile row; the largest sums are in the last, which alone is read again for SVDs
        assert reads[:tiles] == list(range(tiles)) and set(reads[tiles:]) == {tiles - 1}


@st.composite
def operand_draws(draw):
    """A drawn kernel pair, an instantaneous part and a right operand, on a grid that may cross tiles."""
    steps = draw(st.sampled_from(ORACLE_STEPS), label="steps")
    p = draw(st.integers(1, 6), label="p")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    grid = TimeGrid(1.0, steps)
    n = grid.n_nodes

    def kernel():
        mem = rng.standard_normal((n, n, p, p)) + 1j * rng.standard_normal((n, n, p, p))
        mem[np.triu_indices(n, k=1)] = 0.0
        return mem

    def inst():
        return rng.standard_normal((n, p, p)) + 1j * rng.standard_normal((n, p, p))

    a_inst = inst() if draw(st.booleans(), label="a instantaneous") else None
    a = VolterraOperator(grid, p, inst=a_inst, mem=kernel())
    b_inst = inst() if draw(st.booleans(), label="b instantaneous") else None
    b = VolterraOperator(grid, p, inst=b_inst, mem=kernel())
    m = np.zeros((n, p, p), dtype=complex) if draw(st.booleans(), label="zero part") else inst()
    return grid, p, a, b, m


class TestOperandRules:
    """An instantaneous-only operator against the dense route, non-finite operands and zero solves."""

    @settings(max_examples=30, deadline=None)
    @given(operand_draws())
    def test_instantaneous_only_product_equals_tiled_gemm(self, draw):
        # an instantaneous part alone: its matrix and a product with it, against numpy's
        # product of the dense matrices
        grid, p, a, _, m = draw
        n = grid.n_nodes
        alone = VolterraOperator(grid, p, inst=m)
        dense = dense_flat(grid, p, m, np.zeros((n, n, p, p), dtype=complex))
        assert not np.any(memory_kernel(alone))
        np.testing.assert_array_equal(alone.instantaneous(), m)
        np.testing.assert_array_equal(dense_matrix(alone), dense)
        product = a @ alone
        assert_close(dense_matrix(product), dense_matrix(a) @ dense)
        kernel = memory_kernel(a) @ m
        kernel[0, 0] = 0.0  # the first node's block has no weight
        assert_close(memory_kernel(product), kernel)
        assert_close(product.instantaneous(), a.instantaneous() @ m)

    @settings(max_examples=30, deadline=None)
    @given(operand_draws(), st.data())
    def test_instantaneous_only_restrict_and_dump_equal_zero_kernel_form(self, draw, data):
        # the restriction of an instantaneous part alone against the dense restriction, and its
        # dump against the dense values: every causal memory entry 0.0,0.0, then the part's entries
        # when it has one that is not zero
        grid, p, _, _, m = draw
        n = grid.n_nodes
        alone = VolterraOperator(grid, p, inst=m)
        dense = dense_flat(grid, p, m, np.zeros((n, n, p, p), dtype=complex))
        indices = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True))
        sub = alone.restrict(indices)
        np.testing.assert_array_equal(dense_matrix(sub), dense_restrict(dense, grid, p, indices))
        assert not np.any(memory_kernel(sub))
        np.testing.assert_array_equal(sub.instantaneous(), m[:, indices][:, :, indices])
        _, body = kernel_bytes(alone, [f"o{i}" for i in range(p)]).split(b"\n", 1)
        zeros = bytes(16 * p * p * n * (n + 1) // 2)
        assert body == zeros + (m.astype("<c16").tobytes() if np.any(m) else b"")

    @settings(max_examples=30, deadline=None)
    @given(operand_draws())
    def test_zero_solve_returns_b(self, draw):
        # forward substitution against an all-zero A gives B, bit for bit
        grid, p, _, b, _ = draw
        n = grid.n_nodes
        for zero in (
            VolterraOperator(grid, p, inst=np.zeros((n, p, p))),
            VolterraOperator(grid, p, mem=np.zeros((n, n, p, p))),
            -(b @ VolterraOperator(grid, p, inst=np.zeros((n, p, p)))),
        ):
            x = solve_id_plus(zero, b).evaluate()
            np.testing.assert_array_equal(x.panels(), b.panels())
            np.testing.assert_array_equal(x.instantaneous(), b.instantaneous())
        # an operator that holds its matrix lends it to no result
        held = b.scale(1.0)
        assert not np.shares_memory(solve_id_plus(zero, held).evaluate().panels(), held.panels())

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("where", ["kernel", "instantaneous"])
    def test_non_finite_operand_gives_non_finite_result(self, bad, where):
        grid, p = THREE_TILES, 2
        n = grid.n_nodes
        mem = memory_kernel(random_memory_operator(grid, p, seed=70))
        inst = np.ones((n, p, p), dtype=complex)
        spot = (TILE_NODES + 3, 0, 1) if where == "instantaneous" else (TILE_NODES + 3, 4, 0, 1)
        (inst if where == "instantaneous" else mem)[spot] = bad
        a = VolterraOperator(grid, p, mem=mem)
        right = VolterraOperator(grid, p, inst=inst)
        assert not np.isfinite((a @ right).panels()).all()
        # a solve against a zero A passes a non-finite B through, and one
        # against an A that is zero but for one non-finite entry is not finite
        zero = VolterraOperator(grid, p, inst=np.zeros((n, p, p)))
        b = VolterraOperator(grid, p, mem=mem, inst=inst)
        assert not np.isfinite(solve_id_plus(zero, b).evaluate().panels()).all()
        almost_zero = np.zeros((n, n, p, p), dtype=complex)
        almost_zero[TILE_NODES + 3, 4, 0, 1] = bad
        finite = random_memory_operator(grid, p, seed=71)
        assert not np.isfinite(solve_id_plus(VolterraOperator(grid, p, mem=almost_zero), finite).evaluate().panels()).all()


def toeplitz_kernel(grid, p, seed):
    """Causal kernel with one random block per lag: every block repeats along its diagonal."""
    rng = np.random.default_rng(seed)
    n = grid.n_nodes
    lags = rng.standard_normal((n + 1, p, p)) + 1j * rng.standard_normal((n + 1, p, p))
    lags[n] = 0.0
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    return lags[np.where(lag >= 0, lag, n)]


class TestDistinctBlockConstant:
    """``volterra_constant`` skips the blocks that repeat the one up and left of them."""

    def test_g0_takes_one_svd_per_lag(self, monkeypatch):
        grid = THREE_TILES
        h = np.array([[0.4, 1.0, 0.0], [1.0, -0.2, 0.6], [0.0, 0.6, 0.1]])
        g0 = compute_g0(h, grid)
        expected = loop_volterra_constant(g0)
        counted = count_svd_blocks(monkeypatch)
        assert g0.volterra_constant() == expected
        assert sum(counted) == grid.n_nodes

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [None, np.nan, np.inf])
    def test_repeated_blocks(self, bad):
        grid, p = THREE_TILES, 2
        mem = toeplitz_kernel(grid, p, seed=71)
        if bad is not None:
            mem[TILE_NODES + 3, 5, 0, 1] = bad  # one copy of the lag-(TILE_NODES - 2) block
        a = VolterraOperator(grid, p, mem=mem)
        for op in (a, a.restrict([1]), a @ random_memory_operator(grid, p, seed=72)):
            if bad is None:
                assert op.volterra_constant() == loop_volterra_constant(op)
            else:
                # the per-block loop raises on a nan block; one SVD over every block does not
                assert repr(op.volterra_constant()) == repr(concatenated_volterra_constant(op))
        if bad is not None:
            assert repr(a.volterra_constant()) == repr(bad)


@st.composite
def supported_pairs(draw):
    """Two operators on drawn orbital supports, each with its full ``p x p`` twin and dense matrix.

    Each support is none, one, some or every orbital, rows and columns drawn
    apart.  The twin is built over every orbital from the zero-filled kernel
    and part, with the same scale: the full algebra the supported one must
    agree with.
    """
    steps = draw(st.sampled_from(ORACLE_STEPS), label="steps")
    p = draw(st.integers(1, 4), label="p")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    grid = TimeGrid(1.0, steps)
    n = grid.n_nodes
    out = []
    for name, size in (("a", 0.3), ("b", 1.0)):  # A small enough for a well-conditioned Id + A
        rows, cols = drawn_support(draw, p, f"{name} rows"), drawn_support(draw, p, f"{name} cols")
        block = np.ix_(rows, cols)
        mem = np.zeros((n, n, p, p), dtype=complex)
        mem[:, :, rows[:, None], cols] = size * (
            rng.standard_normal((n, n, rows.size, cols.size)) + 1j * rng.standard_normal((n, n, rows.size, cols.size))
        )
        mem[np.triu_indices(n, k=1)] = 0.0
        inst = None
        if draw(st.booleans(), label=f"{name} instantaneous"):
            inst = np.zeros((n, p, p), dtype=complex)
            inst[:, block[0], block[1]] = size * (
                rng.standard_normal((n, rows.size, cols.size)) + 1j * rng.standard_normal((n, rows.size, cols.size))
            )
        scale = draw(st.sampled_from([None, -1j, 1.0]), label=f"{name} scale")
        op = VolterraOperator(grid, p, inst=inst, mem=mem[:, :, block[0], block[1]], rows=rows, cols=cols, scale=scale)
        twin = VolterraOperator(grid, p, inst=inst, mem=mem, scale=scale)
        out.append((op, twin, dense_flat(grid, p, inst, mem if scale is None else mem * scale)))
    return grid, p, out[0], out[1]


def assert_close(actual, expected, rtol=1e-13):
    """Agreement within ``rtol`` of the largest expected entry; exact zeros where nothing is expected."""
    top = np.max(np.abs(expected), initial=0.0)
    if top == 0.0:
        assert not np.any(actual)
    else:
        assert np.max(np.abs(actual - expected)) <= rtol * top


def solve_sizes(monkeypatch) -> list:
    """Record the orbital count ``r`` of every ``block_lower_solve``."""
    sizes, solve = [], volterra.block_lower_solve

    def spy(m, x, n, r, c):
        sizes.append(r)
        return solve(m, x, n, r, c)

    monkeypatch.setattr(volterra, "block_lower_solve", spy)
    return sizes


class TestSupportAgainstFullAlgebra:
    """Operators held on their orbital support against the full p x p algebra.

    Where the supported route does the same arithmetic (copies, sums,
    scaling, the kernel view and the dump) the results are equal, bit for bit
    where the full route stores no zero of its own sign; where BLAS sums a
    shorter inner length (products, solves and SVDs) they agree within 1e-13
    of the largest entry.
    """

    @settings(max_examples=30, deadline=None)
    @given(supported_pairs())
    def test_views_and_dump(self, pair):
        grid, p, (a, twin, da), _ = pair
        assert a.flat.tobytes() == twin.flat.tobytes() == da.tobytes()
        assert packed_kernel_bytes(a) == packed_kernel_bytes(twin)
        assert a.has_instantaneous() == twin.has_instantaneous()
        np.testing.assert_array_equal(a.instantaneous(), twin.instantaneous())
        ordering = [f"o{i}" for i in range(p)]
        assert kernel_bytes(a, ordering) == kernel_bytes(twin, ordering)
        assert a.max_abs() == twin.max_abs()
        assert repr(a.volterra_constant()) == repr(twin.volterra_constant())
        assert_close(np.array(a.norm_bound()), np.array(loop_norm_bound(da, grid, p)))

    @settings(max_examples=30, deadline=None)
    @given(supported_pairs(), st.data())
    def test_linear_operations_and_restrict(self, pair, data):
        grid, p, (a, twin_a, da), (b, twin_b, db) = pair
        for op, dense, rows, cols in (
            (a + b, da + db, np.union1d(a.rows, b.rows), np.union1d(a.cols, b.cols)),
            (a - b, da - db, np.union1d(a.rows, b.rows), np.union1d(a.cols, b.cols)),
        ):
            assert op.rows.tolist() == rows.tolist() and op.cols.tolist() == cols.tolist()
            assert op.flat.tobytes() == dense.tobytes()
        total = a + b
        assert packed_kernel_bytes(total) == packed_kernel_bytes(twin_a + twin_b)
        assert kernel_bytes(a - b, ["x"] * p) == kernel_bytes(twin_a - twin_b, ["x"] * p)
        s = complex(data.draw(st.floats(-2, 2), label="re"), data.draw(st.floats(-2, 2), label="im"))
        # an entry outside the support is +0.0 after scaling; the full route has s * 0.0
        np.testing.assert_array_equal(a.scale(s).flat, s * da)
        np.testing.assert_array_equal(memory_kernel(a.scale(s)), memory_kernel(twin_a.scale(s)))
        indices = data.draw(st.lists(st.integers(0, p - 1), max_size=p, unique=True), label="indices")
        for op, twin, dense in ((a, twin_a, da), (total, twin_a + twin_b, da + db)):
            sub = op.restrict(indices)
            assert sub.flat.tobytes() == dense_restrict(dense, grid, p, indices).tobytes()
            assert packed_kernel_bytes(sub) == packed_kernel_bytes(twin.restrict(indices))
            np.testing.assert_array_equal(sub.instantaneous(), twin.restrict(indices).instantaneous())

    @settings(max_examples=30, deadline=None)
    @given(supported_pairs())
    def test_compose(self, pair):
        grid, p, (a, twin_a, da), (b, twin_b, db) = pair
        product = a @ b
        assert product.rows.tolist() == a.rows.tolist() and product.cols.tolist() == b.cols.tolist()
        assert_close(product.flat, da @ db)
        assert_close(product.flat, (twin_a @ twin_b).flat)
        np.testing.assert_array_equal(product.instantaneous(), (twin_a @ twin_b).instantaneous())
        assert_close(np.array(product.norm_bound()), np.array(loop_norm_bound(da @ db, grid, p)))

    @settings(max_examples=30, deadline=None)
    @given(supported_pairs())
    def test_solve_id_plus(self, pair):
        grid, p, (a, twin_a, da), (b, twin_b, db) = pair
        with pytest.MonkeyPatch.context() as monkeypatch:
            sizes = solve_sizes(monkeypatch)
            x = solve_id_plus(a, b).evaluate()
        held = np.union1d(a.rows, b.rows)
        # the solve runs on the rows A and B hold, or on A's columns when they are fewer
        assert sizes == [min(held.size, a.cols.size)]
        if a.cols.size >= held.size:
            assert x.rows.tolist() == held.tolist()
        assert_close(x.flat, np.linalg.solve(np.eye(len(da)) + da, db))
        assert_close(x.flat, solve_id_plus(twin_a, twin_b).evaluate().flat)
        assert_close(x.instantaneous(), solve_id_plus(twin_a, twin_b).evaluate().instantaneous())


class TestTileRowSums:
    """A ``Sum`` read one tile row at a time gives the bits of the same expression formed whole."""

    @settings(max_examples=40, deadline=None)
    @given(supported_pairs())
    def test_reductions_and_evaluation_equal_whole_operators(self, pair):
        _, _, (a, *_), (b, *_) = pair
        ab, shared = a @ b, Sum(b) - a
        cases = [
            (Sum(a) - b - Sum(a) @ b, a - b - ab),
            (Sum(b) + Sum(a) @ b - a, b + ab - a),
            (Sum(Sum(a) @ b) - Sum(b) @ a, ab - b @ a),
            # a sum as a term and as the left factor of a product, a product as a left factor
            (Sum(b) - (Sum(a) + b) - (Sum(a) - b) @ b @ a, b - (a + b) - ((a - b) @ b) @ a),
            # one lazy sum read twice, as a term and under a product, and first of all: formed once per row
            (Sum(a) - shared - shared @ b @ a, a - (b - a) - ((b - a) @ b) @ a),
            (Sum(shared) - a - shared @ a, (b - a) - a - (b - a) @ a),
        ]
        for lazy, whole in cases:
            assert (lazy.rows.tolist(), lazy.cols.tolist()) == (whole.rows.tolist(), whole.cols.tolist())
            formed = lazy.evaluate()
            assert formed.panels().tobytes() == whole.panels().tobytes()
            assert formed.instantaneous().tobytes() == whole.instantaneous().tobytes()
            assert repr(lazy.max_abs()) == repr(whole.max_abs())
            assert repr(lazy.norm_bound()) == repr(operator_norm_bound(Sum(whole)))

    @settings(max_examples=30, deadline=None)
    @given(supported_pairs())
    def test_solve_sum_equals_the_formed_solution(self, pair):
        _, _, (a, *_), (b, *_) = pair
        lazy = solve_id_plus(a, b)
        x = lazy.evaluate()
        # the solve formed whole: forward substitution on the solved set S, then B - A X_S when S is A's columns
        held = np.union1d(a.rows, b.rows)
        s = a.cols if a.cols.size < held.size else held
        x_s = b._on(s, b.cols).copy()
        volterra.block_lower_solve(a._on(s, s), x_s, a.grid.n_nodes, s.size, b.cols.size)
        x_s = VolterraOperator._packed(a.grid, a.p, s, b.cols, None, None, x_s)
        assert x.panels().tobytes() == (x_s if s is held else b - a @ x_s).panels().tobytes()
        assert repr((lazy - b).max_abs()) == repr((x - b).max_abs())

    def test_a_sum_of_one_operator_evaluates_to_it(self):
        a = random_memory_operator(GRID, 2)
        assert Sum(a).evaluate() is a  # not a copy

    def test_terms_on_other_grids_are_refused(self):
        a = random_memory_operator(GRID, 2)
        other = random_memory_operator(TimeGrid(2.0, 21), 2)
        with pytest.raises(ValueError, match="different grids"):
            Sum(a) - other
        # a product is refused when it is built, not when a residual first reads it
        with pytest.raises(ValueError, match="different grids"):
            Sum(a) @ other

    def test_right_factor_must_be_an_operator(self):
        # a lazy right factor would be formed again for every tile row below it
        a = random_memory_operator(GRID, 2)
        for right in (Sum(a), Sum(a) @ a, a.flat):
            with pytest.raises(TypeError, match="right factor"):
                Sum(a) @ right
        with pytest.raises(TypeError, match="right factor"):
            a @ Sum(a)


def weighed_then_selected(op, rows, cols) -> np.ndarray:
    """A sub-block read the long way: the whole packed matrix, then the requested entries copied into zeros."""
    n, whole = op.grid.n_nodes, op.panels()
    out = np.zeros(volterra.packed_size(n, rows.size, cols.size), dtype=complex)
    tiles = zip(volterra._slabs(whole, n, op.rows.size, op.cols.size), volterra._slabs(out, n, rows.size, cols.size))
    for (*_, held), (*_, picked) in tiles:
        for i, row in enumerate(rows):
            for j, col in enumerate(cols):
                if row in op.rows and col in op.cols:
                    picked[:, :, i, j] = held[:, :, op.rows.tolist().index(row), op.cols.tolist().index(col)]
    return out


class TestSubBlockReads:
    """A kernel-built operator weighs only the sub-block a product or solve reads."""

    @settings(max_examples=40, deadline=None)
    @given(supported_pairs(), st.data())
    def test_equals_weighing_the_whole_kernel(self, pair, data):
        # kernel-built operators with and without an instantaneous part and a scale, and a product
        _, p, (a, *_), (b, *_) = pair
        for op in (a, b, a @ b):
            rows, cols = (
                np.array(sorted(data.draw(st.sets(st.integers(0, p - 1)), label=f"read {side}")), dtype=int)
                for side in ("rows", "cols")
            )
            assert op._on(rows, cols).tobytes() == weighed_then_selected(op, rows, cols).tobytes()

    def test_g0_sample_rows(self):
        # G0 is read on the sample's rows or columns in most products of ``verify``
        grid, p = TimeGrid(2.0, 2 * TILE_NODES + 3), 4
        h = RNG.standard_normal((p, p)) + 1j * RNG.standard_normal((p, p))
        g0 = compute_g0(h + np.conj(h.T), grid)
        every, sample = np.arange(p), np.array([0, 1])
        for rows, cols in ((sample, every), (every, sample), (sample, sample), (every, every)):
            assert g0._on(rows, cols).tobytes() == weighed_then_selected(g0, rows, cols).tobytes()

    def test_held_matrix_gives_its_own_slabs(self):
        # an operator produced by the algebra, read on its support: views of the one buffer it
        # holds, weighed by no read, and copies of them when read into a buffer
        grid, p = TimeGrid(2.0, 2 * TILE_NODES + 3), 4
        h = RNG.standard_normal((p, p)) + 1j * RNG.standard_normal((p, p))
        held = compute_g0(h + np.conj(h.T), grid).scale(0.5)
        read = held._reader(held.rows, held.cols)
        for i in range(3):
            slab = read(i)
            assert np.shares_memory(slab, held.panels())
            out = np.empty_like(slab)
            assert read(i, out) is out and out.tobytes() == slab.tobytes()


class TestSupportReductions:
    """The two solve reductions and the inner set of a product, on fixed supports."""

    GRID = TimeGrid(1.0, TILE_NODES + 4)

    def operator(self, rows, cols, seed, size=1.0, inst=False, p=4):
        rng = np.random.default_rng(seed)
        n, rows, cols = self.GRID.n_nodes, np.array(rows, dtype=int), np.array(cols, dtype=int)
        mem = size * (rng.standard_normal((n, n, rows.size, cols.size)) + 1j * rng.standard_normal((n, n, rows.size, cols.size)))
        mem[np.triu_indices(n, k=1)] = 0.0
        part = None
        if inst:
            part = np.zeros((n, p, p), dtype=complex)
            part[:, rows[:, None], cols] = size * rng.standard_normal((n, rows.size, cols.size))
        return VolterraOperator(self.GRID, p, inst=part, mem=mem, rows=rows, cols=cols)

    @pytest.mark.parametrize("inst", [False, True], ids=["memory-only", "instantaneous"])
    @pytest.mark.parametrize(
        "a_support, b_support, size, support",
        [
            (([0, 1], [0, 1, 2, 3]), ([0, 1], [0, 1]), 2, ([0, 1], [0, 1])),  # the proper self-energy's solve
            (([0, 1, 2, 3], [0, 1]), ([0, 1, 2, 3], [0, 1, 2, 3]), 2, ([0, 1, 2, 3], [0, 1, 2, 3])),  # the Dyson solution's
            (([1], [2]), ([3], [0, 2]), 1, ([1, 3], [0, 2])),  # A's one column is not a row of B
            (([], []), ([1, 2], [3]), 0, ([1, 2], [3])),  # an empty A returns B
        ],
        ids=["rows", "columns", "disjoint", "empty"],
    )
    def test_solve_runs_on_the_supported_set(self, monkeypatch, inst, a_support, b_support, size, support):
        a = self.operator(*a_support, seed=80, size=0.3, inst=inst)
        b = self.operator(*b_support, seed=81, inst=inst)
        sizes = solve_sizes(monkeypatch)
        x = solve_id_plus(a, b).evaluate()
        assert sizes == [size]
        assert (x.rows.tolist(), x.cols.tolist()) == support
        expected = np.linalg.solve(np.eye(len(a.flat)) + a.flat, b.flat)
        assert_close(x.flat, expected)
        expected_inst = np.linalg.solve(np.eye(4) + a.instantaneous(), b.instantaneous())
        assert_close(x.instantaneous(), expected_inst)
        # the kernel view outside the support reads +0.0
        outside = np.ones((4, 4), dtype=bool)
        outside[np.ix_(*support)] = False
        kernel = memory_kernel(x)[..., outside]
        assert not kernel.any() and not np.signbit(kernel.real).any() and not np.signbit(kernel.imag).any()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_product_contracts_over_the_inner_set_alone(self):
        # A's column 0 is not a row of B: its inf meets no entry of B and stays out of the product
        a = self.operator([0, 2], [0, 1], seed=82)
        b = self.operator([1, 3], [2], seed=83)
        mem = memory_kernel(a)[:, :, [0, 2]][:, :, :, [0, 1]].copy()
        finite = (a @ b).flat
        mem[5, 2, 1, 0] = np.inf
        a_inf = VolterraOperator(self.GRID, 4, mem=mem, rows=[0, 2], cols=[0, 1])
        product = a_inf @ b
        assert (product.rows.tolist(), product.cols.tolist()) == ([0, 2], [2])
        assert product.flat.tobytes() == finite.tobytes()

    def test_kernel_built_zero_reads_the_scaled_zero(self):
        # the dump of an operator held on a sub-block keeps the full route's signed zeros
        n = self.GRID.n_nodes
        mem = np.ones((n, n, 1, 2), dtype=complex)
        mem[np.triu_indices(n, k=1)] = 0.0
        for scale, entry in ((-1j, complex(0.0, -0.0)), (1.0, 0j), (None, 0j)):
            op = VolterraOperator(self.GRID, 3, mem=mem, rows=[1], cols=[0, 2], scale=scale)
            full = np.zeros((n, n, 3, 3), dtype=complex)
            full[:, :, 1, [0, 2]] = mem[:, :, 0]
            twin = VolterraOperator(self.GRID, 3, mem=full, scale=scale)
            assert kernel_bytes(op, "abc") == kernel_bytes(twin, "abc")
            loaded = load_bytes(kernel_bytes(op, "abc"))[1]
            assert loaded[0, 0, 0, 1].tobytes() == np.array(entry).tobytes()

    def test_instantaneous_part_alone_holds_a_zero_kernel(self):
        # the kernel view and dump read the zero kernel held, not (P - m) / w,
        # which is nan where m holds an inf or a nan
        n = self.GRID.n_nodes
        inst = np.zeros((n, 4, 4), dtype=complex)
        inst[:, 1, 2] = 2.0 - 1.0j
        inst[TILE_NODES + 1, 1, 2] = np.inf
        inst[3, 2, 1] = complex(0.0, np.nan)
        for rows, cols in ((None, None), ([1, 2], [1, 2])):
            op = VolterraOperator(self.GRID, 4, inst=inst, rows=rows, cols=cols)
            assert not memory_kernel(op).view(np.int64).any()  # +0.0, both parts
            _, mem, loaded = load_bytes(kernel_bytes(op, "abcd"))
            assert not mem.view(np.int64).any()
            np.testing.assert_array_equal(loaded, inst)

    def test_support_rules(self):
        n = self.GRID.n_nodes
        mem = np.zeros((n, n, 1, 1), dtype=complex)
        for rows in ([1, 0], [0, 0], [-1], [4]):
            with pytest.raises(ValueError, match="support must be increasing"):
                VolterraOperator(self.GRID, 4, mem=mem if len(rows) == 1 else np.zeros((n, n, 2, 1)), rows=rows, cols=[0])
        inst = np.zeros((n, 4, 4), dtype=complex)
        inst[3, 2, 1] = 1e-300
        with pytest.raises(ValueError, match="not zero outside the support"):
            VolterraOperator(self.GRID, 4, inst=inst, rows=[1], cols=[1, 2])
        inst[3, 2, 1] = -0.0  # a signed zero is zero
        VolterraOperator(self.GRID, 4, inst=inst, rows=[1], cols=[1, 2])


@st.composite
def lag_held_operators(draw):
    """A lag-held operator and its packed twin, on a grid of 1, 2 or 3 tile rows whose last one is partial.

    Either ``G0`` of a drawn Hermitian matrix or drawn lags with a drawn
    instantaneous part and scale.  The twin packs the dense kernel gathered
    from the same lags (``packed_toeplitz``), the route ``compute_g0`` took
    before.
    """
    tiles = draw(st.integers(1, 3), label="tile rows")
    last = draw(st.integers(3 if tiles == 1 else 1, TILE_NODES - 1), label="nodes of the last tile row")
    grid = TimeGrid(1.0, (tiles - 1) * TILE_NODES + last - 1)
    n, p = grid.n_nodes, draw(st.integers(1, 4), label="p")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="G0"):
        h = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        g0 = compute_g0(h + np.conj(h.T), grid)
        return grid, p, g0, packed_toeplitz(grid, p, g0._kernel)
    lags = rng.standard_normal((n + 1, p, p)) + 1j * rng.standard_normal((n + 1, p, p))
    lags[n] = 0.0
    inst = None
    if draw(st.booleans(), label="instantaneous"):
        inst = rng.standard_normal((n, p, p)) + 1j * rng.standard_normal((n, p, p))
    kwargs = {"inst": inst, "scale": draw(st.sampled_from([None, -1j, 1.0]), label="scale")}
    return grid, p, VolterraOperator(grid, p, lags=lags, **kwargs), packed_toeplitz(grid, p, lags, **kwargs)


def drawn_subset(data, p, label) -> np.ndarray:
    return np.array(sorted(data.draw(st.sets(st.integers(0, p - 1)), label=label)), dtype=int)


class TestLagHeldKernel:
    """A Toeplitz kernel held as its lags gives the bits of the same kernel packed whole."""

    @settings(max_examples=30, deadline=None)
    @given(lag_held_operators(), st.data())
    def test_reads_over_drawn_supports(self, drawn, data):
        grid, p, op, twin = drawn
        every = np.arange(p)
        rows, cols = drawn_subset(data, p, "rows"), drawn_subset(data, p, "cols")
        for support in ((every, every), (rows, every), (every, cols), (rows, cols)):
            # into a buffer, as an evaluation writes, and as slabs of their own, as a product reads
            assert op._on(*support).tobytes() == twin._on(*support).tobytes()
            read, twin_read = op._reader(*support), twin._reader(*support)
            for i in range(len(volterra._tiles(grid.n_nodes))):
                assert read(i).tobytes() == twin_read(i).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(lag_held_operators(), st.data())
    def test_views_dump_and_reductions(self, drawn, data):
        grid, p, op, twin = drawn
        ordering = [f"o{i}" for i in range(p)]
        assert packed_kernel_bytes(op) == packed_kernel_bytes(twin)
        assert kernel_bytes(op, ordering) == kernel_bytes(twin, ordering)
        assert repr(op.max_abs()) == repr(twin.max_abs())
        assert repr(op.norm_bound()) == repr(twin.norm_bound())
        assert repr(op.volterra_constant()) == repr(twin.volterra_constant())
        s = complex(data.draw(st.floats(-2, 2), label="re"), data.draw(st.floats(-2, 2), label="im"))
        assert op.scale(s).panels().tobytes() == twin.scale(s).panels().tobytes()
        indices = data.draw(st.lists(st.integers(0, p - 1), max_size=p, unique=True), label="indices")
        sub, twin_sub = op.restrict(indices), twin.restrict(indices)
        assert (sub.rows.tolist(), sub.cols.tolist()) == (twin_sub.rows.tolist(), twin_sub.cols.tolist())
        assert sub.panels().tobytes() == twin_sub.panels().tobytes()
        assert packed_kernel_bytes(sub) == packed_kernel_bytes(twin_sub)
        assert kernel_bytes(sub, ordering[: len(indices)]) == kernel_bytes(twin_sub, ordering[: len(indices)])

    @settings(max_examples=30, deadline=None)
    @given(lag_held_operators(), st.data())
    def test_products_and_solve(self, drawn, data):
        grid, p, op, twin = drawn
        n, rng = grid.n_nodes, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        other = []
        for name, size in (("a", 0.3), ("b", 1.0)):  # A small enough for a well-conditioned Id + A
            rows, cols = drawn_support(data.draw, p, f"{name} rows"), drawn_support(data.draw, p, f"{name} cols")
            mem = size * (rng.standard_normal((n, n, rows.size, cols.size)) + 1j * rng.standard_normal((n, n, rows.size, cols.size)))
            mem[np.triu_indices(n, k=1)] = 0.0
            other.append(VolterraOperator(grid, p, mem=mem, rows=rows, cols=cols))
        a, b = other
        # the left and the right factor of a product, a term of a lazy sum, and B of a solve
        assert (op @ b).panels().tobytes() == (twin @ b).panels().tobytes()
        assert (b @ op).panels().tobytes() == (b @ twin).panels().tobytes()
        assert repr((Sum(b) - op - Sum(op) @ b).max_abs()) == repr((Sum(b) - twin - Sum(twin) @ b).max_abs())
        x, twin_x = solve_id_plus(a, op), solve_id_plus(a, twin)
        assert x.evaluate().panels().tobytes() == twin_x.evaluate().panels().tobytes()
        assert repr((x - b).max_abs()) == repr((twin_x - b).max_abs())

    def test_lags_are_checked(self):
        n = GRID.n_nodes
        lags = np.zeros((n + 1, 2, 2), dtype=complex)
        with pytest.raises(ValueError, match="lags are held over every orbital"):
            VolterraOperator(GRID, 2, lags=lags[:n])
        with pytest.raises(ValueError, match="lags are held over every orbital"):
            VolterraOperator(GRID, 2, lags=lags[:, 1:], rows=[1])
        with pytest.raises(ValueError, match="not both"):
            VolterraOperator(GRID, 2, lags=lags, mem=np.zeros((n, n, 2, 2)))
        for bad in (1e-300, np.nan):
            lags[n, 1, 0] = bad  # block n stands for every acausal block
            with pytest.raises(ValueError, match="acausal weight"):
                VolterraOperator(GRID, 2, lags=lags)
