import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pfnegf.grid import TimeGrid
from pfnegf.volterra import (
    VolterraOperator,
    dump_kernel,
    identity_volterra,
    invert_id_plus,
    kernel_text,
    load_kernel,
    neumann_inverse,
    operator_norm_bound,
    trapezoid_weights,
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
    return VolterraOperator(grid, 1, mem=mem, name="scalar")


def random_memory_operator(grid, p, seed=0):
    rng = np.random.default_rng(seed)
    n = grid.n_nodes
    mem = np.zeros((n, n, p, p), dtype=complex)
    for k in range(n):
        for l in range(k + 1):
            mem[k, l] = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return VolterraOperator(grid, p, mem=mem, name="rand")


def loop_norm_bound(flat, grid, p):
    """Per-block reference for ``operator_norm_bound``."""
    n = grid.n_nodes
    blocks = flat.reshape(n, p, n, p).transpose(0, 2, 1, 3)
    best = 0.0
    for k in range(n):
        best = max(best, sum(np.linalg.norm(blocks[k, l], 2) for l in range(n)))
    return float(best)


def loop_volterra_constant(op):
    """Per-block reference for ``VolterraOperator.volterra_constant``."""
    mem = op.memory_kernel()
    best = 0.0
    for k in range(op.grid.n_nodes):
        for l in range(k + 1):
            best = max(best, np.linalg.norm(mem[k, l], 2))
    return float(best)


def csv_writer_text(op, ordering):
    """Reference kernel dump written through ``csv.writer``, entry by entry."""
    buf = io.StringIO()
    header = {"name": op.name, "p": op.p, "N_t": op.grid.steps, "T": op.grid.horizon,
              "ordering": list(ordering)}
    buf.write(json.dumps(header) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    mem, p = op.memory_kernel(), op.p
    for k in range(op.grid.n_nodes):
        for l in range(k + 1):
            for i in range(p):
                for j in range(p):
                    v = mem[k, l, i, j]
                    writer.writerow([k, l, i, j, repr(float(v.real)), repr(float(v.imag))])
    if op.has_instantaneous():
        inst = op.instantaneous()
        for k in range(op.grid.n_nodes):
            for i in range(p):
                for j in range(p):
                    v = inst[k, i, j]
                    writer.writerow([k, i, j, repr(float(v.real)), repr(float(v.imag))])
    return buf.getvalue()


class TestApply:
    def test_identity(self):
        op = identity_volterra(GRID, 3)
        psi = RNG.standard_normal((GRID.n_nodes, 3))
        np.testing.assert_array_equal(op.apply(psi), psi.astype(complex))

    def test_constant_kernel_on_constant_function(self):
        # trapezoid integrates constants exactly: (A psi)(t_k) = t_k * c
        op = scalar_memory(GRID, lambda t, s: 1.0)
        c = 2.5
        psi = np.full((GRID.n_nodes, 1), c)
        out = op.apply(psi)
        np.testing.assert_allclose(out[:, 0].real, GRID.nodes * c, atol=1e-14)

    def test_linear_function_exact(self):
        # trapezoid integrates linear integrands exactly: int_0^t s ds = t^2/2
        op = scalar_memory(GRID, lambda t, s: 1.0)
        psi = GRID.nodes[:, None].astype(complex)
        out = op.apply(psi)
        np.testing.assert_allclose(out[:, 0].real, GRID.nodes**2 / 2.0, atol=1e-13)

    def test_grid_mismatch(self):
        op = identity_volterra(GRID, 2)
        with pytest.raises(ValueError, match="shape"):
            op.apply(np.zeros((GRID.n_nodes, 3)))


class TestCompose:
    def test_identity_neutral(self):
        b = random_memory_operator(GRID, 2)
        left = identity_volterra(GRID, 2) @ b
        np.testing.assert_array_equal(left.flat, b.flat)

    def test_flatten_homomorphism(self):
        a = random_memory_operator(GRID, 2, seed=1)
        b = random_memory_operator(GRID, 2, seed=2)
        np.testing.assert_array_equal((a @ b).flat, a.flat @ b.flat)

    def test_constant_kernels_compose_to_lag(self):
        # iterated integral of two unit kernels: int_{t'}^{t} ds = t - t'.
        # Exact trapezoid values: interior entries hit t_k - t_l exactly; the
        # t' = 0 column sits at t_k - delta/2 (node 0 carries no quadrature
        # row) and the time diagonal carries the self-weight delta/2.
        a = scalar_memory(GRID, lambda t, s: 1.0)
        composed = a @ a
        mem = composed.memory_kernel()
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
        assert (a @ b).causality_defect() == 0.0


class TestInversion:
    def test_zero_operator(self):
        zero = VolterraOperator(GRID, 2, mem=np.zeros((GRID.n_nodes, GRID.n_nodes, 2, 2)), name="0")
        r = invert_id_plus(zero)
        assert np.max(np.abs(r.flat)) == 0.0

    def test_inverse_residual(self):
        a = random_memory_operator(GRID, 3, seed=7)
        r = invert_id_plus(a)
        n = GRID.n_nodes * 3
        eye = np.eye(n)
        residual = np.max(np.abs((eye + a.flat) @ (eye + r.flat) - eye))
        assert residual <= 1e-12

    def test_inverse_is_causal(self):
        a = random_memory_operator(GRID, 2, seed=8)
        assert invert_id_plus(a).causality_defect() == 0.0

    def test_neumann_agrees_within_factorial_bound(self):
        a = random_memory_operator(GRID, 2, seed=9).scale(0.05)
        r_exact = invert_id_plus(a)
        c_a = a.volterra_constant()
        horizon = GRID.horizon
        for order in (4, 8, 12):
            r_series = neumann_inverse(a, order)
            diff = operator_norm_bound(r_series.flat - r_exact.flat, GRID, 2)
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
            r = invert_id_plus(a)
            mem = r.memory_kernel()
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
        a = VolterraOperator(GRID, 1, inst=inst, mem=np.zeros((n, n, 1, 1)), name="bad")
        with pytest.raises(np.linalg.LinAlgError, match="node 3"):
            invert_id_plus(a)


class TestNormAndConstants:
    def test_zero_kernel_constant(self):
        zero = VolterraOperator(GRID, 2, mem=np.zeros((GRID.n_nodes, GRID.n_nodes, 2, 2)), name="0")
        assert zero.volterra_constant() == 0.0

    def test_norm_bound_property(self):
        a = random_memory_operator(GRID, 3, seed=10)
        c_a = a.volterra_constant()
        w = trapezoid_weights(GRID.n_nodes) * GRID.delta
        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            psi = rng.standard_normal((GRID.n_nodes, 3)) + 1j * rng.standard_normal((GRID.n_nodes, 3))
            out = a.apply(psi)
            norms = np.linalg.norm(psi, axis=1)
            for k in range(GRID.n_nodes):
                quadrature = float(w[k, : k + 1] @ norms[: k + 1])
                assert np.linalg.norm(out[k]) <= c_a * quadrature + 1e-10

    @pytest.mark.parametrize("p", [1, 3])
    def test_batched_norms_equal_loop_reference(self, p):
        # causal flats: the acausal zero blocks enter every row sum
        grid = TimeGrid(1.0, 12)
        a = random_memory_operator(grid, p, seed=20 + p)
        b = random_memory_operator(grid, p, seed=30 + p)
        n = grid.n_nodes
        rng = np.random.default_rng(40 + p)
        inst = rng.standard_normal((n, p, p)) + 1j * rng.standard_normal((n, p, p))
        c = VolterraOperator(grid, p, inst=inst, flat=(a @ b).flat, name="c")
        for op in (a, a @ b, c):
            assert operator_norm_bound(op.flat, grid, p) == loop_norm_bound(op.flat, grid, p)
            assert op.volterra_constant() == loop_volterra_constant(op)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_block_gives_non_finite_norms(self, bad):
        grid = TimeGrid(1.0, 10)
        n = grid.n_nodes
        mem = np.zeros((n, n, 2, 2), dtype=complex)
        mem[4, 1, 0, 1] = bad
        op = VolterraOperator(grid, 2, mem=mem, name="bad")
        assert not np.isfinite(operator_norm_bound(op.flat, grid, 2))
        assert not np.isfinite(op.volterra_constant())

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_batched_norm_bound_property(self, data):
        steps = data.draw(st.integers(2, 5), label="steps")
        p = data.draw(st.integers(1, 4), label="p")
        grid = TimeGrid(1.0, steps)
        size = grid.n_nodes * p
        parts = data.draw(
            arrays(np.float64, (2, size, size), elements=st.floats(-1e6, 1e6)), label="parts"
        )
        flat = parts[0] + 1j * parts[1]
        assert operator_norm_bound(flat, grid, p) == loop_norm_bound(flat, grid, p)


class TestRestriction:
    def test_restrict_identity(self):
        op = identity_volterra(GRID, 4)
        sub = op.restrict([0, 1])
        np.testing.assert_array_equal(sub.flat, identity_volterra(GRID, 2).flat)

    def test_restrict_kernel_entries(self):
        a = random_memory_operator(GRID, 3, seed=11)
        sub = a.restrict([0, 1])
        np.testing.assert_array_equal(sub.memory_kernel(), a.memory_kernel()[:, :, :2, :2])


class TestDumpFormat:
    def test_round_trip(self):
        a = random_memory_operator(GRID, 2, seed=12)
        text = kernel_text(a, ["x", "y"])
        header, mem, inst = load_kernel(io.StringIO(text))
        assert header["p"] == 2
        assert header["N_t"] == GRID.steps
        assert header["ordering"] == ["x", "y"]
        np.testing.assert_array_equal(mem, a.memory_kernel())
        assert np.max(np.abs(inst)) == 0.0

    def test_round_trip_with_instantaneous_part(self):
        n = GRID.n_nodes
        inst = RNG.standard_normal((n, 2, 2)) + 1j * RNG.standard_normal((n, 2, 2))
        a = VolterraOperator(GRID, 2, inst=inst, mem=np.zeros((n, n, 2, 2)), name="withinst")
        buf = io.StringIO()
        dump_kernel(a, ["x", "y"], buf)
        buf.seek(0)
        _, mem, inst_back = load_kernel(buf)
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
        # a 2-step, p = 2 dump: nodes 0..2, memory rows need l <= k
        header = json.dumps({"name": "x", "p": 2, "N_t": 2, "T": 1.0, "ordering": ["x", "y"]})
        text = header + "\n2,1,1,0,1.0,0.0\n" + row + "\n"
        with pytest.raises(ValueError, match="malformed kernel row"):
            load_kernel(io.StringIO(text))

    @pytest.mark.parametrize("header", ['{"p": 2}', "[2, 2]"])
    def test_rejects_header_without_its_keys(self, header):
        with pytest.raises(ValueError, match="malformed kernel header"):
            load_kernel(io.StringIO(header + "\n0,0,0,0,1.0,0.0\n"))

    def test_dump_deterministic(self):
        a = random_memory_operator(GRID, 2, seed=13)
        assert kernel_text(a, ["x", "y"]) == kernel_text(a, ["x", "y"])

    def test_text_equals_csv_writer_reference(self):
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
        a = VolterraOperator(grid, 2, inst=inst, mem=mem, name="special")
        assert kernel_text(a, ["x", "y"]) == csv_writer_text(a, ["x", "y"])
