from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfnegf.fock import (
    FockSpace,
    ManyBodyOperator,
    anticommutator,
    build_interaction,
    commutator,
    dressed_creation,
    identity_operator,
    ladder_op,
    second_quantize,
)

from oracles import dressed_annihilator, from_full, to_full, zero_operator

RNG = np.random.default_rng(42)


def random_vector(d):
    return RNG.standard_normal(d) + 1j * RNG.standard_normal(d)


def random_hermitian(d):
    a = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    return 0.5 * (a + np.conj(a.T))


class TestFockSpace:
    def test_sector_sizes_d2(self):
        fs = FockSpace(2)
        assert fs.dim == 4
        assert fs.sector_dims == (1, 2, 1)

    def test_sector_sizes_d6(self):
        fs = FockSpace(6)
        assert fs.dim == 64
        assert fs.sector_dims[3] == 20
        assert sum(fs.sector_dims) == 64

    def test_cap_guard(self):
        with pytest.raises(ValueError, match="cap"):
            FockSpace(20)

    def test_basis_ordering_deterministic(self):
        fs = FockSpace(3)
        # within each sector, states ascend by bitstring value
        for states in fs.sector_states:
            assert np.all(np.diff(states) > 0) or len(states) <= 1

    def test_sector_sizes_binomial(self):
        fs = FockSpace(5)
        assert fs.sector_dims == tuple(comb(5, n) for n in range(6))


class TestLadderOperators:
    def test_car_suite(self):
        fs = FockSpace(5)
        ident = identity_operator(fs)
        worst_mixed = worst_pair = 0.0
        for _ in range(20):
            f, g = random_vector(5), random_vector(5)
            mixed = anticommutator(
                ladder_op(fs, f, "annihilate"), ladder_op(fs, g, "create")
            ) - complex(np.vdot(f, g)) * ident
            pair = anticommutator(
                ladder_op(fs, f, "annihilate"), ladder_op(fs, g, "annihilate")
            )
            worst_mixed = max(worst_mixed, mixed.max_abs())
            worst_pair = max(worst_pair, pair.max_abs())
        assert worst_mixed <= 1e-12
        assert worst_pair <= 1e-12

    def test_antilinearity(self):
        fs = FockSpace(3)
        f = random_vector(3)
        scaled = ladder_op(fs, 1j * f, "annihilate")
        direct = np.conj(1j) * ladder_op(fs, f, "annihilate")
        assert (scaled - direct).max_abs() <= 1e-14
        # creation is linear
        scaled_star = ladder_op(fs, 1j * f, "create")
        assert (scaled_star - 1j * ladder_op(fs, f, "create")).max_abs() <= 1e-14

    def test_operator_norm_bound(self):
        fs = FockSpace(4)
        for _ in range(5):
            f = random_vector(4)
            for kind in ("create", "annihilate"):
                assert ladder_op(fs, f, kind).norm2() <= np.linalg.norm(f) + 1e-12

    def test_dimension_mismatch(self):
        fs = FockSpace(3)
        with pytest.raises(ValueError):
            ladder_op(fs, np.ones(4), "create")


class TestSecondQuantization:
    def test_identity_gives_number_operator(self):
        fs = FockSpace(4)
        n_op = second_quantize(fs, np.eye(4))
        for n, block in enumerate(n_op.blocks):
            np.testing.assert_allclose(block, n * np.eye(fs.sector_dims[n]), atol=0)

    def test_ladder_commutators(self):
        fs = FockSpace(4)
        h = random_hermitian(4)
        big_h = second_quantize(fs, h)
        f = random_vector(4)
        defect_star = (
            commutator(big_h, ladder_op(fs, f, "create")) - ladder_op(fs, h @ f, "create")
        ).max_abs()
        defect = (
            commutator(big_h, ladder_op(fs, f, "annihilate"))
            + ladder_op(fs, h @ f, "annihilate")
        ).max_abs()
        assert defect_star <= 1e-12
        assert defect <= 1e-12

    def test_hermitian_and_number_conserving(self):
        fs = FockSpace(4)
        op = second_quantize(fs, random_hermitian(4))
        assert op.displacement == 0
        assert op.hermiticity_defect() <= 1e-12

    def test_non_hermitian_rejected(self):
        fs = FockSpace(2)
        with pytest.raises(ValueError, match="Hermitian"):
            second_quantize(fs, np.array([[0.0, 1.0], [0.0, 0.0]]))


# a nan on the diagonal already fails the symmetry guard: nan - nan is nan
@pytest.mark.parametrize(
    "build, matrix, message",
    [
        (second_quantize, [[0.0, np.nan], [np.nan, 0.0]], "Hermitian"),
        (build_interaction, [[0.0, np.nan], [np.nan, 0.0]], "symmetric"),
        (build_interaction, [[np.nan, 0.0], [0.0, 0.0]], "symmetric"),
    ],
    ids=["second-quantize", "interaction-offdiagonal", "interaction-diagonal"],
)
def test_nan_matrix_rejected(build, matrix, message):
    with pytest.raises(ValueError, match=message):
        build(FockSpace(2), np.array(matrix))


class TestInteraction:
    def test_pair_eigenvalue(self):
        # oracle: (1/2) sum_xy w n_x n_y evaluated per occupation bitstring by hand
        u = 1.7
        fs = FockSpace(2)
        w = np.array([[0.0, u], [u, 0.0]])
        op = build_interaction(fs, w)
        full = to_full(op)
        expected = np.zeros(4)
        for idx, state in enumerate(np.concatenate(fs.sector_states)):
            n0, n1 = state & 1, (state >> 1) & 1
            expected[idx] = u * n0 * n1
        np.testing.assert_allclose(np.diag(full).real, expected, atol=0)
        assert np.max(np.abs(full - np.diag(np.diag(full)))) == 0.0

    def test_zero_potential(self):
        fs = FockSpace(3)
        assert build_interaction(fs, np.zeros((3, 3))).max_abs() == 0.0

    def test_commutes_with_disjoint_number(self):
        # sample orbitals {0, 1}, "lead" orbitals {2, 3}
        fs = FockSpace(4)
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w_op = build_interaction(fs, w)
        p_lead = np.zeros((4, 4))
        p_lead[2, 2] = p_lead[3, 3] = 1.0
        n_lead = second_quantize(fs, p_lead)
        assert commutator(w_op, n_lead).max_abs() == 0.0


class TestDressedLadder:
    def setup_method(self):
        self.fs = FockSpace(4)
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 2.3
        self.w = w
        self.w_op = build_interaction(self.fs, w)

    def test_lead_supported_vanishes(self):
        f = np.array([0.0, 0.0, 1.0, 0.5]) / np.sqrt(1.25)
        b_star = dressed_creation(self.fs, self.w_op, 0.9, f)
        b = b_star.dagger()
        assert b.max_abs() == 0.0
        assert b_star.max_abs() == 0.0

    def test_zero_strength_vanishes(self):
        f = np.array([1.0, 0.0, 0.0, 0.0])
        b = dressed_creation(self.fs, self.w_op, 0.0, f).dagger()
        assert b.max_abs() == 0.0

    def test_normal_ordered_oracle(self):
        # independent form of i*xi*[W, a_x]: -i*xi*sum_y w(x,y) a*_y a_y a_x,
        # assembled from ladder matrices only
        xi = 0.9
        for x in (0, 1):
            e_x = np.zeros(4)
            e_x[x] = 1.0
            b = dressed_creation(self.fs, self.w_op, xi, e_x).dagger()
            oracle = zero_operator(self.fs, -1)
            for y in range(4):
                if self.w[x, y] == 0.0:
                    continue
                e_y = np.zeros(4)
                e_y[y] = 1.0
                n_y = ladder_op(self.fs, e_y, "create") @ ladder_op(self.fs, e_y, "annihilate")
                oracle = oracle + (-1j * xi * self.w[x, y]) * (
                    n_y @ ladder_op(self.fs, e_x, "annihilate")
                )
            assert (b - oracle).max_abs() <= 1e-13

    def test_adjoint_pairing(self):
        e_0 = np.array([1.0, 0.0, 0.0, 0.0])
        # the package's b is the adjoint of its b*; the oracle forms b from its formula
        b = dressed_annihilator(self.fs, self.w_op, 0.9, e_0)
        b_star = dressed_creation(self.fs, self.w_op, 0.9, e_0)
        assert (b_star.dagger() - b).max_abs() <= 1e-14


class TestOperatorAlgebra:
    def test_full_round_trip(self):
        fs = FockSpace(3)
        op = ladder_op(fs, random_vector(3), "create")
        back = from_full(fs, to_full(op), +1)
        for a, b in zip(op.blocks, back.blocks):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)

    def test_from_full_leak_guard(self):
        fs = FockSpace(3)
        with pytest.raises(ValueError, match="outside displacement"):
            from_full(fs, np.ones((8, 8)), 0)

    def test_matmul_displacement(self):
        fs = FockSpace(3)
        a = ladder_op(fs, random_vector(3), "annihilate")
        c = ladder_op(fs, random_vector(3), "create")
        assert (c @ a).displacement == 0
        assert (c @ c).displacement == 2
        assert a.dagger().displacement == +1

    def test_sign_order_invariance_of_car(self):
        fs_rev = FockSpace(4, sign_order=[3, 2, 1, 0])
        ident = identity_operator(fs_rev)
        f, g = random_vector(4), random_vector(4)
        mixed = anticommutator(
            ladder_op(fs_rev, f, "annihilate"), ladder_op(fs_rev, g, "create")
        ) - complex(np.vdot(f, g)) * ident
        assert mixed.max_abs() <= 1e-12


def assert_shape_rule(op):
    """Every slot is an array mapping sector N to N + displacement; an absent target has zero rows."""
    fs = op.space
    assert len(op.blocks) == fs.num_orbitals + 1
    for n, block in enumerate(op.blocks):
        assert isinstance(block, np.ndarray)
        assert block.shape == (fs.sector_dim(n + op.displacement), fs.sector_dim(n))


class TestShapeRule:
    # identity @ factor gives displacements +-1, a second factor gives -2, 0 and +2
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(st.sampled_from(["create", "annihilate"]), min_size=1, max_size=2),
        st.integers(0, 2**32 - 1),
    )
    def test_every_slot_is_an_array_of_the_shape_rule(self, d, kinds, seed):
        fs = FockSpace(d)
        rng = np.random.default_rng(seed)
        product = identity_operator(fs)
        for kind in kinds:
            factor = ladder_op(fs, rng.standard_normal(d) + 1j * rng.standard_normal(d), kind)
            assert_shape_rule(factor)
            dense = to_full(product) @ to_full(factor)
            product = product @ factor
            assert_shape_rule(product)
            np.testing.assert_allclose(to_full(product), dense, rtol=0, atol=1e-12)
        assert product.displacement == sum(+1 if kind == "create" else -1 for kind in kinds)
        for derived in (product.dagger(), product + product, product - product, 2.5j * product, product * 0.5):
            assert_shape_rule(derived)
        np.testing.assert_array_equal(to_full(product.dagger()), np.conj(to_full(product).T))

    @pytest.mark.parametrize("slot", [None, np.zeros((1, 1), dtype=complex)], ids=["none", "wrong-shape"])
    def test_constructor_refuses_a_slot_off_the_shape_rule(self, slot):
        fs = FockSpace(2)
        blocks = list(ladder_op(fs, np.ones(2), "create").blocks)
        blocks[2] = slot  # the top slot has no target sector: its shape is (0, 1)
        with pytest.raises(ValueError, match="block 2 .* expected an array of shape \\(0, 1\\)"):
            ManyBodyOperator(fs, +1, tuple(blocks))


def with_nan_in_last_block(op):
    """``op`` with one entry of its last nonempty block set to nan."""
    blocks = list(op.blocks)
    last = max(n for n, b in enumerate(blocks) if b.size)
    blocks[last] = blocks[last].astype(complex)
    blocks[last].flat[0] = np.nan
    return ManyBodyOperator(op.space, op.displacement, tuple(blocks))


class TestNonFiniteReductions:
    # Python's max keeps a finite first argument over a later nan
    def test_max_abs_sees_a_nan_in_a_later_block(self):
        op = with_nan_in_last_block(second_quantize(FockSpace(3), random_hermitian(3)))
        assert np.isfinite(op.blocks[1]).all()
        assert np.isnan(op.max_abs())

    def test_hermiticity_defect_sees_a_nan_in_a_later_block(self):
        op = with_nan_in_last_block(second_quantize(FockSpace(3), random_hermitian(3)))
        assert np.isnan(op.hermiticity_defect())
