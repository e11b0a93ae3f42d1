import numpy as np
import pytest

from pfnegf.lattice import (
    LeadCoupling,
    TwoBodyPotential,
    build_geometry,
    build_hamiltonians,
)

from oracles import h_lead


def two_lead_geometry():
    return build_geometry(["s0", "s1"], [["a0", "a1"], ["b0", "b1"]])


def two_lead_hamiltonians(bias=(0.4, -0.4), d=(0.5, 0.5)):
    g = two_lead_geometry()
    couplings = [
        LeadCoupling(d[0], [1.0, 0.0], [1.0, 0.0]),
        LeadCoupling(d[1], [1.0, 0.0], [0.0, 1.0]),
    ]
    return build_hamiltonians(
        g,
        [("s0", "s1", 1.0)],
        [[("a0", "a1", 1.0)], [("b0", "b1", 1.0)]],
        couplings,
        bias,
    )


class TestGeometry:
    def test_counting_two_leads(self):
        g = two_lead_geometry()
        assert g.num_sites == 6
        assert g.num_leads == 2
        assert g.site_labels == ("s0", "s1", "a0", "a1", "b0", "b1")

    def test_counting_minimal(self):
        g = build_geometry(["s0"], [["l0"]])
        assert g.num_sites == 2
        assert g.num_leads == 1

    def test_duplicate_label(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_geometry(["s0"], [["s0"]])

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            build_geometry([], [["l0"]])

    def test_empty_lead(self):
        with pytest.raises(ValueError):
            build_geometry(["s0"], [[]])

    def test_no_leads(self):
        with pytest.raises(ValueError):
            build_geometry(["s0"], [])

    def test_lead_slices(self):
        g = two_lead_geometry()
        assert g.sample_slice == slice(0, 2)
        assert g.lead_slice(0) == slice(2, 4)
        assert g.lead_slice(1) == slice(4, 6)


class TestHamiltonians:
    def test_decoupled_limit(self):
        op = two_lead_hamiltonians(d=(0.0, 0.0))
        assert np.max(np.abs(op.h_tunneling)) == 0.0
        np.testing.assert_array_equal(op.h, op.h_decoupled)

    def test_rank_two_bridge_entries(self):
        g = build_geometry(["s0"], [["l0", "l1"]])
        op = build_hamiltonians(
            g, [], [[("l0", "l1", 1.0)]], [LeadCoupling(0.5, [1.0, 0.0], [1.0])], [0.0]
        )
        nonzero = np.argwhere(np.abs(op.h_tunneling) > 0)
        assert sorted(map(tuple, nonzero)) == [(0, 1), (1, 0)]
        assert op.h_tunneling[0, 1] == pytest.approx(0.5)
        assert op.h_tunneling[1, 0] == pytest.approx(0.5)

    def test_lead_chain_spectrum(self):
        # closed form: a two-site chain with hopping 1 has eigenvalues -1, +1
        op = two_lead_hamiltonians()
        np.testing.assert_allclose(np.linalg.eigvalsh(h_lead(op, 0)), [-1.0, 1.0], atol=1e-14)

    def test_hermiticity(self):
        op = two_lead_hamiltonians()
        for m in (op.h_decoupled, op.h_tunneling, op.h, op.h_biased):
            assert np.max(np.abs(m - np.conj(m.T))) <= 1e-12

    def test_tunneling_support(self):
        op = two_lead_hamiltonians()
        g = op.geometry
        ss = g.sample_slice
        assert np.max(np.abs(op.h_tunneling[ss, ss])) == 0.0
        for nu in range(g.num_leads):
            ls = g.lead_slice(nu)
            assert np.max(np.abs(op.h_tunneling[ls, ls])) == 0.0

    def test_bias_is_lead_diagonal(self):
        op = two_lead_hamiltonians(bias=(0.4, -0.4))
        shift = op.h_biased - op.h
        assert np.max(np.abs(shift - np.diag(np.diag(shift)))) == 0.0
        np.testing.assert_allclose(np.diag(shift), [0, 0, 0.4, 0.4, -0.4, -0.4])

    def test_duplicate_edge_rejected(self):
        g = build_geometry(["s0", "s1"], [["l0"]])
        with pytest.raises(ValueError, match="duplicate edge"):
            build_hamiltonians(
                g,
                [("s0", "s1", 1.0), ("s1", "s0", 1.0)],
                [[]],
                [LeadCoupling(0.1, [1.0], [1.0, 0.0])],
                [0.0],
            )

    def test_complex_onsite_rejected(self):
        g = build_geometry(["s0"], [["l0"]])
        with pytest.raises(ValueError, match="real"):
            build_hamiltonians(
                g, [("s0", "s0", 1j)], [[]], [LeadCoupling(0.1, [1.0], [1.0])], [0.0]
            )

    def test_unnormalized_coupling_rejected(self):
        with pytest.raises(ValueError, match="unit norm"):
            LeadCoupling(0.5, [1.0, 1.0], [1.0])


def nan_hopping_hamiltonians():
    g = build_geometry(["s0", "s1"], [["l0"]])
    couplings = [LeadCoupling(0.1, [1.0], [1.0, 0.0])]
    return build_hamiltonians(g, [("s0", "s1", np.nan)], [[]], couplings, [0.0])


def nan_onsite_hamiltonians():
    # a nan imaginary part would otherwise be dropped, leaving a clean real entry
    g = build_geometry(["s0", "s1"], [["l0"]])
    couplings = [LeadCoupling(0.1, [1.0], [1.0, 0.0])]
    return build_hamiltonians(g, [("s0", "s0", complex(1.0, np.nan))], [[]], couplings, [0.0])


# a nan on the diagonal already fails the symmetry guard: nan - nan is nan
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TwoBodyPotential(np.array([[0.0, np.nan], [np.nan, 0.0]]), 1.0), "symmetric"),
        (lambda: TwoBodyPotential(np.array([[np.nan, 0.0], [0.0, 0.0]]), 1.0), "symmetric"),
        (lambda: LeadCoupling(0.5, [np.nan], [1.0]), "unit norm"),
        (nan_hopping_hamiltonians, "h_D is not Hermitian"),
        (nan_onsite_hamiltonians, "on-site energy at 's0' must be real"),
    ],
    ids=["pair-offdiagonal", "pair-diagonal", "coupling-vector", "hopping", "onsite-imaginary"],
)
def test_nan_input_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestTwoBodyPotential:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            TwoBodyPotential(np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0)

    def test_diagonal_enforced(self):
        with pytest.raises(ValueError, match="zero diagonal"):
            TwoBodyPotential(np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0)

    def test_embedding(self):
        g = two_lead_geometry()
        w = TwoBodyPotential(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5)
        full = w.embedded(g)
        assert full.shape == (6, 6)
        assert full[0, 1] == 1.0
        assert np.max(np.abs(full[2:, :])) == 0.0
        assert np.max(np.abs(full[:, 2:])) == 0.0
