import numpy as np
import pytest

from pfnegf.config import parse_config
from pfnegf.fock import (
    FockSpace,
    commutator,
    identity_operator,
    ladder_op,
    second_quantize,
)
from pfnegf.thermal import (
    DensityOperator,
    ThermalParams,
    gamma_closed_form,
    gibbs,
    pf_expectation_via_gamma,
    picard_gamma,
    random_number_conserving_hermitian,
)

from oracles import (
    density_operator,
    factorized_expectation,
    fermi_matrix_element,
    to_full,
    zero_operator,
)

RNG = np.random.default_rng(11)


class TestGibbs:
    def test_maximally_mixed(self):
        fs = FockSpace(3)
        rho = gibbs(zero_operator(fs, 0), ThermalParams(beta=2.0), second_quantize(fs, np.eye(3)))
        full = to_full(density_operator(rho))
        np.testing.assert_allclose(full, np.eye(8) / 8.0, atol=1e-15)

    def test_two_level_occupation(self):
        # closed form for one orbital: <a*a> = 1 / (1 + exp(beta (eps - mu)))
        eps, beta, mu = 0.8, 1.7, 0.2
        fs = FockSpace(1)
        k = second_quantize(fs, np.array([[eps]]))
        n = second_quantize(fs, np.eye(1))
        rho = gibbs(k, ThermalParams(beta=beta, mu=mu), n)
        expected = 1.0 / (1.0 + np.exp(beta * (eps - mu)))
        assert rho.expectation(n) == pytest.approx(expected, abs=1e-14)

    def test_invariance_under_shift(self):
        # a large beta must not overflow thanks to the spectral shift
        fs = FockSpace(2)
        k = second_quantize(fs, np.diag([5.0, -5.0]))
        rho = gibbs(k, ThermalParams(beta=200.0), second_quantize(fs, np.eye(2)))
        assert np.isfinite(to_full(density_operator(rho))).all()
        assert rho.expectation(identity_operator(fs)) == pytest.approx(1.0)

    def test_commutes_with_weight(self, reference_run, reference_rho):
        model = reference_run.model
        weight = model.K_0 - reference_run.thermal.mu * model.N_total
        assert commutator(density_operator(reference_rho), weight).max_abs() <= 1e-12

    def test_rejects_non_hermitian(self):
        fs = FockSpace(2)
        bad = ladder_op(fs, np.array([1.0, 0.0]), "create") @ ladder_op(
            fs, np.array([0.0, 1.0]), "annihilate"
        )
        with pytest.raises(ValueError, match="Hermitian"):
            gibbs(bad, ThermalParams(beta=1.0), second_quantize(fs, np.eye(2)))

    def test_rejects_a_nan_kernel(self):
        fs = FockSpace(2)
        n = second_quantize(fs, np.eye(2))
        k = second_quantize(fs, np.diag([0.5, -0.3])) + n * np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            gibbs(k, ThermalParams(beta=1.0), n)

    def test_rejects_a_nan_number_operator(self):
        fs = FockSpace(2)
        k = second_quantize(fs, np.diag([0.5, -0.3]))
        with pytest.raises(ValueError, match="commute"):
            gibbs(k, ThermalParams(beta=1.0), second_quantize(fs, np.eye(2)) * np.nan)

    # nan passes a "> tol" comparison: the trace and weight checks must read "not <= tol"
    @pytest.mark.parametrize(
        "probs", [([np.nan], [np.nan]), ([0.5], [np.nan])], ids=["all-nan", "one-nan"]
    )
    def test_density_operator_rejects_a_nan_weight(self, probs):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(FockSpace(1), [np.array(p) for p in probs], [np.eye(1)] * 2)

    # three sectors on a two-sector space were once accepted, and the identity read 0.75
    @pytest.mark.parametrize(
        "probs, vecs",
        [
            ([[0.5], [0.25], [0.25]], [np.eye(1)] * 3),
            ([[0.5], [0.5]], [np.eye(1)] * 3),
            ([[1.0]], [np.eye(1)]),
            ([[0.5], [0.5]], [np.eye(2), np.eye(1)]),
            ([[0.5, 0.0], [0.5]], [np.eye(1)] * 2),
            ([[[0.5]], [0.5]], [np.eye(1)] * 2),
        ],
        ids=["extra-sector", "extra-vectors", "missing-sector", "vector-shape", "weight-count", "weight-shape"],
    )
    def test_density_operator_refuses_blocks_that_do_not_fit_the_sectors(self, probs, vecs):
        fs = FockSpace(1)
        with pytest.raises(ValueError, match="do not fit sector dimensions"):
            DensityOperator(fs, [np.array(p) for p in probs], vecs)
        rho = DensityOperator(fs, [np.array([0.5]), np.array([0.5])], [np.eye(1)] * 2)
        assert rho.expectation(identity_operator(fs)) == 1.0

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            ThermalParams(beta=0.0)


class TestDecoupledState:
    def test_lead_observable_is_fermi_dirac(self, trimer_dict):
        # with xi = 0 the decoupled state is quasi-free on the lead: the
        # two-point function reduces to a Fermi-Dirac matrix element
        trimer_dict["sample"]["xi"] = 0.0
        run = parse_config(trimer_dict)
        model = run.model
        rho_d = gibbs(model.K_D, run.thermal, model.N_total, label="decoupled")
        lead_orbital = np.zeros(3, dtype=complex)
        lead_orbital[2] = 1.0
        obs = ladder_op(model.space, lead_orbital, "create") @ ladder_op(
            model.space, lead_orbital, "annihilate"
        )
        direct = rho_d.expectation(obs)
        h_lead = model.one_particle.h_lead(0)
        expected = fermi_matrix_element(h_lead, run.thermal, [1.0], [1.0])
        assert direct == pytest.approx(expected, abs=1e-12)

    def test_factorized_normalization(self, trimer_run):
        from pfnegf.fock import build_interaction

        model = trimer_run.model
        sample_fs = FockSpace(model.num_sample)
        k_s = second_quantize(sample_fs, model.one_particle.h_sample) + (
            model.interaction.strength
            * build_interaction(sample_fs, model.interaction.matrix)
        )
        rho_s = gibbs(k_s, trimer_run.thermal, second_quantize(sample_fs, np.eye(2)), label="sample")
        assert factorized_expectation(
            rho_s, identity_operator(sample_fs), [], trimer_run.thermal
        ) == pytest.approx(1.0)

    def test_factorized_eigenvector_case(self):
        # a lead factor with f_tilde = f an eigenvector of the lead Hamiltonian
        # contributes the scalar Fermi factor 1/(1 + exp(beta(eps - mu)))
        params = ThermalParams(beta=1.3, mu=0.1)
        h_lead = np.array([[0.0, 1.0], [1.0, 0.0]])
        eigvec = np.array([1.0, 1.0]) / np.sqrt(2.0)  # eigenvalue +1
        sample_fs = FockSpace(1)
        rho_s = gibbs(
            second_quantize(sample_fs, np.array([[0.4]])),
            params,
            second_quantize(sample_fs, np.eye(1)),
        )
        o_s = second_quantize(sample_fs, np.eye(1))
        value = factorized_expectation(rho_s, o_s, [(h_lead, eigvec, eigvec)], params)
        fermi = 1.0 / (1.0 + np.exp(params.beta * (1.0 - params.mu)))
        assert value == pytest.approx(rho_s.expectation(o_s) * fermi, abs=1e-14)

    def test_factorized_cross_check_full_trace(self, trimer_dict):
        # many-body trace oracle: the same observable against the full
        # decoupled Gibbs state (exact at finite leads)
        run = parse_config(trimer_dict)
        model = run.model
        rho_d = gibbs(model.K_D, run.thermal, model.N_total, label="decoupled")

        sample_fs = FockSpace(model.num_sample)
        from pfnegf.fock import build_interaction

        k_s = second_quantize(sample_fs, model.one_particle.h_sample) + (
            model.interaction.strength
            * build_interaction(sample_fs, model.interaction.matrix)
        )
        rho_s = gibbs(k_s, run.thermal, second_quantize(sample_fs, np.eye(2)), label="sample")

        # O = n_s0 * a*(lead) a(lead); sample part built on both spaces
        sample_obs_small = second_quantize(sample_fs, np.diag([1.0, 0.0]))
        sample_obs_full = second_quantize(model.space, np.diag([1.0, 0.0, 0.0]))
        lead_orbital = np.zeros(3, dtype=complex)
        lead_orbital[2] = 1.0
        lead_factor = ladder_op(model.space, lead_orbital, "create") @ ladder_op(
            model.space, lead_orbital, "annihilate"
        )
        direct = rho_d.expectation(sample_obs_full @ lead_factor)
        factorized = factorized_expectation(
            rho_s,
            sample_obs_small,
            [(model.one_particle.h_lead(0), [1.0], [1.0])],
            run.thermal,
        )
        assert abs(direct - factorized) <= 1e-10

    def test_bad_lead_factor_shape(self, trimer_run):
        sample_fs = FockSpace(2)
        rho_s = gibbs(
            zero_operator(sample_fs, 0),
            trimer_run.thermal,
            second_quantize(sample_fs, np.eye(2)),
        )
        with pytest.raises(ValueError, match="lead"):
            factorized_expectation(
                rho_s,
                identity_operator(sample_fs),
                [(np.eye(2), [1.0], [1.0])],
                trimer_run.thermal,
            )


class TestDressingOperator:
    def test_zero_tunneling(self, trimer_dict):
        trimer_dict["leads"][0]["coupling"]["d"] = 0.0
        run = parse_config(trimer_dict)
        model = run.model
        gamma, info = picard_gamma(model.K_D, model.H_T, run.thermal.beta)
        assert (gamma - identity_operator(model.space)).max_abs() == 0.0
        assert info.converged

    def test_beta_zero(self, trimer_run):
        model = trimer_run.model
        gamma, info = picard_gamma(model.K_D, model.H_T, 0.0)
        assert (gamma - identity_operator(model.space)).max_abs() == 0.0
        assert info.orders_used == 0

    def test_matches_closed_form(self, reference_run):
        model = reference_run.model
        beta = reference_run.thermal.beta
        gamma, info = picard_gamma(model.K_D, model.H_T, beta)
        closed = gamma_closed_form(model.K_D, model.K_0, beta)
        assert info.converged
        assert (gamma - closed).norm2() <= 1e-8

    def test_error_decreases_with_order(self, trimer_run):
        model = trimer_run.model
        beta = trimer_run.thermal.beta
        closed = gamma_closed_form(model.K_D, model.K_0, beta)
        errors = []
        for order in (1, 2, 4, 8, 12):
            gamma, _ = picard_gamma(model.K_D, model.H_T, beta, max_order=order, rtol=0.0)
            errors.append((gamma - closed).norm2())
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] <= 1e-8

    def test_non_convergence_flagged(self, trimer_run):
        model = trimer_run.model
        _, info = picard_gamma(model.K_D, model.H_T, trimer_run.thermal.beta, max_order=1, rtol=1e-14)
        assert not info.converged

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_overflow_stops_the_series_unconverged(self, reference_run):
        # exp(x gap) overflows at beta = 60: the sum stops before the first
        # non-finite term and keeps a finite partial sum
        model = reference_run.model
        gamma, info = picard_gamma(model.K_D, model.H_T, 60.0)
        assert not info.converged
        assert info.final_delta == np.inf
        assert all(np.isfinite(block).all() for block in gamma.blocks)


class TestDressedExpectations:
    def test_identity_normalization(self, reference_run):
        model = reference_run.model
        beta = reference_run.thermal.beta
        gamma, _ = picard_gamma(model.K_D, model.H_T, beta)
        rho_d = gibbs(model.K_D, reference_run.thermal, model.N_total, label="decoupled")
        value = pf_expectation_via_gamma(rho_d, gamma, identity_operator(model.space))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_battery_against_direct_traces(self, reference_run, reference_rho):
        model = reference_run.model
        gamma, _ = picard_gamma(model.K_D, model.H_T, reference_run.thermal.beta)
        rho_d = gibbs(model.K_D, reference_run.thermal, model.N_total, label="decoupled")
        observables = [random_number_conserving_hermitian(model.space, RNG) for _ in range(10)]
        observables.append(model.N_total)
        g1 = np.zeros(6, dtype=complex)
        g1[0] = 1.0
        observables.append(
            ladder_op(model.space, g1, "create") @ ladder_op(model.space, g1, "annihilate")
        )
        for obs in observables:
            direct = reference_rho.expectation(obs)
            dressed = pf_expectation_via_gamma(rho_d, gamma, obs)
            assert abs(direct) > 1e-3  # battery exercises healthy magnitudes
            assert abs(dressed - direct) / abs(direct) <= 1e-9
