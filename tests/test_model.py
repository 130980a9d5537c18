"""Transformed model: maps, exponents, coefficients, sources, velocity."""

import numpy as np
import pytest

from plaquectrl import model
from plaquectrl.model import DenominatorError, OcclusionError
from plaquectrl.params import ModelParameters
from plaquectrl.spectral import build_setup

P = ModelParameters()


class TestParameters:
    def test_table_defaults(self):
        assert P.k1 == 10.0 and P.K2 == 0.5 and P.M0 == 5e-5
        assert P.delta == -2.541e-3 and P.L0 == 0.016 and P.H0 == 0.005

    def test_guard_delta_plus_h0(self):
        with pytest.raises(ValueError, match="delta"):
            ModelParameters(delta=-0.005, H0=0.005)

    def test_decoupled_zeroes_every_coupling_rate(self):
        d = P.decoupled()
        assert d.k1 == d.r1 == d.r2 == d.lam == d.mu1 == d.mu2 == 0.0
        assert d.K1 == P.K1  # saturations untouched

    def test_with_overrides(self):
        q = P.with_overrides(L0=0.01, H0=0.004)
        assert q.L0 == 0.01 and q.H0 == 0.004 and q.k1 == P.k1


class TestFrontFix:
    def test_corner_points(self):
        rho, t = model.front_fix(0.3, 0.0, 0.3, 2.0)
        assert rho == -1.0 and t == -1.0
        rho, t = model.front_fix(1.0, 2.0, 0.3, 2.0)
        assert rho == 1.0 and t == 1.0
        rho, t = model.front_fix(0.65, 1.0, 0.3, 2.0)
        assert abs(rho) < 1e-15 and abs(t) < 1e-15

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            R = rng.uniform(0.0, 0.9)
            r = rng.uniform(R, 1.0)
            tau = rng.uniform(0.0, 4.0)
            rho, t = model.front_fix(r, tau, R, 4.0)
            r2, tau2 = model.front_fix_inverse(rho, t, R, 4.0)
            assert abs(r - r2) < 1e-14 and abs(tau - tau2) < 1e-14

    def test_rejects_degenerate_domain(self):
        with pytest.raises(OcclusionError):
            model.front_fix(1.0, 0.0, 1.0, 1.0)


class TestExponents:
    def test_sl_zero_at_outer_edge(self):
        assert model.exponent_sl(1.0, 0.3, P) == 0.0

    def test_sz_zero_at_inner_edge(self):
        assert model.exponent_sz(-1.0, 0.2, 0.7, P) == 0.0

    def test_sl_substitution_value(self):
        p = P.with_overrides(alpha=1.0, eps=0.01)
        assert np.isclose(model.exponent_sl(-1.0, 0.0, p), -0.495, atol=1e-15)

    def test_sf_uses_beta(self):
        assert np.isclose(model.exponent_sf(-1.0, 0.0, P),
                          (P.beta / P.alpha) * model.exponent_sl(-1.0, 0.0, P))


class TestCoefficients:
    def test_g11_g31_values(self):
        p = P.with_overrides(eps=0.0)
        assert model.coeff("g11", 0.0, 0.0, 0.0, 0.0, p) == 4.0
        assert np.isclose(model.coeff("g31", 0.0, 0.0, 0.0, 0.0, p), 4 * 8.64e-7)

    def test_g12_substitution_value(self):
        p = P.with_overrides(eps=0.0, alpha=1.0)
        assert np.isclose(model.coeff("g12", 0.0, 0.0, 0.0, 0.0, p), -6.0)

    def test_g42_differs_from_g12_by_influx_sign(self):
        rho = 0.3
        g12 = model.coeff("g12", rho, 0.1, 0.2, 0.0, P)
        g42 = model.coeff("g42", rho, 0.1, 0.2, 0.0, P)
        om = 1.0 - (0.1 + P.eps)
        assert np.isclose(g12 - g42, 4.0 * (1.0 - rho) * P.alpha / om)

    def test_g62_requires_auxiliaries(self):
        with pytest.raises(ValueError):
            model.coeff("g62", 0.0, 0.0, 0.0, 0.0, P)

    def test_occlusion_guard_before_overflow(self):
        vals = [model.coeff("g11", 0.0, R, 0.0, 0.0, P)
                for R in (0.5, 0.9, 0.98)]
        assert vals[0] < vals[1] < vals[2] and np.isfinite(vals[2])
        with pytest.raises(OcclusionError):
            model.coeff("g11", 0.0, 1.0 - P.eps, 0.0, 0.0, P)


class TestRhs:
    def test_fv_vanishes_without_production_or_death(self):
        p = P.with_overrides(lam=0.0, mu1=0.0, mu2=0.0)
        out = model.fv(0.3, 0.2, {"L": 0.1, "H": 0.2, "F": 0.3}, p)
        assert out == 0.0

    def test_fL_outer_edge_substitution(self):
        # at rho = 1 every (1 - rho) factor and the L-proportional terms die
        expect = -P.r1 * P.L0 - P.k1 * P.M0 * P.L0 / (P.K1 + P.L0)
        out = model.rhs(1.0, 0.123, 0.7, {"L": 0.0, "H": 0.0, "F": 0.0}, 0.0, P)[0]
        assert np.isclose(out, expect, rtol=1e-12)

    def test_fH_outer_edge_substitution(self):
        out = model.rhs(1.0, 0.1, 0.4, {"L": 0.0, "H": 0.0, "F": 0.0}, 0.0, P)[1]
        assert np.isclose(out, -P.r2 * P.H0, rtol=1e-12)

    def test_decoupled_equilibrium(self):
        d = P.decoupled()
        zero = {"L": 0.0, "H": 0.0, "F": 0.0, "v": 0.0}
        assert np.max(np.abs(model.rhs(-0.3, 0.0, 0.0, zero, 0.0, d))) < 1e-12
        assert abs(model.fv(-0.3, 0.0, zero, d)) < 1e-12

    def test_denominator_guard_names_term(self):
        # an H value that pushes delta + exp(sl)H + H0 under the floor
        with pytest.raises(DenominatorError, match="delta"):
            model.rhs(1.0, 0.0, 0.0,
                      {"L": 0.0, "H": -(P.delta + P.H0), "F": 0.0, "v": 0.0},
                      0.0, P)

    def test_control_enters_through_phi_plus_k2(self):
        fields = {"L": 1e-4, "H": 2e-4, "F": 3e-4, "v": 0.0}
        a = model.rhs(0.0, 0.0, 0.0, fields, 0.0, P)[1]
        b = model.rhs(0.0, 0.0, 0.0, fields, 1.0, P)[1]
        ratio_term = (b - a)  # equals -1 * exp(-sl) exp(sf) F (exp(sl)H + H0)/(K2+..)
        assert ratio_term < 0.0


class TestAdjointRhs:
    def test_zero_adjoints_give_zero(self):
        fields = {"L": 1e-4, "H": 2e-4, "F": 3e-4, "v": 0.01}
        zero = {"P_L": 0.0, "P_H": 0.0, "P_F": 0.0, "P_v": 0.0}
        assert np.all(model.adjoint_rhs(0.2, 0.1, fields, zero, 0.0, P) == 0.0)

    def test_linearity_in_adjoints(self):
        rng = np.random.default_rng(11)
        fields = {"L": 1e-4, "H": 2e-4, "F": 3e-4, "v": 0.01}
        adj = {k: rng.normal() for k in ("P_L", "P_H", "P_F", "P_v")}
        adj2 = {k: 2.0 * v for k, v in adj.items()}
        ones = model.adjoint_rhs(0.2, 0.1, fields, adj, 0.3, P)
        twos = model.adjoint_rhs(0.2, 0.1, fields, adj2, 0.3, P)
        assert ones.shape == (3,)
        for one, two in zip(ones, twos):
            assert abs(two - 2.0 * one) < 1e-12 * max(1.0, abs(one))

    def test_fPL_outer_edge_substitution(self):
        adj = {"P_L": 0.7, "P_H": 0.0, "P_F": 0.0, "P_v": 0.0}
        fields = {"L": 0.0, "H": 0.0, "F": 0.0, "v": 0.0}
        expect = (P.k1 * P.M0 * P.K1 / (P.K1 + P.L0) ** 2 + P.r1) * 0.7
        out = model.adjoint_rhs(1.0, 0.0, fields, adj, 0.0, P)[0]
        assert np.isclose(out, expect, rtol=1e-12)

    def test_fPH_reduces_to_decay_when_F_zero(self):
        adj = {"P_L": 0.0, "P_H": 1.3, "P_F": 0.0, "P_v": 0.0}
        fields = {"L": 0.0, "H": 0.0, "F": 0.0, "v": 0.0}
        out = model.adjoint_rhs(1.0, 0.0, fields, adj, P.Kbound, P)[1]
        assert np.isclose(out, P.r2 * 1.3, rtol=1e-12)


class TestSwitchingXi:
    def test_zero_when_F_zero(self):
        assert model.switching_xi(0.0, {"F": 0.0, "H": 1.0},
                                  {"P_H": 1.0, "P_F": 1.0}, 0.0, P) == 0.0

    def test_zero_when_adjoints_zero(self):
        assert model.switching_xi(0.0, {"F": 0.2, "H": 0.1},
                                  {"P_H": 0.0, "P_F": 0.0}, 0.0, P) == 0.0

    def test_outer_edge_substitution(self):
        F = 0.2
        out = model.switching_xi(1.0, {"F": F, "H": 0.0, "v": 0.0},
                                 {"P_H": 1.0, "P_F": 0.0}, 0.0, P)
        assert np.isclose(out, F * P.H0 / (P.K2 + F), rtol=1e-12)
        assert out > 0.0

    def test_velocity_free_at_inner_edge(self):
        # the P_F exponent carries (1 + rho), which vanishes at rho = -1
        fields = {"F": 0.2, "H": 0.1}
        adjoints = {"P_H": 0.7, "P_F": -1.3}
        ref = model.switching_xi(-1.0, fields, adjoints, 0.1, P)
        assert ref != 0.0
        for v in (0.0, 1e-8, -0.5, 3.0, 1e6, -1e12):
            out = model.switching_xi(-1.0, {**fields, "v": v}, adjoints, 0.1, P)
            assert out == ref


class TestVelocitySolve:
    def setup_method(self):
        self.setup = build_setup(8, 8)

    def test_zero_without_sources(self):
        p = P.with_overrides(lam=0.0, mu1=0.0, mu2=0.0)
        z = np.zeros(8)
        v, vi, dvi = model.velocity_solve(0.0, {"L": z, "H": z, "F": z},
                                          p, self.setup)
        assert np.max(np.abs(v)) < 1e-14 and vi == 0.0

    def test_constant_source_gives_linear_velocity(self):
        # with zero fields the source is rho-independent only through the
        # exponents; at alpha=beta=0 it is exactly constant
        p = P.with_overrides(alpha=0.0, beta=0.0)
        z = np.zeros(8)
        v, vi, dvi = model.velocity_solve(0.0, {"L": z, "H": z, "F": z},
                                          p, self.setup)
        c = model.fv(0.0, 0.0, {"L": 0.0, "H": 0.0, "F": 0.0}, p)
        assert np.max(np.abs(v - c * (self.setup.rho - 1.0))) < 1e-10
        assert np.isclose(vi, -2.0 * c) and np.isclose(dvi, c)

    def test_death_only_substitution(self):
        # F fixed so that the physical foam-cell density equals M0
        p = P.with_overrides(lam=0.0, mu1=0.0, alpha=0.0, beta=0.0)
        z = np.zeros(8)
        F = np.full(8, p.M0)  # exponents vanish at alpha=beta=0
        v, vi, dvi = model.velocity_solve(0.0, {"L": z, "H": z, "F": F},
                                          p, self.setup)
        c = -p.mu2 * (1.0 - p.eps) / 2.0
        assert np.max(np.abs(v - c * (self.setup.rho - 1.0))) < 1e-10

    def test_adjoint_velocity_pinned_at_inner_edge(self):
        rng = np.random.default_rng(5)
        fields = {"L": rng.normal(size=8) * 1e-4,
                  "H": rng.normal(size=8) * 1e-4,
                  "F": rng.normal(size=8) * 1e-4,
                  "v": rng.normal(size=8) * 1e-2}
        Pv = model.adjoint_velocity_solve(0.1, fields, rng.normal(size=8),
                                          rng.normal(size=8), P, self.setup)
        assert Pv.shape == (8,)
        assert np.all(np.isfinite(Pv))
        # beta = 0 and v = F = 0 make every exponent vanish: dP_v/drho = dF P_F,
        # so dF = 1 and P_F = c give the line through (-1, 0), P_v = c (rho + 1)
        c = 0.37
        z = np.zeros(8)
        Pv = model.adjoint_velocity_solve(0.1, {"F": z, "v": z}, np.full(8, c),
                                          np.ones(8), P.with_overrides(beta=0.0),
                                          self.setup)
        assert np.max(np.abs(Pv - c * (self.setup.rho + 1.0))) <= 1e-14

    def test_occlusion_guard(self):
        z = np.zeros(8)
        with pytest.raises(OcclusionError):
            model.velocity_solve(1.0 - P.eps, {"L": z, "H": z, "F": z},
                                 P, self.setup)
        z = np.zeros((8, 3))  # one occluded time column among several
        with pytest.raises(OcclusionError):
            model.velocity_solve(np.array([0.0, 1.0 - P.eps, 0.1]),
                                 {"L": z, "H": z, "F": z}, P, self.setup)

    def test_time_columns_match_single_solves(self):
        rng = np.random.default_rng(3)
        M = 6
        R = rng.uniform(0.0, 0.3, M)
        fields = {k: rng.uniform(0.0, 2e-3, (8, M)) for k in "LHF"}
        v, vi, dvi, dv = model.velocity_solve(R, fields, P, self.setup,
                                              return_slope=True)
        assert v.shape == dv.shape == (8, M) and vi.shape == dvi.shape == (M,)
        for l in range(M):
            col = {k: f[:, l] for k, f in fields.items()}
            v1, vi1, dvi1, dv1 = model.velocity_solve(
                R[l], col, P, self.setup, return_slope=True)
            for batched, single in ((v[:, l], v1), (vi[l], vi1),
                                    (dvi[l], dvi1), (dv[:, l], dv1)):
                assert (np.max(np.abs(batched - single))
                        <= 1e-14 * np.max(np.abs(single)))
