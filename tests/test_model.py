"""Transformed model: the frame, coefficients, sources, velocity."""

from dataclasses import replace

import numpy as np
import pytest

from plaquectrl import model
from plaquectrl.model import DenominatorError, OcclusionError
from plaquectrl.params import ModelParameters
from plaquectrl.spectral import build_setup

P = ModelParameters()
Z3 = np.zeros(3)


def _frame(rho, R, X=Z3, p=P, v=None):
    """The model's frame at one point; with ``v``, its adjoint pieces too."""
    fr = model.Frame(model.Points(rho, p), R, X)
    if v is not None:
        fr.add_adjoint(v)
    return fr


class TestParameters:
    def test_table_defaults(self):
        assert P.k1 == 10.0 and P.K2 == 0.5 and P.M0 == 5e-5
        assert P.delta == -2.541e-3 and P.L0 == 0.016 and P.H0 == 0.005

    def test_guard_delta_plus_h0(self):
        with pytest.raises(ValueError, match="delta"):
            ModelParameters(delta=-0.005, H0=0.005)

    def test_non_finite_rejected(self):
        # K1 = nan passed every sign check, since nan <= 0 is false
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                ModelParameters(K1=value)
        with pytest.raises(ValueError, match="finite"):
            ModelParameters(T=np.nan)

    @pytest.mark.parametrize("name, value, match", [
        ("mu1", -0.01, "parameter mu1 must be nonnegative"),
        ("T", 0.0, "T must be positive"), ("T", -1.0, "T must be positive"),
        ("Kbound", -0.5, "Kbound must be nonnegative")])
    def test_sign_checks(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            replace(P, **{name: value})

    def test_decoupled_zeroes_every_coupling_rate(self):
        d = P.decoupled()
        assert d.k1 == d.r1 == d.r2 == d.lam == d.mu1 == d.mu2 == 0.0
        assert d.K1 == P.K1  # saturations untouched

    def test_with_overrides(self):
        q = replace(P, L0=0.01, H0=0.004)
        assert q.L0 == 0.01 and q.H0 == 0.004 and q.k1 == P.k1
        with pytest.raises(ValueError, match="L0"):  # replace re-validates
            replace(P, L0=-0.01)


class TestExponents:
    def test_sl_zero_at_outer_edge(self):
        assert _frame(1.0, 0.3).s[0] == 0.0

    def test_sz_zero_at_inner_edge(self):
        assert _frame(-1.0, 0.2, v=0.7).sz == 0.0

    def test_sl_substitution_value(self):
        p = replace(P, alpha=1.0, eps=0.01)
        assert np.isclose(_frame(-1.0, 0.0, p=p).s[0], -0.495, atol=1e-15)

    def test_sf_uses_beta(self):
        fr = _frame(-1.0, 0.0)
        assert np.isclose(fr.s[2], (P.beta / P.alpha) * fr.s[0])


class TestCoefficients:
    def test_g11_g31_values(self):
        p = replace(P, eps=0.0)
        (g11, _), (g31, _) = model.coeff(_frame(0.0, 0.0, p=p), 0.0, 0.0)
        assert g11 == 4.0
        assert np.isclose(g31, 4 * 8.64e-7)

    def test_g12_substitution_value(self):
        p = replace(P, eps=0.0, alpha=1.0)
        (_, g12), _ = model.coeff(_frame(0.0, 0.0, p=p), 0.0, 0.0)
        assert np.isclose(g12, -6.0)

    def test_g42_differs_from_g12_by_influx_sign(self):
        rho = 0.3
        fr = _frame(rho, 0.1)
        (_, g12), _ = model.coeff(fr, 0.2, 0.0)
        g42, _ = model.adjoint_drift(fr, 0.2, 0.0, 0.0)
        om = 1.0 - (0.1 + P.eps)
        assert np.isclose(g12 - g42, 4.0 * (1.0 - rho) * P.alpha / om)

    def test_occlusion_guard_before_overflow(self):
        vals = [model.coeff(_frame(0.0, R), 0.0, 0.0)[0][0]
                for R in (0.5, 0.9, 0.98)]
        assert vals[0] < vals[1] < vals[2] and np.isfinite(vals[2])
        with pytest.raises(OcclusionError):
            _frame(0.0, 1.0 - P.eps)


class TestRhs:
    def test_fv_vanishes_without_production_or_death(self):
        p = replace(P, lam=0.0, mu1=0.0, mu2=0.0)
        out = model.fv(_frame(0.3, 0.2, np.array([0.1, 0.2, 0.3]), p))
        assert out == 0.0

    def test_fL_outer_edge_substitution(self):
        # at rho = 1 every (1 - rho) factor and the L-proportional terms die
        expect = -P.r1 * P.L0 - P.k1 * P.M0 * P.L0 / (P.K1 + P.L0)
        out = model.rhs(_frame(1.0, 0.123), 0.7, 0.0, 0.0)[0]
        assert np.isclose(out, expect, rtol=1e-12)

    def test_fH_outer_edge_substitution(self):
        out = model.rhs(_frame(1.0, 0.1), 0.4, 0.0, 0.0)[1]
        assert np.isclose(out, -P.r2 * P.H0, rtol=1e-12)

    def test_decoupled_equilibrium(self):
        fr = _frame(-0.3, 0.0, p=P.decoupled())
        assert np.max(np.abs(model.rhs(fr, 0.0, 0.0, 0.0))) < 1e-12
        assert abs(model.fv(fr)) < 1e-12

    def test_denominator_guard_names_term(self):
        # an H value that pushes delta + exp(sl)H + H0 under the floor
        fr = _frame(1.0, 0.0, np.array([0.0, -(P.delta + P.H0), 0.0]))
        with pytest.raises(DenominatorError, match="delta"):
            model.rhs(fr, 0.0, 0.0, 0.0)

    def test_failure_messages_are_one_line_scalars(self):
        # an array argument gives its extreme value, never a multi-line repr
        # that would depend on numpy's print options
        value = np.linspace(1e-20, 1.0, 400).reshape(20, 20)
        err = DenominatorError("delta + H + H0", value)
        assert err.term == "delta + H + H0"
        assert str(err) == "denominator delta + H + H0 below floor: smallest |value| = 1e-20"
        R = np.linspace(0.0, 0.99, 400).reshape(2, 20, 10)
        with pytest.raises(OcclusionError) as info:
            model._check_occlusion(R, P)
        assert str(info.value) == f"R + eps >= 1 (largest R = 0.99, eps = {P.eps})"

    def test_control_enters_through_phi_plus_k2(self):
        fr = _frame(0.0, 0.0, np.array([1e-4, 2e-4, 3e-4]))
        a = model.rhs(fr, 0.0, 0.0, 0.0)[1]
        b = model.rhs(fr, 0.0, 0.0, 1.0)[1]
        ratio_term = (b - a)  # equals -1 * exp(-sl) exp(sf) F (exp(sl)H + H0)/(K2+..)
        assert ratio_term < 0.0


class TestAdjointRhs:
    def test_zero_adjoints_give_zero(self):
        fr = _frame(0.2, 0.1, np.array([1e-4, 2e-4, 3e-4]), v=0.01)
        assert np.all(model.adjoint_rhs(fr, np.zeros(3), 0.0, 0.0) == 0.0)

    def test_linearity_in_adjoints(self):
        rng = np.random.default_rng(11)
        fr = _frame(0.2, 0.1, np.array([1e-4, 2e-4, 3e-4]), v=0.01)
        adj = np.array([rng.normal() for _ in range(4)])  # P_L, P_H, P_F, P_v
        adj2 = 2.0 * adj
        ones = model.adjoint_rhs(fr, adj[:3], adj[3], 0.3)
        twos = model.adjoint_rhs(fr, adj2[:3], adj2[3], 0.3)
        assert ones.shape == (3,)
        for one, two in zip(ones, twos):
            assert abs(two - 2.0 * one) < 1e-12 * max(1.0, abs(one))

    def test_fPL_outer_edge_substitution(self):
        adj = np.array([0.7, 0.0, 0.0])
        expect = (P.k1 * P.M0 * P.K1 / (P.K1 + P.L0) ** 2 + P.r1) * 0.7
        out = model.adjoint_rhs(_frame(1.0, 0.0, v=0.0), adj, 0.0, 0.0)[0]
        assert np.isclose(out, expect, rtol=1e-12)

    def test_fPH_reduces_to_decay_when_F_zero(self):
        adj = np.array([0.0, 1.3, 0.0])
        out = model.adjoint_rhs(_frame(1.0, 0.0, v=0.0), adj, 0.0, P.Kbound)[1]
        assert np.isclose(out, P.r2 * 1.3, rtol=1e-12)


class TestSwitchingXi:
    def test_zero_when_F_zero(self):
        fr = _frame(0.0, 0.0, np.array([0.0, 1.0, 0.0]), v=0.0)
        assert model.switching_xi(fr, np.array([0.0, 1.0, 1.0])) == 0.0

    def test_zero_when_adjoints_zero(self):
        fr = _frame(0.0, 0.0, np.array([0.0, 0.1, 0.2]), v=0.0)
        assert model.switching_xi(fr, np.zeros(3)) == 0.0

    def test_outer_edge_substitution(self):
        F = 0.2
        out = model.switching_xi(_frame(1.0, 0.0, np.array([0.0, 0.0, F]), v=0.0),
                                 np.array([0.0, 1.0, 0.0]))
        assert np.isclose(out, F * P.H0 / (P.K2 + F), rtol=1e-12)
        assert out > 0.0

    def test_velocity_free_at_inner_edge(self):
        # the P_F exponent carries (1 + rho), which vanishes at rho = -1
        X = np.array([0.0, 0.1, 0.2])
        adjoints = np.array([0.0, 0.7, -1.3])
        ref = model.switching_xi(_frame(-1.0, 0.1, X, v=0.0), adjoints)
        assert ref != 0.0
        for v in (0.0, 1e-8, -0.5, 3.0, 1e6, -1e12):
            out = model.switching_xi(_frame(-1.0, 0.1, X, v=v), adjoints)
            assert out == ref


class TestVelocitySolve:
    def setup_method(self):
        self.setup = build_setup(8, 8)

    def _solve(self, R, X, p=P):
        return model.velocity_solve(model.Frame(model.Points(self.setup.rho, p), R, X),
                                    self.setup)

    def test_zero_without_sources(self):
        p = replace(P, lam=0.0, mu1=0.0, mu2=0.0)
        v, vi, dvi, _ = self._solve(0.0, np.zeros((3, 8)), p)
        assert np.max(np.abs(v)) < 1e-14 and vi == 0.0

    def test_constant_source_gives_linear_velocity(self):
        # with zero fields the source is rho-independent only through the
        # exponents; at alpha=beta=0 it is exactly constant
        p = replace(P, alpha=0.0, beta=0.0)
        v, vi, dvi, _ = self._solve(0.0, np.zeros((3, 8)), p)
        c = model.fv(_frame(0.0, 0.0, p=p))
        assert np.max(np.abs(v - c * (self.setup.rho - 1.0))) < 1e-10
        assert np.isclose(vi, -2.0 * c) and np.isclose(dvi, c)

    def test_death_only_substitution(self):
        # F fixed so that the physical foam-cell density equals M0
        p = replace(P, lam=0.0, mu1=0.0, alpha=0.0, beta=0.0)
        z = np.zeros(8)
        F = np.full(8, p.M0)  # exponents vanish at alpha=beta=0
        v, vi, dvi, _ = self._solve(0.0, np.stack([z, z, F]), p)
        c = -p.mu2 * (1.0 - p.eps) / 2.0
        assert np.max(np.abs(v - c * (self.setup.rho - 1.0))) < 1e-10

    def test_adjoint_velocity_pinned_at_inner_edge(self):
        rng = np.random.default_rng(5)
        X = np.stack([rng.normal(size=8) * 1e-4 for _ in range(3)])
        v = rng.normal(size=8) * 1e-2
        z = np.zeros(8)
        adjoints = np.stack([z, z, rng.normal(size=8)])
        slopes = np.stack([z, z, rng.normal(size=8)])
        fr = model.Frame(model.Points(self.setup.rho, P), 0.1, X)
        fr.add_adjoint(v)
        Pv = model.adjoint_velocity_solve(fr, adjoints, slopes, self.setup)
        assert Pv.shape == (8,)
        assert np.all(np.isfinite(Pv))
        # beta = 0 and v = F = 0 make every exponent vanish: dP_v/drho = dF P_F,
        # so dF = 1 and P_F = c give the line through (-1, 0), P_v = c (rho + 1)
        c = 0.37
        fr = model.Frame(model.Points(self.setup.rho, replace(P, beta=0.0)), 0.1,
                         np.zeros((3, 8)))
        fr.add_adjoint(z)
        Pv = model.adjoint_velocity_solve(fr, np.stack([z, z, np.full(8, c)]),
                                          np.stack([z, z, np.ones(8)]), self.setup)
        assert np.max(np.abs(Pv - c * (self.setup.rho + 1.0))) <= 1e-14

    def test_occlusion_guard(self):
        with pytest.raises(OcclusionError):
            self._solve(1.0 - P.eps, np.zeros((3, 8)))
        z = np.zeros((3, 8, 3))  # one occluded time column among several
        with pytest.raises(OcclusionError):
            model.Frame(model.Points(self.setup.rho[:, None], P),
                        np.array([0.0, 1.0 - P.eps, 0.1]), z)

    def test_non_finite_source_raises(self):
        X = np.zeros((3, 8))
        X[2, 3] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            self._solve(0.1, X)

    def test_time_columns_match_single_solves(self):
        rng = np.random.default_rng(3)
        M = 6
        R = rng.uniform(0.0, 0.3, M)
        X = np.stack([rng.uniform(0.0, 2e-3, (8, M)) for _ in range(3)])
        v, vi, dvi, dv = model.velocity_solve(
            model.Frame(model.Points(self.setup.rho[:, None], P), R, X), self.setup)
        assert v.shape == dv.shape == (8, M) and vi.shape == dvi.shape == (M,)
        for l in range(M):
            v1, vi1, dvi1, dv1 = self._solve(R[l], X[:, :, l])
            for batched, single in ((v[:, l], v1), (vi[l], vi1),
                                    (dvi[l], dvi1), (dv[:, l], dv1)):
                assert (np.max(np.abs(batched - single))
                        <= 1e-14 * np.max(np.abs(single)))


class TestBatchFrame:
    def test_members_match_batches_of_one_bit_for_bit(self):
        # the residual Jacobian evaluates its colors as members of one batch,
        # so no formula may round a member differently inside a batch; B = 3
        # also catches a batch axis broadcast against the three fields
        rng = np.random.default_rng(17)
        N, M, B = 6, 5, 3
        setup = build_setup(N, M)
        pts = model.Points(setup.rho[None, :, None], P)
        R = rng.uniform(0.0, 0.2, (B, 1, M))
        X = rng.normal(size=(3, B, N, M)) * 1e-4
        vin, phi = rng.normal(size=(B, 1, M)) * 0.05, rng.uniform(0.0, 1.0, (B, 1, M))
        v = rng.normal(size=(B, N, M)) * 0.05

        def evaluate(members):
            fr = model.Frame(pts, R[members], X[:, members])
            S = model.rhs(fr, vin[members], v[members], phi[members])
            (g11, g12), (g31, g32) = model.coeff(fr, vin[members], v[members])
            return [S.swapaxes(0, 1), g11, g12, g31, g32,
                    *model.velocity_solve(fr, setup)]  # batch axis first

        batch = evaluate(slice(None))
        for b in range(B):
            for got, alone in zip(batch, evaluate(slice(b, b + 1))):
                assert got.shape[0] == B and np.array_equal(got[b:b + 1], alone)

    def test_frame_rejects_points_without_the_batch_axis(self):
        # rho (N, 1) against X (3, B, N, M) would broadcast the fields
        # against the members when B = 3
        setup = build_setup(4, 2)
        with pytest.raises(ValueError, match="one axis"):
            model.Frame(model.Points(setup.rho[:, None], P), np.zeros((3, 1, 2)),
                        np.zeros((3, 3, 4, 2)))
