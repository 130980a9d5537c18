"""Error norms, convergence study, cross-method check, control sweep."""

import numpy as np
import pytest

from plaquectrl import direct, indirect, verify
from plaquectrl.nlp import NlpOptions
from plaquectrl.params import ModelParameters
from plaquectrl.spectral import build_setup

P = ModelParameters()


class TestErrorNorms:
    rho = np.linspace(-1.0, 1.0, 3)
    t = np.linspace(-1.0, 1.0, 4)

    def test_identical_evaluators(self):
        g = np.outer(self.rho, self.t)
        assert verify.err_inf(g, g) == 0.0
        assert verify.err_l2(g, g) == 0.0

    def test_constant_gap(self):
        a = np.zeros((3, 4))
        b = np.full((3, 4), 0.25)
        assert verify.err_inf(a, b) == pytest.approx(0.25)
        assert verify.err_l2(a, b) == pytest.approx(0.25 * np.sqrt(12.0))

    def test_single_node_gap(self):
        a = np.zeros((3, 4))
        b = np.zeros((3, 4))
        b[1, 2] = 2.0
        assert verify.err_inf(a, b) == pytest.approx(2.0)
        assert verify.err_l2(a, b) == pytest.approx(2.0)


class TestConvergenceStudy:
    def test_decoupled_study_is_exact(self):
        rows = verify.convergence_study(P.decoupled(), [(2, 2), (4, 4)],
                                        reference_grid=(6, 6))
        assert len(rows) == 2
        for r in rows:
            assert not r.failed
            for which in "LHF":
                assert r.Einf[which] < 1e-12
                assert r.E2[which] < 1e-12
            assert r.EJ < 1e-12

    def test_reference_must_be_finer(self):
        with pytest.raises(ValueError):
            verify.convergence_study(P, [(8, 8)], reference_grid=(8, 8))

    def test_empty_grid_list_rejected(self):
        # an empty study once returned [] and crashed later in study_table
        with pytest.raises(ValueError, match="at least one grid"):
            verify.convergence_study(P, [])

    def test_failed_row_is_isolated(self):
        rows = verify.convergence_study(P, [(1, 1), (4, 4)],
                                        reference_grid=(8, 8),
                                        fp_max_iter=400)
        assert len(rows) == 2
        ok = [r for r in rows if not r.failed]
        assert any(not r.failed for r in rows if (r.N, r.M) == (4, 4))


class TestCrossMethod:
    def test_decoupled_agreement(self):
        s = build_setup(4, 4)
        pd = P.decoupled()
        zero = direct.ControlVector(np.zeros(4), pd.Kbound)
        st = direct.fixed_point_solve(zero, s, pd)
        sol = indirect.solve_indirect(s, pd, n_steps=100)
        d = verify.cross_method_diff(st, sol, zero)
        for key in ("L", "H", "F", "R", "control"):
            assert d[key] < 1e-10
        assert d["control_match_fraction"] == 1.0

    def test_generic_agreement(self):
        s = build_setup(8, 8)
        zero = direct.ControlVector(np.zeros(8), P.Kbound)
        st = direct.fixed_point_solve(zero, s, P, tol=1e-10, max_iter=400)
        sol = indirect.solve_indirect(s, P, n_steps=400)
        d = verify.cross_method_diff(st, sol, zero)
        assert d["R"] < 1e-3
        assert d["control_match_fraction"] == 1.0


class TestSweep:
    def test_decoupled_pair_trajectories_constant(self):
        s = build_setup(4, 4)
        pd = P.decoupled()
        rows = verify.control_effect_sweep([(pd.L0, pd.H0)], pd, s,
                                           nlp_options=NlpOptions(max_iter=2))
        row = rows[0]
        assert not row["failed"]
        assert np.allclose(row["R_uncontrolled"], pd.eps, atol=1e-12)
        assert np.allclose(row["R_controlled"], pd.eps, atol=1e-12)
        assert row["t"][0] == 0.0
        assert row["t"][-1] == pytest.approx(pd.T)

    def test_controlled_never_worse_at_terminal_time(self):
        s = build_setup(4, 4)
        rows = verify.control_effect_sweep(
            [(P.L0, P.H0)], P, s, nlp_options=NlpOptions(max_iter=3))
        row = rows[0]
        assert not row["failed"]
        # J = 1 - R(1) - eps: the optimizer may at worst return the zero
        # control, so the controlled terminal radius is never smaller
        assert row["R_controlled"][-1] >= row["R_uncontrolled"][-1] - 1e-10

    def test_failed_pair_is_isolated(self):
        s = build_setup(4, 4)
        rows = verify.control_effect_sweep(
            [(-1.0, 0.005), (P.L0, P.H0)], P, s,
            nlp_options=NlpOptions(max_iter=1))
        assert rows[0]["failed"]
        assert not rows[1]["failed"]


class TestUnconvergedSolves:
    """A fixed-point solve that stops short fails its row, never reports."""

    def test_convergence_study_rows_fail(self):
        rows = verify.convergence_study(P, [(2, 2), (4, 4)],
                                        reference_grid=(6, 6), fp_max_iter=1)
        assert len(rows) == 2
        for r in rows:
            assert r.failed
            assert "reference 6x6 fixed-point solve did not converge" in r.message
            assert r.Einf == {} and np.isnan(r.EJ)

    def test_sweep_pair_fails(self):
        s = build_setup(4, 4)
        rows = verify.control_effect_sweep([(P.L0, P.H0)], P, s, fp_max_iter=1,
                                           nlp_options=NlpOptions(max_iter=1))
        row = rows[0]
        assert row["failed"]
        assert "uncontrolled fixed-point solve did not converge" in row["message"]
        assert "R_uncontrolled" not in row and "R_controlled" not in row
