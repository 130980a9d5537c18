"""Fixed-point collocation solver and direct optimization."""

import numpy as np
import pytest

from plaquectrl import direct, kernels
from plaquectrl.nlp import NlpOptions
from plaquectrl.params import ModelParameters
from plaquectrl.spectral import build_setup

P = ModelParameters()


def _zero_control(M, Kbound=P.Kbound):
    return direct.ControlVector(segments=np.zeros(M), Kbound=Kbound)


class TestControlVector:
    def test_partition_is_uniform(self):
        c = direct.ControlVector(segments=np.array([1.0, 2.0, 3.0, 4.0]),
                                 Kbound=5.0)
        assert np.allclose(c.partition, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_piecewise_constant_lookup(self):
        c = direct.ControlVector(segments=np.array([1.0, 2.0, 3.0, 4.0]),
                                 Kbound=5.0)
        t = np.array([-1.0, -0.75, -0.5, -0.25, 0.0, 0.49, 0.5, 0.99, 1.0])
        assert np.allclose(c.values_at(t), [1, 1, 2, 2, 3, 3, 4, 4, 4])

    def test_scalar_lookup(self):
        c = direct.ControlVector(segments=np.array([0.5, 1.5]), Kbound=2.0)
        assert c.values_at(-1.0) == 0.5
        assert c.values_at(0.0) == 1.5
        assert c.values_at(1.0) == 1.5

    def test_bound_violation_rejected(self):
        with pytest.raises(ValueError):
            direct.ControlVector(segments=np.array([3.0]), Kbound=2.0)
        with pytest.raises(ValueError):
            direct.ControlVector(segments=np.array([-0.1]), Kbound=2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            direct.ControlVector(segments=np.zeros(0), Kbound=1.0)


class TestOperator:
    def test_pure_time_derivative_when_coefficients_vanish(self):
        s = build_setup(3, 4)
        zero = np.zeros((3, 4))
        grids = (zero, zero, zero, zero.copy(), zero.copy(),
                 np.zeros(4), np.zeros(4))
        A = direct.assemble_operator("L", grids, s, P)
        expected = (2.0 / P.T) * np.kron(s.D0r.T, s.D1t.T)
        assert np.allclose(A, expected)

    def test_field_kind_selects_diffusion_coefficient(self):
        s = build_setup(2, 2)
        ones = np.ones((2, 2))
        grids = (ones, ones, ones, np.zeros((2, 2)), np.zeros((2, 2)),
                 np.full(2, 3.0), np.full(2, 7.0))
        A_L = direct.assemble_operator("L", grids, s, P)
        A_F = direct.assemble_operator("F", grids, s, P)
        base = (2.0 / P.T) * np.kron(s.D0r.T, s.D1t.T)
        kron2 = np.kron(s.D2r.T, s.D0t.T)
        assert np.allclose(A_L, base - 3.0 * kron2)
        assert np.allclose(A_F, base - 7.0 * kron2)

    def test_L_and_H_share_one_operator(self):
        rng = np.random.default_rng(11)
        for N, M in [(2, 3), (5, 4), (8, 8)]:
            s = build_setup(N, M)
            grids = tuple(rng.normal(size=(N, M)) for _ in range(5)) + (
                rng.uniform(1.0, 5.0, M), rng.uniform(1.0, 5.0, M))
            A_L = direct.assemble_operator("L", grids, s, P)
            A_H = direct.assemble_operator("H", grids, s, P)
            assert np.array_equal(A_L, A_H)

    def test_unknown_kind_rejected(self):
        s = build_setup(2, 2)
        zero = np.zeros((2, 2))
        grids = (zero, zero, zero, zero, zero, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            direct.assemble_operator("Q", grids, s, P)


class TestFixedPoint:
    def test_decoupled_limit_is_identically_zero(self):
        s = build_setup(6, 6)
        state = direct.fixed_point_solve(_zero_control(6), s, P.decoupled())
        assert state.converged
        assert state.iterations <= 2
        for C in (state.C_L, state.C_H, state.C_F):
            assert np.max(np.abs(C)) < 1e-12
        assert np.max(np.abs(state.C_R)) < 1e-12
        assert np.max(np.abs(state.v_field)) < 1e-12

    def test_decoupled_objective(self):
        s = build_setup(6, 6)
        val = direct.objective(_zero_control(6), s, P.decoupled())
        assert abs(val - (1.0 - P.eps)) < 1e-12

    def test_unconverged_objective_raises(self):
        # five iterations stop short: J would read 0.95673 against 0.95945
        with pytest.raises(direct.NonConvergenceError,
                           match="objective fixed-point solve did not converge "
                                 "in 5 iterations"):
            direct.objective(_zero_control(8), build_setup(8, 8), P, max_iter=5)

    def test_generic_run_converges(self):
        s = build_setup(8, 8)
        state = direct.fixed_point_solve(_zero_control(8), s, P,
                                         tol=1e-10, max_iter=400)
        assert state.converged
        # frozen regression value for the default parameter set
        assert abs(state.final_radius() - 3.055491194093e-02) < 1e-10

    def test_grid_consistency_of_final_radius(self):
        r6 = direct.fixed_point_solve(
            _zero_control(6), build_setup(6, 6), P,
            tol=1e-10, max_iter=400).final_radius()
        r8 = direct.fixed_point_solve(
            _zero_control(8), build_setup(8, 8), P,
            tol=1e-10, max_iter=400).final_radius()
        assert abs(r6 - r8) < 1e-5

    def test_collocation_residual_at_fixed_point(self):
        s = build_setup(6, 6)
        state = direct.fixed_point_solve(_zero_control(6), s, P,
                                         tol=1e-12, max_iter=400)
        assert state.converged
        phi = np.zeros(6)
        Lg = s.field_values(state.C_L)
        Hg = s.field_values(state.C_H)
        Fg = s.field_values(state.C_F)
        Rt = state.C_R @ s.D0t
        grids = kernels.eval_state_grids(s.rho, Rt, state.v_inner,
                                         state.v_field, Lg, Hg, Fg, phi, P)
        for kind, C, F in (("L", state.C_L, grids[0]),
                           ("H", state.C_H, grids[1]),
                           ("F", state.C_F, grids[2])):
            A = direct.assemble_operator(kind, grids, s, P)
            resid = A @ C.reshape(-1) - F.reshape(-1)
            assert np.max(np.abs(resid)) < 1e-9
        resid_R = (2.0 / P.T) * s.D1t.T @ state.C_R - state.v_inner
        assert np.max(np.abs(resid_R)) < 1e-9

    def test_initial_conditions_are_exact(self):
        s = build_setup(6, 6)
        state = direct.fixed_point_solve(_zero_control(6), s, P,
                                         tol=1e-10, max_iter=400)
        # the time basis vanishes at t = -1 by construction
        assert abs(state.radius(np.array([-1.0]))[0]) < 1e-14
        assert state.field_nodes("L").shape == (6, 6)

    def test_iteration_cap_returns_unconverged(self):
        s = build_setup(6, 6)
        state = direct.fixed_point_solve(_zero_control(6), s, P, max_iter=1)
        assert not state.converged
        assert state.iterations == 1
        assert len(state.residual_history) == 1

    def test_residual_history_contracts(self):
        s = build_setup(8, 8)
        state = direct.fixed_point_solve(_zero_control(8), s, P,
                                         tol=1e-10, max_iter=400)
        hist = state.residual_history
        assert hist[-1] < 1e-10
        assert hist[-1] < 1e-3 * hist[0]

    def test_invalid_arguments(self):
        s = build_setup(4, 4)
        with pytest.raises(ValueError):
            direct.fixed_point_solve(_zero_control(4), s, P, tol=0.0)
        with pytest.raises(ValueError):
            direct.fixed_point_solve(_zero_control(4), s, P, max_iter=0)


class TestSolveDirect:
    def test_zero_budget_returns_initial_point(self):
        s = build_setup(4, 4)
        opts = NlpOptions(max_iter=0)
        control, state, value, result = direct.solve_direct(
            s, P, nlp_options=opts, fp_max_iter=400)
        assert np.allclose(control.segments, 0.0)
        assert result.iterations == 0

    def test_decoupled_optimum(self):
        s = build_setup(4, 4)
        control, state, value, result = direct.solve_direct(
            s, P.decoupled(), nlp_options=NlpOptions(max_iter=5))
        assert abs(value - (1.0 - P.eps)) < 1e-12
        assert state.converged
