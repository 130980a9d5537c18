"""Shooting solver for the coupled state/adjoint system."""

import numpy as np
import pytest

from plaquectrl import indirect, model
from plaquectrl.params import ModelParameters
from plaquectrl.spectral import build_setup

P = ModelParameters()


class TestShootingVector:
    def test_shape_validation(self):
        indirect.ShootingVector(np.zeros(7))  # 3*2 + 1
        with pytest.raises(ValueError):
            indirect.ShootingVector(np.zeros(8))
        with pytest.raises(ValueError):
            indirect.ShootingVector(np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_block_count(self):
        assert indirect.ShootingVector(np.zeros(13)).N == 4


class TestRk4:
    def test_exponential_growth(self):
        grid = np.linspace(0.0, 2.0, 201)
        traj = indirect.rk4_integrate(lambda t, y: y, np.array([1.0]), grid)
        assert abs(traj[-1, 0] - 7.3890560989) < 1e-6

    def test_constant_rhs_exact(self):
        grid = np.linspace(-1.0, 1.0, 5)
        traj = indirect.rk4_integrate(
            lambda t, y: np.array([3.0]), np.array([0.5]), grid)
        assert np.allclose(traj[:, 0], 0.5 + 3.0 * (grid + 1.0), atol=1e-14)

    def test_fourth_order_convergence(self):
        def rhs(t, y):
            return -y
        errs = []
        for n in (20, 40):
            grid = np.linspace(0.0, 1.0, n + 1)
            traj = indirect.rk4_integrate(rhs, np.array([1.0]), grid)
            errs.append(abs(traj[-1, 0] - np.exp(-1.0)))
        factor = errs[0] / errs[1]
        assert 12.0 < factor < 20.0

    def test_nonfinite_abort(self):
        grid = np.linspace(0.0, 2.0, 11)
        with pytest.raises(indirect.IntegrationError):
            indirect.rk4_integrate(
                lambda t, y: y * y, np.array([10.0]), grid)


class TestOdeRhs:
    def test_decoupled_equilibrium(self):
        s = build_setup(4, 4)
        y = np.zeros(6 * 4 + 2)
        dy = indirect.ode_rhs(-1.0, y, s, P.decoupled(), phi=0.0)
        assert np.max(np.abs(dy)) < 1e-12

    def test_zero_adjoint_stays_zero(self):
        # with zero adjoint data the adjoint blocks have zero derivative
        s = build_setup(4, 4)
        rng = np.random.default_rng(3)
        y = np.zeros(6 * 4 + 2)
        y[:12] = rng.normal(size=12) * 1e-5  # generic state coefficients
        y[24] = 0.05  # R
        dy = indirect.ode_rhs(0.0, y, s, P, phi=0.0)
        assert np.max(np.abs(dy[12:24])) < 1e-12  # beta blocks
        assert abs(dy[25]) < 1e-12  # P_R

    def test_control_enters_state_blocks_only(self):
        s = build_setup(4, 4)
        rng = np.random.default_rng(5)
        y = np.zeros(6 * 4 + 2)
        y[:12] = rng.normal(size=12) * 1e-5
        d0 = indirect.ode_rhs(0.0, y, s, P, phi=0.0)
        d1 = indirect.ode_rhs(0.0, y, s, P, phi=P.Kbound)
        # the control multiplies the monocyte recruitment source
        assert np.max(np.abs(d0 - d1)) > 0.0
        assert np.allclose(d0[12:26], d1[12:26])


class TestSwitchingCheck:
    def test_occluded_state_raises(self):
        s = build_setup(4, 4)
        y = np.zeros(6 * 4 + 2)
        y[6 * 4] = 1.0 - P.eps
        with pytest.raises(model.OcclusionError):
            indirect._xi_at_inner(y, s, P)


class TestShootingResidual:
    def test_zero_vector_residual_is_zero(self):
        s = build_setup(6, 6)
        res = indirect.shooting_residual(
            indirect.ShootingVector(np.zeros(19)), s, P, n_steps=200)
        assert np.max(np.abs(res)) < 1e-12

    def test_decoupled_linearity(self):
        s = build_setup(4, 4)
        pd = P.decoupled()
        rng = np.random.default_rng(7)
        v = rng.normal(size=13) * 1e-3
        r1 = indirect.shooting_residual(indirect.ShootingVector(v), s, pd,
                                        n_steps=100)
        r2 = indirect.shooting_residual(indirect.ShootingVector(2 * v), s, pd,
                                        n_steps=100)
        assert np.max(np.abs(r2 - 2.0 * r1)) < 1e-10


class TestSolveIndirect:
    def test_decoupled_solve(self):
        s = build_setup(4, 4)
        sol = indirect.solve_indirect(s, P.decoupled(), n_steps=100)
        assert sol.converged
        assert sol.newton_iterations <= 1
        assert np.max(np.abs(sol.phi)) == 0.0
        assert np.max(np.abs(sol.R)) < 1e-12

    def test_generic_solve_matches_direct_radius(self):
        from plaquectrl import direct
        s = build_setup(8, 8)
        sol = indirect.solve_indirect(s, P, n_steps=400)
        assert sol.converged
        state = direct.fixed_point_solve(
            direct.ControlVector(segments=np.zeros(8), Kbound=P.Kbound),
            s, P, tol=1e-10, max_iter=400)
        # recovered control is identically zero, so the trajectories must
        # agree with the uncontrolled collocation solve
        assert abs(sol.R[-1] - state.final_radius()) < 1e-5

    def test_control_samples_are_bang_bang(self):
        s = build_setup(6, 6)
        sol = indirect.solve_indirect(s, P, n_steps=200)
        assert sol.converged
        on_bound = (sol.phi == 0.0) | (sol.phi == P.Kbound)
        assert np.all(on_bound)

    def test_returned_vector_is_integrated_once(self, monkeypatch):
        sweeps = []
        integrate = indirect._integrate_with_control

        def counted(*args):
            sweeps.append(args)
            return integrate(*args)

        monkeypatch.setattr(indirect, "_integrate_with_control", counted)
        sol = indirect.solve_indirect(build_setup(4, 4), P.decoupled(), n_steps=100)
        assert sol.newton_iterations == 0 and len(sweeps) == 1
        # the kept trajectory is the one a fresh sweep of the vector gives
        y0 = indirect._initial_state(sol.shooting, sol.setup)
        _, grid, traj, phi, _, _ = integrate(y0, sol.setup, P.decoupled(), 100)
        assert np.array_equal(grid, sol.time_grid) and np.array_equal(phi, sol.phi)
        assert np.array_equal(traj[:, 6 * 4], sol.R)

    def test_sentinel_start_surfaces_its_integration_error(self):
        # both sweeps of the zero vector blow up; whether or not Newton steps
        # are left, the failure is raised, never returned as a trajectory nor
        # reported as a singular Jacobian
        for max_iter in (0, indirect.SHOOT_MAX_ITER):
            with np.errstate(all="ignore"), pytest.raises(indirect.IntegrationError):
                indirect.solve_indirect(build_setup(4, 4), P.with_overrides(eps=0.999),
                                        max_iter=max_iter, n_steps=50)

    def test_sentinel_trial_is_never_accepted(self, monkeypatch):
        # a start residual above the sentinel, an identity Jacobian and a
        # line search whose every trial blows up: no trial may be kept
        s, pd = build_setup(2, 2), P.decoupled()
        sweep = indirect._shoot(indirect.ShootingVector(np.zeros(7)), s, pd, 10)[1]

        def shoot(sv, *args):
            if np.max(np.abs(sv.s)) <= indirect.JAC_STEP:
                return np.full(7, 1e7) + sv.s, sweep
            return np.full(7, indirect.RESIDUAL_SENTINEL), None

        monkeypatch.setattr(indirect, "_shoot", shoot)
        sol = indirect.solve_indirect(s, pd, n_steps=10)
        assert not sol.converged and sol.residual_norm == 1e7
        assert np.array_equal(sol.shooting.s, np.zeros(7))

    def test_trajectory_shapes(self):
        s = build_setup(4, 4)
        sol = indirect.solve_indirect(s, P, n_steps=100)
        assert sol.time_grid.shape == (101,)
        assert sol.blocks[:, 0].shape == (101, 4)
        assert sol.field_nodes("L").shape == (101, 4)
        assert sol.phi.shape == (101,)
