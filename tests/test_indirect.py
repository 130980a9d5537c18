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
        with np.errstate(over="ignore"), pytest.raises(indirect.IntegrationError):
            indirect.rk4_integrate(
                lambda t, y: y * y, np.array([10.0]), grid)


class TestOdeRhs:
    def test_decoupled_equilibrium(self):
        s = build_setup(4, 4)
        y = np.zeros(6 * 4 + 2)
        dy = indirect.ode_rhs(-1.0, y, s, model.Points(s.rho, P.decoupled()), phi=0.0)
        assert np.max(np.abs(dy)) < 1e-12

    def test_zero_adjoint_stays_zero(self):
        # with zero adjoint data the adjoint blocks have zero derivative
        s = build_setup(4, 4)
        rng = np.random.default_rng(3)
        y = np.zeros(6 * 4 + 2)
        y[:12] = rng.normal(size=12) * 1e-5  # generic state coefficients
        y[24] = 0.05  # R
        dy = indirect.ode_rhs(0.0, y, s, model.Points(s.rho, P), phi=0.0)
        assert np.max(np.abs(dy[12:24])) < 1e-12  # beta blocks
        assert abs(dy[25]) < 1e-12  # P_R

    def test_control_enters_state_blocks_only(self):
        s = build_setup(4, 4)
        rng = np.random.default_rng(5)
        y = np.zeros(6 * 4 + 2)
        y[:12] = rng.normal(size=12) * 1e-5
        pts = model.Points(s.rho, P)
        d0 = indirect.ode_rhs(0.0, y, s, pts, phi=0.0)
        d1 = indirect.ode_rhs(0.0, y, s, pts, phi=P.Kbound)
        # the control multiplies the monocyte recruitment source
        assert np.max(np.abs(d0 - d1)) > 0.0
        assert np.allclose(d0[12:26], d1[12:26])

    def test_one_frame_per_call(self, monkeypatch):
        # one occlusion check, each exponential at most once (exp(+-sl),
        # exp(+-sf) and exp(+-sz)) and each of the six saturation
        # denominators guarded once: three of the exp(+s) fields, three of
        # the exp(-s) fields
        s = build_setup(4, 4)
        y = np.random.default_rng(7).normal(size=6 * 4 + 2) * 1e-3
        calls = {"check": 0, "exp": 0}
        guarded = []
        check, exp, guard = model._check_occlusion, np.exp, model._guard

        def counting(name, fn):
            def wrapped(*a, **k):
                calls[name] += 1
                return fn(*a, **k)
            return wrapped

        def naming(names, value):
            guarded.extend(names)
            return guard(names, value)

        monkeypatch.setattr(model, "_check_occlusion", counting("check", check))
        monkeypatch.setattr(model.np, "exp", counting("exp", exp))
        monkeypatch.setattr(model, "_guard", naming)
        indirect.ode_rhs(0.0, y, s, model.Points(s.rho, P), phi=0.0)
        assert calls["check"] == 1 and calls["exp"] <= 6
        assert len(guarded) == len(set(guarded)) == 6

    @pytest.mark.parametrize("N, phi", [(4, 0.0), (4, P.Kbound),
                                        (8, 0.0), (8, P.Kbound)])
    def test_matches_recorded_values(self, N, phi):
        # ODE_RHS_REFERENCE holds the values of the formulas as printed, before
        # they were regrouped into stacked fields and shared subexpressions:
        # each block (six coefficient blocks, R, P_R) agrees to 1e-13 of its
        # sup norm
        s = build_setup(N, N)
        dy = indirect.ode_rhs(0.1, _packed(N), s, model.Points(s.rho, P), phi)
        cuts = [N, 2 * N, 3 * N, 4 * N, 5 * N, 6 * N, 6 * N + 1]
        ref_blocks = np.split(ODE_RHS_REFERENCE[N, phi], cuts)
        for got, ref in zip(np.split(dy, cuts), ref_blocks):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestSwitchingCheck:
    def test_occluded_state_raises(self):
        s = build_setup(4, 4)
        y = np.zeros(6 * 4 + 2)
        y[6 * 4] = 1.0 - P.eps
        with pytest.raises(model.OcclusionError):
            indirect._xi_at_inner(y, s, model.Points(-1.0, P))


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

    def test_sentinel_probe_ends_newton(self, monkeypatch):
        # one Jacobian probe blows up: its column would be about 1e12, and
        # Newton must stop with the start vector instead of stepping on it
        s, pd = build_setup(2, 2), P.decoupled()
        sweep = indirect._shoot(indirect.ShootingVector(np.zeros(7)), s, pd, 10)[1]
        start = np.full(7, 1e-3)

        def shoot(sv, *args):  # the start residual; every trial improves on it
            return (0.5 * start if sv.s.any() else start), sweep

        def probe(sv, *args):
            if sv.s[3] != 0.0:
                return np.full(7, indirect.RESIDUAL_SENTINEL)
            return start + sv.s

        monkeypatch.setattr(indirect, "_shoot", shoot)
        monkeypatch.setattr(indirect, "shooting_residual", probe)
        sol = indirect.solve_indirect(s, pd, n_steps=10)
        assert not sol.converged and sol.newton_iterations == 1
        assert np.array_equal(sol.shooting.s, np.zeros(7))

    def test_trajectory_shapes(self):
        s = build_setup(4, 4)
        sol = indirect.solve_indirect(s, P, n_steps=100)
        assert sol.time_grid.shape == (101,)
        assert sol.blocks[:, 0].shape == (101, 4)
        assert sol.field_nodes("L").shape == (101, 4)
        assert sol.phi.shape == (101,)


def _packed(N):
    """A packed state/adjoint vector with generic blocks, R = 0.03, P_R = 0.2."""
    rng = np.random.default_rng(N)
    y = np.empty(6 * N + 2)
    y[:3 * N] = rng.normal(size=3 * N) * 1e-4
    y[3 * N:6 * N] = rng.normal(size=3 * N) * 1e-2
    y[6 * N:] = 0.03, 0.2
    return y


# indirect.ode_rhs(0.1, _packed(N), build_setup(N, N), ..., phi) at the defaults
ODE_RHS_REFERENCE = {
    (4, 0.0): np.array([
        -0.0010560827666108654, 0.0014294006075481265, -0.0035496528636613373,
        -0.002791421017547938, 0.0006994338457567623, -0.0019935077708663775,
        0.003054548569045124, -0.0013360456266002618, 0.0006176467180472511,
        -7.645398495137981e-05, 6.464918275864332e-06, -0.0006146901470840581,
        0.308656661104661, -0.6394578373528623, 0.525065976722289,
        0.6063445019953493, -9.298998773951371e-07, 0.10154284974654279,
        -0.3617625803732412, -0.20190774144468665, -0.030899229371890543,
        -0.04623884398461771, 0.08183454640787945, -0.09207247768441329,
        -0.05163199738038677, -0.023895650624189697]),
    (4, P.Kbound): np.array([
        -0.0010560827666108654, 0.0014294006075481265, -0.0035496528636613373,
        -0.002791421017547938, 0.0007003704744817619, -0.001993898383760963,
        0.003054643481979246, -0.0013369723065411684, 0.0006184286870654706,
        -7.65747291756096e-05, 6.347946969683537e-06, -0.0006154551980055227,
        0.308656661104661, -0.6394578373528623, 0.525065976722289,
        0.6063445019953493, 2.8013684986675656e-06, 0.10154144708135222,
        -0.3617625409377259, -0.20191016831900788, -0.03104443365916216,
        -0.04618177076828107, 0.08182288947887252, -0.0921186487614794,
        -0.05163199738038677, -0.023895650624189697]),
    (8, 0.0): np.array([
        0.0026352925769222873, -0.009197414043847146, 0.020748350007784886,
        -0.017225180969631878, 0.04968617273347667, -0.02131590658145014,
        0.05146471077141302, -0.026713649670197268, 0.0017660041622719305,
        -0.004640202852626952, 0.004621071923252804, -0.01751908256242673,
        0.009320474006511524, -0.04973394864071296, 0.02303358999733183,
        -0.030504984781893944, 0.0002777350745368235, -0.0006461044963135062,
        0.00036253556468922803, 6.819419263370051e-05, -9.846081205190909e-05,
        -0.0001605609970031649, 0.0006743950077066471, -0.00023143534688094397,
        0.15270467035060042, -0.535868602940176, 0.09792815716393377,
        -0.6335149205380519, -2.9138668572079642, 0.8005616188543224,
        -5.939551923375834, -3.6875405396492127, 0.12274463992863624,
        -0.11409834028289098, -0.16842254374946145, 0.24003952483482377,
        -0.9007491591705241, -3.6492580552205784, -6.655205517530651,
        -3.2494982446715155, 0.041741921536246826, -0.017339390327257707,
        -0.03818639288777894, -0.05736009822589298, 0.07209539771366295,
        -0.07235942539073803, 0.055911923541621715, 0.10356774295532124,
        -0.002243626244378639, -0.023984390378293276]),
    (8, P.Kbound): np.array([
        0.0026352925769222873, -0.009197414043847146, 0.020748350007784886,
        -0.017225180969631878, 0.04968617273347667, -0.02131590658145014,
        0.05146471077141302, -0.026713649670197268, 0.0017661004537068287,
        -0.004641144816225481, 0.004621686649282953, -0.017519006178720643,
        0.009320330885552567, -0.049734215135129545, 0.023034661445249682,
        -0.03050531278255581, 0.00027774932000616153, -0.0006468331237092667,
        0.00036295570574587774, 6.834430476055775e-05, -9.864221895099822e-05,
        -0.00016068869349326686, 0.0006752169317420425, -0.00023160022606949612,
        0.15270467035060042, -0.535868602940176, 0.09792815716393377,
        -0.6335149205380519, -2.9138668572079642, 0.8005616188543224,
        -5.939551923375834, -3.6875405396492127, 0.12274579583096265,
        -0.11409848141492974, -0.16842310421211246, 0.24003894028093645,
        -0.9007483353859346, -3.6492582234685185, -6.655206006724573,
        -3.2495000789838944, 0.041789850705076, -0.01728259351082697,
        -0.038315847092145944, -0.05733533417331947, 0.07217639516056246,
        -0.07240518851111456, 0.05582373503913876, 0.10355697885979473,
        -0.002243626244378639, -0.023984390378293276]),
}
