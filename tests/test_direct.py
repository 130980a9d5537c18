"""Fixed-point collocation solver and direct optimization."""

import inspect
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from gmres_reference import gmres_reference
from jacobian_reference import gradient_reference, jacobian_reference

from plaquectrl import cli, direct, indirect, kernels, model, verify
from plaquectrl.nlp import NlpOptions, NlpProblem, sqp_minimize
from plaquectrl.params import ModelParameters
from plaquectrl.spectral import build_setup

P = ModelParameters()
P_SLOW = ModelParameters(mu1=0.06, mu2=0.015)  # the slowest contraction measured


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

    def test_non_finite_rejected(self):
        # nan passed both range comparisons; a 4x2 fixed point on it then
        # raised a singular-operator error
        for segments, Kbound in (([np.nan, 0.5], 1.0), ([np.inf], np.inf),
                                 ([0.5], np.nan)):
            with pytest.raises(ValueError, match="finite"):
                direct.ControlVector(segments=segments, Kbound=Kbound)


class TestOperator:
    def test_pure_time_derivative_when_coefficients_vanish(self):
        s = build_setup(3, 4)
        A = direct.assemble_operator(np.zeros(4), np.zeros((3, 4)), s, P)
        expected = (2.0 / P.T) * np.kron(s.D0r.T, s.D1t.T)
        assert np.allclose(A, expected)

    def test_field_kind_selects_diffusion_coefficient(self):
        s = build_setup(2, 2)
        LH = (np.full(2, 3.0), np.zeros((2, 2)))  # (g1, G2) of the L/H operator
        F = (np.full(2, 7.0), np.zeros((2, 2)))
        A_L = direct.assemble_operator(*LH, s, P)
        A_F = direct.assemble_operator(*F, s, P)
        base = (2.0 / P.T) * np.kron(s.D0r.T, s.D1t.T)
        kron2 = np.kron(s.D2r.T, s.D0t.T)
        assert np.allclose(A_L, base - 3.0 * kron2)
        assert np.allclose(A_F, base - 7.0 * kron2)

    def test_L_and_H_share_one_operator(self):
        rng = np.random.default_rng(11)
        for N, M in [(2, 3), (5, 4), (8, 8)]:
            s = build_setup(N, M)
            Rt, vin, v = (rng.uniform(0.0, 0.2, M), rng.normal(size=M),
                          rng.normal(size=(N, M)))
            fr = model.Frame(model.Points(s.rho[:, None], P), Rt,
                             rng.normal(size=(3, N, M)) * 1e-4)
            _, LH, _ = kernels.eval_state_grids(fr, vin, v, np.zeros(M))
            A_L = direct.assemble_operator(*LH, s, P)
            A_H = direct.assemble_operator(*LH, s, P)
            assert np.array_equal(A_L, A_H)

    def test_batch_of_grids_gives_one_operator_each(self):
        # the residual Jacobian assembles the operators of two grid pairs at once
        rng = np.random.default_rng(3)
        for N, M in [(8, 8), (3, 5)]:
            s = build_setup(N, M)
            g1, G2 = rng.uniform(1.0, 5.0, (3, 1, M)), rng.normal(size=(3, N, M))
            A = direct.assemble_operator(g1, G2, s, P)
            assert A.shape == (3, N * M, N * M)
            _assert_columns_are_the_map(A, g1, G2, s)
            for b in range(3):
                assert np.array_equal(A[b], direct.assemble_operator(g1[b, 0], G2[b], s, P))

    def test_matches_kronecker_formula(self):
        rng = np.random.default_rng(5)
        for N, M in [(3, 5), (8, 8)]:
            s = build_setup(N, M)
            g1, g3 = rng.uniform(1.0, 5.0, M), rng.uniform(1.0, 5.0, M)
            G2, G32 = rng.normal(size=(N, M)), rng.normal(size=(N, M))
            for kind, g, G in (("L", g1, G2), ("F", g3, G32)):
                expected = ((2.0 / P.T) * np.kron(s.D0r.T, s.D1t.T)
                            - np.repeat(np.tile(g, N), N * M).reshape(N * M, -1)
                            * np.kron(s.D2r.T, s.D0t.T)
                            + G.reshape(-1, 1) * np.kron(s.D1r.T, s.D0t.T))
                A = direct.assemble_operator(g, G, s, P)
                assert np.max(np.abs(A - expected)) <= 1e-13 * np.max(np.abs(expected))
                _assert_columns_are_the_map(A, g, G, s)


def _assert_columns_are_the_map(A, g1, G2, s):
    """Column j of each operator in A is the matrix-free map on unit matrix j, bit for bit."""
    n = s.N * s.M
    for j, unit in enumerate(np.eye(n).reshape(n, s.N, s.M)):
        column = direct._apply_operator(g1, G2, s, P, np.broadcast_to(unit, G2.shape))
        assert np.array_equal(A[..., j], column.reshape(A.shape[:-1]))


class TestFixedPoint:
    def test_decoupled_limit_is_identically_zero(self):
        s = build_setup(6, 6)
        state = direct.fixed_point_solve(_zero_control(6), s, P.decoupled())
        assert state.converged
        assert state.iterations <= 2
        for C in state.C:
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
        Rt = state.C_R @ s.D0t
        fr = model.Frame(model.Points(s.rho[:, None], P), Rt, s.field_values(state.C))
        S, LH, FF = kernels.eval_state_grids(fr, state.v_inner, state.v_field, phi)
        for C, F, pair in zip(state.C, S, (LH, LH, FF)):
            A = direct.assemble_operator(*pair, s, P)
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

    def test_one_frame_per_pass(self, monkeypatch):
        # each pass builds one frame, and with it runs one occlusion check,
        # for its velocity solve and the next pass's grids; the zero iterate
        # that starts the iteration has one more
        calls = []
        check = model._check_occlusion
        monkeypatch.setattr(model, "_check_occlusion",
                            lambda *a: calls.append(1) or check(*a))
        s = build_setup(4, 4)
        for passes in (1, 2, 3):
            calls.clear()
            st = direct.fixed_point_solve(_zero_control(4), s, P, max_iter=passes)
            assert st.iterations == passes
            assert len(calls) == passes + 1

    def test_infinite_tolerance_rejected(self):
        # tol = inf once stopped the solve after one pass as converged
        with pytest.raises(ValueError):
            direct.fixed_point_solve(_zero_control(4), build_setup(4, 4), P, tol=np.inf)

    def test_non_finite_update_names_its_pass(self, monkeypatch):
        passes, solve = [], direct._solve_fields

        def nan_at_pass_3(*args):
            X = solve(*args)
            passes.append(1)
            if len(passes) == 3:
                X[1, 2, 3] = np.nan  # the zero control is still moving: 49 passes at 4x4
            return X

        monkeypatch.setattr(direct, "_solve_fields", nan_at_pass_3)
        with pytest.raises(direct.NonConvergenceError,
                           match="^non-finite update at iteration 3$"):
            direct.fixed_point_solve(_zero_control(4), build_setup(4, 4), P)

    def test_nan_tolerance_rejected(self):
        # a NaN tol once stopped every member after one pass as converged
        with pytest.raises(ValueError):
            direct.fixed_point_solve(_zero_control(8), build_setup(8, 8), P,
                                     tol=np.nan)

    @pytest.mark.parametrize("n", [8, 16])
    def test_final_radius_is_the_last_nodal_radius(self, n):
        # one path for R(1): J, the manifest and the last row of
        # direct_radius.csv all read the same bits
        K, setup = P.Kbound, build_setup(n, n)
        segments = [np.zeros(n), np.full(n, K), K * np.eye(n)[0], np.linspace(0.0, K, n),
                    K * (np.arange(n) % 2), K * np.eye(n)[-1], np.full(n, 0.5 * K)]
        states = [direct.fixed_point_solve(direct.ControlVector(x, K), setup, P)
                  for x in segments]
        assert [st.final_radius() for st in states] == [st.radius_nodes()[-1] for st in states]


class TestSolveDirect:
    def test_zero_budget_returns_initial_point(self):
        s = build_setup(4, 4)
        opts = NlpOptions(max_iter=0)
        control, state, value, result = direct.solve_direct(
            s, P, nlp_options=opts, fp_max_iter=400)
        assert np.allclose(control.segments, 0.0)
        assert result.iterations == 0

    @pytest.mark.parametrize("n, params", [(8, P), (4, P_SLOW)],
                             ids=["default-8", "mu1=0.06-4"])
    def test_same_result_as_sqp_on_a_pointwise_oracle(self, n, params):
        s = build_setup(n, n)
        control, state, value, result = direct.solve_direct(s, params)

        def pointwise(X):
            return np.array([direct.objective(direct.ControlVector(x, params.Kbound),
                                              s, params) for x in X])

        ref = sqp_minimize(NlpProblem(dimension=n, lower=np.zeros(n),
                                      upper=np.full(n, params.Kbound),
                                      objective=pointwise), np.zeros(n))
        assert np.max(np.abs(control.segments - ref.x)) <= 1e-12
        assert abs(value - ref.fun) <= 1e-12
        assert result.iterations == ref.iterations
        # the exact gradient sends no probes: x0, then the line-search points,
        # one per call; the FD run makes one call per accepted iterate's probes
        searches = ref.oracle_calls - len(ref.trace)
        assert result.evaluations == result.oracle_calls == 1 + searches
        assert state.converged and abs(_objective(state, params) - value) == 0.0

    def test_optimal_zero_control_reads_its_own_objective(self):
        # control_effect_sweep compares the J of x0 = 0 with a single solve of
        # the zero control strictly.
        p = replace(P, L0=0.01472650807414623, H0=0.005215785112430533)
        s = build_setup(8, 8)
        control, _, value, _ = direct.solve_direct(s, p)
        assert np.all(control.segments == 0.0)
        assert value == direct.objective(_zero_control(8), s, p)

    def test_states_carry_the_terminal_thickness(self, monkeypatch):
        # J is set where each state is built, bit for bit what final_radius
        # gives: on two fixedpoint-32x32 pool controls and every state of a
        # default 8x8 optimization
        refs = Path(__file__).resolve().parent.parent / "perfbench" / "refs.json"
        pool = json.loads(refs.read_text())["fixedpoint-32x32"]["controls"][:2]
        s32 = build_setup(32, 32)
        solve = direct.fixed_point_solve
        states = [solve(direct.ControlVector(np.array(c), P.Kbound), s32, P) for c in pool]

        def collecting(*args, **kw):
            states.append(got := solve(*args, **kw))
            return got

        monkeypatch.setattr(direct, "fixed_point_solve", collecting)
        direct.solve_direct(build_setup(8, 8), P)
        assert len(states) > 2
        for st in states:
            assert st.objective == 1.0 - st.final_radius() - P.eps

    def test_unconverged_line_search_point_raises(self, monkeypatch):
        solve, calls = direct.fixed_point_solve, []

        def first_search_point_capped(control, setup, params, **kw):
            calls.append(1)
            if len(calls) == 2:  # x0, then the first line-search point
                kw["max_iter"] = 2
            return solve(control, setup, params, **kw)

        monkeypatch.setattr(direct, "fixed_point_solve", first_search_point_capped)
        with pytest.raises(direct.NonConvergenceError,
                           match="objective fixed-point solve did not converge "
                                 "in 2 iterations"):
            direct.solve_direct(build_setup(4, 4), P_SLOW)
        assert len(calls) == 2

    def test_each_nodal_control_solved_once(self, monkeypatch):
        # 26 SQP iterations at mu1=0.06, 4x4: every point the oracle receives is
        # solved on its first nodal control only, and x0's state comes from the caller
        s, solve, sqp = build_setup(4, 4), direct.fixed_point_solve, direct.sqp_minimize
        x0_state = solve(_zero_control(4), s, P_SLOW)
        received, solved = [], []

        def nodal(x):
            return direct.ControlVector(x, P_SLOW.Kbound).values_at(s.t).tobytes()

        def recording(control, *args, **kw):
            solved.append(control.values_at(s.t).tobytes())
            return solve(control, *args, **kw)

        def watched(problem, x0):
            def oracle(X):
                received.extend(map(nodal, X))
                return problem.objective(X)

            return sqp(replace(problem, objective=oracle), x0)

        monkeypatch.setattr(direct, "fixed_point_solve", recording)
        monkeypatch.setattr(direct, "sqp_minimize", watched)
        *_, result = direct.solve_direct(s, P_SLOW, x0_state=x0_state)
        assert result.converged and result.iterations == 26
        assert nodal(np.zeros(4)) in received
        assert solved == list(dict.fromkeys(k for k in received if k != nodal(np.zeros(4))))

    def test_decoupled_optimum(self):
        s = build_setup(4, 4)
        control, state, value, result = direct.solve_direct(
            s, P.decoupled(), nlp_options=NlpOptions(max_iter=5))
        assert abs(value - (1.0 - P.eps)) < 1e-12
        assert state.converged


def _tight_state(x, setup, params):
    state = direct.fixed_point_solve(direct.ControlVector(x, params.Kbound), setup,
                                     params, tol=1e-13, max_iter=2000)
    assert state.converged
    return state


class TestResidual:
    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("params", [P, P_SLOW], ids=["default", "mu1=0.06"])
    def test_vanishes_at_a_tight_fixed_point_only(self, n, params):
        s = build_setup(n, n)
        state = _tight_state(np.full(n, 0.5), s, params)
        assert direct.residual_norm(state, params) < 1e-8
        for moved in (replace(state, C=state.C + 1e-6),
                      replace(state, C_R=state.C_R + 1e-6)):
            assert direct.residual_norm(moved, params) > 1e-4

    def test_matches_the_assembled_equations(self):
        # A(Z) C - S(Z) with the dense operators, and the boundary ODE's
        # (2/T) D1t' C_R = v(-1) solved for C_R, on a batch of two iterates
        s = build_setup(4, 4)
        states = [direct.fixed_point_solve(direct.ControlVector(x, P.Kbound), s, P, max_iter=3)
                  for x in (np.zeros(4), np.full(4, 0.7))]
        C = np.stack([st.C for st in states], axis=1)
        C_R = np.stack([st.C_R for st in states])
        phi = np.stack([st.phi for st in states])
        F, F_R, S = direct.residual(C, C_R, phi, s, P)
        for b, st in enumerate(states):
            fr = model.Frame(model.Points(s.rho[:, None], P), st.C_R @ s.D0t,
                             s.field_values(st.C))
            v_field, v_inner, _, _ = model.velocity_solve(fr, s)
            S_b, LH, FF = kernels.eval_state_grids(fr, v_inner, v_field, st.phi)
            assert np.allclose(S[:, b], S_b, rtol=1e-13, atol=0.0)
            for k, pair in enumerate((LH, LH, FF)):
                A = direct.assemble_operator(*pair, s, P)
                want = A @ st.C[k].ravel() - S_b[k].ravel()
                assert np.allclose(F[k, b].ravel(), want, rtol=0.0,
                                   atol=1e-12 * np.abs(S_b).max())
            want_R = st.C_R - np.linalg.solve((2.0 / P.T) * s.D1t.T, v_inner)
            assert np.allclose(F_R[b], want_R, rtol=0.0, atol=1e-15)


class TestGradient:
    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("params", [P, P_SLOW], ids=["default", "mu1=0.06"])
    def test_taylor(self, n, params):
        # against central differences of J, h = 1e-3, at tol-1e-13 states
        s, h = build_setup(n, n), 1e-3
        x = np.random.default_rng(n).uniform(0.1, 0.9, n)
        g = direct.gradient(_tight_state(x, s, params), s, params)
        probes = np.concatenate([x + h * np.eye(n), x - h * np.eye(n)])
        J = [_tight_state(xp, s, params).objective for xp in probes]
        fd = (np.array(J[:n]) - np.array(J[n:])) / (2.0 * h)
        assert np.max(np.abs(g - fd)) <= 1e-6 * np.max(np.abs(fd))

    @pytest.mark.parametrize("n, empty", [(4, [2]), (8, [1, 4])])
    def test_segments_without_a_node_read_exactly_zero(self, n, empty):
        s = build_setup(n, n)
        assert sorted(set(range(n)) - set(direct.segment_index(s.t, n))) == empty
        g = direct.gradient(_tight_state(np.full(n, 0.5), s, P_SLOW), s, P_SLOW)
        assert np.all(g[empty] == 0.0)
        assert np.all(np.delete(g, empty) < 0.0)

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("params", [P, P_SLOW], ids=["default", "mu1=0.06"])
    @pytest.mark.parametrize("control", ["zero", "random"])
    def test_jacobian_matches_the_column_by_column_reference(self, n, params, control):
        # Every column a central difference of the residual: it assumes no
        # time locality, so a grid term that couples time nodes fails here.
        s = build_setup(n, n)
        x = (np.zeros(n) if control == "zero"
             else np.random.default_rng(100 + n).uniform(0.0, params.Kbound, n))
        state = direct.fixed_point_solve(direct.ControlVector(x, params.Kbound), s, params)
        jac, ref = direct.residual_jacobian(state, s, params), jacobian_reference(state, s, params)
        m = ref.shape[1]  # rows of dF/dZ, then M rows of dF/dphi
        for rows, bound in ((slice(None, m), 1e-8), (slice(m, None), 1e-6)):
            assert np.abs(jac[rows] - ref[rows]).max() <= bound * np.abs(ref[rows]).max()
        g, g_ref = direct.gradient(state, s, params), gradient_reference(state, s, params)
        assert np.abs(g - g_ref).max() <= 1e-7 * np.abs(g_ref).max()

    @pytest.mark.parametrize("N, M", [(4, 4), (8, 8), (8, 16)])
    def test_one_grid_evaluation_per_gradient(self, monkeypatch, N, M):
        # one batch of 6N + 5 members (the state, +-h along 3N + 2 colors), whatever M is
        s, members = build_setup(N, M), {"grids": [], "velocity": []}
        state = direct.fixed_point_solve(_zero_control(M), s, P)
        grids, velocity = kernels.eval_state_grids, model.velocity_solve

        def count(fn, key):
            def counted(fr, *args):
                members[key].append(fr.X.shape[1])
                return fn(fr, *args)
            return counted

        monkeypatch.setattr(kernels, "eval_state_grids", count(grids, "grids"))
        monkeypatch.setattr(model, "velocity_solve", count(velocity, "velocity"))
        direct.gradient(state, s, P)
        assert members == {"grids": [6 * N + 5], "velocity": [6 * N + 5]}

    def test_non_finite_jacobian_raises(self, monkeypatch):
        # a NaN in the sources of one stepped member
        s, grids = build_setup(4, 4), kernels.eval_state_grids

        def nan_member(*args):
            S, LH, F = grids(*args)
            S[0, 1, 0, 0] = np.nan
            return S, LH, F

        state = direct.fixed_point_solve(_zero_control(4), s, P)
        monkeypatch.setattr(kernels, "eval_state_grids", nan_member)
        with pytest.raises(direct.JacobianError, match="non-finite"):
            direct.gradient(state, s, P)

    def test_singular_jacobian_raises(self, monkeypatch):
        # grids blind to every color and operators with a zero row leave
        # dF/dZ a zero column
        s, grids, assemble = build_setup(4, 4), kernels.eval_state_grids, direct.assemble_operator

        def blind(fr, *args):
            S, LH, F = grids(fr, *args)
            B = fr.X.shape[1]
            return (S[:, :1].repeat(B, axis=1),
                    *(tuple(g[:1].repeat(B, axis=0) for g in pair) for pair in (LH, F)))

        def rank_deficient(*args, **kw):
            A = assemble(*args, **kw)
            A[..., 0, :] = 0.0
            return A

        state = direct.fixed_point_solve(_zero_control(4), s, P)
        monkeypatch.setattr(kernels, "eval_state_grids", blind)
        monkeypatch.setattr(direct, "assemble_operator", rank_deficient)
        with pytest.raises(direct.JacobianError, match="singular"):
            direct.gradient(state, s, P)

    def test_sweep_solves_the_zero_control_once(self, monkeypatch):
        # solve_direct starts from the sweep's own uncontrolled state
        solve, zero = direct.fixed_point_solve, []

        def counting(control, *args, **kw):
            zero.append(not control.segments.any())
            return solve(control, *args, **kw)

        monkeypatch.setattr(direct, "fixed_point_solve", counting)
        row, = verify.control_effect_sweep([verify.DEFAULT_SWEEP_PAIRS[0]], P,
                                           build_setup(8, 8))
        assert not row["failed"] and row["sqp_converged"]
        assert zero == [True]  # the sweep's own solve; the SQP stops at x0
        assert row["objective_controlled"] == row["objective_uncontrolled"]


def _objective(state, params):
    return 1.0 - state.final_radius() - params.eps


def _assert_same_state(got, ref, params):
    """Two solves of one control: same passes, same fields, bit for bit."""
    assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
    assert got.residual_history == ref.residual_history
    for a, b in ((got.C, ref.C), (got.C_R, ref.C_R), (got.v_field, ref.v_field),
                 (got.v_inner, ref.v_inner)):
        assert np.array_equal(a, b)
    assert _objective(got, params) == _objective(ref, params)


def _grids_after(control, setup, params, steps):
    """Coefficient and source grids of the fixed-point pass after ``steps`` passes."""
    st = direct.fixed_point_solve(control, setup, params, max_iter=steps)
    fr = model.Frame(model.Points(setup.rho[:, None], params), st.radius_nodes(),
                     setup.field_values(st.C))
    return kernels.eval_state_grids(fr, st.v_inner, st.v_field,
                                    control.values_at(setup.t))


def _refined_solve(A, B):
    """np.linalg.solve, refined twice with residuals in extended precision."""
    X = np.linalg.solve(A, B)
    for _ in range(2):
        R = B.astype(np.longdouble) - A.astype(np.longdouble) @ X.astype(np.longdouble)
        X = X + np.linalg.solve(A, R.astype(float))
    return X


def _systems(grids, setup, params):
    """(kind, operator, sources, matrix-free solution) for the L/H and F systems."""
    S, LH, F = grids
    for kind, (g1, G2), sources in (("L", LH, S[:2]), ("F", F, S[2:])):
        A = direct.assemble_operator(g1, G2, setup, params)
        free = direct._solve_matrix_free(g1, G2, setup, params, sources, kind,
                                         np.zeros_like(sources), {})
        k = len(sources)
        yield kind, A, sources.reshape(k, -1).T, free.reshape(k, -1).T


def _rel_err(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


class TestMatrixFree:
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("params", [P, P_SLOW], ids=["default", "mu1=0.06"])
    def test_matches_dense_solve_at_converged_state(self, n, params):
        s = build_setup(n, n)
        grids = _grids_after(_zero_control(n), s, params, direct.FP_MAX_ITER)
        for kind, A, B, free in _systems(grids, s, params):
            assert _rel_err(free, np.linalg.solve(A, B)) <= 1e-12, kind

    def test_transient_operator_as_accurate_as_a_stable_solve(self):
        # The pass after two steps at mu1=0.06 needs the most GMRES
        # iterations.  Its L/H operator has cond 1.4e5, and np.linalg.solve
        # is itself 3.6e-11 from the refined solution there, so both are
        # held to what a backward-stable solve guarantees, cond(A) * eps.
        s = build_setup(32, 32)
        grids = _grids_after(_zero_control(32), s, P_SLOW, 2)
        for kind, A, B, free in _systems(grids, s, P_SLOW):
            bound = np.linalg.cond(A) * np.finfo(float).eps
            assert _rel_err(free, _refined_solve(A, B)) <= bound, kind

    def test_both_sides_of_the_cutoff_agree(self, monkeypatch):
        s = build_setup(16, 16)
        runs = []
        for cutoff in (s.N * s.M, s.N * s.M - 1):  # dense, then matrix-free
            monkeypatch.setattr(direct, "DENSE_MAX_UNKNOWNS", cutoff)
            runs.append(direct.fixed_point_solve(_zero_control(16), s, P))
        dense, free = runs
        assert dense.converged and free.converged
        assert dense.iterations == free.iterations
        assert abs(dense.final_radius() - free.final_radius()) <= 1e-12

    def test_operator_matrices_built_only_for_dense_solves(self):
        # 3 (N M)^2 floats: 25 MB at 32 x 32, where GMRES never needs them
        s = build_setup(16, 16)
        assert direct.fixed_point_solve(_zero_control(16), s, P).converged
        assert "operator_matrices" not in vars(s)

    def test_converges_at_64x64(self):
        # The largest grid the suite solves, about 1 s: 25 passes, each system
        # to GMRES_RTOL.  J is 0.95944402 at 16 x 16, 0.959444010 at 32 x 32
        # and 0.9594440004 at 48 x 48.
        st = direct.fixed_point_solve(_zero_control(64), build_setup(64, 64), P)
        assert st.converged and st.iterations == 25
        assert abs(_objective(st, P) - 0.9594440000714606) <= 1e-12

    def test_unconverged_gmres_raises(self, monkeypatch):
        s = build_setup(32, 32)
        S, LH, _ = _grids_after(_zero_control(32), s, P_SLOW, 2)
        monkeypatch.setattr(direct, "GMRES_MAX_ITER", 5)
        with pytest.raises(direct.NonConvergenceError,
                           match="GMRES on the L collocation system stopped"):
            direct._solve_matrix_free(*LH, s, P_SLOW, S[:2], "L", np.zeros_like(S[:2]), {})

    @pytest.mark.parametrize("name", ["L", "F"])
    def test_singular_operator_raises_a_named_error(self, name):
        # Under the suite's error::RuntimeWarning filter: no division warning first
        b = np.random.default_rng(3).standard_normal(64)
        with pytest.raises(direct.SingularOperatorError,
                           match=f"singular {name} collocation operator") as err:
            direct._gmres(lambda x: 0 * x, lambda r: r, b, name, np.zeros_like(b))
        assert (err.value.name, err.value.cond) == (name, np.inf)

    def test_non_finite_source_raises(self):
        s = build_setup(16, 16)
        S, LH, _ = _grids_after(_zero_control(16), s, P, 2)
        sources = S[:2].copy()
        sources[1, 3, 4] = np.nan
        with pytest.raises(direct.NonConvergenceError, match="residual nan"):
            direct._solve_matrix_free(*LH, s, P, sources, "L", np.zeros_like(sources), {})

    def test_non_finite_dense_source_raises(self, monkeypatch):
        # A NaN source of the dense solve was reported as a singular
        # operator of cond ~ 6e2; a finite singular operator still is one.
        s = build_setup(8, 8)
        S, LH, F = _grids_after(_zero_control(8), s, P, 2)
        sources = S.copy()
        sources[1, 3, 4] = np.nan
        with pytest.raises(direct.NonConvergenceError,
                           match="L collocation system has non-finite input"):
            direct._solve_fields(sources, LH, F, s, P, None, {})
        monkeypatch.setattr(direct, "assemble_operator", lambda *args: np.zeros((64, 64)))
        with pytest.raises(direct.SingularOperatorError,
                           match="singular L collocation operator"):
            direct._solve_fields(S, LH, F, s, P, None, {})


class _Counted:
    """A function that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


class TestPreconditioner:
    @pytest.mark.parametrize("n", [16, 32])
    def test_inverts_the_separable_operator(self, n):
        # c D0r' C D1t + (diag(a) D1r' - D2r') C D0t diag(g1): the operator
        # with G2 replaced by a(rho) g1(t), a the time median of G2 diag(1/g1)
        s = build_setup(n, n)
        _, LH, F = _grids_after(_zero_control(n), s, P, 2)
        r = np.random.default_rng(n).standard_normal((n, n))
        complex_spectra = []
        for g1, G2 in (LH, F):
            space = np.median(G2 / g1, axis=1)[:, None] * s.D1r.T - s.D2r.T
            C = direct._preconditioner(g1, G2, s, P)(r.ravel()).reshape(n, n)
            separable = (2.0 / P.T) * s.D0r.T @ C @ s.D1t + space @ C @ s.D0t * g1
            assert _rel_err(separable, r) <= 1e-10
            complex_spectra.append(np.iscomplexobj(np.linalg.eigvals(s.D0rT_inv @ space)))
        assert complex_spectra == [False, True]  # L/H real, F with complex pairs

    def test_reused_preconditioners_keep_the_fixed_point(self, monkeypatch):
        s, solve, build = build_setup(32, 32), direct._solve_matrix_free, direct._preconditioner

        def fresh(*args):  # forget the previous pass: a new preconditioner every time
            args[-1].clear()
            return solve(*args)

        def bad(*args):  # no preconditioning in place of every kept one
            if args[-1].get("precondition") is not None:
                args[-1]["precondition"] = lambda r: r
            return solve(*args)

        runs = {}
        for name, solver in (("fresh", fresh), ("reused", solve)):
            monkeypatch.setattr(direct, "_solve_matrix_free", solver)
            monkeypatch.setattr(direct, "_preconditioner", counted := _Counted(build))
            st = direct.fixed_point_solve(_zero_control(32), s, P)
            assert st.converged, name
            runs[name] = (st.iterations, _objective(st, P), counted.calls)
        passes, J, builds = runs["fresh"]
        assert builds == 2 * passes
        assert runs["reused"][0] == passes
        assert abs(runs["reused"][1] - J) <= 1e-13
        assert runs["reused"][2] < passes
        # a run on a kept preconditioner is not solved again: its failure raises
        monkeypatch.setattr(direct, "_solve_matrix_free", bad)
        with pytest.raises(direct.NonConvergenceError,
                           match=f"GMRES on the F collocation system stopped at relative "
                                 f"residual .* after {direct.GMRES_MAX_ITER} iterations"):
            direct.fixed_point_solve(_zero_control(32), s, P)

    @pytest.mark.parametrize("params", [P, P_SLOW], ids=["default", "mu1=0.06"])
    def test_each_system_solved_once_per_pass(self, params, monkeypatch):
        # L and H share one operator: GMRES runs L, H, then F, once each per pass
        passes, evaluate, gmres = [], kernels.eval_state_grids, direct._gmres

        def next_pass(*args):
            passes.append([])
            return evaluate(*args)

        def run(apply, precondition, b, name, x0):
            passes[-1].append(name)
            return gmres(apply, precondition, b, name, x0)

        monkeypatch.setattr(kernels, "eval_state_grids", next_pass)
        monkeypatch.setattr(direct, "_gmres", run)
        st = direct.fixed_point_solve(_zero_control(16), build_setup(16, 16), params)
        assert st.converged
        assert passes == [["L", "L", "F"]] * st.iterations


class TestMatrixFreeCounts:
    def test_counts_are_the_gmres_iterations_and_builds(self, monkeypatch):
        runs, gmres = [], direct._gmres

        def run(*args):
            x, its = gmres(*args)
            runs.append(its)
            return x, its

        monkeypatch.setattr(direct, "_gmres", run)
        monkeypatch.setattr(direct, "_preconditioner", build := _Counted(direct._preconditioner))
        st = direct.fixed_point_solve(_zero_control(16), build_setup(16, 16), P)
        assert st.converged and len(runs) == 3 * st.iterations
        assert (st.gmres_iterations, st.preconditioner_builds) == (sum(runs), build.calls)

    def test_dense_path_counts_nothing(self):
        st = direct.fixed_point_solve(_zero_control(8), build_setup(8, 8), P)
        assert st.converged
        assert (st.gmres_iterations, st.preconditioner_builds) == (0, 0)

    def test_median_fit_at_32x32(self):
        # fitting the drift to the time mean took 772 iterations and 15 builds
        st = direct.fixed_point_solve(_zero_control(32), build_setup(32, 32), P)
        assert st.converged
        assert st.gmres_iterations <= 740 and st.preconditioner_builds <= 13


def _gmres_system(setup, params, steps):
    """(apply, precondition, b) of GMRES's L solve in the pass after ``steps`` passes."""
    S, LH, _ = _grids_after(_zero_control(setup.M), setup, params, steps)
    systems, gmres = [], direct._gmres

    def capture(apply, precondition, b, *args):
        systems.append((apply, precondition, b))
        return gmres(apply, precondition, b, *args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(direct, "_gmres", capture)
        direct._solve_matrix_free(*LH, setup, params, S[:1], "L", np.zeros_like(S[:1]), {})
    return systems[0]


def _run_gmres(system, x0, b=None):
    """GMRES on ``system`` from ``x0``: x, operator applies, preconditioner applies."""
    apply, precondition, rhs = system
    apply, precondition = _Counted(apply), _Counted(precondition)
    x, _ = direct._gmres(apply, precondition, rhs if b is None else b, "L", x0)
    return x, apply.calls, precondition.calls


def _true_residual(system, x):
    apply, _, b = system
    return np.linalg.norm(b - apply(x))


class TestWarmStart:
    @pytest.fixture(scope="class")
    def system(self):
        return _gmres_system(build_setup(16, 16), P, 2)

    @pytest.fixture(scope="class")
    def cold(self, system):
        return _run_gmres(system, np.zeros_like(system[2]))

    def test_zero_guess_is_the_cold_solve(self, system, cold):
        # A x0 = 0 exactly, so GMRES starts from r = b as without a guess,
        # and a rejected guess then gives the same iterates bit for bit.
        apply, _, b = system
        assert not apply(np.zeros_like(b)).any()
        x, applies, preconditions = cold
        assert applies == preconditions + 1  # the guess's apply, then one per step
        rejected = _run_gmres(system, -x)  # residual 2 ||b||
        assert np.array_equal(rejected[0], x)
        assert rejected[1:] == (applies, preconditions)

    def test_warm_guess_meets_the_tolerance_in_fewer_steps(self, system, cold):
        x, applies, _ = _run_gmres(system, (1.0 + 1e-6) * cold[0])
        assert _true_residual(system, x) <= direct.GMRES_RTOL * np.linalg.norm(system[2])
        assert applies < cold[1]

    def test_guess_within_target_returned_after_one_apply(self, system, cold):
        x0 = cold[0]
        assert _true_residual(system, x0) <= direct.GMRES_RTOL * np.linalg.norm(system[2])
        x, applies, preconditions = _run_gmres(system, x0)
        assert np.array_equal(x, x0)
        assert (applies, preconditions) == (1, 0)

    def test_zero_right_hand_side_gives_zero_whatever_the_guess(self, system, cold):
        b = np.zeros_like(system[2])
        x, _, preconditions = _run_gmres(system, cold[0], b)
        assert not x.any() and preconditions == 0
        s = build_setup(16, 16)
        _, LH, _ = _grids_after(_zero_control(16), s, P, 2)
        x0 = np.stack([cold[0].reshape(16, 16)] * 2)
        assert not direct._solve_matrix_free(*LH, s, P, np.zeros((2, 16, 16)), "L", x0, {}).any()

    def test_warm_start_saves_matvecs(self, monkeypatch):
        # The previous iterate as the guess: the same passes and J as cold
        # solves, with at least a tenth fewer operator applies (930 against
        # 1,127 with this cold wrapper, 2-vCPU VM, OpenBLAS).
        s, gmres, operator = build_setup(32, 32), direct._gmres, direct._apply_operator

        def cold(apply, precondition, b, name, x0):
            return gmres(apply, precondition, b, name, np.zeros_like(b))

        runs = []
        for solver in (gmres, cold):
            monkeypatch.setattr(direct, "_gmres", solver)
            monkeypatch.setattr(direct, "_apply_operator",
                                counted := _Counted(operator))
            st = direct.fixed_point_solve(_zero_control(32), s, P)
            runs.append((st.iterations, _objective(st, P), counted.calls))
        (warm_passes, warm_J, warm_calls), (cold_passes, cold_J, cold_calls) = runs
        assert warm_passes == cold_passes == 25
        assert abs(warm_J - cold_J) <= 1e-13
        assert warm_calls <= 0.9 * cold_calls


def _both_gmres(system, x0):
    """direct._gmres and its reference on ``system``: (x, iterations) or the error."""
    runs = []
    for solver in (direct._gmres, gmres_reference):
        try:
            runs.append(solver(*system, "L", x0))
        except direct.NonConvergenceError as err:
            runs.append(str(err))
    return runs


def _assert_bit_identical(new, ref):
    if isinstance(ref, str):
        assert new == ref
    else:
        assert np.array_equal(new[0], ref[0]) and new[1] == ref[1]


class TestGmresBitIdentity:
    """GMRES on Python floats against the numpy-array reference, bit for bit."""

    @pytest.fixture(scope="class", params=[16, 32], ids=["16x16", "32x32"])
    def system(self, request):
        # The L system of the fifth pass
        s = build_setup(request.param, request.param)
        return _gmres_system(s, P, 4)

    @pytest.fixture(scope="class")
    def cold(self, system):
        new, ref = _both_gmres(system, np.zeros_like(system[2]))
        _assert_bit_identical(new, ref)
        return new

    def test_cold_start(self, cold):
        assert cold[1] > 5

    def test_warm_start(self, system, cold):
        new, ref = _both_gmres(system, (1.0 + 1e-6) * cold[0])
        _assert_bit_identical(new, ref)
        assert new[1] < cold[1]

    def test_rejected_guess(self, system, cold):
        new, ref = _both_gmres(system, -cold[0])
        _assert_bit_identical(new, ref)
        assert new[1] == cold[1]

    def test_short_restarts(self, system, cold, monkeypatch):
        monkeypatch.setattr(direct, "GMRES_RESTART", 5)
        for x0 in (np.zeros_like(cold[0]), (1.0 + 1e-6) * cold[0]):
            new, ref = _both_gmres(system, x0)
            _assert_bit_identical(new, ref)
        # past the iteration cap both raise the same error
        monkeypatch.setattr(direct, "GMRES_MAX_ITER", cap := cold[1] // 2)
        new, ref = _both_gmres(system, np.zeros_like(cold[0]))
        _assert_bit_identical(new, ref)
        assert new.endswith(f"after {cap} iterations")

    @pytest.mark.parametrize("params", [P, P_SLOW], ids=["default", "mu1=0.06"])
    def test_whole_matrix_free_fixed_point(self, params, monkeypatch):
        # Warm starts throughout, on fresh and on kept preconditioners
        s, states = build_setup(16, 16), []
        for solver in (direct._gmres, gmres_reference):
            monkeypatch.setattr(direct, "_gmres", solver)
            states.append(direct.fixed_point_solve(_zero_control(16), s, params))
        _assert_same_state(*states, params)


class TestIterationCap:
    def test_one_default_everywhere(self):
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        defaults = [default(direct.fixed_point_solve, "max_iter"),
                    default(direct.objective, "max_iter"),
                    default(direct.solve_direct, "fp_max_iter"),
                    default(verify.convergence_study, "fp_max_iter"),
                    default(verify.control_effect_sweep, "fp_max_iter"),
                    cli.SOLVER_KEYS["fp_max_iter"]]
        assert defaults == [direct.FP_MAX_ITER] * len(defaults)
        tols = [default(direct.fixed_point_solve, "tol"),
                default(direct.objective, "tol"),
                default(direct.solve_direct, "fp_tol"),
                default(verify.convergence_study, "fp_tol"),
                default(verify.control_effect_sweep, "fp_tol"),
                cli.SOLVER_KEYS["fp_tol"]]
        assert tols == [direct.FP_TOL] * len(tols)
        nlp = NlpOptions()
        assert [cli.SOLVER_KEYS[k] for k in ("sqp_tol", "sqp_max_iter")] \
            == [nlp.tol, nlp.max_iter]
        shoot = [default(indirect.solve_indirect, "tol"),
                 default(indirect.solve_indirect, "max_iter"),
                 default(indirect.solve_indirect, "n_steps"),
                 default(indirect.shooting_residual, "n_steps")]
        assert [cli.SOLVER_KEYS[k] for k in
                ("shoot_tol", "shoot_max_iter", "rk4_steps", "rk4_steps")] == shoot
        assert set(cli.SOLVER_KEYS) == {"fp_tol", "fp_max_iter", "sqp_tol",
                                        "sqp_max_iter", "shoot_tol",
                                        "shoot_max_iter", "rk4_steps"}

    def test_slow_contraction_converges_with_library_defaults(self):
        # 51 passes are needed here; a cap of 50 raised on the first oracle call
        control, state, value, result = direct.solve_direct(
            build_setup(8, 8), P_SLOW, nlp_options=NlpOptions(max_iter=0))
        assert state.converged
        assert np.isfinite(value)
