"""Box-constrained SQP driver, FD gradients and the QP subproblem."""

from dataclasses import replace

import numpy as np
import pytest

from plaquectrl.nlp import (
    MAX_BACKTRACKS,
    NlpOptions,
    NlpProblem,
    fd_gradient,
    projected_gradient,
    qp_subproblem,
    sqp_minimize,
)


def _problem(f, lower, upper, **opts):
    """A problem whose oracle applies the pointwise objective ``f`` row by row."""
    lower = np.asarray(lower, dtype=float)
    return NlpProblem(dimension=lower.size, lower=lower,
                      upper=np.asarray(upper, dtype=float),
                      objective=lambda X: np.array([f(x) for x in X]),
                      options=NlpOptions(**opts))


class TestFdGradient:
    def test_quadratic(self):
        p = _problem(lambda x: float(x[0] ** 2), [0.0], [1.0])
        g, _ = fd_gradient(p, np.array([0.5]))
        assert abs(g[0] - 1.0) < 1e-8

    def test_constant(self):
        p = _problem(lambda x: 3.0, [0.0, 0.0], [1.0, 1.0])
        assert np.all(fd_gradient(p, np.array([0.2, 0.9]))[0] == 0.0)

    def test_one_sided_at_upper_bound(self):
        p = _problem(lambda x: float(np.sum(x)), [0.0, 0.0], [1.0, 1.0])
        g, _ = fd_gradient(p, np.array([1.0, 1.0]))
        assert np.allclose(g, 1.0, atol=1e-6)

    def test_matches_analytic_on_quadratic_relative(self):
        A = np.diag([1.0, 3.0, 0.5])
        f = lambda x: float(0.5 * x @ A @ x)
        p = _problem(f, [-2.0] * 3, [2.0] * 3)
        x = np.array([0.3, -0.7, 1.1])
        assert np.allclose(fd_gradient(p, x)[0], A @ x, rtol=1e-6, atol=1e-9)

    def test_one_oracle_call_with_x_first_unless_its_value_is_given(self):
        calls = []

        def f(X):
            calls.append(X.copy())
            return X[:, 0] ** 2 + X[:, 1]

        p = NlpProblem(dimension=2, lower=np.zeros(2), upper=np.ones(2),
                       objective=f)
        x = np.array([0.5, 1.0])  # central in x0, one-sided in x1
        g, fx = fd_gradient(p, x)
        assert len(calls) == 1 and len(calls[0]) == 4
        assert np.array_equal(calls[0][0], x)
        assert fx == 1.25  # f(x), read from the same call
        assert np.allclose(g, [1.0, 1.0], atol=1e-8)
        g_given, fx_given = fd_gradient(p, x, 1.25)
        assert np.array_equal(g_given, g) and fx_given == 1.25
        assert len(calls) == 2 and len(calls[1]) == 3
        assert not any(np.array_equal(row, x) for row in calls[1])
        assert fd_gradient(p, x, 0.125)[1] == 0.125  # a given value is never recomputed

    def test_invariants_validated(self):
        with pytest.raises(ValueError):
            _problem(lambda x: 0.0, [1.0], [0.0])
        with pytest.raises(ValueError):
            _problem(lambda x: 0.0, [0.0], [1.0], grad_step=0.0)
        with pytest.raises(ValueError):
            _problem(lambda x: 0.0, [0.0], [1.0], grad_step=np.nan)

    @pytest.mark.parametrize("bad", [dict(grad_step=np.inf), dict(tol=np.inf),
                                     dict(tol=np.nan), dict(tol=0.0),
                                     dict(max_iter=-3)])
    def test_options_that_fake_convergence_rejected(self, bad):
        # grad_step = inf or tol = inf once reported convergence at x0 = 0
        # for min |x - 0.7|^2
        with pytest.raises(ValueError):
            _problem(lambda x: float(np.sum((x - 0.7) ** 2)), [0.0, 0.0],
                     [1.0, 1.0], **bad)


class TestQpSubproblem:
    def test_unconstrained_minimizer(self):
        d = qp_subproblem(np.eye(2), np.array([-1.0, 0.0]),
                          np.full(2, -10.0), np.full(2, 10.0))
        assert np.allclose(d, [1.0, 0.0], atol=1e-10)

    def test_clipped_at_bound(self):
        d = qp_subproblem(np.eye(1), np.array([-3.0]),
                          np.array([-10.0]), np.array([1.0]))
        assert np.allclose(d, [1.0], atol=1e-12)

    def test_mixed_active_set(self):
        H = np.diag([1.0, 4.0])
        d = qp_subproblem(H, np.array([-1.0, -4.0]),
                          np.full(2, -np.inf), np.array([0.5, 2.0]))
        assert np.allclose(d, [0.5, 1.0], atol=1e-10)

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        H = A @ A.T + 4.0 * np.eye(4)
        g = rng.normal(size=4)
        lo, hi = np.full(4, -0.3), np.full(4, 0.4)
        d = qp_subproblem(H, g, lo, hi)
        grad = H @ d + g
        free = (d > lo + 1e-12) & (d < hi - 1e-12)
        assert np.max(np.abs(grad[free]), initial=0.0) < 1e-9
        assert np.all(d >= lo - 1e-12) and np.all(d <= hi + 1e-12)
        # bound multipliers have the right sign
        assert np.all(grad[d >= hi - 1e-12] <= 1e-9)
        assert np.all(grad[d <= lo + 1e-12] >= -1e-9)


class TestSqpMinimize:
    def test_interior_quadratic(self):
        p = _problem(lambda x: float((x[0] - 0.3) ** 2), [0.0], [1.0])
        r = sqp_minimize(p, np.array([0.0]))
        assert r.converged and abs(r.x[0] - 0.3) < 1e-6

    def test_bound_active_quadratic(self):
        p = _problem(lambda x: float((x[0] - 2.0) ** 2), [0.0], [1.0])
        r = sqp_minimize(p, np.array([0.0]))
        assert abs(r.x[0] - 1.0) < 1e-8

    def test_rosenbrock_in_box(self):
        f = lambda x: float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)
        p = _problem(f, [0.0, 0.0], [2.0, 2.0], max_iter=200)
        r = sqp_minimize(p, np.array([0.0, 0.0]))
        assert r.fun < 1e-6

    def test_trace_strictly_decreasing_and_feasible(self):
        f = lambda x: float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)
        p = _problem(f, [0.0, 0.0], [2.0, 2.0], max_iter=200)
        r = sqp_minimize(p, np.array([0.0, 0.0]))
        fs = [fv for _, fv in r.trace]
        assert all(b < a for a, b in zip(fs, fs[1:]))
        for x, _ in r.trace:
            assert np.all(x >= -1e-14) and np.all(x <= 2.0 + 1e-14)

    def test_flat_objective_never_raises(self):
        p = _problem(lambda x: 1.0, [0.0] * 3, [1.0] * 3)
        r = sqp_minimize(p, np.array([0.5, 0.5, 0.5]))
        assert r.converged and r.fun == 1.0

    def test_max_iter_zero_returns_initial(self):
        p = _problem(lambda x: float(x[0] ** 2), [0.0], [1.0], max_iter=0)
        r = sqp_minimize(p, np.array([0.7]))
        assert r.x[0] == 0.7 and r.iterations == 0

    @pytest.mark.parametrize("max_iter, x0", [(0, 0.0), (1, 0.5)])
    def test_stationary_at_the_cap_is_converged(self, max_iter, x0):
        # f(x) = x on [0, 1]: the minimizer x = 0 is a bound, reached either at
        # the start with no iteration allowed or by the last allowed step; only
        # the test on the returned iterate can call either run converged
        p = _problem(lambda x: float(x[0]), [0.0], [1.0], max_iter=max_iter)
        r = sqp_minimize(p, np.array([x0]))
        assert r.x[0] == 0.0 and r.iterations == max_iter
        assert r.converged is True
        assert r.message == "projected gradient below tolerance"

    def test_line_search_stall_keeps_the_start(self):
        # the first call, x0 and its FD probes, reads f = -sum(x - x0), a
        # descent direction; every line-search point then reads 1 > f(x0) = 0
        x0, calls = np.array([0.5, 0.5]), []

        def f(X):
            calls.append(X)
            return -np.sum(X - x0, axis=1) if len(calls) == 1 else np.ones(len(X))

        p = NlpProblem(dimension=2, lower=np.zeros(2), upper=np.ones(2), objective=f)
        r = sqp_minimize(p, x0)
        assert r.message == "line search stalled" and r.converged is False
        assert np.array_equal(r.x, x0) and r.fun == 0.0
        assert r.iterations == 1 and len(r.trace) == 1
        assert r.evaluations == 1 + 2 * 2 + MAX_BACKTRACKS
        assert r.oracle_calls == len(calls) == 1 + MAX_BACKTRACKS

    def test_infeasible_start_projected(self):
        p = _problem(lambda x: float((x[0] - 0.3) ** 2), [0.0], [1.0])
        r = sqp_minimize(p, np.array([5.0]))
        assert abs(r.x[0] - 0.3) < 1e-6


class TestOracleCalls:
    def test_each_gradient_is_one_call_and_no_point_repeats(self):
        calls = []

        def f(X):
            calls.append(X.copy())
            return np.sum((X - [0.3, 0.7, 2.0]) ** 2, axis=1)

        p = NlpProblem(dimension=3, lower=np.zeros(3), upper=np.ones(3),
                       objective=f)
        r = sqp_minimize(p, np.zeros(3))
        assert r.converged and np.allclose(r.x, [0.3, 0.7, 1.0], atol=1e-6)
        points = np.concatenate(calls)
        assert (r.evaluations, r.oracle_calls) == (len(points), len(calls))
        assert not any(np.array_equal(a, b) for a, b in zip(points, points[1:]))
        # one call per gradient, one per accepted point, with x0 first in the
        # first; every other call is a single line-search point
        gradients = [c for c in calls if len(c) > 1]
        searches = [c for c in calls if len(c) == 1]
        assert len(gradients) == len(r.trace)
        assert len(gradients) + len(searches) == len(calls)
        assert len(searches) >= len(r.trace) - 1
        assert np.array_equal(calls[0][0], r.trace[0][0])

    # (iterations, evaluations, oracle_calls) on the three problems of
    # acceptance criterion 8, as first recorded with f(x0) read from the first
    # gradient's oracle call.
    @pytest.mark.parametrize("f, upper, x0, max_iter, counts", [
        (lambda X: (X[:, 0] - 0.3) ** 2, [1.0], [0.9], 100, (4, 11, 7)),
        (lambda X: (X[:, 0] - 2.0) ** 2, [1.0], [0.1], 100, (2, 5, 3)),
        (lambda X: (1 - X[:, 0]) ** 2 + 100 * (X[:, 1] - X[:, 0] ** 2) ** 2,
         [2.0, 2.0], [0.0, 0.0], 200, (23, 124, 57)),
    ], ids=["interior", "bound", "rosenbrock"])
    def test_criterion_8_counts(self, f, upper, x0, max_iter, counts):
        p = NlpProblem(dimension=len(x0), lower=np.zeros(len(x0)), upper=np.array(upper),
                       objective=f, options=NlpOptions(max_iter=max_iter))
        r = sqp_minimize(p, np.array(x0))
        assert r.converged
        assert (r.iterations, r.evaluations, r.oracle_calls) == counts

    def test_gradient_callback_replaces_the_probes(self):
        # called only at points the oracle has already evaluated; the FD run
        # of the same problem takes the same steps to 1e-6
        target = np.array([0.3, 0.7, 2.0])
        points, at = [], []

        def f(X):
            points.extend(map(tuple, X))
            return np.sum((X - target) ** 2, axis=1)

        def grad(x):
            at.append(tuple(x))
            return 2.0 * (x - target)

        p = NlpProblem(dimension=3, lower=np.zeros(3), upper=np.ones(3),
                       objective=f, gradient=grad)
        r = sqp_minimize(p, np.zeros(3))
        assert r.evaluations == r.oracle_calls == len(points)
        assert at == [tuple(x) for x, _ in r.trace] and set(at) <= set(points)
        assert np.array_equal(r.gradient, grad(r.x))
        ref = sqp_minimize(replace(p, gradient=None), np.zeros(3))
        assert r.converged and np.allclose(r.x, ref.x, atol=1e-6)
        assert r.iterations == ref.iterations

    @pytest.mark.parametrize("bad", [lambda x: x[:1], lambda x: np.full(2, np.nan)],
                             ids=["wrong-shape", "non-finite"])
    def test_bad_gradient_callback_rejected(self, bad):
        p = NlpProblem(dimension=2, lower=np.zeros(2), upper=np.ones(2),
                       objective=lambda X: np.sum(X, axis=1), gradient=bad)
        with pytest.raises(ValueError, match="gradient must map"):
            sqp_minimize(p, np.zeros(2))

    def test_result_carries_the_gradient_at_x(self):
        p = _problem(lambda x: float(x[0]), [0.0], [1.0])
        r = sqp_minimize(p, np.array([0.5]))
        g, _ = fd_gradient(p, r.x)
        assert np.array_equal(r.gradient, g)
        assert np.array_equal(projected_gradient(r.x, r.gradient, p.lower, p.upper), [0.0])

    def test_pointwise_objective_rejected(self):
        p = NlpProblem(dimension=2, lower=np.zeros(2), upper=np.ones(2),
                       objective=lambda X: float(np.sum(X)))
        with pytest.raises(ValueError, match="k values"):
            sqp_minimize(p, np.zeros(2))
