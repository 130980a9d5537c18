"""Polynomial bases, quadrature nodes and differentiation matrices."""

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest
from jacobi_reference import jacobi_eval

from plaquectrl.spectral import (
    CollocationSetup,
    build_bases,
    build_setup,
    legendre_gauss_nodes,
    legendre_gauss_radau_nodes,
)


def _legendre_ref(n, x):
    c = np.zeros(n + 1)
    c[n] = 1.0
    return npleg.legval(x, c)


def _shen_ref(n, x, d, kind):
    """Term-by-term jacobi_eval sums of the n Shen basis functions of ``kind``,
    and the largest magnitude of any term (the scale of their rounding)."""
    def P(m):
        return jacobi_eval(m, 0.0, 0.0, x, d)

    if kind == "space":
        terms = [(P(j - 1), -j * (j - 1) / ((j + 1) * (j + 2)) * P(j + 1))
                 for j in range(1, n + 1)]
    else:
        terms = [(P(j - 1), P(j)) for j in range(1, n + 1)]
    terms = np.array(terms)
    return terms.sum(axis=1), np.max(np.abs(terms))


class TestJacobiEval:
    def test_matches_legendre_reference(self):
        x = np.linspace(-1.0, 1.0, 41)
        for n in range(0, 12):
            got = jacobi_eval(n, 0.0, 0.0, x, 0)
            assert np.allclose(got, _legendre_ref(n, x), atol=1e-13)

    def test_derivative_against_finite_differences(self):
        h = 1e-6
        x = np.linspace(-0.95, 0.95, 17)
        for n in range(1, 10):
            d1 = jacobi_eval(n, 0.5, -0.25, x, 1)
            fd = (jacobi_eval(n, 0.5, -0.25, x + h, 0)
                  - jacobi_eval(n, 0.5, -0.25, x - h, 0)) / (2 * h)
            assert np.allclose(d1, fd, atol=1e-6)

    def test_second_derivative_against_finite_differences(self):
        h = 1e-5
        x = np.linspace(-0.9, 0.9, 11)
        for n in range(2, 8):
            d2 = jacobi_eval(n, 0.0, 0.0, x, 2)
            fd = (jacobi_eval(n, 0.0, 0.0, x + h, 0)
                  - 2 * jacobi_eval(n, 0.0, 0.0, x, 0)
                  + jacobi_eval(n, 0.0, 0.0, x - h, 0)) / h**2
            assert np.allclose(d2, fd, atol=1e-4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            jacobi_eval(-1, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            jacobi_eval(2, 0.0, 0.0, 0.0, d=3)
        with pytest.raises(ValueError):
            jacobi_eval(2, -1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            jacobi_eval(2, 0.0, 0.0, 1.5)


class TestNodes:
    @pytest.mark.parametrize("N", [*range(0, 16), 31, 32])
    def test_gauss_nodes_are_legendre_zeros(self, N):
        nodes = legendre_gauss_nodes(N)
        assert nodes.shape == (N + 1,)
        assert np.all(np.diff(nodes) > 0)
        residual = jacobi_eval(N + 1, 0.0, 0.0, nodes, 0)
        assert np.max(np.abs(residual)) < 1e-12

    @pytest.mark.parametrize("M", [*range(0, 16), 31, 32])
    def test_radau_nodes_satisfy_negated_sum_condition(self, M):
        nodes = legendre_gauss_radau_nodes(M)
        assert nodes.shape == (M + 1,)
        assert nodes[-1] == 1.0
        assert np.all(nodes > -1.0)
        # nodes are the negated zeros of J_M + J_{M+1}
        residual = (jacobi_eval(M, 0.0, 0.0, -nodes, 0)
                    + jacobi_eval(M + 1, 0.0, 0.0, -nodes, 0))
        assert np.max(np.abs(residual)) < 1e-12

    def test_gauss_matches_numpy_leggauss(self):
        ref, _ = npleg.leggauss(9)
        assert np.allclose(legendre_gauss_nodes(8), np.sort(ref), atol=1e-13)


class TestBases:
    def test_space_basis_has_zero_slope_at_endpoints(self):
        space, _ = build_bases(8, 8)
        ends = np.array([-1.0, 1.0])
        assert np.max(np.abs(space.eval(ends, 1))) < 1e-12

    def test_time_basis_vanishes_at_minus_one(self):
        _, tb = build_bases(8, 8)
        assert np.max(np.abs(tb.eval(np.array([-1.0]), 0))) < 1e-12

    def test_time_basis_value_two_at_plus_one(self):
        _, tb = build_bases(5, 5)
        assert np.allclose(tb.eval(np.array([1.0]), 0)[:, 0], 2.0)

    def test_first_space_function_is_constant_one(self):
        space, _ = build_bases(4, 4)
        x = np.linspace(-1, 1, 7)
        assert np.allclose(space.eval(x, 0)[0], 1.0)

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            build_bases(0, 4)

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("x", [0.3, -1.0, np.linspace(-1.0, 1.0, 13)],
                             ids=["scalar", "endpoint", "array"])
    def test_eval_matches_term_by_term_jacobi_sum(self, n, d, x):
        for kind, basis in zip(("space", "time"), build_bases(n, n)):
            got = basis.eval(x, d)
            ref, scale = _shen_ref(n, x, d, kind)
            assert got.shape == ref.shape == (n,) + np.shape(x)
            assert np.max(np.abs(got - ref)) <= 1e-13 * scale

    def test_eval_rejects_points_outside_the_interval(self):
        space, _ = build_bases(3, 3)
        with pytest.raises(ValueError):
            space.eval(np.array([0.0, 1.5]))


class TestSetup:
    def test_matrix_shapes_and_convention(self):
        s = build_setup(6, 5)
        assert s.D0r.shape == (6, 6) and s.D0t.shape == (5, 5)
        # row j, column k = basis function j at node k
        assert np.allclose(s.D0r[2], s.space_basis.eval(s.rho, 0)[2])

    def test_differentiation_matrices_vs_finite_differences(self):
        s = build_setup(8, 8)
        h = 1e-6
        fd = (s.space_basis.eval(s.rho + h, 0)
              - s.space_basis.eval(s.rho - h, 0)) / (2 * h)
        assert np.max(np.abs(s.D1r - fd)) < 1e-7
        # the last time node sits on the domain edge: one-sided there
        interior = s.t[:-1]
        fd_t = (s.time_basis.eval(interior + h, 0)
                - s.time_basis.eval(interior - h, 0)) / (2 * h)
        assert np.max(np.abs(s.D1t[:, :-1] - fd_t)) < 1e-7
        edge = (s.time_basis.eval(np.array([1.0]), 0)
                - s.time_basis.eval(np.array([1.0 - h]), 0)) / h
        # first-order one-sided difference: O(h * max|p''|) accuracy only
        assert np.max(np.abs(s.D1t[:, -1:] - edge)) < 1e-2

    def test_second_derivative_matrix_vs_finite_differences(self):
        s = build_setup(8, 8)
        h = 1e-5
        fd = (s.space_basis.eval(s.rho + h, 0) - 2 * s.space_basis.eval(s.rho, 0)
              + s.space_basis.eval(s.rho - h, 0)) / h**2
        assert np.max(np.abs(s.D2r - fd)) < 1e-4

    def test_field_synthesis_roundtrip(self):
        s = build_setup(5, 4)
        rng = np.random.default_rng(7)
        C = rng.normal(size=(5, 4))
        vals = s.field_values(C)
        assert np.allclose(s.eval_field(C, s.rho, s.t), vals, atol=1e-12)
        back = s.solve_space_values(vals)
        assert np.allclose(s.D0r.T @ back, vals, atol=1e-12)

    def test_solve_space_values_inverts_field_values_at_32(self):
        s = build_setup(32, 32)
        C = np.random.default_rng(8).normal(size=(32, 32))
        back = s.solve_space_values(s.field_values(C))
        assert np.max(np.abs(back - C @ s.D0t)) <= 1e-12 * np.max(np.abs(C @ s.D0t))

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_space_time_inverses(self, n):
        s = build_setup(n, n)
        eye = np.eye(n)
        assert np.allclose(s.D0rT_inv @ s.D0r.T, eye, rtol=0, atol=1e-12)
        assert np.allclose(s.D0t_inv @ s.D0t, eye, rtol=0, atol=1e-12)
        assert np.allclose(s.D0t @ s.K, s.D1t, rtol=0,
                           atol=1e-12 * np.max(np.abs(s.D1t)))

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_boundary_ode_inverse(self, n):
        s = build_setup(4, n)
        assert np.allclose(s.D1tT_inv @ s.D1t.T, np.eye(n), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_first_order_matrices_match_jacobi_vandermonde(self, n):
        s = build_setup(n, 4)
        degs = range(n + 1)
        V0 = np.column_stack([jacobi_eval(m, 0.0, 0.0, s.rho, 0) for m in degs])
        V1 = np.column_stack([jacobi_eval(m, 0.0, 0.0, s.rho, 1) for m in degs])
        at_m1 = np.array([jacobi_eval(m, 0.0, 0.0, -1.0, 0) for m in degs])
        d_at_m1 = np.array([jacobi_eval(m, 0.0, 0.0, -1.0, 1) for m in degs])
        for got, ref in ((s.V0r, V0), (s.V1r, V1), (s.V_at_m1, at_m1),
                         (s.V1_at_m1, d_at_m1)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)
        # derivative collocated at the nodes, value pinned at rho = +1 or -1
        unit = np.vstack([np.eye(n), np.zeros(n)])
        for pin, row in ((s.pin_p1, np.ones(n + 1)), (s.pin_m1, at_m1)):
            assert np.allclose(np.vstack([V1, row]) @ pin, unit, rtol=0, atol=1e-12)

    def test_time_series_at_plus_one(self):
        s = build_setup(3, 4)
        c = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.isclose(s.eval_time_series(c, 1.0)[0], float(c @ s.time_at_p1))
