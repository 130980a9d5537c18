"""State-grid evaluation against pointwise model formulas."""

import numpy as np
import pytest

from plaquectrl import kernels, model
from plaquectrl.params import ModelParameters
from plaquectrl.spectral import build_setup

P = ModelParameters()


def _random_inputs(N, M, seed=0):
    rng = np.random.default_rng(seed)
    setup = build_setup(N, M)
    Rt = rng.uniform(0.0, 0.2, size=M)
    vin = rng.normal(size=M) * 0.05
    v = rng.normal(size=(N, M)) * 0.05
    L = rng.normal(size=(N, M)) * 1e-4
    H = rng.normal(size=(N, M)) * 1e-4
    F = rng.normal(size=(N, M)) * 1e-4
    phi = rng.uniform(0.0, 1.0, size=M)
    return setup.rho, Rt, vin, v, L, H, F, phi


class TestBackends:
    def test_matches_pointwise_model_evaluation(self):
        rho, Rt, vin, v, L, H, F, phi = _random_inputs(4, 3, seed=1)
        X = np.stack([L, H, F])
        (FL, FH, FF), (G11, G12), (G31, G32) = kernels.eval_state_grids(
            rho, Rt, vin, v, X, phi, P)
        for i in range(4):
            for l in range(3):
                point = X[:, i, l]
                assert np.isclose(
                    FL[i, l],
                    model.rhs(rho[i], Rt[l], vin[l], point, v[i, l], phi[l], P)[0],
                    rtol=1e-12)
                assert np.isclose(
                    FF[i, l],
                    model.rhs(rho[i], Rt[l], vin[l], point, v[i, l], phi[l], P)[2],
                    rtol=1e-12)
                assert np.isclose(
                    G32[i, l],
                    model.coeff(rho[i], Rt[l], vin[l], v[i, l], P)[1][1],
                    rtol=1e-12)
        assert np.allclose(G11, model.coeff(0.0, Rt, 0.0, 0.0, P)[0][0])

    def test_occlusion_guard(self):
        rho, Rt, vin, v, L, H, F, phi = _random_inputs(4, 3, seed=2)
        Rt[1] = 1.0
        with pytest.raises(model.OcclusionError):
            kernels.eval_state_grids(rho, Rt, vin, v, np.stack([L, H, F]), phi, P)

    def test_backend_name_reports_selection(self):
        assert kernels.backend_name() == "numpy"
