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
        FL, FH, FF, G12, G32, G11, G31 = kernels.eval_state_grids(
            rho, Rt, vin, v, L, H, F, phi, P)
        for i in range(4):
            for l in range(3):
                fields = {"L": L[i, l], "H": H[i, l], "F": F[i, l], "v": v[i, l]}
                assert np.isclose(
                    FL[i, l],
                    model.rhs("fL", rho[i], 0.0, Rt[l], vin[l], fields, phi[l], P),
                    rtol=1e-12)
                assert np.isclose(
                    FF[i, l],
                    model.rhs("fF", rho[i], 0.0, Rt[l], vin[l], fields, phi[l], P),
                    rtol=1e-12)
                assert np.isclose(
                    G32[i, l],
                    model.coeff("g32", rho[i], Rt[l], vin[l], v[i, l], P),
                    rtol=1e-12)
        assert np.allclose(G11, model.coeff("g11", 0.0, Rt, 0.0, 0.0, P))

    def test_occlusion_guard(self):
        rho, Rt, vin, v, L, H, F, phi = _random_inputs(4, 3, seed=2)
        Rt[1] = 1.0
        with pytest.raises(model.OcclusionError):
            kernels.eval_state_grids(rho, Rt, vin, v, L, H, F, phi, P)

    def test_backend_name_reports_selection(self):
        assert kernels.backend_name() == "numpy"
