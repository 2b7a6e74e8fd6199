"""Conjugation symmetry of every algorithm: run on conj(Y) and conj(A)
(VBI and SOMP also on the conjugated tensor factors), each returns the conjugate of
its estimate, bit for bit, with the same iteration count and, for SOMP, the
same support."""

import numpy as np
import pytest

from leojadce import baselines, vbi
from trial_scene import trial_scene


# K=40 at L=16 and L=64, and the paper's L=400
SCENES = [(40, (4, 4), 10.0, 3), (40, (8, 8), 30.0, 3), (500, (20, 20), 30.0, 0)]
IDS = ["K40-L16", "K40-block", "K500-block"]


@pytest.mark.parametrize("scene", SCENES, ids=IDS)
def test_vbi_returns_the_conjugate_estimate(scene):
    s = trial_scene(*scene)
    plain = vbi.run(s.p, s.A, s.Y)
    conj = vbi.run(tuple(a.conj() for a in s.p), s.A.conj(), s.Y.conj())
    assert conj.n_iters == plain.n_iters
    np.testing.assert_array_equal(conj.M_X, plain.M_X.conj())
    np.testing.assert_array_equal(conj.state.c_diag, plain.state.c_diag)


@pytest.mark.parametrize("scene", SCENES, ids=IDS)
def test_somp_returns_the_conjugate_estimate(scene):
    s = trial_scene(*scene)
    max_support = baselines.default_max_support(0.1, s.A.shape[1])
    residual_tol = baselines.somp_residual_tol(s.Y, s.sigma_n2)
    plain = baselines.somp(s.Y, s.A, s.p, max_support, residual_tol)
    conj = baselines.somp(s.Y.conj(), s.A.conj(), tuple(a.conj() for a in s.p),
                          max_support, residual_tol)
    assert plain.support and conj.support == plain.support
    np.testing.assert_array_equal(conj.X_hat, plain.X_hat.conj())


@pytest.mark.parametrize("scene", SCENES, ids=IDS)
def test_amp_returns_the_conjugate_estimate(scene):
    s = trial_scene(*scene)
    plain = baselines.amp_mmv(s.Y, s.A, 0.1)
    conj = baselines.amp_mmv(s.Y.conj(), s.A.conj(), 0.1)
    assert not plain.diverged and np.any(plain.X_hat != 0)
    assert (conj.n_iters, conj.diverged) == (plain.n_iters, plain.diverged)
    np.testing.assert_array_equal(conj.X_hat, plain.X_hat.conj())
