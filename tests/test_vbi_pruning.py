"""Pruning inside the engine: the run matches the loop that keeps every
vector K wide, a run where no device meets the rule is the unpruned
iteration bit for bit, pruned devices stay out for good, true devices whose
columns still grow are kept, and the solve on the devices left is the q(X)
of that subsystem: a reference block sweep on the devices left, blocked
afresh."""

import dataclasses
from functools import partial

import numpy as np
import pytest

from block_reference import dense_gram, reference_sweep
from leojadce import harness, signals, vbi
from leojadce.config import ScenarioConfig
from leojadce.tensors import khatri_rao
from trial_scene import four_device_scene, trial_scene

K = 40
# L = 16 < K and L = 64 > K
SHORT, LONG = (4, 4), (8, 8)


def k500_samples(dims, snr_db):
    """The preambles and samples of trial 0 of the K=500 scene at master
    seed 0, as harness.run_trial draws them."""
    s = trial_scene(500, dims, snr_db, 0)
    return s.p, s.Y


def k_wide_run(p, Y, prunes=True):
    """The run loop with every vector K wide, the reference of vbi.run: the
    q(X) update solves for the devices in ``active`` and is scattered back
    to K, so a pruned device keeps a zero column, c_diag = 0 and the rate
    EPS, and the stop rule reads the mean of all K columns. With ``prunes``
    false every device stays in the solve. It reads the engine's settings
    from :mod:`leojadce.vbi` when called. Returns a vbi.EngineResult."""
    kr = khatri_rao(p)
    n = kr.shape[1]
    grams = vbi.precompute_gram(p)
    y_energy = float(np.vdot(Y, Y).real)
    s = vbi.init_posterior(kr, Y, y_energy)
    active, kr_a = np.arange(n), kr
    col_energy = np.sum(np.abs(s.M_X) ** 2, axis=0)
    trace, converged = [], False
    for it in range(1, vbi.MAX_ITERS + 1):
        prev, prev_col_energy = s.M_X, col_energy
        out = vbi.update_qX(dataclasses.replace(s, M_X=s.M_X[:, active], a_v=s.a_v[active]),
                            grams, kr_a)
        M_X, c_diag = np.zeros_like(s.M_X), np.zeros(n)
        M_X[:, active], c_diag[active] = out.M_X, out.c_diag
        s = dataclasses.replace(out, M_X=M_X, c_diag=c_diag, a_v=s.a_v)
        col_energy = np.sum(np.abs(s.M_X) ** 2, axis=0)
        s = vbi.update_qv(s, col_energy)
        s = vbi.update_qbeta(s, y_energy)
        trace.append((it, s.a_beta - vbi.EPS, float(np.max(col_energy)), len(active),
                      s.E_beta))
        denom = float(np.linalg.norm(prev))
        if denom > 0 and float(np.linalg.norm(s.M_X - prev)) / denom < vbi.REL_TOL:
            converged = True
            break
        if not (prunes and vbi.PRUNE_FROM_ITER <= it < vbi.MAX_ITERS):
            continue
        drop = vbi.prune(s.E_v[active], col_energy[active], prev_col_energy[active])
        if drop.any():
            active = active[~drop]
            kr_a = np.take(kr, active, axis=1)
            grams = vbi.precompute_gram(tuple(a[:, active] for a in p))
            s = dataclasses.replace(s, resid=Y.T - s.M_X[:, active] @ kr_a.T)
    return vbi.EngineResult(state=s, n_iters=it, converged=converged, trace=trace)


def assert_same_run(result, ref):
    assert result.n_iters == ref.n_iters
    assert result.converged == ref.converged
    assert result.trace == ref.trace
    for field in dataclasses.fields(ref.state):
        np.testing.assert_array_equal(getattr(result.state, field.name),
                                      getattr(ref.state, field.name), err_msg=field.name)


# the K=40, L=64 scenes at sigma^2 1e-2 and 1e-3, and a K=500, L=400 trial
STOP_SCENES = {
    **{f"L64-{sigma_n2}-seed{seed}": partial(four_device_scene, LONG, sigma_n2, seed=seed)
       for sigma_n2 in (1e-2, 1e-3) for seed in range(3)},
    "K500-L400-20dB": partial(k500_samples, (20, 20), 20.0),
}


@pytest.mark.parametrize("rel_tol", [1e-2, 3e-3, 1e-3])
@pytest.mark.parametrize("make", STOP_SCENES.values(), ids=STOP_SCENES.keys())
def test_run_matches_the_k_wide_loop_bit_for_bit(make, rel_tol, monkeypatch):
    # the stop rule reads the change of the mean of all K columns, in which
    # a device pruned after the previous iteration moved to zero; a run that
    # leaves those columns out of the change stops early on 4 of these 21:
    # at REL_TOL 1e-2 after 7 iterations instead of 8 (L64-0.01-seed0) and
    # after 17 instead of 21 (K500-L400-20dB)
    monkeypatch.setattr(vbi, "REL_TOL", rel_tol)
    p, Y = make()[:2]
    ref = k_wide_run(p, Y)
    assert_same_run(vbi.run(p, khatri_rao(p), Y), ref)
    # every scene prunes at the engine's REL_TOL
    if rel_tol == 1e-3:
        assert ref.trace[-1][3] < p[0].shape[1]


@pytest.mark.parametrize("make, max_iters", [
    (lambda: four_device_scene(SHORT, 0.05)[:2], 4),
    (lambda: four_device_scene(LONG, 0.05)[:2], 4),
    # the L=100, 10 dB trial of the short-preamble benchmark scene, at the cap
    # of the engine
    (lambda: k500_samples((10, 10), 10.0), None),
], ids=["L16-4-iters", "direct-4-iters", "L100-10dB"])
def test_run_without_pruning_is_the_unpruned_iteration_bit_for_bit(make, max_iters,
                                                                   monkeypatch):
    if max_iters is not None:
        monkeypatch.setattr(vbi, "MAX_ITERS", max_iters)
    p, Y = make()
    result = vbi.run(p, khatri_rao(p), Y)
    assert [row[3] for row in result.trace] == [p[0].shape[1]] * result.n_iters
    assert_same_run(result, k_wide_run(p, Y, prunes=False))


# both prune, cut KR's columns and block the devices left afresh
PRUNING = [(LONG, 1e-2), (SHORT, 1e-3)]


def states_of(p, Y):
    """The run on (p, Y), and its start followed by its state after each
    iteration n, taken from a run with MAX_ITERS = n: no pruning step
    follows a run's last iteration, so that run ends in the state the full
    run held after iteration n, before it pruned."""
    kr = khatri_rao(p)
    result = vbi.run(p, kr, Y)
    states = [vbi.init_posterior(kr, Y, float(np.vdot(Y, Y).real))]
    with pytest.MonkeyPatch.context() as mp:
        for n in range(1, result.n_iters + 1):
            mp.setattr(vbi, "MAX_ITERS", n)
            states.append(vbi.run(p, kr, Y).state)
    return result, states


@pytest.mark.parametrize("make, prunes", [
    (lambda: four_device_scene(SHORT, 0.05)[:2], True),
    (lambda: four_device_scene(LONG, 0.05)[:2], True),
    (lambda: k500_samples((10, 10), 10.0), False),
], ids=["L16", "direct", "L100-10dB"])
def test_capped_run_replays_the_uncapped_run(make, prunes, monkeypatch):
    # what states_of relies on: a run with MAX_ITERS = n repeats the first
    # n iterations of the uncapped run bit for bit, pruning steps included
    p, Y = make()
    kr = khatri_rao(p)
    full = vbi.run(p, kr, Y)
    assert (full.trace[-1][3] < kr.shape[1]) == prunes
    for n in range(1, full.n_iters + 1):
        monkeypatch.setattr(vbi, "MAX_ITERS", n)
        capped = vbi.run(p, kr, Y)
        assert capped.n_iters == n
        assert capped.trace == full.trace[:n]
        assert capped.converged == (full.converged and n == full.n_iters)
    # at the uncapped run's length, both runs end in the same state
    for field in dataclasses.fields(full.state):
        np.testing.assert_array_equal(getattr(capped.state, field.name),
                                      getattr(full.state, field.name))


@pytest.mark.parametrize("dims, sigma_n2", PRUNING)
def test_pruned_devices_stay_out(dims, sigma_n2):
    p, Y, _ = four_device_scene(dims, sigma_n2)
    result, states = states_of(p, Y)
    kr = khatri_rao(p)
    n_active = [row[3] for row in result.trace]
    assert n_active[-1] < K
    assert n_active == sorted(n_active, reverse=True)
    pruned = np.zeros(K, dtype=bool)
    for it, s in enumerate(states[1:], start=1):
        zero = np.all(s.M_X == 0, axis=0)
        assert np.all(zero[pruned]), f"a pruned column came back at iteration {it}"
        assert np.count_nonzero(~zero) == n_active[it - 1]
        np.testing.assert_array_equal(s.c_diag == 0, zero)
        # a pruned device has a zero column and c_diag = 0: its rate is EPS
        assert np.all(s.a_v[zero] == vbi.EPS)
        # the kept residual is that of the devices left, formed afresh
        R = Y.T - s.M_X @ kr.T
        assert np.linalg.norm(s.resid - R) <= 1e-12 * np.linalg.norm(R)
        pruned = zero
    assert pruned.any()


@pytest.mark.parametrize("dims, sigma_n2", PRUNING)
def test_active_set_solve_matches_dense_inverse(dims, sigma_n2):
    # each iteration's q(X) from the previous iteration's E[beta] and E[v],
    # on the devices whose columns it left nonzero: one reference sweep from
    # the previous mean of those devices, blocked afresh, with the dense
    # inverse of each block's system
    p, Y, _ = four_device_scene(dims, sigma_n2)
    _, states = states_of(p, Y)
    G = dense_gram(p)
    kr = khatri_rao(p)
    checked = 0
    for before, s in zip(states, states[1:]):
        a = np.flatnonzero(np.any(s.M_X != 0, axis=0))
        M_X, c_diag, tr_GC, _ = reference_sweep(G[np.ix_(a, a)], kr[:, a], Y.T, before.E_beta,
                                                before.E_v[a], before.M_X[:, a])
        assert np.linalg.norm(s.M_X[:, a] - M_X) <= 1e-9 * np.linalg.norm(M_X)
        np.testing.assert_allclose(s.c_diag[a], c_diag, rtol=1e-9, atol=0)
        assert s.tr_GC == pytest.approx(tr_GC, rel=1e-9)
        checked += len(a) < K
    assert checked > 0


@pytest.mark.parametrize("dims, sigma_n2", PRUNING)
def test_pruning_keeps_the_call_counts(monkeypatch, dims, sigma_n2):
    # vbi.run reads the caller's KR and forms no Khatri-Rao product, with or
    # without pruning
    p, Y, _ = four_device_scene(dims, sigma_n2)
    kr, formed = khatri_rao(p), []
    for module in (signals, vbi):
        monkeypatch.setattr(module, "khatri_rao",
                            lambda mats: formed.append(len(mats)) or khatri_rao(mats))
    result = vbi.run(p, kr, Y)
    assert result.trace[-1][3] < K
    monkeypatch.setattr(vbi, "MAX_ITERS", 4)
    unpruned = vbi.run(p, kr, Y)
    assert unpruned.trace[-1][3] == K
    assert formed == []


def test_pruned_device_below_half_unit_precision_keeps_a_positive_rate():
    # run gives a pruned device the rate EPS of a zero column with
    # c_diag = 0, whatever E[v] it held when it left the solve, also one
    # below 1/2
    p, Y, _ = four_device_scene(LONG, 1e-2)
    s = vbi.run(p, khatri_rao(p), Y).state
    pruned = np.all(s.M_X == 0, axis=0)
    assert pruned.any()
    assert np.all(s.c_diag[pruned] == 0)
    assert np.all(s.a_v[pruned] == vbi.EPS)
    assert np.all(s.a_v > 0)


def nmse(M_X, X):
    return float(np.linalg.norm(M_X - X) ** 2 / np.linalg.norm(X) ** 2)


@pytest.mark.parametrize("sigma_n2, scale", [(1e-2, 20.0), (5e-2, 30.0), (1e-2, 50.0)])
def test_scaled_scenes_keep_every_true_device(sigma_n2, scale):
    # X 20, 30 and 50 times larger, as a transmit power of 400, 900 and 2500
    # makes it: the true columns grow from the unit E[v] start over many
    # iterations, while the collapsed devices' E[v] sits far above. Without
    # the test that a column has stopped growing, true device 21 was pruned
    # at iteration 9 of the first scene, and devices 21 and 0 at iterations
    # 16-17 of the second. The third failed with a negative q(v) rate while
    # the prior had a non-conjugate mean block.
    p, Y, X = four_device_scene(LONG, sigma_n2, scale)
    result = vbi.run(p, khatri_rao(p), Y)
    assert result.trace[-1][3] < K
    true = np.any(X != 0, axis=0)
    assert np.all(np.any(result.M_X[:, true] != 0, axis=0))
    # and the estimate is no worse than the unpruned iteration's
    assert nmse(result.M_X, X) <= nmse(k_wide_run(p, Y, prunes=False).M_X, X)


def test_paper_scale_trial_converges_within_twenty_iterations():
    cfg = ScenarioConfig(K=500, M=8, dims=(20, 20), snr_db=30.0, master_seed=100,
                         algos=("vbi",), trials=1)
    (record,), _ = harness.run_trial(cfg, "snr", "30", 0)
    assert not record.failed, record.error
    assert record.iters < 20
