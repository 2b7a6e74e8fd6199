"""Pruning inside the engine: a run where no device meets the rule is the
unpruned iteration bit for bit, pruned devices stay out for good, true
devices whose columns still grow are kept, and the solve on the devices
left is the q(X) of that subsystem: a reference block sweep on the devices
left, blocked afresh."""

import dataclasses

import numpy as np
import pytest

from block_reference import dense_gram, reference_sweep
from leojadce import harness, signals, vbi
from leojadce.channel import draw_channels
from leojadce.config import ScenarioConfig
from leojadce.signals import (gen_preambles, snr_to_noise_variance,
                              synthesize_received)
from leojadce.tensors import khatri_rao

K, M = 40, 4
# L = 16 < K and L = 64 > K
SHORT, LONG = (4, 4), (8, 8)


def scene(dims, sigma_n2, scale=1.0, seed=0):
    """Four active devices of K=40; ``scale`` multiplies X, and the noise
    with it, so the SNR stays that of ``sigma_n2``. Returns the preambles,
    the samples and X."""
    rng = np.random.default_rng(seed)
    p = gen_preambles(dims, K, rng)
    X = np.zeros((M, K), dtype=complex)
    active = rng.choice(K, 4, replace=False)
    X[:, active] = scale * (rng.standard_normal((M, 4)) + 1j * rng.standard_normal((M, 4)))
    return p, synthesize_received(khatri_rao(p), X, sigma_n2 * scale ** 2, rng), X


def harness_scene(cfg, trial=0):
    """The preambles and samples that harness.run_trial draws for ``trial``."""
    rng = harness.trial_rng(cfg.master_seed, "snr", str(cfg.snr_db), trial)
    p = gen_preambles(cfg.dims, cfg.K, rng)
    geom = harness.scenario_geometry(cfg)
    X, _ = draw_channels(geom, cfg.p_a, rng)
    return p, synthesize_received(khatri_rao(p), X, snr_to_noise_variance(cfg.snr_db), rng)


def unpruned_run(p, Y):
    """The iteration without pruning, as it stood before pruning was added:
    every device stays in the q(X) solve. It reads the engine's settings
    from :mod:`leojadce.vbi` when called. Returns (M_X, n_iters, trace)."""
    kr = khatri_rao(p)
    grams = vbi.precompute_gram(p)
    y_energy = float(np.vdot(Y, Y).real)
    s = vbi.init_posterior(kr, Y, y_energy)
    trace = []
    for it in range(1, vbi.MAX_ITERS + 1):
        prev = s.M_X
        s = vbi.update_qX(s, grams, kr)
        col_energy = np.sum(np.abs(s.M_X) ** 2, axis=0)
        s = vbi.update_qv(s, col_energy)
        s = vbi.update_qbeta(s, y_energy)
        trace.append((it, s.a_beta - vbi.EPS, float(np.max(col_energy))))
        denom = float(np.linalg.norm(prev))
        if denom > 0 and float(np.linalg.norm(s.M_X - prev)) / denom < vbi.REL_TOL:
            break
    return s.M_X, it, trace


PAPER_SHORT = ScenarioConfig(K=500, M=8, dims=(10, 10), snr_db=10.0, algos=("vbi",),
                             trials=1)


@pytest.mark.parametrize("make, max_iters", [
    (lambda: scene(SHORT, 0.05)[:2], 4),
    (lambda: scene(LONG, 0.05)[:2], 4),
    # the L=100, 10 dB trial of the short-preamble benchmark scene, at the cap
    # of the engine
    (lambda: harness_scene(PAPER_SHORT), None),
], ids=["L16-4-iters", "direct-4-iters", "L100-10dB"])
def test_run_without_pruning_is_the_unpruned_iteration_bit_for_bit(make, max_iters,
                                                                   monkeypatch):
    if max_iters is not None:
        monkeypatch.setattr(vbi, "MAX_ITERS", max_iters)
    p, Y = make()
    result = vbi.run(p, khatri_rao(p), Y)
    M_X, n_iters, trace = unpruned_run(p, Y)
    assert [row[3] for row in result.trace] == [p[0].shape[1]] * result.n_iters
    assert result.n_iters == n_iters
    assert [row[:3] for row in result.trace] == trace
    np.testing.assert_array_equal(result.M_X, M_X)


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
    (lambda: scene(SHORT, 0.05)[:2], True),
    (lambda: scene(LONG, 0.05)[:2], True),
    (lambda: harness_scene(PAPER_SHORT), False),
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
    p, Y, _ = scene(dims, sigma_n2)
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
    p, Y, _ = scene(dims, sigma_n2)
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
    p, Y, _ = scene(dims, sigma_n2)
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
    # a pruned device has a zero column and c_diag = 0, so its rate is EPS
    # whatever E[v] it had, also one below 1/2
    p, Y, _ = scene(LONG, 1e-2)
    s = vbi.run(p, khatri_rao(p), Y).state
    pruned = np.all(s.M_X == 0, axis=0)
    assert pruned.any()
    a_v = np.where(pruned, s.b_v / 0.1, s.a_v)      # E[v] = 0.1 when pruned
    out = vbi.update_qv(dataclasses.replace(s, a_v=a_v),
                        np.sum(np.abs(s.M_X) ** 2, axis=0))
    assert np.all(out.a_v[pruned] == vbi.EPS)
    assert np.all(out.a_v > 0)


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
    p, Y, X = scene(LONG, sigma_n2, scale)
    result = vbi.run(p, khatri_rao(p), Y)
    assert result.trace[-1][3] < K
    true = np.any(X != 0, axis=0)
    assert np.all(np.any(result.M_X[:, true] != 0, axis=0))
    # and the estimate is no worse than the unpruned iteration's
    assert nmse(result.M_X, X) <= nmse(unpruned_run(p, Y)[0], X)


def test_paper_scale_trial_converges_within_twenty_iterations():
    cfg = ScenarioConfig(K=500, M=8, dims=(20, 20), snr_db=30.0, master_seed=100,
                         algos=("vbi",), trials=1)
    (record,), _ = harness.run_trial(cfg, "snr", "30", 0)
    assert not record.failed, record.error
    assert record.iters < 20
