"""Mean-field variational Bayesian engine for device-state recovery.

Model: the L x M received samples are Y = KR X^T + N, where KR is the
L x K Khatri-Rao product of the preamble factors, given as the tuple
p = (A_1, ..., A_d) of l_i x K arrays, and N is white
circular complex Gaussian noise; the updates read Y through
Y_(d+1) = Y^T = X KR^T + N^T, the mode-(d+1) unfolding of the received
tensor. Each column of X has a circular complex Gaussian prior
CN(mu_k^-1 1_M, v_k^-1 I_M), with near-flat Gamma(eps, eps) hyperpriors on
mu_k, v_k and the noise precision beta. The factorized posterior is
optimized by coordinate ascent; every update below is the closed-form
optimum of its block with the other blocks fixed.

The q(mu_k) block is not conjugate: its density in u = mu^-1 is
proportional to u^(-1-eps) exp(-o u^2 + t u), whose inverse-moment ratios
evaluate to Gamma/1F1 expressions spanning huge dynamic range. They are
assembled in signed-log space (see :mod:`leojadce.specfun`). One q(mu)
update is one batched pass over the devices in the q(X) solve: the six
1F1 values are one stacked array Pochhammer series, whose entries take the
steps of the scalar series in its order and stop at their own terms (only
an x above specfun.KUMMER_SWITCH_X takes a scalar call), and the products,
sums and ratios run on (log|.|, sign) arrays, with every log and exp taken
through libm in four passes, so the results match the scalar arithmetic
bit for bit.

Memory: the engine holds only the arrays its updates read. :func:`run`
forms the operands once per call (KR, Y_(d+1) KR^*, Y_(d+1) and ||Y||^2)
and picks the q(X) path once, by :func:`woodbury_pays`. On the L x L
Woodbury path (L << K) no K x K array exists: the solve holds KR and
L x L / L x K arrays. The direct path adds the K x K Gram G and one K x K
factor buffer. On both paths q(beta) takes its fit term ||M_X KR^T||_F^2
from KR, at M L K work.

Pruning: a device whose prior precision E[v_k] has collapsed (see
:func:`prune`) leaves the q(X) solve for the rest of the run, as in the
fixed-point pruning of sparse Bayesian learning (Tipping & Faul 2003; Wipf
& Rao 2007). q(X) is the one block that couples the devices and costs K^3;
it then solves only for the active devices, on the path picked for all K.
A pruned device reports an all-zero column of M_X and c_diag = 0, adds
nothing to Tr(G C_X), and keeps the q(v) rate and the q(mu) moments it
was pruned with; q(mu) and q(v) then run only over the active devices.
Each pruning step changes the model, so the ELBO is non-decreasing only
while the active set is fixed.

scipy.linalg is imported inside the q(X) solve helpers, on their first
call, not when this module loads: its package init costs about 28 MB of
resident memory and a few tenths of a second, which a process that only
runs the baselines, or only validates a config, never needs. A sweep that
forks VBI workers calls :func:`preload_solvers` first, so they share the
parent's copy.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import (KUMMER_SWITCH_X, MAX_SERIES_TERMS, SERIES_RTOL, ConvergenceError,
                      hyp1f1, ln_gamma_signed)
from .tensors import khatri_rao


# Pruning (see :func:`prune`): from this iteration on, a device whose prior
# precision E[v_k] exceeds PRUNE_PRECISION_RATIO times the smallest active
# E[v], and whose M_X column energy is below PRUNE_ENERGY_FRACTION of the
# largest and did not grow since the previous iteration, leaves the q(X)
# solve. The fraction sits a factor 30 under the detection threshold
# M (r max|M_X|)^2 >= 0.09 x the largest column energy at
# r = detection.THRESHOLD_RATIO, so a device pruned at that iteration would
# not be detected there. Both were picked on master seeds 7 and 1234 at
# K=500: at L=400, 30 dB the run then stops after 15-18 iterations instead
# of 30-32, and at L=100 or at 10 dB no device is pruned. A fraction of
# 1e-2 pruned the same devices; one of 1e-3 pruned them over more
# iterations, and the run stopped after 16-25. The growth test keeps a true
# device whose column the iteration has not yet picked up: with X 20 times
# larger (a transmit power of 400), the unit E[v] start holds such a column
# near its prior for many iterations. The test costs 0-5 iterations a trial
# at L=400, 30 dB; without it, such devices were pruned at L=100 with a
# transmit power of 400, and on a K=40 scene.
PRUNE_FROM_ITER = 5
PRUNE_PRECISION_RATIO = 200.0
PRUNE_ENERGY_FRACTION = 3e-3


class EngineError(RuntimeError):
    """Numerical failure inside the update loop (reported, never clamped)."""


@dataclass(frozen=True)
class EngineConfig:
    eps: float = 1e-6           # Gamma hyperprior shape/rate
    max_iters: int = 35
    rel_tol: float = 1e-3       # on the relative Frobenius change of M_X

    def __post_init__(self):
        if not (0.0 < self.eps <= 1e-2):
            raise ValueError("eps must lie in (0, 1e-2]")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class PosteriorState:
    """The variational statistics the updates read, and nothing else.

    The posterior over X is matrix Gaussian with mean M_X and one shared
    K x K column covariance C_X = (E[beta] G + diag(E[v]))^-1. C_X itself
    is never stored: q(v) reads only its diagonal c_diag, and q(beta) only
    the scalar Tr(G C_X) = (K - sum_k E[v_k] c_diag[k]) / E[beta], which
    follows from (E[beta] G + diag(E[v])) C_X = I. Both hold the E[beta]
    and E[v] of the q(X) update that produced them. q(mu) is kept as its
    two moments; its coefficients o and t are recomputed from M_X and E[v]
    on every update. Gamma blocks are parameterized as (rate a, shape b)
    with E = b / a; b_v and b_beta never change. Every field is a scalar,
    a length-K vector or the M x K mean: the K x K arrays of the q(X)
    solve (G and its factor, on the direct path that :func:`run` picks
    when Woodbury does not pay) live only in :func:`run` and
    :func:`update_qX`, and the Woodbury path forms none.

    Every vector keeps all K devices. A device pruned from the q(X) solve
    has an all-zero column of M_X, c_diag = 0 and no share of tr_GC (whose
    K then counts the active devices only), and its a_v, E_mu_inv and
    E_mu_inv2 stay at the values they had when it was pruned; no update
    reads the moments of a pruned device. Pruning changes the model, so the
    ELBO of these statistics is non-decreasing only while the active set is
    fixed.
    """

    M_X: np.ndarray          # M x K posterior mean; zero columns for pruned devices
    c_diag: np.ndarray       # K real: diag(C_X), positive; 0 for pruned devices
    tr_GC: float             # Tr(G C_X)
    a_v: np.ndarray          # K rates for q(v_k)
    b_v: float               # shape M + eps, fixed
    E_mu_inv: np.ndarray     # K posterior means of mu^-1
    E_mu_inv2: np.ndarray    # K posterior means of mu^-2
    a_beta: float            # rate for q(beta)
    b_beta: float            # shape L*M + eps, fixed
    eps: float

    @property
    def E_v(self) -> np.ndarray:
        return self.b_v / self.a_v

    @property
    def E_beta(self) -> float:
        return self.b_beta / self.a_beta


@dataclass(frozen=True)
class EngineResult:
    state: PosteriorState
    n_iters: int
    converged: bool
    # rows of (iteration, residual F, max column energy of M_X, number of
    # devices in that iteration's q(X) solve)
    trace: list[tuple[int, float, float, int]]

    @property
    def M_X(self) -> np.ndarray:
        return self.state.M_X


def precompute_gram(p: tuple[np.ndarray, ...]) -> np.ndarray:
    """K x K Gram hadamard_i (A_i^H A_i)^* = KR^T KR^*; since the factors
    are known constants this is the whole expectation entering the
    X-covariance.

    Each conjugated factor Gram is multiplied into the first in place, in
    factor order, so at most two K x K arrays are live."""
    first, *rest = p
    G = first.conj().T @ first
    np.conjugate(G, out=G)
    for a in rest:
        H = a.conj().T @ a
        G *= np.conjugate(H, out=H)
    return G


def _y_kr_conj(Y: np.ndarray, kr: np.ndarray) -> np.ndarray:
    """Y_(d+1) KR^* = Y^T KR^*, computed as (Y^H KR)^*, so the conjugate
    copy is of the L x M samples, not of the L x K KR."""
    return (Y.T.conj() @ kr).conj()


def init_posterior(p: tuple[np.ndarray, ...], Y: np.ndarray,
                   cfg: EngineConfig) -> PosteriorState:
    """Deterministic start: matched-filter mean, identity covariance
    (so Tr(G C_X) = Tr(G) = ||KR||_F^2), unit v-means, zero prior-mean
    moments, noise precision from total energy."""
    L, M = Y.shape
    K = p[0].shape[1]
    kr = khatri_rao(p)
    m_x = _y_kr_conj(Y, kr) / L
    b_v = M + cfg.eps
    b_beta = L * M + cfg.eps
    energy = float(np.vdot(Y, Y).real)
    a_beta = b_beta * energy / (L * M) if energy > 0 else b_beta
    return PosteriorState(
        M_X=m_x,
        c_diag=np.ones(K),
        tr_GC=float(np.vdot(kr, kr).real),
        a_v=np.full(K, b_v),
        b_v=b_v,
        E_mu_inv=np.zeros(K),
        E_mu_inv2=np.zeros(K),
        a_beta=a_beta,
        b_beta=b_beta,
        eps=cfg.eps,
    )


def woodbury_pays(L: int, K: int) -> bool:
    """Whether q(X) is cheaper through the L x L system than the K x K one,
    by flop count: about L^2 K + L^3 / 3 against K^3 / 2. At K=500 the
    two paths measure equal near L = 290-320; this rule switches at 321."""
    return L * L * K + L ** 3 / 3 < K ** 3 / 2


def preload_solvers() -> None:
    """Import scipy.linalg, which the q(X) solves otherwise import on their
    first call. A process about to fork VBI workers calls this first, so
    the workers share the parent's copy of its pages instead of each
    importing a private one."""
    import scipy.linalg  # noqa: F401


def _cholesky(A: np.ndarray, what: str) -> np.ndarray:
    from scipy.linalg import cholesky

    try:
        return cholesky(A, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise EngineError(f"{what} not positive-definite: {exc}") from exc


_ENERGY_BLOCK = 64


def _solve_direct(G: np.ndarray, e_beta: float, e_v: np.ndarray, rhs: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(rhs C_X, diag C_X) from the Cholesky factor P = F F^H of the K x K
    system; C_X = F^-H F^-1, so diag C_X holds the column energies of F^-1.

    P is built in Fortran order, so the factorization and the triangular
    inverse both run in its one buffer, with no K x K copy; the column
    energies are taken in blocks of _ENERGY_BLOCK columns, so no K x K
    real array is formed either."""
    from scipy.linalg import cho_solve
    from scipy.linalg.lapack import ztrtri

    P = np.multiply(e_beta, G, order="F")
    P.flat[::len(e_v) + 1] += e_v
    F = _cholesky(P, "X-covariance system")
    M_X = cho_solve((F, True), rhs.conj().T, check_finite=False).conj().T
    F_inv, info = ztrtri(F, lower=1, overwrite_c=1)
    if info != 0:
        raise EngineError(f"singular X-covariance factor (ztrtri info={info})")
    c_diag = np.empty(len(e_v))
    for j in range(0, len(e_v), _ENERGY_BLOCK):
        energy = np.abs(F_inv[:, j:j + _ENERGY_BLOCK])
        c_diag[j:j + _ENERGY_BLOCK] = np.sum(np.square(energy, out=energy), axis=0)
    return M_X, c_diag


def _solve_woodbury(kr: np.ndarray, e_beta: float, e_v: np.ndarray, Y_mat: np.ndarray,
                    e_mu_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M_X, diag C_X) by the matrix-inversion lemma, with Phi = KR^* (so
    G = Phi^H Phi), D = diag(E[v]) and S = Phi D^-1 Phi^H + E[beta]^-1 I_L:

      C_X = D^-1 - D^-1 Phi^H S^-1 Phi D^-1.

    With S = R R^H and W = R^-1 Phi, diag C_X = 1/d - |W|^2_col / d^2. The
    mean uses Phi C_X = (E[beta] S)^-1 Phi D^-1, which gives, with
    m = E[mu^-1] and Y_mat = Y_(d+1),

      M_X = 1_M m^T + (Y_mat - 1_M m^T Phi^H) S^-1 Phi D^-1.

    It equals rhs C_X, but subtracts no terms of size E[beta] that would
    cancel when E[beta] G dominates D.

    Phi is never formed: Phi D^-1 is conj(KR D^-1), conjugated in place,
    W is conj(solve(R^*, KR)), and |W|^2 is squared in the buffer of |W|,
    so besides KR at most about two L x K arrays are live."""
    from scipy.linalg import solve_triangular

    inv_d = 1.0 / e_v
    phi_d = kr * inv_d
    np.conjugate(phi_d, out=phi_d)
    S = phi_d @ kr.T + np.eye(kr.shape[0]) / e_beta
    del phi_d
    R = _cholesky(S, "preamble-space system")
    W = solve_triangular(R.conj(), kr, lower=True, check_finite=False)
    np.conjugate(W, out=W)
    w_energy = np.abs(W)
    c_diag = inv_d - np.sum(np.square(w_energy, out=w_energy), axis=0) * inv_d ** 2
    innov = Y_mat - (kr @ e_mu_inv)[None, :]
    V = solve_triangular(R, innov.conj().T, lower=True, check_finite=False)
    M_X = e_mu_inv[None, :] + (V.conj().T @ W) * inv_d
    return M_X, c_diag


def update_qX(s: PosteriorState, G: np.ndarray | None, kr: np.ndarray, Ty: np.ndarray,
              Y_mat: np.ndarray, active: np.ndarray | None = None) -> PosteriorState:
    """Refresh (M_X, c_diag, tr_GC) without forming C_X.

    With C_X = (E[beta] G + diag(E[v]))^-1:
    M_X = (E[beta] Ty + 1_M (E[mu^-1] E[v])^T) C_X,
    c_diag = diag(C_X), and tr_GC = Tr(G C_X) = (K - sum_k E[v_k] c_diag[k]) / E[beta],
    where Ty = Y_(d+1) KR^* and Y_mat = Y_(d+1). With ``G`` None the solve
    goes through the L x L Woodbury system, which reads ``kr`` and
    ``Y_mat``; otherwise through a Cholesky factor of the K x K system,
    which reads ``G`` and ``Ty``.

    ``active`` holds the sorted indices of the devices still in the model
    (all K by default). G, kr and Ty hold only those devices' rows and
    columns, and the formulas above run on that subsystem, with K its
    size. A pruned device gets an all-zero column of M_X and c_diag = 0,
    and adds nothing to tr_GC.
    """
    active = np.arange(len(s.a_v)) if active is None else active
    e_beta, e_v, e_mu_inv = s.E_beta, s.E_v[active], s.E_mu_inv[active]
    if G is None:
        M_X_a, c_diag_a = _solve_woodbury(kr, e_beta, e_v, Y_mat, e_mu_inv)
    else:
        rhs = e_beta * Ty + (e_mu_inv * e_v)[None, :]
        M_X_a, c_diag_a = _solve_direct(G, e_beta, e_v, rhs)
    if not (np.all(np.isfinite(M_X_a)) and np.all(np.isfinite(c_diag_a))):
        raise EngineError("non-finite entries in q(X) update")
    if np.any(c_diag_a <= 0):
        raise EngineError("non-positive diagonal of the X-covariance")
    tr_GC = (len(e_v) - float(np.dot(e_v, c_diag_a))) / e_beta
    M_X = np.zeros_like(s.M_X)
    M_X[:, active] = M_X_a
    c_diag = np.zeros(len(s.a_v))
    c_diag[active] = c_diag_a
    return dataclasses.replace(s, M_X=M_X, c_diag=c_diag, tr_GC=tr_GC)


def _libm(fn, a: np.ndarray) -> np.ndarray:
    """``fn`` (math.log or math.exp) over an array, through libm.

    numpy's SIMD log and exp can differ from libm by one ulp, which would
    move the engine's output bits away from the scalar SignedLogValue
    arithmetic that defines them."""
    return np.fromiter(map(fn, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _signed_log(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log|c|, sign c) per entry, with an exact zero as (-inf, 0)."""
    mag = np.abs(c)
    nz = mag > 0
    log_abs = np.full(c.shape, -np.inf)
    log_abs[nz] = _libm(math.log, mag[nz])
    return log_abs, np.sign(c)


def _hyp1f1_stacked(pairs, x, extra=()) -> tuple[np.ndarray, np.ndarray]:
    """(log|.|, sign) of Hy(a, b, x_i) for each (a, b) in ``pairs`` and each
    entry of the 1-D ``x``, pair after pair, then of each entry of the 1-D
    ``extra``; the logs of all of them are taken in one libm pass.

    The entries with 0 <= x <= KUMMER_SWITCH_X of every pair are summed as
    one stacked array Pochhammer series, which does per entry what
    specfun._hyp1f1_series does: the same steps in the same order, each
    entry stopping at its own term, and the ConvergenceError of the term cap
    or of an overflow. x = 0 stops after its first term with the total 1.0,
    so it gives (0.0, +1). Every other entry is one scalar :func:`hyp1f1`
    call: its Kummer branch above KUMMER_SWITCH_X, or its domain error for a
    negative or non-finite x."""
    a, b = np.array(pairs, dtype=float).T
    x = np.asarray(x, dtype=float)
    n = x.size
    xs = np.tile(x, len(a))
    series = (xs >= 0.0) & (xs <= KUMMER_SWITCH_X)
    total = np.ones(xs.size)
    # the entries still summing: their positions, pair, x, last term and sum
    pos = np.flatnonzero(series)
    pair, x_s, term, acc = pos // n, xs[pos], np.ones(pos.size), np.ones(pos.size)
    v = 0
    # a Python float overflows without a warning; like the scalar series,
    # this one reports an overflow once, after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        while pos.size:
            if v == MAX_SERIES_TERMS:
                raise ConvergenceError("1F1 series did not converge for "
                                       f"a={a[pair[0]]}, b={b[pair[0]]}, x={x_s[0]}")
            term *= ((a + v) / (b + v))[pair] * x_s / (v + 1)
            acc += term
            stop = np.abs(term) <= SERIES_RTOL * np.abs(acc)
            if stop.any():
                total[pos[stop]] = acc[stop]
                go = ~stop
                pos, pair, x_s, term, acc = pos[go], pair[go], x_s[go], term[go], acc[go]
            v += 1
    bad = ~np.isfinite(total)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceError("1F1 series overflowed double precision for "
                               f"a={a[i // n]}, b={b[i // n]}, x={xs[i]}")
    log_abs, sign = _signed_log(np.concatenate([total, np.asarray(extra, dtype=float)]))
    for i in np.flatnonzero(~series):
        log_abs[i], sign[i] = hyp1f1(float(a[i // n]), float(b[i // n]), float(xs[i]))
    return log_abs, sign


def inverse_mean_moments(o: np.ndarray, t: np.ndarray, eps: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means of mu^-1 and mu^-2 for densities with log-kernel
    -o mu^-2 + t mu^-1 + (eps - 1) ln mu.

    Both are ratios of Gamma * 1F1 pairs at argument x = t^2 / (4 o),
    evaluated in signed-log space:

      E[mu^-1] = (t G(1-e/2) Hy(1-e/2,3/2,x) + sqrt(o) G((1-e)/2) Hy((1-e)/2,1/2,x))
                 / (o G(-e/2) Hy(-e/2,1/2,x) + sqrt(o) t G((1-e)/2) Hy((1-e)/2,3/2,x))
      E[mu^-2] = (sqrt(o) G(1-e/2) Hy(1-e/2,1/2,x) + t G((3-e)/2) Hy((3-e)/2,3/2,x))
                 / (o^3/2 G(-e/2) Hy(-e/2,1/2,x) + o t G((1-e)/2) Hy((1-e)/2,3/2,x))

    The six 1F1 values are one stacked array series (see
    :func:`_hyp1f1_stacked`), with a scalar :func:`hyp1f1` call only where
    x > KUMMER_SWITCH_X. Everything else runs on arrays of (log|.|, sign),
    with every log and exp taken through libm in four passes: the 1F1
    totals with the six scale factors, the smaller term of each two-term
    sum, the sums, and the ratios. So each device's results equal its
    SignedLogValue arithmetic bit for bit.
    """
    shape = np.shape(o)
    o = np.asarray(o, dtype=float).ravel()
    t = np.asarray(t, dtype=float).ravel()
    if np.any(o <= 0):
        raise EngineError("mu^-2 coefficient must be strictly positive")
    pairs = [(-eps / 2.0, 0.5), ((1.0 - eps) / 2.0, 0.5), ((1.0 - eps) / 2.0, 1.5),
             (1.0 - eps / 2.0, 0.5), (1.0 - eps / 2.0, 1.5), ((3.0 - eps) / 2.0, 1.5)]
    sq_o = np.sqrt(o)
    # rows 0-5: the 1F1 values of ``pairs``; rows 6-11: the scale factors
    log_abs, sign = _hyp1f1_stacked(pairs, t * t / (4.0 * o),
                                    np.concatenate([t, sq_o, o, sq_o * t, o * sq_o, o * t]))
    log_abs, sign = log_abs.reshape(12, -1), sign.reshape(12, -1)
    # the eight Gamma(a) Hy(a, b, x) x scale terms, the two of num1, den1,
    # num2 and den2 in turn; a zero factor carries log -inf
    hy, sc = [4, 1, 0, 2, 3, 5, 0, 2], [6, 7, 8, 9, 7, 6, 10, 11]
    gamma = [ln_gamma_signed(pairs[i][0]) for i in hy]
    term_log = (np.array([[g.log_abs] for g in gamma]) + log_abs[hy]) + log_abs[sc]
    term_sign = np.array([[g.sign] for g in gamma], dtype=float) * sign[hy] * sign[sc]

    # the four two-term sums, max-shifted as signed_log_sum does it per
    # entry (a two-term fsum is the rounded plain sum); the larger term's
    # exp(0) is exactly 1, so only the smaller one takes a libm call
    m = np.maximum(term_log[0::2], term_log[1::2])
    m[m == -np.inf] = 0.0   # both terms zero: the sum is 0 below
    shift = term_log - np.repeat(m, 2, axis=0)
    scaled = np.ones(shift.shape)
    nz = shift != 0.0
    scaled[nz] = _libm(math.exp, shift[nz])
    sum_log, sum_sign = _signed_log(term_sign[0::2] * scaled[0::2]
                                    + term_sign[1::2] * scaled[1::2])
    sum_log = m + sum_log

    num, den = [0, 2], [1, 3]
    vanishing = np.any(sum_sign[den] == 0, axis=0)
    if np.any(vanishing):
        i = int(np.argmax(vanishing))
        raise EngineError(f"vanishing moment denominator at o={o[i]}, t={t[i]}")
    e1, e2 = np.where(sum_sign[num] == 0, 0.0, sum_sign[num] * sum_sign[den]
                      * _libm(math.exp, sum_log[num] - sum_log[den]))
    return e1.reshape(shape), e2.reshape(shape)


def update_qmu(s: PosteriorState, active: np.ndarray | None = None) -> PosteriorState:
    """Refresh the prior-mean block: o = M E[v], t = 2 Re(sum_m M_X) E[v] - eps,
    then the inverse-mean moments.

    Only the ``active`` devices' moments move (all K by default); a pruned
    device keeps the moments it was pruned with, which no update reads."""
    if np.any(s.a_v <= 0):
        raise EngineError("q(v) rates must be positive before the mu update")
    active = np.arange(len(s.a_v)) if active is None else active
    M = s.M_X.shape[0]
    e_v = s.E_v[active]
    col_sum = np.real(np.sum(s.M_X, axis=0))[active]
    e1, e2 = inverse_mean_moments(M * e_v, 2.0 * col_sum * e_v - s.eps, s.eps)
    E_mu_inv, E_mu_inv2 = s.E_mu_inv.copy(), s.E_mu_inv2.copy()
    E_mu_inv[active], E_mu_inv2[active] = e1, e2
    return dataclasses.replace(s, E_mu_inv=E_mu_inv, E_mu_inv2=E_mu_inv2)


def update_qv(s: PosteriorState, active: np.ndarray | None = None) -> PosteriorState:
    """Refresh the column-precision rates:
    a_v[k] = ||M_X(:,k)||^2 + M c_diag[k] - 2 E[mu^-1] Re(sum_m M_X(m,k))
             + M E[mu^-2] + eps, with c_diag = diag(C_X) from q(X).

    Only the ``active`` devices' rates move (all K by default); a pruned
    device keeps the rate it was pruned with. Its M_X column and c_diag
    are 0, so the formula would leave it M E[mu^-2] + eps, which q(mu) on
    a pruned device makes about eps (1 - 1/(2 E[v])) at its t = -eps:
    negative for E[v] < 1/2."""
    active = np.arange(len(s.a_v)) if active is None else active
    M = s.M_X.shape[0]
    col_energy = np.sum(np.abs(s.M_X) ** 2, axis=0)
    col_sum = np.real(np.sum(s.M_X, axis=0))
    a_v = s.a_v.copy()
    a_v[active] = (col_energy + M * s.c_diag
                   - 2.0 * s.E_mu_inv * col_sum + M * s.E_mu_inv2 + s.eps)[active]
    if np.any(a_v <= 0) or not np.all(np.isfinite(a_v)):
        raise EngineError("non-positive or non-finite q(v) rate")
    return dataclasses.replace(s, a_v=a_v)


def expected_residual(s: PosteriorState, kr: np.ndarray, Ty: np.ndarray,
                      y_energy: float) -> float:
    """Posterior-expected squared residual of the L x M samples
    E||Y^T - X KR^T||_F^2 = ||Y||^2 - 2 Re Tr(Ty M_X^H) + Tr(G E[X^H X]),
    with E[X^H X] = M_X^H M_X + M C_X and G = KR^T KR^*, so
    Tr(G E[X^H X]) = ||M_X KR^T||_F^2 + M Tr(G C_X),
    the last term being the stored tr_GC. ``y_energy`` is ||Y||^2."""
    M = s.M_X.shape[0]
    fitted = s.M_X @ kr.T
    fit = float(np.vdot(fitted, fitted).real) + M * s.tr_GC
    cross = float(np.sum(Ty * s.M_X.conj()).real)
    return y_energy - 2.0 * cross + fit


def update_qbeta(s: PosteriorState, kr: np.ndarray, Ty: np.ndarray,
                 y_energy: float) -> PosteriorState:
    """Refresh the noise-precision rate a_beta = F + eps, with F from
    :func:`expected_residual`.

    F is mathematically >= 0; anything below -1e-8 (relative to the
    observation energy) is reported as numerical failure, and mere roundoff
    below zero is truncated before adding eps.
    """
    F = expected_residual(s, kr, Ty, y_energy)
    if F < -1e-8 * (1.0 + y_energy):
        raise EngineError(f"negative expected residual F={F}")
    return dataclasses.replace(s, a_beta=max(F, 0.0) + s.eps)


def prune(e_v: np.ndarray, col_energy: np.ndarray, prev_col_energy: np.ndarray
          ) -> np.ndarray:
    """Mask over the active devices of those that leave the q(X) solve.

    A device goes when its precision has collapsed relative to the active
    set, E[v_k] > PRUNE_PRECISION_RATIO * min E[v], and its column of M_X
    holds less than PRUNE_ENERGY_FRACTION of the largest column energy and
    did not grow since the previous iteration (``prev_col_energy``). The
    device with the smallest E[v] always stays. A column that still grows
    may belong to a true device that the iteration has not yet picked up."""
    return ((e_v > PRUNE_PRECISION_RATIO * np.min(e_v))
            & (col_energy < PRUNE_ENERGY_FRACTION * np.max(col_energy))
            & (col_energy <= prev_col_energy))


def run(p: tuple[np.ndarray, ...], Y: np.ndarray, cfg: EngineConfig,
        on_iteration: Callable[[int, PosteriorState], None] | None = None
        ) -> EngineResult:
    """Iterate qX -> qmu -> qv -> qbeta until the relative Frobenius change
    of M_X drops below cfg.rel_tol or cfg.max_iters is reached.

    The operands of q(X) and q(beta) are formed once, here. The K x K Gram
    G is formed only when q(X) takes its direct path; when
    :func:`woodbury_pays`, G is None and no K x K array is formed.

    From iteration PRUNE_FROM_ITER on, the devices that :func:`prune`
    names leave the q(X) solve for good, and later iterations solve only
    for the rest, on the path picked at the start: G (cut by index, never
    recomputed) or KR's columns, and Ty's columns, are cut to the active
    devices. A pruned device reports an all-zero column of M_X and
    c_diag = 0, and its q(v) rate and q(mu) moments stay frozen: q(mu)
    and q(v) run only over the active devices. Pruning changes the model, so the ELBO is non-decreasing
    only between pruning steps, while the active set is fixed. A run where
    no device meets the rule solves for every device on every iteration
    and gives the M_X of the unpruned iteration bit for bit."""
    L, K = Y.shape[0], p[0].shape[1]
    G = None if woodbury_pays(L, K) else precompute_gram(p)
    kr = khatri_rao(p)
    Ty = _y_kr_conj(Y, kr)
    y_energy = float(np.vdot(Y, Y).real)
    s = init_posterior(p, Y, cfg)
    # G and the q(X) copies kr_a, Ty_a hold only the rows and columns of
    # the devices in ``active``
    active, kr_a, Ty_a = np.arange(K), kr, Ty
    col_energy = np.sum(np.abs(s.M_X) ** 2, axis=0)
    trace: list[tuple[int, float, float, int]] = []
    converged = False
    for it in range(1, cfg.max_iters + 1):
        prev, prev_col_energy = s.M_X, col_energy
        s = update_qX(s, G, kr_a, Ty_a, Y.T, active)
        s = update_qmu(s, active)
        s = update_qv(s, active)
        s = update_qbeta(s, kr, Ty, y_energy)
        resid = s.a_beta - s.eps
        col_energy = np.sum(np.abs(s.M_X) ** 2, axis=0)
        trace.append((it, resid, float(np.max(col_energy)), len(active)))
        if on_iteration is not None:
            on_iteration(it, s)
        denom = float(np.linalg.norm(prev))
        delta = float(np.linalg.norm(s.M_X - prev))
        if denom > 0 and delta / denom < cfg.rel_tol:
            converged = True
            break
        if not PRUNE_FROM_ITER <= it < cfg.max_iters:
            continue
        drop = prune(s.E_v[active], col_energy[active], prev_col_energy[active])
        if drop.any():
            keep = np.flatnonzero(~drop)
            active, Ty_a = active[keep], Ty_a[:, keep]
            if G is None:
                kr_a = kr_a[:, keep]
            else:
                G = G[np.ix_(keep, keep)]
    return EngineResult(state=s, n_iters=it, converged=converged, trace=trace)
