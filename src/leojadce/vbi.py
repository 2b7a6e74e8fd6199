"""Mean-field variational Bayesian engine for device-state recovery.

Model: the L x M received samples are Y = KR X^T + N, where KR is the
L x K Khatri-Rao product of the preamble factors, given as the tuple
p = (A_1, ..., A_d) of l_i x K arrays, and N is white
circular complex Gaussian noise; the updates read Y through
Y_(d+1) = Y^T = X KR^T + N^T, the mode-(d+1) unfolding of the received
tensor. Each column of X has a zero-mean circular complex Gaussian prior
CN(0, v_k^-1 I_M), with near-flat Gamma(eps, eps) hyperpriors on the
precisions v_k and the noise precision beta: the multiple-measurement
sparse Bayesian learning model (M-SBL; Tipping 2001, Wipf & Rao 2007).
Every block is conjugate, so the factorized posterior
q(X) q(v) q(beta) is optimized by coordinate ascent in closed form: each
update below is the optimum of its block with the other blocks fixed, and
the evidence lower bound does not decrease.

Memory: the engine holds only the arrays its updates read. :func:`run`
forms the operands once per call (KR, Y_(d+1) KR^*, Y_(d+1) and ||Y||^2)
and picks the q(X) path once, by :func:`woodbury_pays`. On the L x L
Woodbury path (L << K) no K x K array exists: besides KR and its L x L
factor, the solve holds at most about 1.5 L x K complex arrays, and it
reads KR as KR^T, a Fortran-ordered K x L view of KR's own memory that the
BLAS calls take without a copy. The direct path adds the K x K Gram G
and one K x K factor buffer. On both paths q(beta) takes its fit term
||M_X KR^T||_F^2 from KR, at M L K work.

Pruning: a device whose prior precision E[v_k] has collapsed (see
:func:`prune`) leaves the q(X) solve for the rest of the run, as in the
fixed-point pruning of sparse Bayesian learning (Tipping & Faul 2003; Wipf
& Rao 2007). q(X) is the one block that couples the devices and costs K^3;
it then solves only for the active devices, on the path picked for all K.
A pruned device reports an all-zero column of M_X and c_diag = 0, adds
nothing to Tr(G C_X), and so gets the q(v) rate eps. Each pruning step
changes the model, so the ELBO is non-decreasing only while the active set
is fixed.

scipy.linalg is imported inside the q(X) solve helpers, on their first
call, not when this module loads: its package init costs about 28 MB of
resident memory and a few tenths of a second, which a process that only
runs the baselines, or only validates a config, never needs. A sweep that
forks VBI workers calls :func:`preload_solvers` first, so they share the
parent's copy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    and E[v] of the q(X) update that produced them. Gamma blocks are
    parameterized as (rate a, shape b) with E = b / a; b_v and b_beta
    never change. Every field is a scalar, a length-K vector or the M x K
    mean: the K x K arrays of the q(X) solve (G and its factor, on the
    direct path that :func:`run` picks when Woodbury does not pay) live
    only in :func:`run` and :func:`update_qX`, and the Woodbury path forms
    none.

    Every vector keeps all K devices. A device pruned from the q(X) solve
    has an all-zero column of M_X, c_diag = 0 and no share of tr_GC (whose
    K then counts the active devices only), and so the q(v) rate eps; no
    update reads a pruned device's E[v]. Pruning changes the model, so the
    ELBO of these statistics is non-decreasing only while the active set is
    fixed.
    """

    M_X: np.ndarray          # M x K posterior mean; zero columns for pruned devices
    c_diag: np.ndarray       # K real: diag(C_X), positive; 0 for pruned devices
    tr_GC: float             # Tr(G C_X)
    a_v: np.ndarray          # K rates for q(v_k)
    b_v: float               # shape M + eps, fixed
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
    (so Tr(G C_X) = Tr(G) = ||KR||_F^2), unit v-means, noise precision
    from total energy."""
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
        a_beta=a_beta,
        b_beta=b_beta,
        eps=cfg.eps,
    )


def woodbury_pays(L: int, K: int) -> bool:
    """Whether q(X) is cheaper through the L x L system than the K x K one,
    by flop count: about L^2 K + L^3 / 3 against K^3 / 2. At K=500 the
    two solves measure equal near L = 330 (each faster in half of 150
    paired calls); this rule switches at 321."""
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


def _solve_woodbury(kr: np.ndarray, e_beta: float, e_v: np.ndarray, Y_mat: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(M_X, diag C_X) by the matrix-inversion lemma, with Phi = KR^* (so
    G = Phi^H Phi), D = diag(E[v]) and S = Phi D^-1 Phi^H + E[beta]^-1 I_L:

      C_X = D^-1 - D^-1 Phi^H S^-1 Phi D^-1.

    With B = KR D^-1/2, Phi D^-1 Phi^H = (B^T)^H B^T; zherk forms only its
    lower triangle, all that the Cholesky factorization S = R R^H reads.
    With W = R^-1 Phi,
    diag C_X = 1/d - |W|^2_col / d^2, and W^T = Phi^T R^-T is one
    right-side triangular solve on Phi^T = conj(KR^T). The mean uses
    Phi C_X = (E[beta] S)^-1 Phi D^-1, which gives, with Y_mat = Y_(d+1)
    and V = R^-1 Y_mat^H,

      M_X = Y_mat S^-1 Phi D^-1 = (W^T V^*)^T D^-1.

    It equals E[beta] Y_mat KR^* C_X, but subtracts no terms of size
    E[beta] that would cancel when E[beta] G dominates D.

    KR is C-ordered, so KR^T is a Fortran-ordered K x L view, the layout
    the BLAS calls take without a copy: B^T is made from it in one pass,
    and the conjugate of KR^T, made in the same order, is solved in place.
    B^T is freed before that conjugate is made, and |W|^2 is squared in
    the buffer of |W|, so besides KR at most about 1.5 L x K complex
    arrays are live. D^-1/2 needs every E[v] > 0; any other E[v] makes the
    system indefinite and is reported as such."""
    from scipy.linalg import solve_triangular
    from scipy.linalg.blas import zherk, ztrsm

    if not np.all(e_v > 0):
        raise EngineError("preamble-space system not positive-definite: "
                          f"E[v] = {np.min(e_v)} <= 0")
    inv_d = 1.0 / e_v
    Bt = np.multiply(kr.T, np.sqrt(inv_d)[:, None], order="F")
    S = zherk(1.0, Bt, trans=2, lower=1)
    del Bt
    S.flat[::S.shape[0] + 1] += 1.0 / e_beta
    R = _cholesky(S, "preamble-space system")
    Wt = ztrsm(1.0, R, np.conjugate(kr.T), side=1, lower=1, trans_a=1, overwrite_b=1)
    w_energy = np.abs(Wt)
    c_diag = inv_d - np.sum(np.square(w_energy, out=w_energy), axis=1) * inv_d ** 2
    V = solve_triangular(R, Y_mat.conj().T, lower=True, check_finite=False)
    M_X = (Wt @ V.conj()).T * inv_d
    return M_X, c_diag


def update_qX(s: PosteriorState, G: np.ndarray | None, kr: np.ndarray, Ty: np.ndarray,
              Y_mat: np.ndarray, active: np.ndarray | None = None) -> PosteriorState:
    """Refresh (M_X, c_diag, tr_GC) without forming C_X.

    With C_X = (E[beta] G + diag(E[v]))^-1: M_X = E[beta] Ty C_X,
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
    e_beta, e_v = s.E_beta, s.E_v[active]
    if G is None:
        M_X_a, c_diag_a = _solve_woodbury(kr, e_beta, e_v, Y_mat)
    else:
        M_X_a, c_diag_a = _solve_direct(G, e_beta, e_v, e_beta * Ty)
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


def update_qv(s: PosteriorState) -> PosteriorState:
    """Refresh the column-precision rates
    a_v[k] = ||M_X(:,k)||^2 + M c_diag[k] + eps, with c_diag = diag(C_X)
    from q(X). A pruned device has a zero column and c_diag = 0, so its
    rate is eps."""
    M = s.M_X.shape[0]
    col_energy = np.sum(np.abs(s.M_X) ** 2, axis=0)
    a_v = col_energy + M * s.c_diag + s.eps
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
    """Iterate qX -> qv -> qbeta until the relative Frobenius change of M_X
    drops below cfg.rel_tol or cfg.max_iters is reached.

    The operands of q(X) and q(beta) are formed once, here. The K x K Gram
    G is formed only when q(X) takes its direct path; when
    :func:`woodbury_pays`, G is None and no K x K array is formed.

    From iteration PRUNE_FROM_ITER on, the devices that :func:`prune`
    names leave the q(X) solve for good, and later iterations solve only
    for the rest, on the path picked at the start: G (cut by index, never
    recomputed) or KR's columns, and Ty's columns, are cut to the active
    devices. A pruned device reports an all-zero column of M_X and
    c_diag = 0, so q(v) gives it the rate eps. Pruning changes the model,
    so the ELBO is non-decreasing only between pruning steps, while the
    active set is fixed. A run where no device meets the rule solves for
    every device on every iteration and gives the M_X of the unpruned
    iteration bit for bit."""
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
        s = update_qv(s)
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


# perfbench/run.py's traced run looks these names up and wraps them; nothing
# in leojadce calls them.
update_qmu = hyp1f1 = None
