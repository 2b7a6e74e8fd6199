"""Mean-field variational Bayesian engine for device-state recovery.

Model: the L x M received samples are Y = KR X^T + N, where KR is the
L x K Khatri-Rao product of the preamble factors, given as the tuple
p = (A_1, ..., A_d) of l_i x K arrays, and N is white
circular complex Gaussian noise; the updates read Y through
Y_(d+1) = Y^T = X KR^T + N^T, the mode-(d+1) unfolding of the received
tensor. Each column of X has a zero-mean circular complex Gaussian prior
CN(0, v_k^-1 I_M), with near-flat Gamma(EPS, EPS) hyperpriors on the
precisions v_k and the noise precision beta: the multiple-measurement
sparse Bayesian learning model (M-SBL; Tipping 2001, Wipf & Rao 2007).
Every block is conjugate, so the factorized posterior
q(X) q(v) q(beta) is optimized by coordinate ascent in closed form: each
update below is the optimum of its block with the other blocks fixed, and
the evidence lower bound does not decrease.

q(X) is block mean-field: q(X) = prod_B q(X_B) over consecutive blocks B
of about BLOCK_SIZE devices, as in space-alternating variational
estimation (Thomas & Slock 2018) and inverse-free SBL (Duan, Yang, Fang &
Li 2017). Each iteration runs one Gauss-Seidel sweep over the blocks at
about 2 M L K work plus b^2 K for the b x b block systems, instead of a
K x K factorization at K^3 / 3 or an L x L one at L^2 K, and uses numpy
only. The block systems are factored as F F^H by one batched Cholesky
call, and F^-1 is formed by forward substitution batched over the blocks:
b - 1 steps, each one batched matmul that forms one row of every block's
inverse, at b^3 / 3 multiply-adds a block (see :func:`_lower_inverse`).
Substitution is backward stable for triangular systems (Higham, *Accuracy
and Stability of Numerical Algorithms*, ch. 8 and 14), and at K=500 it
takes about half the time of a general inverse by pivoted LU, which
factors F again as if it were full. It drops the covariance between
blocks, so its fixed point is that of the block family, not of the joint
q(X). The blocks are index ranges, so the results depend on the order of
the devices, at every L.

Memory: the engine holds only the arrays its updates read. :func:`run`
reads KR from its caller and forms ||Y||^2 once per call, and the start
forms Y_(d+1) KR^*; no K x K array is formed. The M x L residual
R = Y_(d+1) - M_X KR^T is kept and updated block by block, so q(beta) reads
||R||_F^2 at M L work. Besides KR, the engine holds the Gram blocks and a
few stacks of the same shape, n b entries each for the n devices in the
solve.

Pruning: at the head of each iteration, a device whose prior precision
E[v_k] has collapsed (see :func:`prune`) leaves the q(X) solve for the rest
of the run, as in the fixed-point pruning of sparse Bayesian learning
(Tipping & Faul 2003; Wipf & Rao 2007). From then on the state holds only
the devices left: one index compacts its vectors and its M_X, and every
update runs on those devices, with a copy of KR's columns and Gram blocks
formed again for them, blocked afresh. :func:`run` maps the state back to
all K devices once, at return: a pruned device reports an all-zero column
of M_X, c_diag = 0 and the q(v) rate EPS that a zero column with no
variance gets. Each pruning step changes the model, so the ELBO is
non-decreasing only while the active set is fixed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np


# Pruning (see :func:`prune`): at the head of each iteration, a device whose
# prior precision E[v_k] exceeds PRUNE_PRECISION_RATIO times the smallest
# active E[v], and whose M_X column energy is below PRUNE_ENERGY_FRACTION of
# the largest and did not grow over the previous iteration, leaves the q(X)
# solve. The start sets every E[v] to 1, so nothing leaves at iteration 1.
# The fraction sits a factor 30 under the detection threshold
# M (r max|M_X|)^2 >= 0.09 x the largest column energy at
# r = detection.THRESHOLD_RATIO, so a device pruned there would not be
# detected. Both were picked on master seeds 7 and 1234 at K=500: at L=400,
# 30 dB the run then stops after 15-18 iterations instead of 30-32. At the
# cap of 50 (master seed 314, 4 trials a scene) no device is pruned at 0 dB,
# nor at L=100, 10 dB; at 10 dB and L = 196-400 runs end with 374-500 of the
# 500 devices, and at 20-30 dB with 39-360. A fraction of 1e-2 pruned the
# same devices; one of 1e-3 pruned them over more iterations, and the run
# stopped after 16-25. The growth test keeps a true device whose column the
# iterations have not yet picked up: with X 20 times larger (a transmit
# power of 400), the unit E[v] start holds such a column near its prior for
# many iterations. The test costs 0-5 iterations a trial at L=400, 30 dB;
# without it, such devices were pruned at L=100 with a transmit power of
# 400, and on a K=40 scene. These figures were taken while pruning began
# after iteration 5. Pruning from the head of iteration 2 left M_X bit for
# bit on 20 runs at p_a = 0.1 (L = 100 and 400 at 10 and 30 dB, and K=2000
# at L=400, 30 dB; master seed 4242). At p_a = 0.02, L=400, 30 dB it moved
# 11 of 16 trials, with the same Pe, mean NMSE .00560 -> .00550 and no
# true device pruned.
PRUNE_PRECISION_RATIO = 200.0
PRUNE_ENERGY_FRACTION = 3e-3

# Devices per block of q(X) (see :func:`_block_slots`). Picked at K=500,
# M=8 (master seed 9, 4 trials a scene, one BLAS thread): at L=400, 10 dB a
# VBI run took 82 ms with b=25, against 94-136 ms with b = 5-16 and
# 104-223 ms with b = 40-100; at L=400, 30 dB b = 10-40 took 26-30 ms and
# b=100 62 ms. Larger blocks sweep fewer, larger GEMMs but
# factor b^3 per block; smaller ones loop more in Python. Pe did not move
# with b, and mean NMSE rose with it, by under 1% from b=5 to b=25.
# Measured again with F^-1 from :func:`_lower_inverse` (master seed 9, 2
# trials a scene, best of 3 calls, at L=100, 10 dB, at L=400, 10 and
# 30 dB, and at K=2000): b=16 and b=25 were within noise of each other,
# and on most scenes b=10 was 10-18% slower, b=40 9-25% slower and b=60
# 21-58% slower. b was kept, since changing it moves the outputs.
BLOCK_SIZE = 25

# The engine's fixed settings: the shape and rate of the Gamma hyperpriors,
# the iteration cap of :func:`run`, and its stop on the relative Frobenius
# change of M_X. Where K / L >= 4 the block sweep needs 50-100 iterations to
# settle. At K=500, L=100 (master seed 314, 4 trials a scene) a cap of 35
# left NMSE at .39 (20 dB) and .23 (30 dB), against .18 and .063 at 50 and
# .089 and .009 at 70; a run at 10 dB took 94 ms at 50, 127 ms at 70 and
# 182 ms at 100 (one BLAS thread). At L=400, 30 dB runs stop after 13-16.
EPS = 1e-6
MAX_ITERS = 50
REL_TOL = 1e-3


class EngineError(RuntimeError):
    """Numerical failure inside the update loop (reported, never clamped)."""


@dataclass
class PosteriorState:
    """The variational statistics the updates read, and nothing else.

    The posterior over X is matrix Gaussian with mean M_X and one shared
    column covariance C_X, block-diagonal with one block
    C_B = (E[beta] G_BB + diag(E[v_B]))^-1 per block B of devices (see
    :func:`update_qX`). C_X itself is never stored: q(v) reads only its
    diagonal c_diag, and q(beta) only the scalar
    Tr(G C_X) = sum_B Tr(G_BB C_B). Both hold the E[beta] and E[v] of the
    q(X) update that produced them. Gamma blocks are parameterized as
    (rate a, shape b) with E = b / a; b_v and b_beta never change.

    Inside :func:`run` the state holds only the n devices still in the q(X)
    solve: every field is a scalar, a length-n vector, the M x n mean or the
    M x L residual R = Y_(d+1) - M_X KR^T over those devices, which the
    start and each q(X) update set and q(beta) reads. No n x n array is
    formed. The state that :func:`run` returns holds all K devices, with an
    all-zero column of M_X, c_diag = 0 and a_v = EPS for a pruned one.
    """

    M_X: np.ndarray          # M x n posterior mean
    c_diag: np.ndarray       # n real: diag(C_X), positive
    tr_GC: float             # Tr(G C_X)
    a_v: np.ndarray          # n rates for q(v_k)
    b_v: float               # shape M + EPS, fixed
    a_beta: float            # rate for q(beta)
    b_beta: float            # shape L*M + EPS, fixed
    resid: np.ndarray        # M x L: Y_(d+1) - M_X KR^T

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
    # devices in that iteration's q(X) solve, E[beta] after its q(beta))
    trace: list[tuple[int, float, float, int, float]]

    @property
    def M_X(self) -> np.ndarray:
        return self.state.M_X


def _block_slots(n: int) -> np.ndarray:
    """The block layout of n devices: an (nB, b) mask of the slots that hold
    one. The devices are cut, in order, into nB = ceil(n / BLOCK_SIZE)
    consecutive blocks whose sizes differ by at most one, the larger first
    (the layout of ``np.array_split``); row i's True slots hold block i.
    So ``x_pad[slots] = x`` spreads a vector over the blocks, and
    ``x_pad[slots]`` gathers it back in device order."""
    n_blocks = -(-n // BLOCK_SIZE)
    size, extra = divmod(n, n_blocks)
    sizes = size + (np.arange(n_blocks) < extra)
    return np.arange(sizes[0]) < sizes[:, None]


def precompute_gram(p: tuple[np.ndarray, ...]) -> np.ndarray:
    """The diagonal blocks G_BB of the Gram G = hadamard_i (A_i^H A_i)^* =
    KR^T KR^* over the devices of the factors ``p``, cut by
    :func:`_block_slots`: an (nB, b, b) stack, 0 in the rows and columns of
    the slots a short block leaves empty. Since the factors are known
    constants, this is the whole expectation entering the X-covariance
    blocks.

    Each block is the Hadamard product of the factors' block Grams, taken
    in factor order and conjugated as the K x K form would be, so it is
    that form's block up to the order in which BLAS sums each entry, at
    b (l_1 + ... + l_d) work per device instead of K (l_1 + ... + l_d);
    no K x K array is formed."""
    slots = _block_slots(p[0].shape[1])
    G = None
    for a in p:
        blocks = np.zeros((len(slots), a.shape[0], slots.shape[1]), dtype=a.dtype)
        blocks.transpose(0, 2, 1)[slots] = a.T
        H = blocks.conj().transpose(0, 2, 1) @ blocks
        np.conjugate(H, out=H)
        G = H if G is None else np.multiply(G, H, out=G)
    return G


def _y_kr_conj(Y: np.ndarray, kr: np.ndarray) -> np.ndarray:
    """Y_(d+1) KR^* = Y^T KR^*, computed as (Y^H KR)^*, so the conjugate
    copy is of the L x M samples, not of the L x K KR."""
    return (Y.T.conj() @ kr).conj()


def init_posterior(kr: np.ndarray, Y: np.ndarray, y_energy: float) -> PosteriorState:
    """Deterministic start from the L x M samples Y and y_energy = ||Y||^2:
    matched-filter mean Ty / L with Ty = Y_(d+1) KR^*, its residual,
    identity covariance (so Tr(G C_X) = Tr(G) = ||KR||_F^2), unit v-means,
    noise precision from total energy, and the Gamma shapes M + EPS and
    L M + EPS."""
    L, K = kr.shape
    M = Y.shape[1]
    m_x = _y_kr_conj(Y, kr) / L
    b_v = M + EPS
    b_beta = L * M + EPS
    a_beta = b_beta * y_energy / (L * M) if y_energy > 0 else b_beta
    return PosteriorState(
        M_X=m_x,
        c_diag=np.ones(K),
        tr_GC=float(np.vdot(kr, kr).real),
        a_v=np.full(K, b_v),
        b_v=b_v,
        a_beta=a_beta,
        b_beta=b_beta,
        resid=Y.T - m_x @ kr.T,
    )


def _lower_inverse(F: np.ndarray) -> np.ndarray:
    """The inverses of an (nB, b, b) stack of lower-triangular factors with
    a real positive diagonal d, by forward substitution batched over the
    blocks: step i forms row i of every block's inverse at once.

    With F = D U, U unit lower-triangular, F^-1 = U^-1 D^-1; row i of U^-1
    is e_i - U[i, :i] U^-1[:i, :], one (1, i) x (i, i) product per block, so
    the b - 1 steps after row 0 do one batched matmul each: b^3 / 3
    multiply-adds a block in all, half of them on the zeros above the
    diagonal of U^-1[:i, :i]. Only F's lower triangle is read. A slot that
    is 1 on the diagonal and 0 elsewhere comes back as exactly that.

    On a (20, 25, 25) stack (K=500, one BLAS thread) this takes 0.24-0.40 ms,
    against 0.49-0.58 ms for ``np.linalg.inv``, which runs a pivoted LU on
    the full blocks, and 0.8-1.4 against 2.1-2.6 ms at 80 blocks. At 2
    blocks it takes 75-90 against 55-65 us: each step costs a fixed numpy
    overhead."""
    n = F.shape[-1]
    d = F.diagonal(axis1=1, axis2=2).real
    neg_U = F / -d[:, :, None]
    X = np.zeros_like(F)
    X.reshape(len(F), -1)[:, ::n + 1] = 1.0
    for i in range(1, n):
        np.matmul(neg_U[:, i:i + 1, :i], X[:, :i, :i], out=X[:, i:i + 1, :i])
    X /= d[:, None, :]
    return X


def update_qX(s: PosteriorState, grams: np.ndarray, kr: np.ndarray) -> PosteriorState:
    """Refresh (M_X, c_diag, tr_GC, resid) by one Gauss-Seidel sweep of
    block q(X), without forming C_X.

    q(X) = prod_B q(X_B) over the blocks of :func:`_block_slots`, and
    ``grams`` is their :func:`precompute_gram` stack. ``kr`` and ``grams``
    hold the columns and blocks of the devices in the state. C_X is
    block-diagonal, and tr_GC = sum_B Tr(G_BB C_B).

    C_B = (E[beta] G_BB + diag E[v_B])^-1 does not read the means, so every
    block's C_B comes from one batched Cholesky factorization P_B = F F^H of
    the stack, which also reports a system that is not positive-definite,
    as C_B = F^-H F^-1, with F^-1 formed by batched forward substitution
    (:func:`_lower_inverse`). An empty slot of a short block holds 1 on the
    diagonal and 0 elsewhere, in P, F and F^-1 alike, so it does not touch
    the block's entries.
    Then, block by block in device order, starting from copies of the
    current M_X and of R = ``s.resid`` = Y_(d+1) - M_X KR^T, with N_B the
    block's columns of M_X,

      Delta = (E[beta] R KR_B^* - N_B diag E[v_B]) C_B,  N_B += Delta,
      R -= Delta KR_B^T,

    which sets N_B to its optimum E[beta] (R + N_B KR_B^T) KR_B^* C_B given
    the other blocks: exact coordinate ascent on the ELBO of
    q(X) = prod_B q(X_B). R KR_B^* is taken as (R^* KR_B)^*, so the only
    conjugate copies made are of the M x L residual."""
    e_beta, e_v = s.E_beta, s.E_v
    M_X, R = s.M_X.copy(), s.resid.copy()
    slots = _block_slots(len(e_v))
    v = np.ones(slots.shape)
    v[slots] = e_v
    P = e_beta * grams
    P.reshape(len(P), -1)[:, ::P.shape[1] + 1] += v
    try:
        F = np.linalg.cholesky(P)
    except np.linalg.LinAlgError as exc:
        raise EngineError(f"X-covariance block not positive-definite: {exc}") from exc
    del P
    F_inv = _lower_inverse(F)
    del F
    C = F_inv.conj().transpose(0, 2, 1) @ F_inv
    del F_inv
    c_diag = C.diagonal(axis1=1, axis2=2).real[slots]
    tr_GC = float(np.einsum("bij,bji->", grams, C).real)
    lo = 0
    for C_B, n in zip(C, slots.sum(axis=1)):
        hi = lo + n
        kr_B, N_B = kr[:, lo:hi], M_X[:, lo:hi]
        delta = np.conjugate(R.conj() @ kr_B)
        delta *= e_beta
        delta -= N_B * e_v[lo:hi]
        delta = delta @ C_B[:n, :n]
        N_B += delta
        R -= delta @ kr_B.T
        lo = hi
    if not (np.all(np.isfinite(M_X)) and np.all(np.isfinite(c_diag))):
        raise EngineError("non-finite entries in q(X) update")
    if np.any(c_diag <= 0):
        raise EngineError("non-positive diagonal of the X-covariance")
    return dataclasses.replace(s, M_X=M_X, c_diag=c_diag, tr_GC=tr_GC, resid=R)


def update_qv(s: PosteriorState, col_energy: np.ndarray) -> PosteriorState:
    """Refresh the column-precision rates
    a_v[k] = ||M_X(:,k)||^2 + M c_diag[k] + EPS, with c_diag = diag(C_X)
    from q(X) and ``col_energy`` the column energies ||M_X(:,k)||^2 of
    ``s.M_X``, which :func:`run` also reads."""
    M = s.M_X.shape[0]
    a_v = col_energy + M * s.c_diag + EPS
    if np.any(a_v <= 0) or not np.all(np.isfinite(a_v)):
        raise EngineError("non-positive or non-finite q(v) rate")
    return dataclasses.replace(s, a_v=a_v)


def expected_residual(s: PosteriorState) -> float:
    """Posterior-expected squared residual of the L x M samples
    F = E||Y^T - X KR^T||_F^2 = ||R||_F^2 + M Tr(G C_X), with R = Y^T - M_X KR^T
    the kept residual and Tr(G C_X) the stored tr_GC; E[X^H X] =
    M_X^H M_X + M C_X gives the second term."""
    return float(np.vdot(s.resid, s.resid).real) + s.M_X.shape[0] * s.tr_GC


def update_qbeta(s: PosteriorState, y_energy: float) -> PosteriorState:
    """Refresh the noise-precision rate a_beta = F + EPS, with F from
    :func:`expected_residual`.

    F is mathematically >= 0; anything below -1e-8 (relative to the
    observation energy y_energy = ||Y||^2) is reported as numerical failure,
    and mere roundoff below zero is truncated before adding EPS.
    """
    F = expected_residual(s)
    if F < -1e-8 * (1.0 + y_energy):
        raise EngineError(f"negative expected residual F={F}")
    return dataclasses.replace(s, a_beta=max(F, 0.0) + EPS)


def prune(e_v: np.ndarray, col_energy: np.ndarray, prev_col_energy: np.ndarray
          ) -> np.ndarray:
    """Mask over the active devices of those that leave the q(X) solve.

    A device goes when its precision has collapsed relative to the active
    set, E[v_k] > PRUNE_PRECISION_RATIO * min E[v], and its column of M_X
    holds less than PRUNE_ENERGY_FRACTION of the largest column energy and
    did not grow over the previous iteration (``prev_col_energy``). The
    device with the smallest E[v] always stays. A column that still grows
    may belong to a true device that the iteration has not yet picked up."""
    return ((e_v > PRUNE_PRECISION_RATIO * np.min(e_v))
            & (col_energy < PRUNE_ENERGY_FRACTION * np.max(col_energy))
            & (col_energy <= prev_col_energy))


def run(p: tuple[np.ndarray, ...], kr: np.ndarray, Y: np.ndarray) -> EngineResult:
    """Iterate until the relative Frobenius change of M_X drops below
    REL_TOL or MAX_ITERS is reached. Each iteration runs on one set of
    devices: it drops those that :func:`prune` names, runs qX -> qv ->
    qbeta, writes its trace row and takes the stop test.

    ``kr`` is KR, formed once by the caller and only read here; ``p`` serves
    only :func:`precompute_gram`. ||Y||^2 and the Gram blocks are formed
    once, here; no K x K array is formed.

    A pruned device leaves the q(X) solve for good: one index compacts the
    state to the devices left, and their columns of KR, their Gram blocks
    (blocked afresh) and the residual are formed again. The stop test
    compares the mean over the devices in that iteration's solve. At return
    the state is mapped back to all K devices, a pruned one with an
    all-zero column of M_X, c_diag = 0 and the q(v) rate EPS. Pruning
    changes the model, so the ELBO is non-decreasing only between pruning
    steps. A run where no device meets the rule gives the M_X of the
    unpruned iteration bit for bit.

    Pruning opens an iteration, so a run with MAX_ITERS = n returns the
    first n trace rows of any longer run, and as its state the state that
    run held after iteration n."""
    K = kr.shape[1]
    grams = precompute_gram(p)
    y_energy = float(np.vdot(Y, Y).real)
    s = init_posterior(kr, Y, y_energy)
    # s, col_energy, grams and the q(X) copy kr_a hold only the devices in
    # ``active``
    active, kr_a = np.arange(K), kr
    col_energy = prev_col_energy = np.sum(np.abs(s.M_X) ** 2, axis=0)
    trace: list[tuple[int, float, float, int, float]] = []
    converged = False
    for it in range(1, MAX_ITERS + 1):
        drop = prune(s.E_v, col_energy, prev_col_energy)
        if drop.any():
            keep = np.flatnonzero(~drop)
            active, col_energy = active[keep], col_energy[keep]
            # one copy of KR's columns is live at a time, and none while the
            # Gram blocks are formed
            del kr_a
            grams = precompute_gram(tuple(a[:, active] for a in p))
            kr_a = np.take(kr, active, axis=1)      # C-ordered, as KR is
            M_X = s.M_X[:, keep]
            s = dataclasses.replace(s, M_X=M_X, c_diag=s.c_diag[keep], a_v=s.a_v[keep],
                                    resid=Y.T - M_X @ kr_a.T)
        prev, prev_col_energy = s.M_X, col_energy
        s = update_qX(s, grams, kr_a)
        col_energy = np.sum(np.abs(s.M_X) ** 2, axis=0)
        s = update_qv(s, col_energy)
        s = update_qbeta(s, y_energy)
        F = s.a_beta - EPS
        trace.append((it, F, float(np.max(col_energy)), len(active), s.E_beta))
        denom = float(np.linalg.norm(prev))
        if denom > 0 and float(np.linalg.norm(s.M_X - prev)) / denom < REL_TOL:
            converged = True
            break
    M_X = np.zeros((s.M_X.shape[0], K), dtype=s.M_X.dtype)
    c_diag, a_v = np.zeros(K), np.full(K, EPS)
    M_X[:, active], c_diag[active], a_v[active] = s.M_X, s.c_diag, s.a_v
    s = dataclasses.replace(s, M_X=M_X, c_diag=c_diag, a_v=a_v)
    return EngineResult(state=s, n_iters=it, converged=converged, trace=trace)


# perfbench/run.py's traced run looks these names up and wraps them; nothing
# in leojadce calls them.
update_qmu = hyp1f1 = khatri_rao = None
