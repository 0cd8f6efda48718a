"""Batched zero-forcing solve: power scaling, noise gains and summed weights.

For a K x M channel H (K users, M elements, M >= K) with Gram matrix
G = H H^H and X = G^-1, the zero-forcing precoder is the pseudoinverse
W = H^H X scaled so the total transmit power is one: beta = 1 / tr(W^H W)
= 1 / tr X. With that scaling the downlink model
y = sqrt(snr) H sqrt(beta) W s + n gives every user an interference-free
stream at SINR_k = beta * snr.

The uplink mirror applies ZF reception to H^T with equal user powers:
SINR_k = snr / Re X_kk, and the receive combiner is the conjugate of W^H,
so both links load the array elements identically. Of W itself the
engine reads only W 1 = H^H (X 1), each element's weights summed over
users, which is one K x M product; the solve returns that, not W.

Draws too ill-conditioned to invert trustworthily are rejected rather
than silently producing garbage: the acceptance rule, one for both
links, is cond(G) <= 1e12, a verified reconstruction residual
max|H W - I| <= 1e-9, and every noise gain positive. A rejected slice
carries zero summed weights and beta and infinite noise gains, so both
SINR formulas read 0 on it.

The residual is verified without W where G and X certify it. With
u = 2^-53 and gamma_n = n u / (1 - n u), Higham's model of complex
arithmetic (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
section 3.6, Lemma 3.5) rounds a complex sum with relative error at most
u and a complex product with at most sqrt(2) gamma_2, so an inner product
of length n, summed in any order, is within c_n |x|^T |y| of the exact
one, c_n = sqrt(2) gamma_(n+2): each term meets at most n - 1 sums, and
(1 + sqrt(2) gamma_2)(1 + gamma_(n-1)) <= 1 + sqrt(2) gamma_(n+1). A
BLAS kernel that accumulates the real products a c and b d of each part
in separate fused multiply-add chains, combines them once and adds the
result to C once per k-block of a blocked product, rounds each part at
most n + 2 times; as |a c| + |b d| <= |a + ib| |c + id|, c_n covers it
too. (A kernel that interleaved all 2n real products of a part in one
chain would need sqrt(2) gamma_(2n).) Hence:

- the computed Gram fl(G) = G + E has |E_kj| <= c_M sum_m |h_km| |h_jm|
  <= c_M sqrt(G_kk G_jj) (Cauchy-Schwarz), so with
  d_k = sqrt(Re fl(G)_kk), G_kk <= d_k^2 / (1 - c_M) and
  |fl(G)_kj| <= (1 + c_M) d_k d_j / (1 - c_M);
- P = fl(fl(G) X) = fl(G) X + F with |F| <= c_K |fl(G)| |X|;
- H H^H X - I = (P - I) - F - E X, so with s_l = sum_j d_j |X_jl|

  |H H^H X - I|_kl <= |P - I|_kl + c d_k s_l,
  c = (c_M + c_K (1 + c_M)) / (1 - c_M).

The bound holds entry by entry for the exact W = H^H X of the computed
X; its maximum is the certificate. Evaluating it rounds each of its
nonnegative terms at most K + 18 times (the constant c itself 10 times,
and a complex modulus, an ulp-accurate hypot, counted as 2). The
computed maximum is multiplied by 1 + gamma_(2K+20): 2 roundings in
gamma, 1 in the sum and 1 in the product, and (1 - u)^-(K+20) <=
1 + gamma_(K+20) <= 1 + (1 - u)^2 gamma_(2K+20) for K >= 1, so the
result is still an upper bound. It costs a K^3 product and a few K^2
passes per slice, against the two K^2 M products of W and of H W. A
slice whose certificate is at most the residual limit is accepted with
the certificate as its residual: at seed 1, 84% of the 505-element,
19-user line-of-sight reference draws, 88% of 16x8 draws and all at
L = 20 with K = 2. The certificate carries the worst case of every
rounding, so it fails from about cond(G) ~ 1e-9 / c_M on.

The other slices within the condition limit are gathered and take the
weights path (_weights_path): W = H^H X, its residual max|H W - I| taken
in float64 on the rounded W, and the QR rescue of those that miss the
gate. Inverting G leaves W with about eps cond(G) of error, so from
cond(G) ~ 1e7 on some slices miss the gate. The QR rescue
(_refine_inverse) leaves about eps sqrt(cond(G)), so every rescued slice
within the condition limit passes it (largest residual measured 3.4e-10,
at cond(G) up to 9.7e11), and the condition screen decides every
rejection seen in practice. That screen has two stages:
cond(G) <= ||G||_F ||X||_F, so a slice whose bound clears the limit
needs no eigendecomposition. The bound is taken on the X the solver
returns, which is garbage for a numerically singular G; its Frobenius
norm is then still large, its real trace need not be.
"""

from typing import NamedTuple

import numpy as np

COND_LIMIT = 1e12
RESIDUAL_LIMIT = 1e-9

_UNIT_ROUNDOFF = 2.0**-53


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u) for float64."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


class ZfBatch(NamedTuple):
    """Batched zero-forcing solve results (leading axes = batch).

    ``residual`` bounds max|H W - I| for the exact W = H^H X of a slice
    the certificate clears (module docstring); on the other slices within
    the condition limit it is the float64 residual of the rounded W, the
    QR rescue's where that ran.
    """

    weight_sum: np.ndarray  # (..., M) W 1 = H^H (X 1), zero where not ok
    beta: np.ndarray  # (...,) 1 / tr X, zero where not ok
    noise_gain: np.ndarray  # (..., K) Re diag X, +inf where not ok
    residual: np.ndarray  # (...,) max|H W - I| certified or evaluated, +inf where cond(G) fails
    ok: np.ndarray  # (...,) bool acceptance mask


def _gram_cond_ok(gram: np.ndarray) -> np.ndarray:
    """cond(G) <= COND_LIMIT from the eigenvalues of Hermitian PSD matrices."""
    ev = np.linalg.eigvalsh(gram)
    return (ev[..., 0] > 0.0) & (ev[..., -1] <= COND_LIMIT * ev[..., 0])


def _residual_bound(gram: np.ndarray, inv: np.ndarray, m: int) -> np.ndarray:
    """The certificate: an upper bound on max|H H^H X - I| of every slice
    from the computed Gram matrix, its computed inverse X and M alone
    (module docstring). NaN where X is not finite."""
    k = gram.shape[-1]
    bound = gram @ inv
    bound.reshape(-1, k * k)[:, :: k + 1] -= 1.0
    bound = np.abs(bound)
    d = np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1).real)
    c_k, c_m = np.sqrt(2.0) * _gamma(k + 2), np.sqrt(2.0) * _gamma(m + 2)
    scale = (c_m + c_k * (1.0 + c_m)) / (1.0 - c_m)
    bound += (scale * d)[..., :, None] * (d[..., None, :] @ np.abs(inv))
    return bound.max(axis=(-2, -1)) * (1.0 + _gamma(2 * k + 20))


def _refine_inverse(h_bad: np.ndarray):
    """Rescue slices that miss the residual gate with a QR of H^H.

    With H^H = Q R, X = R^-1 R^-H and W = H^H X = Q R^-H, so each noise
    gain X_kk is the squared norm of row k of R^-1 and G is never formed:
    W carries about eps sqrt(cond(G)) of error, not eps cond(G). Slower
    than the Gram path on the bulk, so only these slices take it.
    Returns (noise_gain, W).
    """
    q, r = np.linalg.qr(h_bad.conj().swapaxes(-1, -2))
    r_inv = np.linalg.inv(r)
    return (np.abs(r_inv) ** 2).sum(axis=-1), q @ r_inv.conj().swapaxes(-1, -2)


def _weights_path(h: np.ndarray, inv: np.ndarray):
    """Verify the (n, K, M) slices the certificate leaves through W itself.

    W = H^H X and its residual max|H W - I| in float64; the slices above
    RESIDUAL_LIMIT are solved again by the QR rescue and their residual
    recomputed. Returns (noise_gain, W 1, residual).
    """
    k = h.shape[-2]
    eye = np.eye(k)
    w = h.conj().swapaxes(-1, -2) @ inv
    noise_gain = np.diagonal(inv, axis1=-2, axis2=-1).real.copy()
    residual = np.abs(h @ w - eye).max(axis=(-2, -1))
    bad = residual > RESIDUAL_LIMIT
    if np.any(bad):
        h_bad = h[bad]
        noise_gain[bad], w_bad = _refine_inverse(h_bad)
        w[bad] = w_bad
        residual[bad] = np.abs(h_bad @ w_bad - eye).max(axis=(-2, -1))
    return noise_gain, w @ np.ones(k), residual


def _zf_solve(h: np.ndarray) -> ZfBatch:
    """Batched zero-forcing solve for channels of shape (..., K, M).

    Every slice is inverted; those whose bound exceeds the limit or is not
    finite (all of them when an exactly singular slice makes the batched
    inverse raise) get their exact condition number. A slice that fails
    the limit is inverted again with its Gram matrix replaced by I, so one
    bad draw cannot poison the batch, and comes back with ok=False, zeroed
    summed weights and beta, and an infinite residual. A slice within the
    limit whose certificate clears the residual tolerance needs no W; the
    others are gathered and verified through W (:func:`_weights_path`).
    Whatever still fails its residual, or has a noise gain that is not
    positive, is rejected. Every rejected slice gets infinite noise gains.
    """
    h = np.asarray(h)
    if h.ndim < 3:
        raise ValueError("channel must have shape (..., K, M) with a batch axis")
    k, m = h.shape[-2], h.shape[-1]
    if m < k:
        raise ValueError(f"need at least as many elements as users, got K={k} M={m}")
    hh = h.conj().swapaxes(-1, -2)
    gram = h @ hh
    eye = np.eye(k)
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        inv = np.full_like(gram, np.nan)
    bound = np.linalg.norm(gram, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))
    ok = bound <= COND_LIMIT
    if not ok.all():
        suspect = ~ok
        gram_s = gram[suspect]
        cond_ok = _gram_cond_ok(gram_s)
        gram_s[~cond_ok] = eye
        inv[suspect] = np.linalg.inv(gram_s)
        ok[suspect] = cond_ok
    noise_gain = np.diagonal(inv, axis1=-2, axis2=-1).real.copy()
    residual = _residual_bound(gram, inv, m)
    weight_sum = (hh @ (inv @ np.ones(k))[..., None])[..., 0]
    del hh  # the weights path gathers its own: two full H^H-sized arrays raised the 505x19 peak
    uncertified = ok & ~(residual <= RESIDUAL_LIMIT)
    if np.any(uncertified):
        noise_gain[uncertified], weight_sum[uncertified], residual[uncertified] = (
            _weights_path(h[uncertified], inv[uncertified])
        )
    beta = 1.0 / noise_gain.sum(axis=-1)
    residual[~ok] = np.inf
    ok &= (residual <= RESIDUAL_LIMIT) & (noise_gain.min(axis=-1) > 0.0)
    weight_sum[~ok] = 0.0
    beta[~ok] = 0.0
    noise_gain[~ok] = np.inf
    return ZfBatch(weight_sum, beta, noise_gain, residual, ok)
