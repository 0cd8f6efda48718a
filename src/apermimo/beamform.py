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
than silently producing garbage: the acceptance rule is cond(G) <= 1e12
and a verified reconstruction residual max|H W - I| <= 1e-9. The
residual is taken in float64 on the rounded W, about eps sqrt(cond) M,
so draws with cond(G) >~ 1e11 fail it even after refinement: they are
counted as residual rejects, below the nominal condition limit. The
condition screen has two stages: cond(G) <= ||G||_F ||X||_F, so a slice
whose bound clears the limit needs no eigendecomposition. The bound is
taken on the X the solver returns, which is garbage for a numerically
singular G; its Frobenius norm is then still large, its real trace need
not be.
"""

from typing import NamedTuple

import numpy as np

COND_LIMIT = 1e12
RESIDUAL_LIMIT = 1e-9
REFINE_STEPS = 4


class ZfBatch(NamedTuple):
    """Batched zero-forcing solve results (leading axes = batch)."""

    weights: np.ndarray  # (..., M, K), zeroed where not ok
    beta: np.ndarray  # (...,) 1 / tr X, zero where not ok
    noise_gain: np.ndarray  # (..., K) Re diag X, garbage where not ok
    residual: np.ndarray  # (...,) max |H W - I|, +inf where cond(G) fails
    ok: np.ndarray  # (...,) bool acceptance mask


def _gram_cond_ok(gram: np.ndarray) -> np.ndarray:
    """cond(G) <= COND_LIMIT from the eigenvalues of Hermitian PSD matrices."""
    ev = np.linalg.eigvalsh(gram)
    return (ev[..., 0] > 0.0) & (ev[..., -1] <= COND_LIMIT * ev[..., 0])


def _refine_inverse(h_bad: np.ndarray, inv_bad: np.ndarray):
    """Newton-refine Gram inverses in extended precision.

    X <- X (2I - G X) squares the residual I - G X at every step, so a
    float64 seed whose residual is eps*cond < 1 converges quadratically to
    the extended-precision inverse. The precoder W = H^H X is also formed
    in extended precision before rounding: rounding W costs only
    eps*sqrt(cond) of residual, whereas rounding X first would cost
    eps*cond and defeat the refinement. Worth the detour only for the rare
    near-collision draws whose plain solve misses the residual gate: their
    refined precoder passes it honestly instead of being discarded, which
    keeps the deep tail of the SINR distribution unbiased.
    """
    h_ld = h_bad.astype(np.clongdouble)
    gram = h_ld @ h_ld.conj().swapaxes(-1, -2)
    x = inv_bad.astype(np.clongdouble)
    eye = np.eye(h_bad.shape[-2], dtype=np.clongdouble)
    for _ in range(REFINE_STEPS):
        x = x + x @ (eye - gram @ x)
    w = h_ld.conj().swapaxes(-1, -2) @ x
    return x.astype(np.complex128), w.astype(np.complex128)


def _zf_solve(h: np.ndarray) -> ZfBatch:
    """Batched zero-forcing solve for channels of shape (..., K, M).

    Every slice is inverted; those whose bound exceeds the limit or is not
    finite (all of them when an exactly singular slice makes the batched
    inverse raise) get their exact condition number. A slice that fails
    the limit is inverted again with its Gram matrix replaced by I, so one
    bad draw cannot poison the batch, and comes back with ok=False, zeroed
    weights and beta, and an infinite residual. Slices that pass but miss
    the residual tolerance get one extended-precision refinement pass;
    whatever still fails the (recomputed) residual check is rejected.
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
    residual = np.abs(h @ w - eye).max(axis=(-2, -1))
    bad = ok & (residual > RESIDUAL_LIMIT)
    if np.any(bad):
        h_bad = h[bad]
        x, w_bad = _refine_inverse(h_bad, inv[bad])
        inv[bad] = x
        w[bad] = w_bad
        residual[bad] = np.abs(h_bad @ w_bad - eye).max(axis=(-2, -1))
    noise_gain = np.diagonal(inv, axis1=-2, axis2=-1).real.copy()
    beta = 1.0 / noise_gain.sum(axis=-1)
    residual[~ok] = np.inf
    ok &= residual <= RESIDUAL_LIMIT
    w[~ok] = 0.0
    beta[~ok] = 0.0
    return ZfBatch(w, beta, noise_gain, residual, ok)
