"""Batched zero-forcing solve: precoder weights, power scaling and noise gains.

For a K x M channel H (K users, M elements, M >= K) the zero-forcing
precoder is the pseudoinverse W = H^H (H H^H)^-1 scaled so the total
transmit power is one: beta = 1 / tr(W W^H). With that scaling the
downlink model y = sqrt(snr) H sqrt(beta) W s + n gives every user an
interference-free stream at SINR_k = beta * snr.

The uplink mirror applies ZF reception to G = H^T with equal user powers:
SINR_k = snr / [(G^H G)^-1]_kk = snr / Re[(H H^H)^-1]_kk, and the
receive combiner is the conjugate of W^H, so both links load the array
elements identically.

Channels whose Gram matrix H H^H is too ill-conditioned to invert
trustworthily are rejected rather than silently producing garbage: the
acceptance rule is cond(H H^H) <= 1e12 and a verified reconstruction
residual max|H W - I| <= 1e-9.
"""

from typing import NamedTuple

import numpy as np

COND_LIMIT = 1e12
RESIDUAL_LIMIT = 1e-9
REFINE_STEPS = 4


class ZfBatch(NamedTuple):
    """Batched zero-forcing solve results (leading axes = batch)."""

    weights: np.ndarray  # (..., M, K), zeroed where not ok
    beta: np.ndarray  # (...,), zero where not ok
    cond: np.ndarray  # (...,) Gram condition numbers
    noise_gain: np.ndarray  # (..., K) Re diag (H H^H)^-1, garbage where not ok
    residual: np.ndarray  # (...,) max |H W - I|, +inf where not ok
    ok: np.ndarray  # (...,) bool acceptance mask


def _gram_cond(gram: np.ndarray) -> np.ndarray:
    """2-norm condition numbers of a stack of Hermitian PSD matrices."""
    ev = np.linalg.eigvalsh(gram)
    lo = ev[..., 0]
    hi = ev[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(lo > 0.0, hi / np.where(lo > 0.0, lo, 1.0), np.inf)
    return np.where(hi > 0.0, cond, np.inf)


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

    Slices whose Gram matrix exceeds the condition limit (or is singular)
    are replaced by the identity before the solve, so one bad draw cannot
    poison a whole batch; they come back with ok=False, zeroed weights and
    beta, and an infinite residual. Slices that pass the condition screen
    but miss the residual tolerance get one extended-precision refinement
    pass; whatever still fails the (recomputed) residual check is rejected.
    """
    h = np.asarray(h)
    if h.ndim < 2:
        raise ValueError("channel must have shape (..., K, M)")
    k, m = h.shape[-2], h.shape[-1]
    if m < k:
        raise ValueError(f"need at least as many elements as users, got K={k} M={m}")
    gram = h @ h.conj().swapaxes(-1, -2)
    cond = _gram_cond(gram)
    ok = np.isfinite(cond) & (cond <= COND_LIMIT)
    eye = np.eye(k, dtype=gram.dtype)
    safe = np.where(ok[..., None, None], gram, eye)
    inv = np.linalg.solve(safe, np.broadcast_to(eye, gram.shape).copy())
    w = h.conj().swapaxes(-1, -2) @ inv
    residual = np.abs(h @ w - eye).max(axis=(-2, -1))
    bad = ok & (residual > RESIDUAL_LIMIT)
    if np.any(bad):
        h_bad = h[bad]
        x, w_bad = _refine_inverse(h_bad, inv[bad])
        inv[bad] = x
        w[bad] = w_bad
        residual[bad] = np.abs(h_bad @ w_bad - eye).max(axis=(-2, -1))
    noise_gain = np.diagonal(inv, axis1=-2, axis2=-1).real.copy()
    trace = np.einsum("...mk,...mk->...", w, w.conj()).real
    with np.errstate(divide="ignore"):
        beta = np.where(trace > 0.0, 1.0 / np.where(trace > 0.0, trace, 1.0), 0.0)
    residual = np.where(ok, residual, np.inf)
    ok = ok & (residual <= RESIDUAL_LIMIT)
    w = np.where(ok[..., None, None], w, 0.0)
    beta = np.where(ok, beta, 0.0)
    return ZfBatch(
        weights=w, beta=beta, cond=cond, noise_gain=noise_gain, residual=residual, ok=ok
    )
