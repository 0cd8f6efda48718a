import numpy as np
import pytest

from apermimo.arrays import regular_layout
from apermimo.beamform import COND_LIMIT, RESIDUAL_LIMIT, _zf_solve
from apermimo.channel import STREAM_EVAL, sample_wave_blocks, wave_field
from apermimo.engine import ScenarioConfig, _simulate_block, default_layout


def _random_channel(rng, k, m):
    return rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))


def _solve_one(h):
    """_zf_solve on a single K x M channel, unbatched."""
    res = _zf_solve(h[None])
    return res._replace(**{name: value[0] for name, value in res._asdict().items()})


def _oracle_cond_ok(h):
    """cond(H H^H) <= COND_LIMIT from the SVD, independent of the solver's screen."""
    return np.linalg.cond(h @ h.conj().swapaxes(-1, -2)) <= COND_LIMIT


def _assert_matches_oracle(h, res):
    """The acceptance mask is cond(G) <= COND_LIMIT plus the residual gate.

    A slice that fails the condition limit is rejected with an infinite
    residual. A slice that passes it is accepted exactly when the W it
    comes back with reconstructs I within RESIDUAL_LIMIT; otherwise it
    carries the finite residual that failed the gate. Accepted slices have
    beta = 1 / ||W||_F^2 up to K * RESIDUAL_LIMIT (tr(W^H W) = tr X + tr(X R)
    for the residual R = H W - I), rejected ones zero weights and beta.
    """
    k = h.shape[-2]
    cond_ok = _oracle_cond_ok(h)
    assert not np.any(res.ok & ~cond_ok)
    assert np.all(np.isinf(res.residual[~cond_ok]))
    resid = np.abs(h @ res.weights - np.eye(k)).max(axis=(-2, -1))
    np.testing.assert_array_equal(res.ok, cond_ok & (resid <= RESIDUAL_LIMIT))
    np.testing.assert_allclose(res.residual[res.ok], resid[res.ok], rtol=0, atol=1e-12)
    lost = cond_ok & ~res.ok
    assert np.all(np.isfinite(res.residual[lost]))
    assert np.all(res.residual[lost] > RESIDUAL_LIMIT)
    power = np.sum(np.abs(res.weights) ** 2, axis=(-2, -1))
    np.testing.assert_allclose(
        res.beta[res.ok] * power[res.ok], 1.0, rtol=0, atol=k * RESIDUAL_LIMIT
    )
    assert np.all(res.weights[~res.ok] == 0.0) and np.all(res.beta[~res.ok] == 0.0)


def test_zf_reconstructs_identity():
    rng = np.random.default_rng(0)
    for k, m in ((2, 8), (4, 16), (8, 16)):
        h = _random_channel(rng, k, m)
        res = _solve_one(h)
        assert res.ok
        np.testing.assert_allclose(h @ res.weights, np.eye(k), atol=1e-10)


def test_zf_matches_svd_pseudoinverse():
    """Independent oracle: the SVD pseudoinverse of a full-row-rank matrix."""
    rng = np.random.default_rng(1)
    h = _random_channel(rng, 4, 12)
    np.testing.assert_allclose(_solve_one(h).weights, np.linalg.pinv(h), atol=1e-10)


def test_beta_is_inverse_weight_power():
    rng = np.random.default_rng(2)
    h = _random_channel(rng, 3, 9)
    res = _solve_one(h)
    trace = np.sum(np.abs(res.weights) ** 2)
    assert res.beta == pytest.approx(1.0 / trace, rel=1e-12)


def test_zf_scale_equivariance():
    rng = np.random.default_rng(3)
    h = _random_channel(rng, 3, 9)
    c = 2.5
    res1 = _solve_one(h)
    res2 = _solve_one(c * h)
    np.testing.assert_allclose(res2.weights, res1.weights / c, rtol=1e-10)
    assert res2.beta == pytest.approx(res1.beta * c * c, rel=1e-10)


def test_singular_channel_rejected():
    h = np.ones((2, 6), dtype=complex)  # duplicated rows
    res = _solve_one(h)
    assert not res.ok
    assert not _oracle_cond_ok(h)
    assert np.all(res.weights == 0.0) and res.beta == 0.0


def test_wide_channel_rejected():
    with pytest.raises(ValueError):
        _zf_solve(np.ones((1, 4, 2), dtype=complex))
    with pytest.raises(ValueError):  # no batch axis
        _zf_solve(np.ones((2, 4), dtype=complex))


def _brute_force_sinr(h, w, beta, snr):
    """Per-user SINR of precoder sqrt(beta) W, one user and one stream at a time."""
    k = h.shape[0]
    sinr = np.empty(k)
    for kk in range(k):
        sig = beta * snr * abs(h[kk] @ w[:, kk]) ** 2
        interf = beta * snr * sum(abs(h[kk] @ w[:, j]) ** 2 for j in range(k) if j != kk)
        sinr[kk] = sig / (interf + 1.0)
    return sinr


def test_downlink_sinr_equalized_by_zf():
    """Brute-force downlink SINR of the ZF weights is beta * snr for every user."""
    rng = np.random.default_rng(4)
    snr = 1.7
    for k, m in ((3, 8), (4, 10)):
        h = _random_channel(rng, k, m)
        res = _solve_one(h)
        sinr = _brute_force_sinr(h, res.weights, res.beta, snr)
        np.testing.assert_allclose(sinr, res.beta * snr, rtol=1e-9)


def test_downlink_sinr_general_precoder():
    """The engine's downlink SINR equals the per-user loop run on a precoder
    built in the test (pinv of the rebuilt plane-wave channel), with the
    interference terms kept rather than assumed zero."""
    sc = ScenarioConfig(
        M=8, K=3, waves_per_ue=4, realizations=40, master_seed=5, snr_db=3.0,
        link="downlink",
    )
    layout = default_layout(sc)
    norm = 1.3
    blk = _simulate_block(sc, layout, norm, 0, sc.realizations, STREAM_EVAL)
    params = sample_wave_blocks(
        sc.master_seed, STREAM_EVAL, range(sc.realizations), sc.K, sc.waves_per_ue
    )
    h = wave_field(layout.positions, *params, norm=norm)
    accepted = np.flatnonzero(blk["ok"])
    assert accepted.size >= 30
    for i in accepted:
        w = np.linalg.pinv(h[i])
        beta = 1.0 / np.sum(np.abs(w) ** 2)
        sinr = _brute_force_sinr(h[i], w, beta, sc.snr)
        np.testing.assert_allclose(blk["sinr"][i], sinr, rtol=1e-9)


def test_uplink_sinr_matches_decoder_noise_norms():
    """The uplink combiner is the pseudoinverse of G = H^T; its row norms
    set the post-combining noise power, so SINR = snr / noise_gain."""
    rng = np.random.default_rng(7)
    h = _random_channel(rng, 3, 9)
    snr = 0.8
    sinr = snr / _solve_one(h).noise_gain
    g = h.T
    d = np.linalg.pinv(g)
    np.testing.assert_allclose(d @ g, np.eye(3), atol=1e-10)
    noise = np.sum(np.abs(d) ** 2, axis=1)
    np.testing.assert_allclose(sinr, snr / noise, rtol=1e-9)


def test_uplink_rejects_singular():
    # proportional rows: the users share one spatial signature
    row = np.exp(0.4j * np.arange(5))
    assert not _solve_one(np.stack([row, 2.0 * row])).ok


def _steering_pair(du, m=57, aperture=7.0, a2=1.0, u0=0.3):
    x = np.linspace(0.0, aperture, m)
    h = np.stack(
        [
            np.exp(2j * np.pi * x * (u0 - du / 2)),
            a2 * np.exp(2j * np.pi * x * (u0 + du / 2)),
        ]
    )
    return h


def test_batch_solve_masks_bad_slices():
    rng = np.random.default_rng(8)
    good = _random_channel(rng, 2, 8)
    bad = np.ones((2, 8), dtype=complex)
    batch = np.stack([good, bad])
    res = _zf_solve(batch)
    assert res.ok[0] and not res.ok[1]
    assert np.all(res.weights[1] == 0.0)
    assert res.beta[1] == 0.0
    assert np.isinf(res.residual[1])
    np.testing.assert_allclose(batch[0] @ res.weights[0], np.eye(2), atol=1e-10)


def test_batch_solve_independent_of_grouping():
    """An exactly singular slice in one half sends that whole batch through
    the eigenvalue screen; no other slice's numbers may change."""
    rng = np.random.default_rng(9)
    hs = _random_channel(rng, 8 * 2, 6).reshape(8, 2, 6)
    hs[6] = 1.0  # duplicated rows
    full = _zf_solve(hs)
    assert full.ok[:6].all() and not full.ok[6] and full.ok[7]
    first = _zf_solve(hs[:4])
    second = _zf_solve(hs[4:])
    np.testing.assert_array_equal(full.weights[:4], first.weights)
    np.testing.assert_array_equal(full.weights[4:], second.weights)
    np.testing.assert_array_equal(full.beta[:4], first.beta)
    np.testing.assert_array_equal(full.beta[4:], second.beta)
    np.testing.assert_array_equal(full.noise_gain[4:], second.noise_gain)
    np.testing.assert_array_equal(full.residual[4:], second.residual)


def test_near_collision_refinement_keeps_residual_gate():
    """Draws beyond the plain float64 solve's accuracy must either pass the
    residual gate after refinement or be rejected, never accepted dirty."""
    for du in (1e-4, 1e-5, 3e-6):
        h = _steering_pair(du)
        res = _zf_solve(h[None])
        assert _oracle_cond_ok(h)
        _assert_matches_oracle(h[None], res)
    assert _zf_solve(_steering_pair(1e-5)[None]).ok[0]  # refinement recovers this


def test_hopeless_collision_rejected():
    res = _zf_solve(_steering_pair(1e-8)[None])
    assert not res.ok[0]


def test_accepted_residuals_bounded_at_scale():
    """Random realistic batch: every accepted draw satisfies the gate."""
    rng = np.random.default_rng(10)
    m, k, n = 16, 8, 400
    x = np.arange(m) * 1.0
    u = rng.uniform(-0.85, 0.85, size=(n, k))
    amp = rng.uniform(0, 1, size=(n, k, 1))
    h = amp * np.exp(2j * np.pi * x * u[..., None])
    res = _zf_solve(h)
    assert res.ok.sum() > n * 0.9
    assert res.residual[res.ok].max() <= RESIDUAL_LIMIT


def test_screen_matches_oracle_on_mixed_batch():
    """One batch mixing random channels, near collisions the refinement
    rescues, near collisions beyond it, and singular slices: the two-stage
    screen rejects exactly what the SVD condition number and the residual
    gate reject."""
    rng = np.random.default_rng(11)
    rows = np.exp(0.4j * np.arange(57))
    slices = [_random_channel(rng, 2, 57) for _ in range(3)]
    slices += [_steering_pair(du) for du in (1e-4, 1e-5, 3e-6, 1e-6, 5e-7, 1e-7, 1e-8)]
    slices += [np.stack([rows, rows]), np.stack([rows, 2.0 * rows])]
    slices += [_steering_pair(3e-6, a2=0.5), _random_channel(rng, 2, 57)]
    h = np.stack(slices)
    res = _zf_solve(h)
    _assert_matches_oracle(h, res)
    cond_ok = _oracle_cond_ok(h)
    assert (~cond_ok).sum() >= 4  # 1e-7, 1e-8 and the two singular slices
    assert (cond_ok & ~res.ok).any()  # 5e-7 misses the residual gate
    # without the singular slices the batch inverse does not raise
    regular = np.r_[:10, 12:14]
    _assert_matches_oracle(h[regular], _zf_solve(h[regular]))


@pytest.mark.parametrize(
    "m, aperture, k, n",
    [(505, 63.0, 19, 2000), (16, 15.0, 8, 4096)],
    ids=["dense-505x19", "16x8"],
)
def test_screen_matches_oracle_on_engine_draws(m, aperture, k, n):
    """Line-of-sight draws of the 505-element dense reference at K = 19 and of
    the 16-element array at K = 8, including draws that fail the condition
    limit: the acceptance mask equals the oracle."""
    positions = regular_layout(m, aperture).positions
    cond_rejected = 0
    for s in range(0, n, 500):
        params = sample_wave_blocks(1, STREAM_EVAL, range(s, min(n, s + 500)), k, 1)
        h = wave_field(positions, *params, norm=1.0)
        _assert_matches_oracle(h, _zf_solve(h))
        cond_rejected += int((~_oracle_cond_ok(h)).sum())
    assert cond_rejected >= 1


def test_screen_passes_bound_failures_that_clear_the_limit():
    """K = 19 Gram matrices with one small eigenvalue: cond(G) = c but
    ||G||_F ||G^-1||_F ~ sqrt(18) c. Where only the bound exceeds the limit
    the exact condition number clears the slice, so it reaches the residual
    gate and comes back with a finite residual, never as a condition reject."""
    rng = np.random.default_rng(12)
    k, m = 19, 24
    slices = []
    for c in (1e3, 3e11, 5e11, 8e11, 2e12):
        u, _ = np.linalg.qr(_random_channel(rng, k, k))
        v, _ = np.linalg.qr(_random_channel(rng, m, k))
        lam = np.ones(k)
        lam[-1] = 1.0 / c
        slices.append(u @ np.diag(np.sqrt(lam)) @ v.conj().T)
    h = np.stack(slices)
    gram = h @ h.conj().swapaxes(-1, -2)
    bound = np.linalg.norm(gram, axis=(-2, -1)) * np.linalg.norm(
        np.linalg.inv(gram), axis=(-2, -1)
    )
    flagged = (bound > COND_LIMIT) & _oracle_cond_ok(h)
    np.testing.assert_array_equal(flagged, [False, True, True, True, False])
    res = _zf_solve(h)
    _assert_matches_oracle(h, res)
    assert res.ok[0] and np.isinf(res.residual[4])
    assert np.all(np.isfinite(res.residual[flagged]))
