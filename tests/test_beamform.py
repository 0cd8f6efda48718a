import numpy as np
import pytest

from conftest import gather_block

from apermimo import beamform
from apermimo.arrays import regular_layout
from apermimo.beamform import COND_LIMIT, RESIDUAL_LIMIT, _zf_solve
from apermimo.channel import STREAM_EVAL, STREAM_SYNTHESIS, sample_wave_blocks, wave_field
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
    residual. A slice that passes it is accepted exactly when its residual,
    certified or evaluated, clears RESIDUAL_LIMIT; otherwise it carries the
    finite residual that failed the gate. The precoder W of an accepted
    slice is built here as the SVD pseudoinverse. With the solver's X =
    G^-1 (I + R), |R| <= RESIDUAL_LIMIT entrywise: beta = 1 / tr X is
    1 / ||W||_F^2 up to K * RESIDUAL_LIMIT, since |tr(G^-1 R)| <=
    ||G^-1||_F ||R||_F <= K RESIDUAL_LIMIT tr G^-1, and the summed weights
    H^H X 1 = W (1 + R 1) are W 1 up to K^1.5 RESIDUAL_LIMIT ||W||_F.
    Rejected slices carry zero summed weights and beta and infinite noise
    gains.
    """
    k = h.shape[-2]
    cond_ok = _oracle_cond_ok(h)
    assert not np.any(res.ok & ~cond_ok)
    assert np.all(np.isinf(res.residual[~cond_ok]))
    np.testing.assert_array_equal(res.ok, cond_ok & (res.residual <= RESIDUAL_LIMIT))
    lost = cond_ok & ~res.ok
    assert np.all(np.isfinite(res.residual[lost]))
    assert np.all(res.residual[lost] > RESIDUAL_LIMIT)
    w = np.linalg.pinv(h[res.ok])
    power = np.sum(np.abs(w) ** 2, axis=(-2, -1))
    np.testing.assert_allclose(res.beta[res.ok] * power, 1.0, rtol=0, atol=k * RESIDUAL_LIMIT)
    miss = np.linalg.norm(res.weight_sum[res.ok] - w.sum(axis=-1), axis=-1)
    assert np.all(miss <= k**1.5 * RESIDUAL_LIMIT * np.sqrt(power))
    assert np.all(res.weight_sum[~res.ok] == 0.0) and np.all(res.beta[~res.ok] == 0.0)
    assert np.all(res.noise_gain[~res.ok] == np.inf)


def test_zf_reconstructs_identity():
    """W = H^H G^-1 built here reconstructs I, and the solve returns its
    summed weights W 1 and noise gains diag G^-1."""
    rng = np.random.default_rng(0)
    for k, m in ((2, 8), (4, 16), (8, 16)):
        h = _random_channel(rng, k, m)
        res = _solve_one(h)
        assert res.ok
        w = h.conj().T @ np.linalg.inv(h @ h.conj().T)
        np.testing.assert_allclose(h @ w, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(res.weight_sum, w.sum(axis=-1), atol=1e-10)
        np.testing.assert_allclose(res.noise_gain, np.sum(np.abs(w) ** 2, axis=0), rtol=1e-10)


def test_zf_matches_svd_pseudoinverse():
    """Independent oracle: the SVD pseudoinverse of a full-row-rank matrix."""
    rng = np.random.default_rng(1)
    h = _random_channel(rng, 4, 12)
    np.testing.assert_allclose(_solve_one(h).weight_sum, np.linalg.pinv(h).sum(axis=-1), atol=1e-10)


def test_beta_is_inverse_weight_power():
    rng = np.random.default_rng(2)
    h = _random_channel(rng, 3, 9)
    res = _solve_one(h)
    trace = np.sum(np.abs(np.linalg.pinv(h)) ** 2)
    assert res.beta == pytest.approx(1.0 / trace, rel=1e-12)


def test_zf_scale_equivariance():
    rng = np.random.default_rng(3)
    h = _random_channel(rng, 3, 9)
    c = 2.5
    res1 = _solve_one(h)
    res2 = _solve_one(c * h)
    np.testing.assert_allclose(res2.weight_sum, res1.weight_sum / c, rtol=1e-10)
    assert res2.beta == pytest.approx(res1.beta * c * c, rel=1e-10)


def test_singular_channel_rejected():
    h = np.ones((2, 6), dtype=complex)  # duplicated rows
    res = _solve_one(h)
    assert not res.ok
    assert not _oracle_cond_ok(h)
    assert np.all(res.weight_sum == 0.0) and res.beta == 0.0


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
    """Brute-force downlink SINR of the pseudoinverse weights, scaled by the
    solver's beta, is beta * snr for every user."""
    rng = np.random.default_rng(4)
    snr = 1.7
    for k, m in ((3, 8), (4, 10)):
        h = _random_channel(rng, k, m)
        res = _solve_one(h)
        sinr = _brute_force_sinr(h, np.linalg.pinv(h), res.beta, snr)
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
    blk = gather_block(_simulate_block(sc, (layout,), norm, 0, sc.realizations, STREAM_EVAL))[0]
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
    assert np.all(res.weight_sum[1] == 0.0)
    assert res.beta[1] == 0.0
    assert np.isinf(res.residual[1])
    np.testing.assert_allclose(batch[0] @ res.weight_sum[0], np.ones(2), atol=1e-10)


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
    np.testing.assert_array_equal(full.weight_sum[:4], first.weight_sum)
    np.testing.assert_array_equal(full.weight_sum[4:], second.weight_sum)
    np.testing.assert_array_equal(full.beta[:4], first.beta)
    np.testing.assert_array_equal(full.beta[4:], second.beta)
    np.testing.assert_array_equal(full.noise_gain[4:], second.noise_gain)
    np.testing.assert_array_equal(full.residual[4:], second.residual)


def test_near_collision_refinement_keeps_residual_gate():
    """Draws beyond the plain float64 solve's accuracy must either pass the
    residual gate after the QR rescue or be rejected, never accepted dirty."""
    for du in (1e-4, 1e-5, 3e-6):
        h = _steering_pair(du)
        res = _zf_solve(h[None])
        assert _oracle_cond_ok(h)
        _assert_matches_oracle(h[None], res)
    assert _zf_solve(_steering_pair(1e-5)[None]).ok[0]  # the rescue recovers this
    assert _zf_solve(_steering_pair(5e-7)[None]).ok[0]  # cond(G) ~ 9.6e10


def test_nonpositive_noise_gain_rejected(negated_rescue_gain):
    """A rescued slice with a nonpositive noise gain is rejected like any
    other untrustworthy draw: zero summed weights and beta, infinite noise gains."""
    rng = np.random.default_rng(11)
    res = _zf_solve(np.stack([_random_channel(rng, 2, 57), _steering_pair(1e-5)]))
    assert negated_rescue_gain == [1]
    np.testing.assert_array_equal(res.ok, [True, False])
    assert res.residual[1] <= RESIDUAL_LIMIT  # the gain alone rejects it
    assert np.all(res.weight_sum[1] == 0.0) and res.beta[1] == 0.0
    assert np.all(res.noise_gain[1] == np.inf)
    assert np.all(np.isfinite(res.noise_gain[0])) and np.all(res.noise_gain[0] > 0.0)


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
    """One batch mixing random channels, near collisions the QR rescue
    recovers, near collisions beyond the condition limit, and singular
    slices: the two-stage screen rejects exactly what the SVD condition
    number and the residual gate reject, and the residual gate rejects no
    slice that passes the condition limit."""
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
    np.testing.assert_array_equal(res.ok, cond_ok)
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
    limit: the acceptance mask equals the oracle, and no draw that passes
    the condition limit is rejected by the residual gate."""
    positions = regular_layout(m, aperture).positions
    cond_rejected = 0
    for s in range(0, n, 500):
        params = sample_wave_blocks(1, STREAM_EVAL, range(s, min(n, s + 500)), k, 1)
        h = wave_field(positions, *params, norm=1.0)
        res = _zf_solve(h)
        _assert_matches_oracle(h, res)
        cond_ok = _oracle_cond_ok(h)
        np.testing.assert_array_equal(res.ok, cond_ok)
        cond_rejected += int((~cond_ok).sum())
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


def _weights_verdict(h):
    """The zero-forcing verdict through W alone, as the solve reached it for
    every slice before the certificate: the two-stage condition screen, W =
    H^H X, the float64 residual max|H W - I| on the rounded W, and the QR
    rescue of the slices that miss the gate. Returns (ok, residual, G, X),
    with G and X the Gram matrix and inverse the solve starts from."""
    k = h.shape[-2]
    eye = np.eye(k)
    hh = h.conj().swapaxes(-1, -2)
    gram = h @ hh
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        inv = np.full_like(gram, np.nan)
    ok = np.linalg.norm(gram, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1)) <= COND_LIMIT
    if not ok.all():
        suspect = ~ok
        gram_s = gram[suspect]
        cond_ok = beamform._gram_cond_ok(gram_s)
        gram_s[~cond_ok] = eye
        inv[suspect] = np.linalg.inv(gram_s)
        ok[suspect] = cond_ok
    noise_gain = np.diagonal(inv, axis1=-2, axis2=-1).real.copy()
    residual = np.abs(h @ (hh @ inv) - eye).max(axis=(-2, -1))
    bad = ok & (residual > RESIDUAL_LIMIT)
    if np.any(bad):
        h_bad = h[bad]
        noise_gain[bad], w_bad = beamform._refine_inverse(h_bad)
        residual[bad] = np.abs(h_bad @ w_bad - eye).max(axis=(-2, -1))
    residual[~ok] = np.inf
    ok &= (residual <= RESIDUAL_LIMIT) & (noise_gain.min(axis=-1) > 0.0)
    return ok, residual, gram, inv


def _clustered_channels(rng, n, m, aperture, k, l):
    """n channels of K users with L plane waves each on the regular layout,
    in which user 1 repeats user 0's waves shifted by a log-uniform offset
    in direction cosine, so cond(G) runs from below 1e3 to past the limit."""
    x = regular_layout(m, aperture).positions
    u = rng.uniform(-0.9, 0.9, (n, k, l))
    u[:, 1] = u[:, 0] + (10.0 ** rng.uniform(-6.5, -0.5, n) / aperture)[:, None]
    coeff = rng.rayleigh(1.0, (n, k, l)) * np.exp(2j * np.pi * rng.uniform(size=(n, k, l)))
    coeff[:, 1] = coeff[:, 0]
    return np.einsum("nkl,nklm->nkm", coeff, np.exp(2j * np.pi * u[..., None] * x))


@pytest.mark.parametrize(
    "m, aperture, k, l, n",
    [(505, 63.0, 19, 1, 128), (64, 63.0, 19, 1, 256), (16, 15.0, 8, 1, 256),
     (16, 15.0, 2, 20, 256)],
    ids=["505x19", "64x19", "16x8", "16x2-L20"],
)
def test_certificate_is_sound_against_the_weights_path(weights_path_slices, m, aperture, k, l, n):
    """The certificate clears no slice that the verdict through W rejects,
    so the acceptance mask is that verdict's; every slice it clears reports
    its certificate as the residual, and that is at least max|H (H^H X) - I|
    evaluated here in extended precision. Every other slice within the
    condition limit goes through W and reports the W residual."""
    h = _clustered_channels(np.random.default_rng(13), n, m, aperture, k, l)
    cond = np.linalg.cond(h @ h.conj().swapaxes(-1, -2))
    assert cond.min() < 1e3 and np.any((cond > 1e11) & (cond <= COND_LIMIT))
    ok, residual, gram, inv = _weights_verdict(h)
    cond_ok = np.isfinite(residual)  # infinite exactly where the condition screen rejects
    cleared = cond_ok & (beamform._residual_bound(gram, inv, m) <= RESIDUAL_LIMIT)
    assert 0 < cleared.sum() < cond_ok.sum()
    res = _zf_solve(h)
    assert not np.any(cleared & ~ok)
    np.testing.assert_array_equal(res.ok, ok)
    assert sum(weights_path_slices) == int((cond_ok & ~cleared).sum())
    hl, xl = h[cleared].astype(np.clongdouble), inv[cleared].astype(np.clongdouble)
    exact = np.abs(hl @ (hl.conj().swapaxes(-1, -2) @ xl) - np.eye(k)).max(axis=(-2, -1))
    assert np.all(res.residual[cleared] >= exact)
    np.testing.assert_array_equal(res.residual[~cleared], residual[~cleared])


def test_most_synthesis_reference_draws_skip_the_weights_path(weights_path_slices):
    """Guard on the certificate's constants: of 1024 seed-1 line-of-sight
    draws of the 505-element dense reference at K = 19, at most 20% are
    verified through W (about 16% when written). A looser bound would send
    every slice back to W without changing any verdict."""
    positions = regular_layout(505, 63.0).positions
    for s in range(0, 1024, 256):
        params = sample_wave_blocks(1, STREAM_SYNTHESIS, range(s, s + 256), 19, 1)
        _zf_solve(wave_field(positions, *params, norm=1.0))
    assert sum(weights_path_slices) <= 0.2 * 1024
