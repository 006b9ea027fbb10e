import numpy as np
import pytest

from hwmimo import channel
from hwmimo.channel import draw_phases, draw_world, phase_correlation, sorted_unique
from hwmimo.model import HardwareProfile, LoMode, conventional_profile
from hwmimo.rng import (CHANNEL, DISTORTION, DROP, PHASE, RECEIVER_NOISE, SHADOW,
                        complex_normal, substream)

from conftest import impaired_profile, make_book, random_scenario
from oracles import full_cov, whole_complex_normal, whole_draw_world


def test_phase_correlation_trivia():
    assert phase_correlation(0.0, 123.0) == 1.0
    assert phase_correlation(0.7, 0.0) == 1.0
    assert phase_correlation(1.58e-4, 500) == pytest.approx(np.exp(-0.5 * 1.58e-4 * 500))
    with pytest.raises(ValueError):
        phase_correlation(-1.0, 1.0)


@pytest.mark.parametrize("values", [
    np.array([]),
    np.array([3]),
    np.array([5, 1, 5, 3, 1, 1]),
    np.array([12.0, 1.0, 4.5, 1.0, 12.0, 0.5]),
])
def test_sorted_unique_matches_np_unique(values):
    got = sorted_unique(values)
    assert got.dtype == values.dtype
    np.testing.assert_array_equal(got, np.unique(values))


def test_phase_correlation_monte_carlo_oracle():
    # average of exp(i(phi(t1) - phi(t2))) over many Wiener trajectories
    delta, t1, t2 = 1.58e-4, 1, 501
    rng = np.random.default_rng(7)
    phi = draw_phases(delta, [t1, t2], n_osc=1, rng=rng, trials=1_200_000)
    samples = np.exp(1j * (phi[:, 0, 0] - phi[:, 1, 0]))
    est = samples.mean()
    expected = phase_correlation(delta, t1 - t2)
    assert expected == pytest.approx(0.9613, abs=2e-4)
    stderr = samples.real.std() / np.sqrt(samples.size)
    assert abs(est.real - expected) < 4 * stderr
    assert abs(est.imag) < 4 * stderr


@pytest.mark.parametrize("lo", [LoMode.CLO, LoMode.SLO])
def test_empirical_phase_correlation_both_topologies(lo):
    # same statistic through draw_world's trajectories, one walk per oscillator
    delta = 2e-3
    n_osc = 4 if lo is LoMode.SLO else 1
    phi = draw_phases(delta, np.arange(1, 41), n_osc, np.random.default_rng(11), trials=120_000)
    z = np.exp(1j * (phi[:, 5, :] - phi[:, 35, :]))
    est = z.mean(axis=0)
    expected = phase_correlation(delta, 30)
    stderr = z.real.std() / np.sqrt(z.shape[0])
    assert np.all(np.abs(est.real - expected) < 4 * stderr * np.sqrt(n_osc))


def test_draw_phases_increment_statistics():
    delta = 0.03
    phi = draw_phases(delta, np.arange(1, 6), 2, np.random.default_rng(3), trials=200_000)
    inc = np.diff(phi, axis=1)
    assert inc.mean() == pytest.approx(0.0, abs=3e-3)
    assert inc.var() == pytest.approx(delta, rel=0.02)
    # independent oscillators: cross-correlation of increments vanishes
    c = np.mean(inc[:, :, 0] * inc[:, :, 1])
    assert abs(c) < 3e-3


def _clean(book, h):
    """Noiseless, undrifted pilot observation sum_l H_jl x_l(tau_b), (size, B, N)."""
    return np.einsum("lbk,slkn->sbn", book.sequences, h)


def _eta(hw, seed, j, shape):
    """Receiver noise of chunk 0 of cell j, read back from its own substream."""
    return complex_normal(substream(seed, 0, j, RECEIVER_NOISE), hw.xi, shape)


def _pilot_times(book):
    return np.asarray(book.tau, dtype=float)


def test_received_block_obeys_model_equation(rng):
    # psi = rot(tau) * sum_l H_jl x_l(tau) + eta without distortion, laid out
    # pilot-time major
    scen = random_scenario(rng, L=2, K=2, N=4, T=10)
    hw = impaired_profile(lo=LoMode.SLO, delta=5e-3, kappa2=0.0)
    book = make_book(scen, "dft", "uniform")
    size, B, N = 3, book.B, scen.N
    h, rot_tau, psi, _ = next(draw_world(scen, hw, book, 1, _pilot_times(book), 0, size, seed=99))
    eta = _eta(hw, 99, 1, (size, B, N))
    np.testing.assert_allclose(psi.reshape(size, B, N) - eta, rot_tau * _clean(book, h), rtol=1e-12)


def test_conventional_profile_reduces_to_clean_model(rng):
    scen = random_scenario(rng, T=8)
    book = make_book(scen, "temporal")
    hw = conventional_profile(scen.sigma2)
    ts = np.arange(1.0, 9.0)
    h, rot, psi, _ = next(draw_world(scen, hw, book, 0, ts, 0, 1, seed=5))
    # no distortion: the observation is the drifted clean signal plus eta only
    B, N = book.B, scen.N
    eta = _eta(hw, 5, 0, (1, B, N))
    tau = np.asarray(book.tau) - 1
    np.testing.assert_allclose(
        psi.reshape(1, B, N) - eta, rot[:, tau] * _clean(book, h), rtol=1e-12
    )
    # common-oscillator rotation with zero drift stays constant over the block
    assert rot.shape == (1, 8, 1)
    np.testing.assert_allclose(rot, np.broadcast_to(rot[:, :1], rot.shape), rtol=1e-12)


def test_clo_applies_common_rotation(rng):
    scen = random_scenario(rng, T=6)
    book = make_book(scen, "dft")
    ts = np.arange(1.0, 7.0)
    tau = np.asarray(book.tau) - 1
    size, B, N = 5, book.B, scen.N
    # one oscillator per cell for a CLO, one per antenna for SLOs; every
    # antenna sees its pilots through its oscillator's rotation
    for lo, n_osc in [(LoMode.CLO, 1), (LoMode.SLO, N)]:
        hw = impaired_profile(lo=lo, delta=0.01, kappa2=0.0)
        h, rot_ts, psi, _ = next(draw_world(scen, hw, book, 0, ts, 0, size, seed=2))
        assert rot_ts.shape == (size, 6, n_osc)
        eta = _eta(hw, 2, 0, (size, B, N))
        np.testing.assert_allclose(
            psi.reshape(size, B, N) - eta, rot_ts[:, tau] * _clean(book, h), rtol=1e-12
        )


def test_receiver_noise_variance_statistical(rng):
    scen = random_scenario(rng, L=1, K=1, N=8, T=4)
    hw = HardwareProfile(delta=0.0, kappa2=0.0, xi=1.7, lo_mode=LoMode.CLO)
    book = make_book(scen, "temporal", B=1)
    M = 1600  # 1600 trials * B = 1 * N = 8 = 12800 draws per entry stat
    h, rot_tau, psi, _ = next(draw_world(scen, hw, book, 0, _pilot_times(book), 0, M, seed=31))
    eta = psi.reshape(M, 1, scen.N) - rot_tau * _clean(book, h)
    var = np.mean(np.abs(eta) ** 2)
    assert var == pytest.approx(hw.xi, rel=0.02)


def test_channel_variance_matches_covariance(rng):
    scen = random_scenario(rng, L=2, K=2, N=4, T=4)
    hw = conventional_profile(scen.sigma2)
    book = make_book(scen, "temporal")
    M = 3000
    h, _, _, _ = next(draw_world(scen, hw, book, 0, _pilot_times(book), 0, M, seed=77))
    emp = np.mean(np.abs(h) ** 2, axis=0)
    lam = full_cov(scen)[0]
    # O(1/sqrt(M)) convergence of the empirical second moment
    assert np.all(np.abs(emp - lam) < 5 * lam / np.sqrt(M))


def test_distortion_variance_conditional_on_channel(rng):
    scen = random_scenario(rng, L=1, K=1, N=2, T=3)
    hw = impaired_profile(lo=LoMode.CLO, delta=0.0, kappa2=0.5)
    book = make_book(scen, "temporal", B=1)
    M = 6000  # 6000 trials * B = 1 * N = 2 = 12000 normalized powers
    h, rot_tau, psi, _ = next(draw_world(scen, hw, book, 0, _pilot_times(book), 0, M, seed=13))
    # each trial has its own channel, so check the conditional variance by
    # averaging the distortion power normalized by it
    upsilon = psi.reshape(M, 1, scen.N) - rot_tau * _clean(book, h) - _eta(hw, 13, 0, (M, 1, scen.N))
    energy = np.abs(book.sequences.transpose(0, 2, 1)) ** 2  # (L, K, B)
    var = hw.kappa2 * np.einsum("lkb,slkn->sbn", energy, np.abs(h) ** 2)
    assert np.mean(np.abs(upsilon) ** 2 / var) == pytest.approx(1.0, rel=0.03)


def test_blocks_deterministic_per_seed(rng):
    scen = random_scenario(rng)
    hw = impaired_profile()
    book = make_book(scen)
    ts = np.array([3.0, 9.0])
    w1 = next(draw_world(scen, hw, book, 1, ts, 7, 4, seed=123))
    w2 = next(draw_world(scen, hw, book, 1, ts, 7, 4, seed=123))
    for a, b in zip(w1, w2):
        np.testing.assert_array_equal(a, b)
    w3 = next(draw_world(scen, hw, book, 1, ts, 7, 4, seed=124))
    assert not np.array_equal(w1[2], w3[2])


def test_substreams_disjoint():
    a = substream(1, 0, 0, 0).standard_normal(8)
    b = substream(1, 0, 0, 1).standard_normal(8)
    c = substream(1, 1, 0, 0).standard_normal(8)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    np.testing.assert_array_equal(a, substream(1, 0, 0, 0).standard_normal(8))


def test_world_entities_draw_sfc64_and_other_keys_philox():
    # the entity, the key's last element, picks the bit generator
    for entity in (CHANNEL, PHASE, DISTORTION, RECEIVER_NOISE):
        assert type(substream((3, 1), 2, 0, entity).bit_generator) is np.random.SFC64
        assert type(substream(3, entity).bit_generator) is np.random.SFC64
    for key in ((2, 0, DROP), (2, 0, SHADOW), (2, 0, 7), ()):
        assert type(substream(3, *key).bit_generator) is np.random.Philox


def _in_pieces(draw, n, rows):
    """``draw(lo, hi)`` over consecutive pieces of at most ``rows`` of the
    leading axis of length ``n``, joined."""
    return np.concatenate([draw(lo, min(lo + rows, n)) for lo in range(0, n, rows)])


@pytest.mark.parametrize("block_bytes", [2**20, 8 * 5 * 6 * 3, 8])
@pytest.mark.parametrize("var", ["scalar", "trailing", "full"])
def test_complex_normal_blocks_match_whole_shape_draw(rng, block_bytes, var):
    # 17 rows of 5 x 6 drawn in consecutive blocks from one generator: one
    # block, blocks of 3 rows with a ragged last one, and one row per block
    # under a budget below one row; each joins to one whole draw bit for bit
    shape = (17, 5, 6)
    rows = max(1, min(17, block_bytes // (8 * 30)))
    var = {"scalar": 1.7, "trailing": rng.uniform(0.1, 2.0, (5, 6)),
           "full": rng.uniform(0.1, 2.0, shape)}[var]
    gen = substream(4, 2, 1, 0)
    got = _in_pieces(lambda lo, hi: complex_normal(
        gen, var[lo:hi] if np.ndim(var) == 3 else var, (hi - lo, 5, 6)), 17, rows)
    want = whole_complex_normal(substream(4, 2, 1, 0), var, shape)
    assert got.shape == shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(complex_normal(substream(4, 2, 1, 0), var, shape), want)


@pytest.mark.parametrize("shape", [(), (0, 3), (3, 0)])
def test_complex_normal_scalar_and_empty_shapes(shape):
    got = complex_normal(substream(6, 1), 0.8, shape)
    assert got.shape == shape
    np.testing.assert_array_equal(got, whole_complex_normal(substream(6, 1), 0.8, shape))
    # a draw of this shape then one of 4 entries continue the stream of one draw
    gen = substream(6, 1)
    first = complex_normal(gen, 0.8, shape)
    joined = np.concatenate([first.reshape(-1), complex_normal(gen, 0.8, (4,))])
    n = first.size + 4
    np.testing.assert_array_equal(joined, whole_complex_normal(substream(6, 1), 0.8, (n,)))


def test_complex_normal_row_wider_than_block():
    # rows of 2**18 entries (4 MiB each) drawn one row at a time
    shape = (3, 2**18)
    gen = substream(5, 0)
    np.testing.assert_array_equal(
        _in_pieces(lambda lo, hi: complex_normal(gen, 0.3, (hi - lo, 2**18)), 3, 1),
        whole_complex_normal(substream(5, 0), 0.3, shape))


def _world_scene(rng, lo):
    """Two cells of 3 UEs, N = 8 on 2 subarrays; SLOs walk 8 oscillators
    over 29 times."""
    scen = random_scenario(rng, L=2, K=3, N=8, T=40, subarrays=2, factorized=True)
    return scen, impaired_profile(lo=lo, delta=2e-3, kappa2=0.04), make_book(scen)


@pytest.mark.parametrize("lo", [LoMode.CLO, LoMode.SLO])
@pytest.mark.parametrize("block_bytes", [2**20, 3 * 8 * 2 * 3 * 8, 8])
def test_draw_world_matches_whole_chunk_draw(rng, monkeypatch, lo, block_bytes):
    # 11 trials of |h|^2 in one block, in blocks of 3 with a ragged last
    # one, and one trial per block under a budget narrower than a trial;
    # the pilot power and the distortion weight both come from the blocks
    monkeypatch.setattr(channel, "_BLOCK_BYTES", block_bytes)
    scen, hw, book = _world_scene(rng, lo)
    ts = np.arange(5.0, 31.0)
    got = next(draw_world(scen, hw, book, 1, ts, 3, 11, seed=(9, 2)))
    want = whole_draw_world(scen, hw, book, 1, ts, 3, 11, seed=(9, 2))
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("lo", [LoMode.CLO, LoMode.SLO])
@pytest.mark.parametrize("tiles", [[4, 4, 3], [2, 5, 1, 3], [1] * 11],
                         ids=["ragged", "uneven", "one-trial"])
def test_draw_world_tiles_join_to_the_one_tile_draw(rng, lo, tiles):
    # each tile continues every substream of the chunk, so the tiles of a
    # chunk, joined, are its one-tile world bit for bit, and so the whole
    # chunk's world, distortion weight included
    scen, hw, book = _world_scene(rng, lo)
    ts = np.arange(5.0, 31.0)
    worlds = list(draw_world(scen, hw, book, 1, ts, 3, 11, (9, 2), tiles))
    assert [w[0].shape[0] for w in worlds] == tiles
    one = next(draw_world(scen, hw, book, 1, ts, 3, 11, seed=(9, 2)))
    whole = whole_draw_world(scen, hw, book, 1, ts, 3, 11, seed=(9, 2))
    for i, (a, b) in enumerate(zip(one, whole, strict=True)):
        joined = np.concatenate([w[i] for w in worlds])
        np.testing.assert_array_equal(joined, a)
        np.testing.assert_array_equal(joined, b)
