import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from hwmimo import channel, estimator, montecarlo
from hwmimo.channel import draw_world, world_bytes
from hwmimo.estimator import EstimatorCache, build_cache
from hwmimo.model import HardwareProfile, LoMode, Scenario, conventional_profile
from hwmimo.montecarlo import (
    _BATCHES,
    FilterKind,
    McConfig,
    _fold,
    _rate_from_means,
    empirical_mse,
    estimate_moments,
    mmse_filter,
)
from hwmimo.scenario_gen import generate

from conftest import impaired_profile, make_book, random_scenario
from oracles import (
    all_link_estimates,
    dense_mmse_filter,
    full_cov,
    mean_and_batch_se,
    mmse_filter_inputs,
    mrc_moments,
    stacked_mmse_use,
    ue_rate,
)

_MOMENTS = ("norm2", "norm2_se", "first", "first_se", "second", "second_se",
            "distortion", "distortion_se")


def within(mc_val, cf_val, se, rel=0.02, nse=3.0):
    return abs(mc_val - cf_val) <= max(rel * abs(cf_val), nse * se, 1e-12)


@pytest.mark.parametrize(
    "lo,book_kind,delta,kappa",
    [
        (LoMode.CLO, "dft", 1e-3, 0.1),
        (LoMode.SLO, "dft", 1e-3, 0.0),
        (LoMode.SLO, "temporal", 0.0, 0.1),
    ],
)
def test_mc_moments_match_closed_form(rng, lo, book_kind, delta, kappa):
    scen = random_scenario(rng, L=2, K=2, N=4, T=10)
    hw = impaired_profile(lo=lo, delta=delta, kappa2=kappa**2, xi=1.3)
    book = make_book(scen, book_kind)
    cache = build_cache(scen, hw, book)
    t = 7
    cf = mrc_moments(cache, 0, 0, t)
    mc = estimate_moments(cache, FilterKind.MRC, 0, 0, [t], McConfig(trials=30_000, seed=5))
    assert within(mc.norm2[0], cf.norm2, mc.norm2_se[0], rel=0.04)
    assert within(mc.first[0].real, cf.first, mc.first_se[0], rel=0.04)
    assert abs(mc.first[0].imag) <= 5 * mc.first_se[0] + 1e-9
    for l in range(2):
        for m in range(2):
            assert within(mc.second[0, l, m], cf.second[l, m], mc.second_se[0, l, m], rel=0.05)
    if kappa > 0:
        assert within(mc.distortion[0], cf.distortion, mc.distortion_se[0], rel=0.05)
    else:
        assert mc.distortion[0] == 0.0 == cf.distortion


def test_mc_scalar_conventional_case():
    # single link, ideal hardware: moments have textbook closed forms
    scen = Scenario(
        L=1, K=1, N=1, T=6,
        cov=np.ones((1, 1, 1, 1)), powers=np.ones((1, 1)), sigma2=1.0,
    )
    hw = conventional_profile(1.0)
    book = make_book(scen, "temporal", B=1)
    mc = estimate_moments(
        build_cache(scen, hw, book), FilterKind.MRC, 0, 0, [4], McConfig(trials=60_000, seed=9)
    )
    # gain 1/2 applied to psi with E|psi|^2 = 2: E||v||^2 = 1/2
    assert mc.norm2[0] == pytest.approx(0.5, rel=0.03)
    assert mc.first[0].real == pytest.approx(0.5, rel=0.03)
    # E|v^H h|^2 = E|h|^4/4 + E|h|^2 E|n|^2/4 = 2/4 + 1/4
    assert mc.second[0, 0, 0] == pytest.approx(0.75, rel=0.05)


def test_lemma_gaussian_fourth_moment_identity(rng):
    # E|u^H M u|^2 = |tr(Lam M)|^2 + tr(Lam M Lam M^H) for u ~ CN(0, Lam)
    for trial in range(3):
        n = int(rng.integers(2, 7))
        lam = rng.uniform(0.2, 2.0, size=n)
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Lam = np.diag(lam)
        expected = abs(np.trace(Lam @ M)) ** 2 + np.trace(Lam @ M @ Lam @ M.conj().T).real
        g = np.random.default_rng(100 + trial)
        u = (g.standard_normal((400_000, n)) + 1j * g.standard_normal((400_000, n))) * np.sqrt(
            lam / 2
        )
        q = np.einsum("sn,nm,sm->s", u.conj(), M, u)
        est = np.mean(np.abs(q) ** 2)
        se = np.abs(q) ** 2
        assert abs(est - expected) <= max(0.02 * expected, 4 * se.std() / np.sqrt(se.size))


def test_sinr_invariant_to_filter_scaling(rng):
    # v -> c*v multiplies ||v||^2, |v^H h|^2 and the distortion/noise terms by
    # c^2 and the desired inner product by c; the assembled ratio is unchanged
    scen = random_scenario(rng, L=2, K=2, N=3, T=8)
    hw = impaired_profile(lo=LoMode.SLO, delta=2e-3, kappa2=0.04)
    book = make_book(scen)
    cache = build_cache(scen, hw, book)
    mc = estimate_moments(cache, FilterKind.MRC, 0, 1, [6], McConfig(trials=5_000, seed=3))

    def assemble(m):
        return _rate_from_means(cache, 0, 1, m)[1].sinr[0]

    base = assemble(mc)
    c = 3.7
    scaled = type(mc)(
        trials=mc.trials, ts=mc.ts,
        norm2=c**2 * mc.norm2, norm2_se=0.0,
        first=c * mc.first, first_se=0.0,
        second=c**2 * mc.second, second_se=mc.second_se * 0,
        distortion=c**2 * mc.distortion, distortion_se=0.0,
    )
    assert assemble(scaled) == pytest.approx(base, rel=1e-12)


def test_batch_se_includes_imaginary_spread():
    # one value per batch: the SE is the spread of the batch means, here
    # carried entirely by the imaginary part
    noise = np.random.default_rng(4).normal(scale=1e-3, size=_BATCHES)
    ((_, se),) = _fold([(1.0 + 1j * noise,)], _BATCHES)
    assert se == pytest.approx(noise.std(ddof=1) / np.sqrt(_BATCHES), rel=1e-12)


@pytest.mark.parametrize("trials", [1, 7, 100, 257, 1000])
def test_fold_equals_the_joined_reduction(trials):
    # tiles of random sizes, cut across the batch boundaries, fold to the
    # mean and batch SE of all trials joined, bit for bit, complex included
    g = np.random.default_rng(trials)
    real = g.normal(size=(trials, 3, 2)) * 10.0 ** g.uniform(-4, 4, size=(trials, 3, 2))
    cplx = g.normal(size=(trials, 2)) + 1j * g.normal(size=(trials, 2))
    cuts = np.sort(g.choice(np.arange(1, trials), size=min(trials - 1, 9), replace=False))
    edges = [0, *cuts.tolist(), trials]
    tiles = [(real[lo:hi], cplx[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    for (mean, se), joined in zip(_fold(iter(tiles), trials), (real, cplx)):
        want_mean, want_se = mean_and_batch_se(joined)
        assert mean.dtype == joined.dtype and se.dtype == float
        np.testing.assert_array_equal(mean, want_mean)
        np.testing.assert_array_equal(se, want_se)


def _random_tiles(g, values, cuts):
    """``values`` cut at ``cuts`` random places along its trial axis, one tile each."""
    trials = values.shape[0]
    edges = [0, *np.sort(g.choice(np.arange(1, trials), size=cuts, replace=False)).tolist(),
             trials]
    return [(values[lo:hi],) for lo, hi in zip(edges, edges[1:])]


@pytest.mark.parametrize("trials", [99, 1000, 4321])
def test_fold_of_one_value_per_trial_ignores_the_tile_cuts(trials):
    # one value per trial, as `estimate` at one channel use: the running
    # sums add the same trials in the same order under any cut
    g = np.random.default_rng(trials)
    values = g.normal(size=trials) * 10.0 ** g.uniform(-4, 4, size=trials)
    few = _fold(iter(_random_tiles(g, values, min(trials - 1, 3))), trials)
    many = _fold(iter(_random_tiles(g, values, min(trials - 1, 40))), trials)
    for a, b in zip(few[0], many[0]):
        np.testing.assert_array_equal(a, b)


def test_fold_keeps_no_copy_of_a_tile():
    # only the running and batch sums grow with the per-trial size; the
    # tiles are added in place, not joined or cumulatively summed
    g = np.random.default_rng(5)
    trials = 800
    real = g.normal(size=(trials, 4, 30, 25))
    cplx = g.normal(size=(trials, 4)) + 1j * g.normal(size=(trials, 4))
    tiles = [(real[lo:lo + 400], cplx[lo:lo + 400]) for lo in (0, 400)]
    one_trial = real[0].nbytes + cplx[0].nbytes
    peak = _traced_peak(lambda: _fold(iter(tiles), trials))
    assert peak < (1 + _BATCHES) * one_trial + 400 * one_trial


class _Counted(np.ndarray):
    """An array that counts the numpy functions and ufuncs called on it or
    on its views."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        _Counted.calls += 1

        def plain(xs):
            return tuple(x.view(np.ndarray) if isinstance(x, _Counted) else x for x in xs)

        if out is not None:
            kwargs["out"] = plain(out)
        return getattr(ufunc, method)(*plain(inputs), **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        _Counted.calls += 1
        return super().__array_function__(func, types, args, kwargs)


def test_fold_of_cheap_trials_makes_no_numpy_call_per_trial(monkeypatch):
    # 10^5 one-value trials in one tile fold in blocks: the numpy calls grow
    # with the batches and the blocks, not with the trials
    trials = 100_000
    values = np.random.default_rng(6).normal(size=(trials, 1))
    monkeypatch.setattr(_Counted, "calls", 0)
    ((mean, se),) = _fold(iter([(values.view(_Counted),)]), trials)
    block = montecarlo._FOLD_BLOCK_BYTES // values[0].nbytes
    assert _Counted.calls <= 8 * (_BATCHES + trials // block + 1)
    ((want_mean, want_se),) = _fold(iter([(values,)]), trials)
    np.testing.assert_array_equal(mean, want_mean)
    np.testing.assert_array_equal(se, want_se)


def test_stderr_scaling_with_trials(rng):
    scen = random_scenario(rng, L=1, K=2, N=2, T=8)
    hw = impaired_profile(delta=1e-3, kappa2=0.02)
    book = make_book(scen)
    ses = []
    for m in (4_000, 16_000):
        est = estimate_moments(
            build_cache(scen, hw, book), FilterKind.MRC, 0, 0, [5], McConfig(trials=m, seed=8)
        )
        ses.append(est.norm2_se[0])
    # quadrupling the trials halves the standard error, within 20%
    assert ses[0] / ses[1] == pytest.approx(2.0, rel=0.35)


@pytest.mark.parametrize("kind", list(FilterKind))
def test_ue_axis_matches_per_ue_passes(rng, monkeypatch, kind):
    # one pass over an index array of UEs gives each UE the moments, SINR
    # and rate of a pass for it alone, bit for bit; the array's shape leads
    scen = random_scenario(rng, L=2, K=3, N=8, T=12, subarrays=2, factorized=True)
    hw = impaired_profile(lo=LoMode.SLO, delta=3e-3, kappa2=0.03)
    cache = build_cache(scen, hw, make_book(scen))
    monkeypatch.setattr(montecarlo, "_CHUNK_TARGET_BYTES", 2**16)  # several chunks
    monkeypatch.setattr(montecarlo, "_TILE_TARGET_BYTES", 2**14)  # several tiles each
    mc, ts = McConfig(trials=300, seed=11), [4.0, 7.0, 11.0]
    ues = np.array([[2, 0], [1, 2]])
    batch = estimate_moments(cache, kind, 1, ues, ts, mc)
    rates, traj = _rate_from_means(cache, 1, ues, batch)
    assert batch.second.shape == (2, 2, 3, 2, 3) and rates.shape == (2, 2)
    for idx in np.ndindex(ues.shape):
        k = int(ues[idx])
        one = estimate_moments(cache, kind, 1, k, ts, mc)
        for name in _MOMENTS:
            np.testing.assert_array_equal(getattr(batch, name)[idx], getattr(one, name))
        rate, one_traj = _rate_from_means(cache, 1, k, one)
        assert rates[idx] == rate
        np.testing.assert_array_equal(traj.sinr[idx], one_traj.sinr)


def test_one_world_per_chunk_for_every_ue(rng, monkeypatch):
    # chunks are cut by the world's bytes alone, so MRC and MMSE passes, for
    # one UE or an index array of them, and the MSE pass all draw the same
    # (chunk index, size) worlds, one per chunk
    scen = random_scenario(rng, L=2, K=3, N=4, T=9)
    cache = build_cache(scen, impaired_profile(), make_book(scen))
    monkeypatch.setattr(montecarlo, "_CHUNK_TARGET_BYTES", 2**15)
    draws = []
    draw_world = montecarlo.draw_world
    monkeypatch.setattr(montecarlo, "draw_world",
                        lambda *a, **kw: draws.append(a[5:7]) or draw_world(*a, **kw))
    mc, ts = McConfig(trials=200, seed=1), [5, 8]
    runs = [(estimate_moments, (cache, kind, 0, k, ts, mc))
            for kind in FilterKind for k in (1, np.arange(3))]
    runs.append((empirical_mse, (cache, 0, 1, 0, ts, mc)))
    seen = []
    for fn, args in runs:
        draws.clear()
        fn(*args)
        seen.append(list(draws))
    assert len(seen[0]) > 2 and [i for i, _ in seen[0]] == list(range(len(seen[0])))
    assert all(s == seen[0] for s in seen)


def test_every_pass_sees_the_same_world_bits_per_chunk(rng, monkeypatch):
    # MRC and MMSE passes, for one UE or an index array, and the MSE pass
    # cut a chunk into different tiles, yet each chunk's tiles join to the
    # same world, its one-tile draw, bit for bit
    scen = random_scenario(rng, L=2, K=3, N=4, T=9)
    cache = build_cache(scen, impaired_profile(lo=LoMode.SLO, kappa2=0.03), make_book(scen))
    monkeypatch.setattr(montecarlo, "_CHUNK_TARGET_BYTES", 2**15)
    monkeypatch.setattr(montecarlo, "_TILE_TARGET_BYTES", 2**14)
    seen = {}  # chunk index -> its tiles' worlds, of the current pass
    draw_world = montecarlo.draw_world

    def recording(*args):
        for world in draw_world(*args):
            seen.setdefault(args[5], []).append(world)
            yield world

    monkeypatch.setattr(montecarlo, "draw_world", recording)
    mc, ts = McConfig(trials=200, seed=1), np.array([5.0, 8.0])
    runs = [lambda kind=kind, k=k: estimate_moments(cache, kind, 0, k, ts, mc)
            for kind in FilterKind for k in (1, np.arange(3))]
    runs.append(lambda: empirical_mse(cache, 0, 1, 0, ts, mc))
    cuts = set()
    for run in runs:
        seen.clear()
        run()
        assert len(seen) > 2
        cuts.add(tuple(tuple(w[0].shape[0] for w in tiles) for tiles in seen.values()))
        for idx, tiles in seen.items():
            size = sum(w[0].shape[0] for w in tiles)
            one = next(draw_world(scen, cache.hw, cache.book, 0, ts, idx, size, mc.seed))
            for i, a in enumerate(one):
                np.testing.assert_array_equal(np.concatenate([w[i] for w in tiles]), a)
    assert len(cuts) > 2  # the passes do cut their chunks differently


def test_mc_rate_matches_closed_form(rng):
    scen = random_scenario(rng, L=2, K=2, N=4, T=8)
    hw = impaired_profile(lo=LoMode.CLO, delta=2e-3, kappa2=0.02)
    book = make_book(scen, "dft")
    cache = build_cache(scen, hw, book)
    cf = ue_rate(cache, 0, 1)
    m = estimate_moments(cache, FilterKind.MRC, 0, 1, book.data_times(),
                         McConfig(trials=40_000, seed=17))
    rate, _ = _rate_from_means(cache, 0, 1, m)
    assert rate == pytest.approx(cf.rate, rel=0.03)


def test_mmse_filter_direction_single_user(rng):
    # kappa = 0, single UE, zero estimation error: the filter keeps the
    # matched-filter direction (identity-plus-rank-one geometry)
    scen = random_scenario(rng, L=1, K=1, N=4, T=8, subarrays=2, factorized=True)
    hw = HardwareProfile(delta=0.0, kappa2=0.0, xi=1.0)
    cache = build_cache(scen, hw, make_book(scen))
    psi, own, _, gram = mmse_filter_inputs(cache, 0, 5, trials=3)
    v = mmse_filter(own, np.zeros(scen.N), scen, hw, psi, gram)[0]
    for c in range(3):
        hhat = own[0, c]
        cross = np.abs(np.vdot(v[c], hhat)) / (np.linalg.norm(v[c]) * np.linalg.norm(hhat))
        assert cross == pytest.approx(1.0, rel=1e-12)


def test_mmse_filter_matches_direct_construction(rng):
    # per trial c: (sum p h h^H + diag(sum p C) + kappa2 diag(sum p |h|^2 + sum p C) + xi I) v = h_jk,
    # built from all L*K estimates, against the filter: Woodbury on subarray
    # covariances (r = 2 B = 6 < N = 12), the system from Gamma's blocks on
    # per-antenna ones (r = B N >= N)
    hw = HardwareProfile(delta=1e-2, kappa2=0.3, xi=1.4, lo_mode=LoMode.SLO)
    j, t = 1, 6
    for factorized, N in ((True, 12), (False, 6)):
        scen = random_scenario(rng, L=2, K=3, N=N, T=8, subarrays=2, factorized=factorized)
        cache = build_cache(scen, hw, make_book(scen))
        psi, own, err, gram = mmse_filter_inputs(cache, j, t, trials=4)
        v = mmse_filter(own, err, scen, hw, psi, gram)
        assert v.shape == (3, 4, N)
        est, ecov = all_link_estimates(cache, j, t, psi)
        for k in range(3):
            want = dense_mmse_filter(est, ecov, scen, hw, j, k)
            for c in range(4):
                np.testing.assert_allclose(v[k, c], want[c], rtol=1e-10)
        one = mmse_filter(own[:, 2:3], err, scen, hw, psi[2:3], gram)
        np.testing.assert_allclose(one[:, 0], v[:, 2], rtol=1e-12)


@pytest.mark.parametrize("factorized,N", [(True, 12), (False, 6)])  # Ae = 2, then Ae = N
@pytest.mark.parametrize("delta", [0.0, 1e-2])
def test_mmse_gram_equals_the_stacked_gains_bitwise(rng, factorized, N, delta):
    # the one contraction with the per-subarray blocks gives the bits of
    # the L*K zero-padded reduced gains stacked and read off their diagonal
    scen = random_scenario(rng, L=2, K=3, N=N, T=8, subarrays=2, factorized=factorized)
    hw = HardwareProfile(delta=delta, kappa2=0.3, xi=1.4, lo_mode=LoMode.SLO)
    cache = build_cache(scen, hw, make_book(scen))
    for j, t in ((0, 4), (1, 7)):
        for got, want in zip(montecarlo._mmse_use(cache, j, t), stacked_mmse_use(cache, j, t)):
            np.testing.assert_array_equal(got, want)


def test_dense_mmse_oracle_matches_the_written_system(rng):
    # per trial c: (sum p h h^H + diag(sum p C) + kappa2 diag(sum p |h|^2 + sum p C) + xi I) v = h_jk
    scen = random_scenario(rng, L=2, K=3, N=5, T=8)
    hw = HardwareProfile(delta=0.0, kappa2=0.3, xi=1.4, lo_mode=LoMode.SLO)
    est = rng.normal(size=(4, 2, 3, 5)) + 1j * rng.normal(size=(4, 2, 3, 5))
    ecov = rng.uniform(0.1, 1.0, size=(2, 3, 5))
    p = scen.powers
    v = dense_mmse_filter(est, ecov, scen, hw, 1, 2)
    for c in range(4):
        M = np.zeros((5, 5), dtype=complex)
        err = np.zeros(5)
        energy = np.zeros(5)
        for l in range(2):
            for m in range(3):
                h = est[c, l, m]
                M += p[l, m] * np.outer(h, h.conj())
                err += p[l, m] * ecov[l, m]
                energy += p[l, m] * np.abs(h) ** 2
        M += np.diag(err + hw.kappa2 * (energy + err) + hw.xi)
        np.testing.assert_allclose(v[c], np.linalg.solve(M, est[c, 1, 2]), rtol=1e-10)


def test_mmse_filter_finite_for_extreme_distortion(rng):
    hw = HardwareProfile(delta=0.0, kappa2=100.0, xi=1.0, lo_mode=LoMode.SLO)
    for N, factorized in ((6, True), (3, False)):  # Woodbury (r = 4 < N), then r = B N
        scen = random_scenario(rng, L=2, K=2, N=N, T=8, factorized=factorized)
        cache = build_cache(scen, hw, make_book(scen))
        psi, own, err, gram = mmse_filter_inputs(cache, 0, 4, trials=2)
        assert np.all(np.isfinite(mmse_filter(own, err, scen, hw, psi, gram)))


def test_mmse_rate_at_least_mrc(rng):
    scen = random_scenario(rng, L=2, K=2, N=6, T=10)
    hw = impaired_profile(lo=LoMode.SLO, delta=2e-3, kappa2=0.05**2, xi=1.5)
    book = make_book(scen, "dft")
    mcc = McConfig(trials=8_000, seed=23)
    cache = build_cache(scen, hw, book)
    r_mrc, r_mmse = (
        _rate_from_means(cache, 0, 0, estimate_moments(cache, kind, 0, 0, book.data_times(), mcc))[0]
        for kind in (FilterKind.MRC, FilterKind.MMSE)
    )
    assert r_mmse >= r_mrc * 0.98  # filter exploits interference structure


@pytest.mark.parametrize("lo", [LoMode.CLO, LoMode.SLO])
def test_chunk_budget_covers_world_arrays(rng, monkeypatch, lo):
    # every Monte Carlo entry point budgets at least the arrays one trial's
    # world holds, phase rotations at every evaluated channel use included
    scen = random_scenario(rng, L=2, K=2, N=8, T=60)
    hw = impaired_profile(lo=lo)
    book = make_book(scen)
    cache = build_cache(scen, hw, book)
    ts = np.arange(3.0, 61.0)
    budgets = []
    chunk_sizes = montecarlo._chunk_sizes
    monkeypatch.setattr(montecarlo, "_chunk_sizes",
                        lambda trials, per_trial: budgets.append(per_trial)
                        or chunk_sizes(trials, per_trial))
    mc = McConfig(trials=2)
    empirical_mse(cache, 0, 0, 0, ts, mc)
    estimate_moments(cache, FilterKind.MRC, 0, 0, ts, mc)
    world = sum(a.nbytes for a in next(draw_world(scen, hw, book, 0, ts, 0, 1, seed=0)))
    assert len(budgets) == 2
    assert min(budgets) >= world
    if lo is LoMode.SLO:
        # and the peak of a draw per trial, where under SLOs the phase walk
        # of every antenna over all 492 data uses of a drop dominates
        scen = generate("distributed", N=64, snr_db=5.0, T=500, seed=0)
        book = make_book(scen)
        ts = np.asarray(book.data_times(), dtype=float)
        next(draw_world(scen, hw, book, 0, ts, 0, 1, seed=0))  # numpy's first-use allocations
        trials = 20
        peak = _traced_peak(lambda: next(draw_world(scen, hw, book, 0, ts, 0, trials, seed=0)))
        assert world_bytes(scen, hw, book, ts) >= peak / trials


def test_monte_carlo_passes_run_at_one_blas_thread(rng, monkeypatch, fake_blas):
    # a pass pins BLAS at one thread from its first product to its last,
    # so no BLAS worker spins beside it, and the count comes back
    # afterwards, also when a tile raises
    scen = random_scenario(rng, L=2, K=2, N=4, T=9, subarrays=2, factorized=True)
    hw = impaired_profile(lo=LoMode.SLO, delta=3e-3, kappa2=0.03)
    cache = build_cache(scen, hw, make_book(scen))
    monkeypatch.setattr(montecarlo, "_CHUNK_TARGET_BYTES", 2**16)  # several chunks
    seen, fail = [], []

    def recording(fn):
        def call(*args, **kwargs):
            seen.append(fake_blas.threads)
            if fail and len(seen) >= fail[0]:
                raise RuntimeError("tile failed")
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(montecarlo, "draw_world", recording(montecarlo.draw_world))
    monkeypatch.setattr(montecarlo, "_mmse_use", recording(montecarlo._mmse_use))
    monkeypatch.setattr(EstimatorCache, "reduced_gain", recording(EstimatorCache.reduced_gain))
    monkeypatch.setattr(EstimatorCache, "apply_reduced_gain",
                        recording(EstimatorCache.apply_reduced_gain))
    passes = [lambda mc, kind=kind: estimate_moments(cache, kind, 0, [0, 1], [5, 8], mc)
              for kind in FilterKind]
    passes.append(lambda mc: empirical_mse(cache, 0, 1, 0, [5, 8], mc))
    mc = McConfig(trials=400, seed=3)
    for run in passes:
        fail.clear()
        seen.clear()
        run(mc)
        assert seen and set(seen) == {1} and fake_blas.threads == 8
        fail.append(len(seen) // 2)
        seen.clear()
        with pytest.raises(RuntimeError, match="tile failed"):
            run(mc)
        assert set(seen) == {1} and fake_blas.threads == 8


def test_tile_size_changes_no_bit(rng, monkeypatch):
    # every product of a chunk is per trial, so 1-trial tiles and one tile
    # per chunk give the same bits; the chunks (and so the stream) stay put
    scen = random_scenario(rng, L=2, K=2, N=8, T=9, subarrays=2, factorized=True)
    hw = impaired_profile(lo=LoMode.SLO, delta=3e-3, kappa2=0.03)
    cache = build_cache(scen, hw, make_book(scen))
    monkeypatch.setattr(montecarlo, "_CHUNK_TARGET_BYTES", 2**16)  # several chunks
    apply_gain = cache.apply_reduced_gain
    tiles = []
    monkeypatch.setattr(cache, "apply_reduced_gain",
                        lambda gain, psi: tiles.append(psi.shape[0]) or apply_gain(gain, psi))
    mc = McConfig(trials=50, seed=7)

    def run(tile_bytes):
        monkeypatch.setattr(montecarlo, "_TILE_TARGET_BYTES", tile_bytes)
        tiles.clear()
        moments = [estimate_moments(cache, kind, 0, 1, [5, 8], mc) for kind in FilterKind]
        return moments, empirical_mse(cache, 0, 1, 0, [5, 8], mc), sorted(set(tiles))

    one, whole = run(1), run(2**40)
    assert one[2] == [1] and max(whole[2]) > 1
    for a, b in zip(one[0], whole[0]):
        for name in _MOMENTS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    for a, b in zip(one[1], whole[1]):
        np.testing.assert_array_equal(a, b)


def test_channels_are_drawn_one_tile_ahead(rng, monkeypatch):
    # a chunk draws every tile's channels on one helper thread, and
    # submits tile i + 1's draw before tile i is sampled; a one-tile world
    # draws on a helper too
    scen = random_scenario(rng, L=2, K=2, N=4, T=9, subarrays=2, factorized=True)
    hw = impaired_profile(lo=LoMode.SLO, delta=3e-3, kappa2=0.03)
    cache = build_cache(scen, hw, make_book(scen))
    monkeypatch.setattr(montecarlo, "_TILE_TARGET_BYTES", 1)  # one-trial tiles
    events, draws, helpers = [], [], []
    main = threading.get_ident()

    class Helper(channel.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            helpers.append(self)
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            events.append("submit")
            return super().submit(fn, *args, **kwargs)

    complex_normal = channel._rng.complex_normal

    def recording_draw(rng_, var, shape):
        if len(shape) == 4:  # (n, L, K, N): a tile's channels
            draws.append(threading.get_ident())
        return complex_normal(rng_, var, shape)

    simulate = montecarlo._simulate_tile

    def recording_sample(*args):
        events.append("sample")
        return simulate(*args)

    monkeypatch.setattr(channel, "ThreadPoolExecutor", Helper)
    monkeypatch.setattr(channel._rng, "complex_normal", recording_draw)
    monkeypatch.setattr(montecarlo, "_simulate_tile", recording_sample)
    estimate_moments(cache, FilterKind.MRC, 0, 1, [5, 8], McConfig(trials=6, seed=3))
    assert len(helpers) == 1 and len(draws) == 6
    assert len(set(draws)) == 1 and draws[0] != main
    submits = [i for i, e in enumerate(events) if e == "submit"]
    samples = [i for i, e in enumerate(events) if e == "sample"]
    assert len(submits) == len(samples) == 6
    assert all(submits[i + 1] < samples[i] for i in range(5))

    draws.clear()
    next(draw_world(scen, hw, cache.book, 0, np.array([5.0]), 0, 6, seed=3))
    assert len(draws) == 1 and draws[0] != main and len(helpers) == 2


def test_a_pass_leaves_no_thread_running(rng, monkeypatch):
    # every helper thread of a pass has ended when it returns, also when
    # a tile raises, and a world iterator dropped after its first tile
    # ends its helper
    scen = random_scenario(rng, L=2, K=2, N=4, T=9, subarrays=2, factorized=True)
    hw = impaired_profile(lo=LoMode.SLO, delta=3e-3, kappa2=0.03)
    cache = build_cache(scen, hw, make_book(scen))
    monkeypatch.setattr(montecarlo, "_CHUNK_TARGET_BYTES", 2**16)  # several chunks
    monkeypatch.setattr(montecarlo, "_TILE_TARGET_BYTES", 2**13)  # of several tiles
    start = threading.active_count()
    seen, fail = [], []
    apply_gain = EstimatorCache.apply_reduced_gain

    def recording(self, gain, psi):
        seen.append(threading.active_count())
        if fail and len(seen) >= fail[0]:
            raise RuntimeError("tile failed")
        return apply_gain(self, gain, psi)

    monkeypatch.setattr(EstimatorCache, "apply_reduced_gain", recording)
    passes = [lambda mc, kind=kind: estimate_moments(cache, kind, 0, [0, 1], [5, 8], mc)
              for kind in FilterKind]
    passes.append(lambda mc: empirical_mse(cache, 0, 1, 0, [5, 8], mc))
    mc = McConfig(trials=400, seed=3)
    for run in passes:
        fail.clear()
        seen.clear()
        run(mc)
        assert max(seen) > start and threading.active_count() == start
        fail.append(len(seen) // 2)
        seen.clear()
        with pytest.raises(RuntimeError, match="tile failed"):
            run(mc)
        assert max(seen) > start and threading.active_count() == start
    worlds = draw_world(scen, hw, cache.book, 0, np.array([5.0]), 0, 6, 3, [2, 2, 2])
    next(worlds)
    assert threading.active_count() == start + 1
    del worlds
    assert threading.active_count() == start


def _traced_peak(fn):
    """Peak bytes traced while ``fn()`` runs; numpy reports its buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_world_draw_holds_its_outputs_and_bounded_blocks():
    # the mc-mmse chunk (distributed N = 64, 200 links, 100 trials, 3 data
    # uses under SLOs) drawn as one tile: past its outputs, a draw holds
    # blocks of |h|^2 of about 1 MiB and the pilot-sized distortion draw,
    # not whole-chunk normals or |h|^2 (35.6 MiB traced over 20.6 MiB of
    # outputs with them, 23.5 MiB now)
    scen = generate("distributed", N=64, snr_db=5.0, T=500, seed=0)
    hw = HardwareProfile(delta=1.58e-4, kappa2=2.4336e-4, xi=1.58 * scen.sigma2,
                         lo_mode=LoMode.SLO)
    book = make_book(scen)
    ts = np.array([9.0, 173.0, 337.0])
    outputs = sum(a.nbytes for a in next(draw_world(scen, hw, book, 0, ts, 0, 100, seed=0)))
    assert outputs > 20 * 2**20
    peak = _traced_peak(lambda: next(draw_world(scen, hw, book, 0, ts, 0, 100, seed=0)))
    assert peak < outputs + 6 * 2**20


def test_a_pass_holds_one_tile_of_its_world():
    # the mc-mmse pass (distributed N = 64, 200 links, one 100-trial chunk,
    # 3 data uses under SLOs) draws its world tile by tile, about 16 trials
    # at a time, so it never holds the chunk's 19.5 MiB of channels (5.7
    # MiB traced, against 23.7 MiB when the chunk's world was drawn whole)
    scen = generate("distributed", N=64, snr_db=5.0, T=500, seed=0)
    hw = HardwareProfile(delta=1.58e-4, kappa2=2.4336e-4, xi=1.58 * scen.sigma2,
                         lo_mode=LoMode.SLO)
    cache = build_cache(scen, hw, make_book(scen))
    ts = np.array([9.0, 173.0, 337.0])
    cache.pblocks(0)  # the cell build is not part of the pass
    estimate_moments(cache, FilterKind.MMSE, 0, 0, ts, McConfig(trials=2))  # first-use allocations
    channels = 16 * 100 * scen.L * scen.K * scen.N
    assert channels > 19 * 2**20
    peak = _traced_peak(lambda: estimate_moments(cache, FilterKind.MMSE, 0, 0, ts,
                                                 McConfig(trials=100)))
    assert peak < channels / 2


def test_tiles_bound_the_peak_memory_of_a_chunk(rng, monkeypatch):
    # one MMSE chunk of 200 trials holds its world plus a few tiles of
    # temporaries, not 200 trials' estimates, Gram matrices and filters
    scen = random_scenario(rng, L=2, K=4, N=32, T=20, subarrays=4, factorized=True)
    hw = impaired_profile(lo=LoMode.SLO, delta=3e-3, kappa2=0.03)
    cache = build_cache(scen, hw, make_book(scen))
    ts = np.array([7.0, 15.0])
    cache.pblocks(0)  # the cell build is not part of the chunk
    L, K, N, r = scen.L, scen.K, scen.N, cache.B * cache.Ae
    per_trial = world_bytes(scen, hw, cache.book, ts)  # chunks count the world alone
    # tiles add one UE's samples, estimate and filter, and the filter's blocks and system
    per_tile_trial = (per_trial + 8 * ts.size * (L * K + 4) + 32 * N
                      + 16 * (3 * r * N + N * N))
    trials = 200
    monkeypatch.setattr(montecarlo, "_CHUNK_TARGET_BYTES", trials * per_trial)
    monkeypatch.setattr(montecarlo, "_TILE_TARGET_BYTES", 4 * per_tile_trial)
    sizes = []
    chunk_sizes = montecarlo._chunk_sizes
    monkeypatch.setattr(montecarlo, "_chunk_sizes",
                        lambda n, per: sizes.append(chunk_sizes(n, per)) or sizes[-1])
    world = _traced_peak(lambda: next(draw_world(scen, hw, cache.book, 0, ts, 0, trials, 1)))
    chunk = _traced_peak(lambda: estimate_moments(cache, FilterKind.MMSE, 0, 0, ts,
                                                  McConfig(trials=trials, seed=1)))
    assert sizes == [[trials]]
    assert chunk < world + 3 * montecarlo._TILE_TARGET_BYTES


def test_mmse_use_forms_no_per_link_gain_stack():
    # a per-antenna covariance (Ae = N = 32) gives each of the 200 links a
    # (32, 256) zero-padded reduced gain; Gamma needs only B*Ae = 256
    # entries of each
    scen = generate("distributed", N=32, snr_db=5.0, T=60, seed=2)
    scen = dataclasses.replace(scen, cov=full_cov(scen))
    hw = HardwareProfile(delta=1.58e-4, kappa2=2.4336e-4, xi=1.58 * scen.sigma2,
                         lo_mode=LoMode.SLO)
    cache = build_cache(scen, hw, make_book(scen))
    assert cache.Ae == scen.N
    cache.pblocks(0)  # the cell build is not part of the channel use
    assert _traced_peak(lambda: montecarlo._mmse_use(cache, 0, 9.0)) < 8 * 2**20


def test_peak_memory_does_not_grow_with_trials(rng, monkeypatch):
    # trials fold into running and batch sums as the chunks finish, so four
    # times the trials (four times the chunks) peak no higher
    scen = random_scenario(rng, L=2, K=4, N=8, T=40, subarrays=2, factorized=True)
    hw = impaired_profile(lo=LoMode.SLO, delta=3e-3, kappa2=0.03)
    cache = build_cache(scen, hw, make_book(scen))
    ts = np.arange(9.0, 41.0, 2.0)
    per_trial = world_bytes(scen, hw, cache.book, ts)  # chunks count the world alone
    monkeypatch.setattr(montecarlo, "_CHUNK_TARGET_BYTES", 50 * per_trial)
    sizes = []
    chunk_sizes = montecarlo._chunk_sizes
    monkeypatch.setattr(montecarlo, "_chunk_sizes",
                        lambda n, per: sizes.append(chunk_sizes(n, per)) or sizes[-1])

    def peak(trials):
        return _traced_peak(lambda: estimate_moments(cache, FilterKind.MMSE, 0, 1, ts,
                                                     McConfig(trials=trials, seed=2)))

    peak(100)  # first-use allocations of numpy and the cache are not the run's
    one, four = peak(400), peak(1600)
    assert sizes[1:] == [[50] * 8, [50] * 32]
    assert four < one + 64 * 2**10


def test_mmse_moments_bitwise_equal_at_any_thread_and_blas_count(monkeypatch):
    # the GEMMs of a realistic drop (distributed, N = 64 on Ae = 4
    # subarrays, 25 cells of 8 UEs) give the same bits at any number of
    # BLAS threads; the solves run at one BLAS thread
    blas = estimator._blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no thread-count control")
    get, put = blas
    scen = generate("distributed", N=64, snr_db=5.0, T=60, seed=2)
    hw = HardwareProfile(delta=1.58e-4, kappa2=2.4336e-4, xi=1.58 * scen.sigma2,
                         lo_mode=LoMode.SLO)
    cache = build_cache(scen, hw, make_book(scen))
    assert (cache.Ae, cache.scenario.L * cache.scenario.K) == (4, 200)
    ts = [9, 40]

    def moments():
        return estimate_moments(cache, FilterKind.MMSE, 12, 0, ts, McConfig(trials=12, seed=4))

    monkeypatch.setattr(montecarlo, "_CHUNK_TARGET_BYTES", 5 * 2**20)  # several chunks
    runs = [moments()]
    before = get()
    try:
        for n in (1, 2):
            put(n)
            runs.append(moments())
    finally:
        put(before)
    for other in runs[1:]:
        for name in _MOMENTS:
            np.testing.assert_array_equal(getattr(other, name), getattr(runs[0], name))


def test_mmse_moments_at_n_128_bitwise_equal_at_any_thread_count(monkeypatch):
    # from N = 128 on, LAPACK's solve returns other last bits at other BLAS
    # thread counts, so it runs at one; each UE of a pass then gets the bits
    # of its own pass at 1 and 2 BLAS threads (ROADMAP item 1's command at
    # a small trial count)
    blas = estimator._blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no thread-count control")
    get, put = blas
    scen = generate("colocated", N=128, snr_db=5.0, T=200, seed=3)
    hw = HardwareProfile(delta=0.0, kappa2=0.0, xi=scen.sigma2, lo_mode=LoMode.SLO)
    cache = build_cache(scen, hw, make_book(scen, B=8))
    monkeypatch.setattr(montecarlo, "_CHUNK_TARGET_BYTES", 5 * 2**20)  # 4 chunks of 3 trials
    ts, ues = [9.0, 109.0], np.arange(scen.K)

    def moments(k):
        return estimate_moments(cache, FilterKind.MMSE, 12, k, ts, McConfig(trials=12, seed=3))

    runs = [moments(ues)]
    before = get()
    try:
        for n in (1, 2):
            put(n)
            runs.append(moments(ues))
    finally:
        put(before)
    one = moments(5)
    for name in _MOMENTS:
        for other in runs[1:]:
            np.testing.assert_array_equal(getattr(other, name), getattr(runs[0], name))
        np.testing.assert_array_equal(getattr(runs[0], name)[5], getattr(one, name))
