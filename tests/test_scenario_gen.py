import numpy as np
import pytest

from hwmimo import rng as _rng
from hwmimo import scenario_gen
from hwmimo.model import validate
from hwmimo.scenario_gen import (
    CENTER_CELL,
    NUM_CELLS,
    SECTORS,
    Deployment,
    build_layout,
    drop_users,
    generate,
    link_gains,
    load_scenario,
    power_control,
    save_scenario,
)


def test_layout_colocated_geometry():
    layout = build_layout("colocated", N=100)
    assert layout.A == 1
    assert layout.cell_centers.shape == (25, 2)
    np.testing.assert_array_equal(layout.array_positions[:, 0, :], layout.cell_centers)
    np.testing.assert_array_equal(layout.cell_centers[CENTER_CELL], [0.0, 0.0])
    # neighbouring centers are 250 m apart
    assert np.linalg.norm(layout.cell_centers[12] - layout.cell_centers[13]) == 250.0
    assert np.linalg.norm(layout.cell_centers[12] - layout.cell_centers[7]) == 250.0


def test_layout_distributed_geometry():
    layout = build_layout(Deployment.DISTRIBUTED, N=100)
    assert layout.A == 4
    rel = layout.array_positions[CENTER_CELL] - layout.cell_centers[CENTER_CELL]
    assert set(map(tuple, np.abs(rel))) == {(62.5, 62.5)}
    # arrays stay inside their own cell
    for c in range(25):
        rel_c = layout.array_positions[c] - layout.cell_centers[c]
        assert np.all(np.abs(rel_c) <= 125.0)
    with pytest.raises(ValueError):
        build_layout("distributed", N=10)


def test_drop_respects_sectors_and_min_distance():
    layout = build_layout("distributed", N=16)
    pos = drop_users(layout, seed=5)
    assert pos.shape == (25, 8, 2)
    for c in range(25):
        d = np.linalg.norm(pos[c][:, None, :] - layout.array_positions[c][None, :, :], axis=-1)
        assert np.all(d >= 25.0)
        # inside own cell, one UE per distinct sector
        rel = pos[c] - layout.cell_centers[c]
        assert np.all(np.abs(rel) <= 125.0)
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        sectors = np.floor((ang + np.pi) / (np.pi / 4)).astype(int)
        assert sorted(sectors.tolist()) == list(range(8))


def _sequential_drop(layout, seed, index):
    """The per-sector sampler: one substream per cell, sectors in order."""
    pos = np.empty((NUM_CELLS, SECTORS, 2))
    for c in range(NUM_CELLS):
        gen = _rng.substream(seed, index, c, _rng.DROP)
        for s in range(SECTORS):
            pos[c, s] = scenario_gen._sample_sector_ue(
                layout.cell_centers[c], layout.array_positions[c], s, gen
            )
    return pos


def _spy_sampler(monkeypatch):
    """Record the cell center of every ``_sample_sector_ue`` call."""
    centers = []
    sample = scenario_gen._sample_sector_ue

    def spy(center, arrays, sector, gen):
        centers.append(tuple(center))
        return sample(center, arrays, sector, gen)

    monkeypatch.setattr(scenario_gen, "_sample_sector_ue", spy)
    return centers


@pytest.mark.parametrize("deployment", ["colocated", "distributed"])
def test_batched_drop_is_bitwise_the_sequential_sampler(monkeypatch, deployment):
    layout = build_layout(deployment, N=16)
    centers = _spy_sampler(monkeypatch)
    replayed = 0
    for seed in range(40):
        for index in range(5):
            before = len(centers)
            batched = drop_users(layout, seed, index)
            replayed += len(centers) > before
            np.testing.assert_array_equal(
                batched.view(np.uint64), _sequential_drop(layout, seed, index).view(np.uint64)
            )
    assert replayed > 0  # the replay of cells with an empty sector batch ran


def test_cell_with_an_empty_sector_batch_is_replayed(monkeypatch):
    # cell 22 of colocated drop (8, 1) rejects a whole sector batch
    layout = build_layout("colocated", N=16)
    centers = _spy_sampler(monkeypatch)
    batched = drop_users(layout, seed=8, index=1)
    assert centers == [tuple(layout.cell_centers[22])] * SECTORS
    np.testing.assert_array_equal(
        batched.view(np.uint64), _sequential_drop(layout, 8, 1).view(np.uint64)
    )


def test_drops_deterministic_and_seed_sensitive():
    layout = build_layout("colocated", N=8)
    a = drop_users(layout, seed=9, index=3)
    b = drop_users(layout, seed=9, index=3)
    np.testing.assert_array_equal(a, b)
    c = drop_users(layout, seed=10, index=3)
    assert not np.array_equal(a, c)
    d = drop_users(layout, seed=9, index=4)
    assert not np.array_equal(a, d)


def test_link_gain_formula():
    layout = build_layout("distributed", N=8)
    pos = drop_users(layout, seed=2)
    gains = link_gains(layout, pos, seed=2)
    d = np.linalg.norm(
        layout.array_positions[:, None, None, :, :] - pos[None, :, :, None, :], axis=-1
    )
    np.testing.assert_allclose(
        gains.lam, 10.0 ** (gains.shadow / 10.0 - 1.53) / d**3.76, rtol=1e-12
    )
    # zero shadow, 100 m: plain log-distance value
    assert 10 ** (-1.53) / 100**3.76 == pytest.approx(10 ** (-1.53 - 2 * 3.76))
    # doubling the distance divides the gain by 2^3.76
    assert (10 ** (-1.53) / 100**3.76) / (10 ** (-1.53) / 200**3.76) == pytest.approx(2**3.76)


def test_link_gain_shadow_sharing():
    layout = build_layout("colocated", N=8)
    pos = drop_users(layout, seed=3)
    gains = link_gains(layout, pos, seed=3)
    assert gains.lam.shape == (25, 25, 8, 1)  # one draw shared by all antennas
    dist = link_gains(build_layout("distributed", N=8), pos, seed=3)
    assert dist.lam.shape[-1] == 4
    # independent shadows across the four arrays, at the configured dB spread
    s = dist.shadow.reshape(-1, 4)
    corr = np.corrcoef(s, rowvar=False)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off) < 0.05)
    assert s.std() == pytest.approx(3.16, rel=0.05)


def test_power_control_examples():
    layout = build_layout("colocated", N=4)
    pos = drop_users(layout, seed=1)
    gains = link_gains(layout, pos, seed=1)
    rho = 0.7
    p = power_control(gains, rho)
    own = np.einsum("llka->lka", gains.lam).mean(axis=-1)
    np.testing.assert_allclose(p * own, rho)
    # halving every gain doubles the power
    from hwmimo.scenario_gen import LinkGains

    halved = power_control(LinkGains(lam=gains.lam / 2, shadow=gains.shadow), rho)
    np.testing.assert_allclose(halved, 2 * p)


@pytest.mark.parametrize("snr_db", [5.0, 15.0])
def test_generate_full_scenario(snr_db):
    scen = generate("distributed", N=16, snr_db=snr_db, T=100, seed=11)
    assert validate(scen) == ()
    assert scen.reduced_dim == scen.subarrays and scen.subarrays != scen.N
    assert scen.subarrays == 4
    # power control delivers the target average SNR at the serving array
    own = np.einsum("llka->lka", scen.cov).mean(axis=-1)
    np.testing.assert_allclose(scen.powers * own / scen.sigma2, 10 ** (snr_db / 10), rtol=1e-12)


def test_serving_gain_dominates_interference():
    # distance ordering: compare mean log-gains over many drops (the shadow
    # contributes zero mean in the log domain)
    layout = build_layout("colocated", N=8)
    own_log, cross_log = [], []
    for idx in range(200):
        pos = drop_users(layout, seed=77, index=idx)
        gains = link_gains(layout, pos, seed=77, index=idx)
        lam_c = gains.lam[CENTER_CELL, :, :, 0]  # (cells, UEs)
        own_log.append(np.log10(lam_c[CENTER_CELL]).mean())
        mask = np.arange(25) != CENTER_CELL
        cross_log.append(np.log10(lam_c[mask]).mean(axis=1))
    own_mean = np.mean(own_log)
    cross_mean = np.mean(cross_log, axis=0)  # per interfering cell
    assert np.all(own_mean > cross_mean + 1.0)  # at least an order of magnitude


def test_distributed_proximity_gain():
    # without shadowing, the best of the four distributed arrays is closer on
    # average than the single central array
    colo = build_layout("colocated", N=16)
    dist = build_layout("distributed", N=16)
    best_dist, best_colo = [], []
    for idx in range(150):
        pos_c = drop_users(colo, seed=4, index=idx)
        pos_d = drop_users(dist, seed=4, index=idx)
        g_c = link_gains(colo, pos_c, seed=4, index=idx, shadow_std_db=0.0)
        g_d = link_gains(dist, pos_d, seed=4, index=idx, shadow_std_db=0.0)
        best_colo.append(g_c.lam[CENTER_CELL, CENTER_CELL, :, 0])
        best_dist.append(g_d.lam[CENTER_CELL, CENTER_CELL].max(axis=-1))
    assert np.mean(best_dist) > np.mean(best_colo)


def test_scenario_file_round_trip(tmp_path):
    scen = generate("distributed", N=8, snr_db=5.0, T=50, seed=21)
    path = tmp_path / "scen.json"
    save_scenario(scen, path, meta={"deployment": "distributed"})
    back = load_scenario(path)
    assert (back.L, back.K, back.N, back.T, back.subarrays) == (25, 8, 8, 50, 4)
    np.testing.assert_allclose(back.cov, scen.cov)
    np.testing.assert_allclose(back.powers, scen.powers)
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        load_scenario(bad)
