import dataclasses
import hashlib
import platform
import tracemalloc

import numpy as np
import pytest

from ptgrid.dsm import (
    DsmConfig,
    LoadProfile,
    action_load_table,
    build_dsm_game,
    hourly_load_report,
    nonparticipating_load,
    rationality_sweep,
    shifted_load,
    solve_dsm,
    synth_profile,
    _solve_points,
)
from ptgrid.fixtures import dsm_config_path
from ptgrid.formats import load_dsm_config
from ptgrid.games import (
    BudgetExceededError,
    MixedProfile,
    brute_force_equilibrium,
    equilibrium_residual,
    grid_enumeration_size,
    solve_fixed_point,
    _framed_payoffs,
)
from ptgrid.prospects import PtProfile, ValueFrame, frame_value


def flat_profile(peak=4.0, ff=0.5):
    demand = np.ones(24)
    demand[18:21] = peak
    return LoadProfile(hourly_demand=demand, flexible_fraction=ff)


TOY = DsmConfig(
    n_consumers=2,
    start_window=(18, 19),
    include_opt_out=True,
    price_coeff=0.1,
    shift_span=2,
    offpeak_hours=(1, 2, 3),
)


def test_config_validation():
    with pytest.raises(ValueError):
        DsmConfig(n_consumers=1)
    with pytest.raises(ValueError):
        DsmConfig(start_window=())
    with pytest.raises(ValueError):
        DsmConfig(start_window=(18, 25))
    with pytest.raises(ValueError):
        DsmConfig(shift_span=0)
    with pytest.raises(ValueError):
        DsmConfig(n_consumers=3, alphas=(0.5, 0.5))
    with pytest.raises(ValueError, match="offpeak_hours must be non-empty"):
        DsmConfig(offpeak_hours=())
    # a repeated hour took its share of the shifted load only once
    with pytest.raises(ValueError, match="offpeak_hours must not repeat"):
        DsmConfig(offpeak_hours=(1, 1, 2))
    for bad in (float("nan"), 0.0, 1.5):
        with pytest.raises(ValueError, match="alphas"):
            DsmConfig(n_consumers=3, alphas=(0.5, bad, 0.5))
    for bad in (float("nan"), float("inf"), -0.01):
        with pytest.raises(ValueError, match="price_coeff"):
            DsmConfig(price_coeff=bad)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="price_exponent"):
            DsmConfig(price_exponent=bad)
    with pytest.raises(ValueError, match="n_consumers"):
        DsmConfig(n_consumers=1)
    # a span past the day shifts nothing more; shifted_load walked all of it
    for bad in (0, 25, 10**9):
        with pytest.raises(ValueError, match="shift_span"):
            DsmConfig(shift_span=bad)
    # a float count or hour failed in build_dsm_game's range(), and a float
    # that is a whole number or a bool passed
    for name, bad in (("n_consumers", 3.0), ("n_consumers", True), ("shift_span", 2.5),
                      ("shift_span", True), ("start_window", (18.5, 19)),
                      ("offpeak_hours", (1, 2.0)), ("start_window", (False, 19))):
        with pytest.raises(ValueError, match=name):
            DsmConfig(**{"n_consumers": 3, name: bad})
    DsmConfig(shift_span=24)
    # a repeated start hour is a second copy of one action
    with pytest.raises(ValueError, match="start_window must not repeat"):
        DsmConfig(start_window=(18, 18))
    assert TOY.n_actions == 3
    assert TOY.opt_out_action == 2


def test_profile_validation():
    with pytest.raises(ValueError):
        LoadProfile(hourly_demand=np.ones(23), flexible_fraction=0.5)
    with pytest.raises(ValueError):
        LoadProfile(hourly_demand=-np.ones(24), flexible_fraction=0.5)
    with pytest.raises(ValueError):
        LoadProfile(hourly_demand=np.ones(24), flexible_fraction=1.5)


def test_shifted_load_mechanics():
    p = flat_profile(peak=4.0, ff=0.5)
    shifted = shifted_load(p, 18, TOY)
    # half of hours 18 and 19 (4.0 each) moves: 4.0 total onto hours 1,2,3
    assert shifted[18] == pytest.approx(2.0)
    assert shifted[19] == pytest.approx(2.0)
    assert shifted[20] == pytest.approx(4.0)  # outside the span
    for h in (1, 2, 3):
        assert shifted[h] == pytest.approx(1.0 + 4.0 / 3.0)
    assert shifted.sum() == pytest.approx(p.daily_energy(), abs=1e-12)


def test_energy_conservation_every_action():
    profiles = synth_profile(3, 4)
    config = DsmConfig(n_consumers=4, shift_span=5)
    for p in profiles:
        for start in config.start_window:
            assert shifted_load(p, start, config).sum() == pytest.approx(
                p.daily_energy(), abs=1e-9
            )


@pytest.mark.parametrize(
    "start_window, offpeak_hours",
    [((18, 19, 20), (1, 2, 3, 4, 5)), ((0, 21, 23), (2,)), ((5, 18), (19, 20, 3))],
)
def test_action_load_table_conserves_daily_energy(start_window, offpeak_hours):
    # late starts cut the span at midnight; off-peak hours may fall inside it
    profiles = synth_profile(1, 3)
    config = DsmConfig(n_consumers=3, start_window=start_window, offpeak_hours=offpeak_hours)
    table = action_load_table(profiles, config)
    for p, loads in zip(profiles, table):
        energy = [p.daily_energy()] * config.n_actions
        assert loads.sum(axis=1) == pytest.approx(energy, abs=1e-9)


def test_payoff_tensor_against_hand_arithmetic():
    # independent spreadsheet-style evaluation with plain loops
    pa = flat_profile(4.0, 0.5)
    pb = flat_profile(2.0, 0.5)
    game = build_dsm_game([pa, pb], TOY)

    def loads_for(profile, action):
        load = [float(v) for v in profile.hourly_demand]
        if action < 2:  # participate starting at 18 or 19
            start = (18, 19)[action]
            moved = 0.0
            for h in (start, start + 1):
                moved += 0.5 * load[h]
                load[h] = 0.5 * load[h]
            for h in (1, 2, 3):
                load[h] += moved / 3.0
        return load

    for a1 in range(3):
        for a2 in range(3):
            l1 = loads_for(pa, a1)
            l2 = loads_for(pb, a2)
            bill1 = sum(0.1 * (x + y) * x for x, y in zip(l1, l2))
            bill2 = sum(0.1 * (x + y) * y for x, y in zip(l1, l2))
            assert game.payoffs[0, a1, a2] == pytest.approx(-bill1, abs=1e-10)
            assert game.payoffs[1, a1, a2] == pytest.approx(-bill2, abs=1e-10)


def test_zero_flexibility_makes_actions_equivalent():
    profiles = [flat_profile(ff=0.0), flat_profile(2.0, ff=0.0)]
    game = build_dsm_game(profiles, TOY)
    for player in range(2):
        spread = game.payoffs[player].max() - game.payoffs[player].min()
        assert spread == pytest.approx(0.0, abs=1e-12)


def test_all_opt_out_payoff_is_baseline_bill():
    pa, pb = flat_profile(4.0), flat_profile(2.0)
    game = build_dsm_game([pa, pb], TOY)
    total = pa.hourly_demand + pb.hourly_demand
    bill1 = float(np.sum(0.1 * total * pa.hourly_demand))
    assert game.payoffs[0, 2, 2] == pytest.approx(-bill1, abs=1e-10)


def test_bill_monotonicity_against_idle_opponents():
    # with everyone else opted out, participating never costs more
    profiles = synth_profile(7, 3)
    config = DsmConfig(n_consumers=3, shift_span=5)
    game = build_dsm_game(profiles, config)
    out = config.opt_out_action
    for i in range(3):
        idx_opt = [out] * 3
        for action in range(config.n_actions - 1):
            idx = list(idx_opt)
            idx[i] = action
            assert game.payoffs[(i, *idx)] >= game.payoffs[(i, *idx_opt)] - 1e-12


def test_nonparticipating_load_endpoints():
    profiles = [flat_profile(4.0), flat_profile(2.0)]
    total = profiles[0].hourly_demand + profiles[1].hourly_demand
    all_out = MixedProfile([[0.0, 0.0, 1.0]] * 2)
    np.testing.assert_allclose(
        nonparticipating_load(all_out, profiles, TOY), total, atol=1e-12
    )
    all_in = MixedProfile([[1.0, 0.0, 0.0]] * 2)
    np.testing.assert_allclose(
        nonparticipating_load(all_in, profiles, TOY), np.zeros(24), atol=1e-12
    )


def test_nonparticipating_load_rejects_a_count_mismatch():
    # one opt-out mix per load profile: zip would drop the extra ones
    two = [flat_profile(4.0), flat_profile(2.0)]
    three_out = MixedProfile([[0.0, 0.0, 1.0]] * 3)
    with pytest.raises(ValueError, match="3 players but there are 2 load profiles"):
        nonparticipating_load(three_out, two, TOY)
    with pytest.raises(ValueError, match="2 players but there are 3 load profiles"):
        nonparticipating_load(MixedProfile([[0.0, 0.0, 1.0]] * 2), [*two, two[0]], TOY)
    # TOY has 3 actions: unchecked, a 5-action mix would have its action 2
    # read as opting out, and a 2-action mix would raise IndexError
    for mix in ([0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 1.0]):
        with pytest.raises(ValueError, match=f"a mix has {len(mix)} actions but the config has 3"):
            nonparticipating_load(MixedProfile([mix] * 2), two, TOY)


def test_report_bounded_by_total_demand():
    profiles = synth_profile(5, 3)
    config = DsmConfig(n_consumers=3, shift_span=4)
    res = solve_dsm(profiles, config, alphas=[0.4, 0.7, 1.0])
    report = nonparticipating_load(res, profiles, config)
    total = sum(p.hourly_demand for p in profiles)
    assert np.all(report >= -1e-12)
    assert np.all(report <= total + 1e-9)


def test_fixed_point_certificate_on_dsm_game():
    profiles = synth_profile(9, 3)
    config = DsmConfig(n_consumers=3, shift_span=5)
    game = build_dsm_game(profiles, config)
    behaviors = [PtProfile.weighting_only(a) for a in (0.5, 0.8, 1.0)]
    res = solve_dsm(profiles, config, alphas=[0.5, 0.8, 1.0], game=game)
    assert res.converged
    assert equilibrium_residual(game, res.profile, behaviors) <= 1e-9


def test_reduced_two_consumer_game_matches_brute_force():
    profiles = synth_profile(21, 2)
    config = DsmConfig(
        n_consumers=2,
        start_window=(18, 19),
        shift_span=4,
        price_coeff=0.05,
    )
    game = build_dsm_game(profiles, config)
    for alphas in ([1.0, 1.0], [0.5, 0.5]):
        behaviors = [PtProfile.weighting_only(a) for a in alphas]
        res = solve_dsm(profiles, config, alphas=alphas, game=game)
        assert res.converged
        assert grid_enumeration_size(game, 40) <= 1_500_000
        oracle = brute_force_equilibrium(game, behaviors, grid=40)
        dist = min(
            max(np.max(np.abs(res.profile[i] - cand[i])) for i in range(2))
            for cand in oracle
        )
        assert dist <= 1.0 / 40 + 1e-9


def test_synth_profile_determinism_and_shape():
    a = synth_profile(42, 6)
    b = synth_profile(42, 6)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.hourly_demand, pb.hourly_demand)
        assert pa.flexible_fraction == pb.flexible_fraction
    for p in a:
        d = p.hourly_demand
        assert np.all(d >= 0.0)
        assert d[17:22].mean() > d[2:6].mean()  # evening peak above trough
        assert 0.72 <= p.flexible_fraction <= 0.92
    assert not np.array_equal(
        synth_profile(1, 2)[0].hourly_demand, synth_profile(2, 2)[0].hourly_demand
    )


@pytest.mark.parametrize(
    "flexible_range",
    [(0.9, 0.2), (0.5, 1.5), (-0.1, 0.5), (float("nan"), 0.5), (0.2, float("nan"))],
    ids=["reversed", "above-one", "below-zero", "nan-low", "nan-high"],
)
def test_synth_profile_rejects_a_flexible_range_outside_0_low_high_1(flexible_range):
    # unchecked, (0.9, 0.2) would draw from (0.2, 0.9], and (0.5, 1.5) would
    # fail only when a draw passed 1, which seed 1 at 3 consumers never does
    with pytest.raises(ValueError, match="flexible_range"):
        synth_profile(1, 3, flexible_range)


def test_synth_profile_matches_frozen_golden_file():
    frozen = load_dsm_config(dsm_config_path())["profiles"]
    fresh = synth_profile(42, 6)
    assert len(frozen) == 6
    for f, g in zip(fresh, frozen):
        np.testing.assert_array_equal(f.hourly_demand, g.hourly_demand)
        assert f.flexible_fraction == g.flexible_fraction


# ---------------------------------------------------------------------------
# calibrated fixture behavior (full acceptance versions live in the
# acceptance suite; these are fast spot checks)

FIXTURE = DsmConfig(
    n_consumers=6,
    price_coeff=0.02,
    price_exponent=1.82,
    shift_span=5,
    alphas=(0.5, 0.5, 0.2, 0.1, 0.1, 0.1),
)


def test_fixture_hourly_report_and_alpha_one_reduction():
    profiles = synth_profile(42, 6)
    report = hourly_load_report(profiles, FIXTURE)
    assert report.eut_converged and report.pt_converged
    # the batched pair equals one solve_dsm per alpha set, bit for bit
    eut = solve_dsm(profiles, FIXTURE, alphas=[1.0] * 6)
    pt = solve_dsm(profiles, FIXTURE)
    assert np.array_equal(report.eut, nonparticipating_load(eut, profiles, FIXTURE))
    assert np.array_equal(report.pt, nonparticipating_load(pt, profiles, FIXTURE))
    assert (report.eut_converged, report.pt_converged) == (eut.converged, pt.converged)
    total = sum(p.hourly_demand for p in profiles)
    assert np.all(report.eut <= total + 1e-9)
    share = report.eut[19] / total[19]
    assert 0.0 < share < 1.0
    rational = DsmConfig(
        n_consumers=6,
        price_coeff=0.02,
        price_exponent=1.82,
        shift_span=5,
        alphas=(1.0,) * 6,
    )
    report_rational = hourly_load_report(profiles, rational)
    np.testing.assert_allclose(report_rational.pt, report_rational.eut, atol=1e-9)


def count_frame_calls(monkeypatch):
    import ptgrid.games

    calls = []

    def counting_frame_value(u, frame):
        calls.append(frame)
        return frame_value(u, frame)

    monkeypatch.setattr(ptgrid.games, "frame_value", counting_frame_value)
    return calls


def test_one_solve_frames_each_player_once(monkeypatch):
    calls = count_frame_calls(monkeypatch)
    game = build_dsm_game(synth_profile(42, 6), FIXTURE)
    frame = ValueFrame(reference=-10.0, gamma=2.25, beta_gain=0.88, beta_loss=0.88)
    behaviors = [PtProfile(b.weighting, frame) for b in FIXTURE.behaviors()]
    res = solve_fixed_point(game, behaviors)
    assert res.iterations > 100
    assert len(calls) == 6


def test_identity_frames_read_the_payoffs_in_place(monkeypatch):
    calls = count_frame_calls(monkeypatch)
    game = build_dsm_game(synth_profile(42, 6), FIXTURE)
    res = solve_fixed_point(game, FIXTURE.behaviors())
    assert res.iterations > 100
    assert calls == []
    assert len(game._framed) == 6
    memos = [_framed_payoffs(game, i, ValueFrame()) for i in range(6)]
    assert all(not m.flags.writeable for m in memos)
    # the first and last player's memos are views, C- and F-ordered as the
    # framed copies were; a middle player's own axis first needs a copy
    assert np.shares_memory(memos[0], game.payoffs) and memos[0].flags.c_contiguous
    assert np.shares_memory(memos[-1], game.payoffs) and memos[-1].flags.f_contiguous
    assert not any(np.shares_memory(m, game.payoffs) for m in memos[1:-1])


def test_rationality_sweep_small_grid():
    profiles = synth_profile(42, 6)
    sweep = rationality_sweep(profiles, FIXTURE, [0.1, 0.5, 1.0], 19)
    assert np.all(sweep.converged)
    # the batched sweep equals one solve_dsm per alpha, bit for bit
    game = build_dsm_game(profiles, FIXTURE)
    eut, *points = [
        solve_dsm(profiles, FIXTURE, alphas=[a] * 6, game=game) for a in (1.0, 0.1, 0.5, 1.0)
    ]
    assert sweep.eut_load == nonparticipating_load(eut, profiles, FIXTURE)[19]
    assert sweep.pt_loads.tolist() == [
        nonparticipating_load(r, profiles, FIXTURE)[19] for r in points
    ]
    assert sweep.converged.tolist() == [r.converged for r in points]
    assert sweep.pt_loads[-1] == pytest.approx(sweep.eut_load, abs=1e-9)
    assert sweep.pt_loads[0] > sweep.eut_load  # heavy distortion: more opt-out


@pytest.mark.parametrize("sweep", ["rationality", "hourly"])
def test_sweep_reads_each_point_through_solve_dsm_after_one_loop(sweep, loop_runs, monkeypatch):
    import ptgrid.dsm

    solves = []
    solve = ptgrid.dsm.solve_dsm

    def counting_solve(*args, **kwargs):
        solves.append(kwargs["alphas"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(ptgrid.dsm, "solve_dsm", counting_solve)
    profiles = synth_profile(42, 6)
    if sweep == "rationality":
        rationality_sweep(profiles, FIXTURE, [0.1, 0.5, 1.0], 19)
        # EUT and the grid's 1.0 are one member of the loop
        assert loop_runs == [3]
        assert [a[0] for a in solves] == [1.0, 0.1, 0.5, 1.0]
    else:
        hourly_load_report(profiles, FIXTURE)
        assert loop_runs == [2]
        assert solves == [[1.0] * 6, None]


# The equilibrium each fig 8 and fig 9 point selects under the bundled DSM
# config: per solve, each consumer's argmax action, the iteration count and
# the converged flag. fig 8 is (EUT, config.alphas); fig 9 is EUT and then
# the alpha_grid. "sha256" holds solve_digest over the fig 8 and then the
# fig 9 results, every bit of each profile, residual and iteration count.
# Those bits follow the CPU three ways: the OpenBLAS kernel sets the
# mat-vec's summation order, and numpy's AVX-512 log/exp/power, or else the
# C library's (whose FMA variants round differently), set the weights. The
# digests were recorded with HOST_OF_DIGESTS only (see
# test_selected_digests_are_pinned), forcing each choice through
# NPY_DISABLE_CPU_FEATURES, GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA and
# OPENBLAS_CORETYPE; in order: numpy with AVX-512, then numpy without it on
# the FMA libm, then without it on the plain libm, each for the kernel
# families SkylakeX (with Cooperlake, SapphireRapids), Haswell (with Zen),
# Sandybridge (with Prescott) and Nehalem. An AVX-512 CPU selects the 1st
# digest, an AVX2 CPU the 6th, an AVX-only CPU the 11th and an SSE4.2 CPU
# the 12th. Seed 42 is the bundled profile CSV, the others synthetic
# profiles, as `ptgrid dsm --figure 8/9 [--seed S]` reads them. Every change
# to arithmetic or selection is measured against these.
SELECTED = {
    42: {
        "sha256": (
            "1914269656b25be27dd201dadb78dc9f9dafee2cecbcbf895278f705977b7f2b",
            "077baf4255a225feb72b803dff2a45d64f157d8dc150df9e0ba3b1b4cb02a034",
            "0ea47f6fea6ff83bf294636f76779a1dec486bcbb32ab3d69ff9f9f213e4fa93",
            "f95adcb0250da2291d0dc6f6c12455e4de6736e284ea0779cdf7c1f743270246",
            "adace300d4d251cdb5e4d6d4bd92da1ca7ae869ad2e6aad4b31b568681c43d0f",
            "f34e444a3fd3d3e283eb6d89e22f846b8e528a3f1a123d53498a72d3cbef6bc6",
            "1625c164d0700951d1f62ce6e7068d1824dab8d610513ce4e1ccc45f72f1c997",
            "9d43670c1448fd3dfc71c5e4c8481b2f1907f0917e5e2a9d82c0413ca83d9cbe",
            "85d94c01eac2765803a4dee97b13875c1b9982db52c768eff5b74394e2e8fb30",
            "f743bc5520b7e2e939fc87887dc6a3bc5e0bb6f6397556e0cf2224fc1bcff13d",
            "0a7a6f09c0bbcaf4a0d5a32e1d624751e357bc85fd081228cc51b727db6c0cd1",
            "38eaed8e76031aaeb62fab629eabd45615d336c0c2a87b9009828aa8feaa5f32",
        ),
        "fig8": [("003303", 589, True), ("000333", 1202, True)],
        "fig9": [
            ("003303", 589, True), ("033303", 1205, True), ("030303", 1259, True),
            ("000303", 1162, True), ("003303", 1282, True), ("003303", 1139, True),
            ("003303", 949, True), ("003303", 765, True), ("003303", 618, True),
            ("003303", 541, True), ("003303", 580, True), ("003303", 586, True),
            ("003303", 588, True), ("003303", 589, True), ("003303", 589, True),
            ("003303", 589, True), ("003303", 589, True), ("003303", 589, True),
            ("003303", 589, True), ("003303", 589, True), ("003303", 589, True),
        ],
    },
    7: {
        "sha256": (
            "4e9a1f36345bb8aa4986e4c7b66f2a6e2a1be035f43ae14709c8e080983674e8",
            "787ee0a721261435869526ac9b79e6ea21e1a8ede1fc940e468427ca6ae27e17",
            "4f2f42e94c98e2e980d70028f45474d9407504f0322ce2e35f32570bdfa348bc",
            "eccd52b91d02eb77e5bc8b00e7ab47f0a4cf7f59b6e41c7014ab32e6be867855",
            "43243390ff5336f11bcbd6d586c9230ef9c92787cfcfd636acaacd088d7ab793",
            "532b9337188f6ffd4553b0728cbbf3b5442fe5763674722bce8b7e156af6c072",
            "6de59d8943d15d8f45ce232ba249b64ab2800475dea3972340f6bcded5fd42c9",
            "2c5cbd2f5f7fbde4132bd33b8567b6dbd7b615eb7a5c92ba692dbe6d467e200d",
            "559ad2ea222cbaaa156e2756e6e3916e548597590701c053a51fdf0d2bebedab",
            "19177ee4a15fdc809431103ad3ba334c46667c8705c855b708a39d6f7ee69112",
            "eaba1146359cf44d7c1c65af3c7d3a2cc52c473a14f66e8f6f1d6169deb7d811",
            "604f9ae1f707435cf9424aa0a93c16325c124779c9a1c6d1e3e73a8113dbd37a",
        ),
        "fig8": [("330030", 592, True), ("003333", 613, True)],
        "fig9": [
            ("330030", 592, True), ("333333", 504, True), ("333333", 512, True),
            ("333333", 528, True), ("333333", 571, True), ("333033", 944, True),
            ("333030", 807, True), ("330030", 813, True), ("330030", 623, True),
            ("330030", 545, True), ("330030", 583, True), ("330030", 590, True),
            ("330030", 591, True), ("330030", 592, True), ("330030", 592, True),
            ("330030", 592, True), ("330030", 592, True), ("330030", 592, True),
            ("330030", 592, True), ("330030", 592, True), ("330030", 592, True),
        ],
    },
    11: {
        "sha256": (
            "4ab9e0029a91df49fdc3c8141b72dce00697f4ec176a7a406d92c53eea97f505",
            "0a0cca0ef7bdbd1c3443f9e50cb0b24d18ce63c4fc8328bb2c0b7e0d059d9c78",
            "4b3fb2770bbadb0e7dfc9411ab9ef337a266edf941065177eee4a6677223ee89",
            "6b421de32a7ec4bab25a85babbdcdc9d5c60d99bf829c72d1923a1154411de35",
            "019b685d37cb1e11220d35b3f72af919cdec81eaf07b86df0ea5169ffdcf3465",
            "762e5ecb8220948d54a355689afb13aedb627e229c258669571f8a674e4c69a2",
            "92146f90bba2300c30fb5f9ca6e412dc6367486232c451b0710b625bab4de3d8",
            "77c9308ae5fef14b5ca44a3ad623e973a5da952fdce087fbe0212aabc537683f",
            "683ad79f5623dcfe9771920a54b671b78d99bcfc2f65e9f5e7278a20ab21a6c9",
            "234cfc731c2ae23300d216390f5b02a14dfddc8e1e6d2d8d54d948d669c2becc",
            "66645fd88c59f010629f10e40a51cdbcb6e14b97f79008ff3bcb4a20ab7587c1",
            "1c1f8dff266d06e2721766ea9677be1ab14246ca3fabd4853e1a3e41b2c14582",
        ),
        "fig8": [("330003", 590, True), ("003033", 961, True)],
        "fig9": [
            ("330003", 590, True), ("333033", 884, True), ("333033", 1027, True),
            ("333003", 1033, True), ("333003", 1091, True), ("333000", 923, True),
            ("333000", 765, True), ("330003", 714, True), ("330003", 570, True),
            ("330003", 548, True), ("330003", 581, True), ("330003", 588, True),
            ("330003", 589, True), ("330003", 590, True), ("330003", 590, True),
            ("330003", 590, True), ("330003", 590, True), ("330003", 590, True),
            ("330003", 590, True), ("330003", 590, True), ("330003", 590, True),
        ],
    },
}


@pytest.fixture(scope="module", params=sorted(SELECTED))
def figure_solves(request):
    """(seed, fig 8 results, fig 9 results): the solves of hourly_load_report
    and rationality_sweep on one seed's game, each run once per module."""
    seed = request.param
    cfg = load_dsm_config(dsm_config_path())
    config, n = cfg["config"], cfg["config"].n_consumers
    # seed 42 is the bundled config's own seed and profiles
    profiles = cfg["profiles"] if seed == 42 else synth_profile(seed, n, cfg["flexible_range"])
    game = build_dsm_game(profiles, config)
    tol, max_iter = cfg["tol"], cfg["max_iter"]
    fig8 = _solve_points(profiles, config, game, [[1.0] * n, None], tol, max_iter)
    fig9 = _solve_points(
        profiles, config, game, [[1.0] * n] + [[a] * n for a in cfg["alpha_grid"]], tol, max_iter
    )
    return seed, fig8, fig9


def test_selected_profiles_are_pinned(figure_solves):
    seed, fig8, fig9 = figure_solves

    def selected(results):
        return [
            ("".join(str(int(np.argmax(m))) for m in r.profile), r.iterations, r.converged)
            for r in results
        ]

    assert selected(fig8) == SELECTED[seed]["fig8"]
    assert selected(fig9) == SELECTED[seed]["fig9"]


# numpy version, its BLAS, machine and C library of the SELECTED digests.
# Another numpy release or libm may move last bits on its own, so the
# digests are checked on this combination only; the argmax and iteration
# pins above hold everywhere.
HOST_OF_DIGESTS = ("2.4.6", "x86_64", "glibc 2.36", "scipy-openblas")


def test_selected_digests_are_pinned(figure_solves):
    seed, fig8, fig9 = figure_solves
    host = (np.__version__, platform.machine(), " ".join(platform.libc_ver()))
    if host == HOST_OF_DIGESTS[:3]:
        host += (np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],)
    if host != HOST_OF_DIGESTS:
        pytest.skip(f"digests recorded on {HOST_OF_DIGESTS}, not on {host}")
    assert solve_digest(fig8 + fig9) in SELECTED[seed]["sha256"]


def solve_digest(results) -> str:
    """sha256 over each result's profile bytes, repr(residual) and
    iteration count, in order."""
    h = hashlib.sha256()
    for r in results:
        for m in r.profile:
            h.update(m.tobytes())
        h.update(repr(r.residual).encode())
        h.update(str(r.iterations).encode())
    return h.hexdigest()


def one_shot_build(profiles, config):
    """The payoff tensor built in one pass over every joint action at once,
    through an (A^n, n, 24) load array."""
    table = action_load_table(profiles, config)
    n, A = len(profiles), config.n_actions
    joint = np.indices((A,) * n).reshape(n, -1).T
    loads = table[np.arange(n)[None, :], joint, :]
    total = loads.sum(axis=1)
    price = config.price_coeff * total**config.price_exponent
    bills = (price[:, None, :] * loads).sum(axis=2)
    return -bills.T.reshape((n,) + (A,) * n)


@pytest.mark.parametrize("exponent", [1.0, 1.82])
@pytest.mark.parametrize("seed", [42, 7])
def test_block_build_matches_one_shot_build_bit_for_bit(exponent, seed):
    base = dataclasses.replace(FIXTURE, price_exponent=exponent, alphas=None)
    configs = [dataclasses.replace(base, n_consumers=n) for n in range(2, 9)]
    configs += [
        # 3^8 = 6561 joint actions: the last block is partial
        dataclasses.replace(base, n_consumers=8, include_opt_out=False),
        # 5^6 = 15625 joint actions: three full blocks and a partial one
        dataclasses.replace(base, n_consumers=6, start_window=(17, 18, 19, 20)),
        # 2^13 = 8192 joint actions: two full blocks
        dataclasses.replace(base, n_consumers=13, start_window=(19,)),
    ]
    for config in configs:
        profiles = synth_profile(seed, config.n_consumers)
        game = build_dsm_game(profiles, config)
        assert np.array_equal(game.payoffs, one_shot_build(profiles, config)), config


def test_oversized_game_raises_before_allocating():
    profiles = synth_profile(42, 20)
    config = DsmConfig(n_consumers=20)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="payoff entries"):
            build_dsm_game(profiles, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("field, value", [("price_exponent", 1e308), ("price_coeff", 1e308)])
def test_payoffs_past_the_float_range_raise(field, value):
    config = dataclasses.replace(TOY, **{field: value})
    with pytest.raises(BudgetExceededError, match="price_exponent"):
        build_dsm_game([flat_profile(), flat_profile()], config)


@pytest.mark.parametrize("n, limit_mb", [(8, 8), (9, 24)])
def test_build_memory_stays_bounded(n, limit_mb):
    # MiB of tracemalloc peak: a one-shot build reaches 224 (n = 8) and 996
    # (n = 9); 4,096-row blocks 12.5 and 27.3; 1,024-row blocks 6.3 and 20.5,
    # of which the n = 9 result is 18
    profiles = synth_profile(42, n)
    config = dataclasses.replace(FIXTURE, n_consumers=n, alphas=None)
    tracemalloc.start()
    try:
        build_dsm_game(profiles, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20
