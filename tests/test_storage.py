import numpy as np
import pytest

from ptgrid import storage
from ptgrid.games import FiniteGame, MixedProfile, eut_utility, solve_2x2
from ptgrid.prospects import PtProfile
from ptgrid.storage import (
    CHARGE,
    DISCHARGE,
    StorageConsumer,
    StorageGridConfig,
    build_storage_game,
    company_revenue,
    expected_load,
    framing_sweep,
    sweep_company_price,
    sweep_selling_price,
)

# the calibrated instance: loads 20/15 kWh, surpluses 10/5 kWh
CONSUMERS = (
    StorageConsumer(load=20.0, surplus=10.0),
    StorageConsumer(load=15.0, surplus=5.0),
)
GRID = StorageGridConfig(
    passive_load=80.0,
    nominal_generation=100.0,
    penalty_coeff=0.012,
    company_price=0.145,
    selling_price=0.06,
)


def hand_payoffs(grid=GRID, consumers=CONSUMERS):
    """Independent spreadsheet-style evaluation of the four joint actions."""
    (l1, s1), (l2, s2) = (consumers[0].load, consumers[0].surplus), (
        consumers[1].load,
        consumers[1].surplus,
    )
    rho, b, kappa = grid.company_price, grid.selling_price, grid.penalty_coeff
    g0 = grid.nominal_generation
    out = {}
    for a1 in (0, 1):
        for a2 in (0, 1):
            gen = grid.passive_load
            gen += l1 if a1 == 0 else -s1
            gen += l2 if a2 == 0 else -s2
            pen = kappa * (gen - g0) ** 2
            e1 = -rho * l1 if a1 == 0 else b * s1
            e2 = -rho * l2 if a2 == 0 else b * s2
            out[(a1, a2)] = (e1 - pen / 2.0, e2 - pen / 2.0)
    return out


def test_payoff_tensor_matches_hand_oracle():
    game = build_storage_game(CONSUMERS, GRID)
    oracle = hand_payoffs()
    for (a1, a2), (p1, p2) in oracle.items():
        assert game.payoffs[0, a1, a2] == pytest.approx(p1, abs=1e-12)
        assert game.payoffs[1, a1, a2] == pytest.approx(p2, abs=1e-12)


def test_penalty_identical_across_players_per_joint_action():
    game = build_storage_game(CONSUMERS, GRID)
    rho, b = GRID.company_price, GRID.selling_price
    econ = {
        0: {CHARGE: -rho * 20.0, DISCHARGE: b * 10.0},
        1: {CHARGE: -rho * 15.0, DISCHARGE: b * 5.0},
    }
    for a1 in (0, 1):
        for a2 in (0, 1):
            pen1 = econ[0][a1] - game.payoffs[0, a1, a2]
            pen2 = econ[1][a2] - game.payoffs[1, a1, a2]
            assert pen1 == pytest.approx(pen2, abs=1e-12)
            assert pen1 >= 0.0


def test_penalty_zero_exactly_at_setpoint():
    grid = StorageGridConfig(
        passive_load=80.0,
        nominal_generation=80.0 + 20.0 + 15.0,  # joint charge hits the set-point
        penalty_coeff=0.5,
        company_price=0.1,
        selling_price=0.05,
    )
    game = build_storage_game(CONSUMERS, grid)
    assert game.payoffs[0, CHARGE, CHARGE] == pytest.approx(-0.1 * 20.0, abs=1e-12)
    assert game.payoffs[1, CHARGE, CHARGE] == pytest.approx(-0.1 * 15.0, abs=1e-12)
    assert game.payoffs[0, DISCHARGE, CHARGE] < 0.05 * 10.0  # off set-point pays


def test_default_setpoint_splits_the_band():
    grid = StorageGridConfig(
        passive_load=50.0,
        nominal_generation=None,
        penalty_coeff=0.01,
        company_price=0.1,
        selling_price=0.05,
    )
    # (20 + 15 - 10 - 5) / 2 = 10 above passive
    assert grid.setpoint(CONSUMERS) == pytest.approx(60.0)


def test_discharge_dominates_without_penalty():
    grid = StorageGridConfig(
        passive_load=80.0,
        nominal_generation=100.0,
        penalty_coeff=0.0,
        company_price=0.1,
        selling_price=0.0,
    )
    game = build_storage_game(CONSUMERS, grid)
    # selling earns 0 but buying costs rho * load: discharge strictly better
    for a2 in (0, 1):
        assert game.payoffs[0, DISCHARGE, a2] > game.payoffs[0, CHARGE, a2]
    for a1 in (0, 1):
        assert game.payoffs[1, a1, DISCHARGE] > game.payoffs[1, a1, CHARGE]


def test_symmetric_consumers_symmetric_tensor():
    consumers = (
        StorageConsumer(load=12.0, surplus=6.0),
        StorageConsumer(load=12.0, surplus=6.0),
    )
    game = build_storage_game(consumers, GRID)
    for a1 in (0, 1):
        for a2 in (0, 1):
            assert game.payoffs[0, a1, a2] == pytest.approx(
                game.payoffs[1, a2, a1], abs=1e-12
            )


def test_consumer_validation():
    with pytest.raises(ValueError):
        StorageConsumer(load=-1.0, surplus=0.0)
    with pytest.raises(ValueError):
        StorageConsumer(load=1.0, surplus=float("nan"))
    with pytest.raises(ValueError):
        StorageGridConfig(penalty_coeff=-0.1)
    nan = float("nan")
    for name in ("passive_load", "penalty_coeff", "company_price", "selling_price",
                 "nominal_generation"):
        for bad in (nan, float("inf")):
            with pytest.raises(ValueError, match=name):
                StorageGridConfig(**{name: bad})
    with pytest.raises(ValueError):
        build_storage_game(CONSUMERS[:1], GRID)


def test_company_revenue_endpoints():
    both_sell = MixedProfile([[0.0, 1.0], [0.0, 1.0]])
    assert company_revenue(both_sell, CONSUMERS, GRID) == 0.0
    both_buy = MixedProfile([[1.0, 0.0], [1.0, 0.0]])
    grid = StorageGridConfig(
        passive_load=80.0, nominal_generation=100.0, penalty_coeff=0.012,
        company_price=0.05, selling_price=0.06,
    )
    # 0.05 * (20 + 15) = 1.75, plain arithmetic
    assert company_revenue(both_buy, CONSUMERS, grid) == pytest.approx(1.75, abs=1e-12)


def test_expected_load_endpoints_and_affinity():
    both_buy = MixedProfile([[1.0, 0.0], [1.0, 0.0]])
    both_sell = MixedProfile([[0.0, 1.0], [0.0, 1.0]])
    assert expected_load(both_buy, CONSUMERS, GRID) == pytest.approx(35.0)
    assert expected_load(both_sell, CONSUMERS, GRID) == pytest.approx(-15.0)
    # affine in the buy probabilities with coefficients load_i + surplus_i
    rng = np.random.default_rng(0)
    for _ in range(5):
        q1, q2 = rng.random(), rng.random()
        prof = MixedProfile([[q1, 1 - q1], [q2, 1 - q2]])
        expected = q1 * 20.0 - (1 - q1) * 10.0 + q2 * 15.0 - (1 - q2) * 5.0
        assert expected_load(prof, CONSUMERS, GRID) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# sweeps on the calibrated instance

B_GRID = np.linspace(0.03, 0.09, 25)
ALPHAS = [0.25, 0.65]


@pytest.fixture(scope="module")
def price_sweep():
    return sweep_selling_price(CONSUMERS, GRID, B_GRID, ALPHAS)


def test_sweep_all_rows_interior(price_sweep):
    for row in price_sweep:
        assert all(row.has_interior.values())


def test_sweep_alpha_one_matches_eut():
    rows = sweep_selling_price(CONSUMERS, GRID, np.linspace(0.03, 0.09, 7), [1.0])
    for row in rows:
        for c in (0, 1):
            assert row.buy_probs[1.0][c] == pytest.approx(
                row.buy_probs["eut"][c], abs=1e-9
            )
        assert row.revenue[1.0] == pytest.approx(row.revenue["eut"], abs=1e-9)


def test_sweep_dominance_configuration_buys_nothing():
    grid = StorageGridConfig(
        passive_load=80.0, nominal_generation=100.0, penalty_coeff=0.0,
        company_price=0.1, selling_price=0.01,
    )
    rows = sweep_selling_price(CONSUMERS, grid, [0.01, 0.02, 0.03], [0.5])
    for row in rows:
        for key in ("eut", 0.5):
            assert row.buy_probs[key][0] == pytest.approx(0.0, abs=1e-9)
            assert row.buy_probs[key][1] == pytest.approx(0.0, abs=1e-9)


def test_buy_probability_crossover_per_consumer(price_sweep):
    # one sign change per consumer and alpha: PT buys more at cheap selling
    # prices, less at expensive ones
    for alpha in ALPHAS:
        for c in (0, 1):
            diff = np.array(
                [r.buy_probs[alpha][c] - r.buy_probs["eut"][c] for r in price_sweep]
            )
            signs = np.sign(diff[np.abs(diff) > 1e-12])
            assert signs[0] > 0
            assert signs[-1] < 0
            assert int(np.sum(signs[1:] * signs[:-1] < 0)) == 1


def test_revenue_non_increasing_and_deviation_ordering(price_sweep):
    eut_rev = np.array([r.revenue["eut"] for r in price_sweep])
    assert np.all(np.diff(eut_rev) <= 1e-12)
    deviations = {}
    for alpha in ALPHAS:
        rev = np.array([r.revenue[alpha] for r in price_sweep])
        assert np.all(np.diff(rev) <= 1e-12)
        deviations[alpha] = np.max(np.abs(rev - eut_rev))
    assert 0.0 < deviations[0.65] < deviations[0.25]


def test_crossover_at_most_once_in_random_interior_configs():
    # whenever the rational buy probabilities stay interior over the range,
    # the behavioral deviation flips sign at most once per consumer
    rng = np.random.default_rng(14)
    b_grid = np.linspace(0.03, 0.09, 13)
    found = 0
    while found < 6:
        grid = StorageGridConfig(
            passive_load=80.0,
            nominal_generation=80.0 + float(rng.uniform(15.0, 25.0)),
            penalty_coeff=float(rng.uniform(0.008, 0.02)),
            company_price=float(rng.uniform(0.10, 0.18)),
            selling_price=0.06,
        )
        rows = sweep_selling_price(CONSUMERS, grid, b_grid, [float(rng.uniform(0.2, 0.9))])
        alpha = next(k for k in rows[0].buy_probs if k != "eut")
        if not all(r.has_interior["eut"] and r.has_interior[alpha] for r in rows):
            continue
        if not all(
            1e-4 < r.buy_probs["eut"][c] < 1 - 1e-4 for r in rows for c in (0, 1)
        ):
            continue
        found += 1
        for c in (0, 1):
            diff = np.array(
                [r.buy_probs[alpha][c] - r.buy_probs["eut"][c] for r in rows]
            )
            signs = np.sign(diff[np.abs(diff) > 1e-12])
            changes = int(np.sum(signs[1:] * signs[:-1] < 0)) if signs.size > 1 else 0
            assert changes <= 1


def test_load_crossover_in_company_price_sweep():
    rows = sweep_company_price(CONSUMERS, GRID, np.linspace(0.10, 0.20, 21), ALPHAS)
    eut_load = np.array([r.load["eut"] for r in rows])
    assert np.all(np.diff(eut_load) < 0)
    for alpha in ALPHAS:
        diff = np.array([r.load[alpha] for r in rows]) - eut_load
        signs = np.sign(diff[np.abs(diff) > 1e-12])
        assert signs[0] > 0 and signs[-1] < 0
        assert int(np.sum(signs[1:] * signs[:-1] < 0)) == 1


def test_best_response_above_crossover_is_discharge():
    from dataclasses import replace

    from ptgrid.games import best_response

    # selling price far above both crossover prices: the economic swing
    # rho*L + b*S exceeds every penalty gap, so selling dominates
    grid = replace(GRID, selling_price=0.5)
    game = build_storage_game(CONSUMERS, grid)
    behaviors = [c.behavior for c in CONSUMERS]
    for opponent_mix in ([1.0, 0.0], [0.5, 0.5], [0.0, 1.0]):
        prof = MixedProfile([[0.5, 0.5], opponent_mix])
        assert best_response(game, 0, prof, behaviors) == (DISCHARGE,)


def test_sweep_requires_ascending_grid():
    with pytest.raises(ValueError):
        sweep_selling_price(CONSUMERS, GRID, [0.05, 0.04], ALPHAS)
    with pytest.raises(ValueError):
        sweep_company_price(CONSUMERS, GRID, [], ALPHAS)


def test_equilibrium_for_a_certified_mix_whose_mass_rounds_to_one():
    # solve_2x2 certifies a mixed candidate of about (1e-20, 1.0) for both
    # players; its second mass is 1.0, so it is not interior and the first pure
    # equilibrium is returned
    a = np.array([[1.0, 0.0], [0.0, 1e-20]])
    game = FiniteGame.from_bimatrix(a, a.T)
    eut = [PtProfile.eut()] * 2
    results = solve_2x2(game, eut)
    assert len(results) == 3
    for m in results[-1].profile:
        assert m[0] == pytest.approx(1e-20, rel=1e-9) and m[1] == 1.0
    profile, interior = storage._equilibrium_for(game, eut)
    assert interior is False
    assert [m.tolist() for m in profile] == [[1.0, 0.0]] * 2


# ---------------------------------------------------------------------------
# framing

REF_GRID = np.linspace(0.0, 2.0, 9)


@pytest.fixture(scope="module")
def frame_rows():
    return framing_sweep(CONSUMERS, GRID, REF_GRID, [1.0, 2.0])


def test_framing_identity_equals_eut(frame_rows):
    identity = [r for r in frame_rows if r.reference == 0.0 and r.gamma == 1.0]
    assert len(identity) == 1
    assert identity[0].pt_total == pytest.approx(identity[0].eut_total, abs=1e-9)


def test_framing_total_non_increasing_in_reference(frame_rows):
    for gamma in (1.0, 2.0):
        totals = [r.pt_total for r in frame_rows if r.gamma == gamma]
        assert np.all(np.diff(totals) <= 1e-12)


def test_framing_loss_aversion_lowers_total(frame_rows):
    g1 = {r.reference: r.pt_total for r in frame_rows if r.gamma == 1.0}
    g2 = {r.reference: r.pt_total for r in frame_rows if r.gamma == 2.0}
    for ref in REF_GRID[1:]:
        assert g2[float(ref)] < g1[float(ref)]


def test_framing_row_without_equilibrium(monkeypatch):
    # it used to pass the missing profile on to pt_utility: a TypeError
    monkeypatch.setattr(storage, "solve_2x2", lambda game, behaviors: [])
    rows = framing_sweep(CONSUMERS, GRID, [0.0, 1.0], [2.0])
    assert [(r.eut_total, r.pt_total, r.has_interior) for r in rows] == [(None, None, False)] * 2


def test_framing_utilities_against_objective_expectation():
    # with the identity frame the recorded totals are objective expectations
    rows = framing_sweep(CONSUMERS, GRID, [0.0], [1.0])
    game = build_storage_game(CONSUMERS, GRID)
    results = solve_2x2(game)
    inner = [
        r for r in results
        if all(np.all(m > 0) and np.all(m < 1) for m in r.profile)
    ]
    total = sum(eut_utility(game, i, inner[0].profile) for i in range(2))
    assert rows[0].pt_total == pytest.approx(total, abs=1e-9)
