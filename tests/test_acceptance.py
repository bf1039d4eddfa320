"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`) and
enforcing its runtime budget.
"""
import math
import time

import numpy as np
import pytest

from ptgrid.cli import main as cli_main
from ptgrid.dsm import (
    DsmConfig,
    action_load_table,
    hourly_load_report,
    rationality_sweep,
    synth_profile,
)
from ptgrid.fixtures import dsm_config_path, storage_config_path
from ptgrid.formats import load_dsm_config, load_storage_config
from ptgrid.games import (
    FiniteGame,
    MixedProfile,
    brute_force_equilibrium,
    eut_utility,
    pt_utility,
    solve_2x2,
)
from ptgrid.prospects import (
    Prospect,
    PtProfile,
    evaluate_prospect,
    prelec_inverse,
    prelec_weight,
)
from ptgrid.storage import framing_sweep, sweep_selling_price


class Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget: "
                f"{elapsed:.2f}s"
            )
        return False


def test_criterion_01_eut_reduction():
    with Budget("1 (EUT reduction)", 5.0):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(2, 4))
            counts = [int(rng.integers(2, 4)) for _ in range(n)]
            game = FiniteGame(rng.uniform(-10.0, 10.0, size=(n, *counts)))
            profile = MixedProfile([rng.dirichlet(np.ones(a)) for a in counts])
            behaviors = [PtProfile.eut()] * n
            player = int(rng.integers(0, n))
            diff = abs(
                pt_utility(game, player, profile, behaviors)
                - eut_utility(game, player, profile)
            )
            assert diff <= 1e-12


def test_criterion_02_prelec_properties():
    with Budget("2 (Prelec properties)", 1.0):
        inv_e = 1.0 / math.e
        for alpha in np.arange(0.1, 1.01, 0.1):
            assert abs(prelec_weight(inv_e, float(alpha)) - inv_e) <= 1e-12
        p = np.linspace(0.01, 0.99, 99)
        for alpha in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99):
            w = prelec_weight(p, alpha)
            below = p < inv_e - 1e-12
            above = p > inv_e + 1e-12
            assert np.all(w[below] > p[below])
            assert np.all(w[above] < p[above])
            back = prelec_inverse(w, alpha)
            assert np.max(np.abs(back - p)) <= 1e-9


def test_criterion_03_preference_reversal():
    with Budget("3 (preference reversal)", 1.0):
        profile = PtProfile.behavioral(alpha=0.65, gamma=2.25, beta=0.88)
        eut = PtProfile.eut()
        options = {
            "a": Prospect([(100.0, 0.5), (0.0, 0.5)]),
            "b": Prospect([(50.0, 1.0)]),
            "c": Prospect([(-100.0, 0.5), (0.0, 0.5)]),
            "d": Prospect([(-50.0, 1.0)]),
        }
        pt = {k: evaluate_prospect(o, profile) for k, o in options.items()}
        ev = {k: evaluate_prospect(o, eut) for k, o in options.items()}
        assert abs(ev["a"] - ev["b"]) <= 1e-12
        assert abs(ev["c"] - ev["d"]) <= 1e-12
        assert pt["b"] > pt["a"]
        assert pt["c"] > pt["d"]


def test_criterion_04_solver_oracle_equivalence():
    with Budget("4 (solver vs oracle)", 30.0):
        rng = np.random.default_rng(42)
        for case in range(20):
            game = FiniteGame(rng.uniform(-5.0, 5.0, size=(2, 2, 2)))
            behaviors = [
                PtProfile.weighting_only(float(rng.uniform(0.2, 1.0)))
                for _ in range(2)
            ]
            solved = solve_2x2(game, behaviors)
            assert solved, f"case {case}: no equilibrium found"
            oracle = brute_force_equilibrium(game, behaviors, grid=200)
            assert oracle, f"case {case}: oracle found nothing"
            for res in solved:
                assert res.residual <= 1e-9
                dist = min(
                    max(
                        float(np.max(np.abs(res.profile[i] - cand[i])))
                        for i in range(2)
                    )
                    for cand in oracle
                )
                assert dist <= 1e-2, f"case {case}: distance {dist}"


def _sign_changes(diff, zero_tol):
    signs = np.sign(diff[np.abs(diff) > zero_tol])
    if signs.size < 2:
        return 0, signs
    return int(np.sum(signs[1:] * signs[:-1] < 0)), signs


@pytest.fixture(scope="module")
def storage_cfg():
    return load_storage_config(storage_config_path())


@pytest.fixture(scope="module")
def storage_price_rows(storage_cfg):
    return sweep_selling_price(
        storage_cfg["consumers"],
        storage_cfg["grid"],
        storage_cfg["b_grid"],
        storage_cfg["alphas"],
    )


def test_criterion_05_storage_buy_probability_crossover(storage_cfg, storage_price_rows):
    with Budget("5 (buy-probability crossover)", 10.0):
        rows = storage_price_rows
        assert all(all(r.has_interior.values()) for r in rows)
        for alpha in (0.25, 0.65):
            for consumer in (0, 1):
                diff = np.array(
                    [
                        r.buy_probs[alpha][consumer] - r.buy_probs["eut"][consumer]
                        for r in rows
                    ]
                )
                changes, signs = _sign_changes(diff, 1e-12)
                assert signs[0] > 0, f"alpha={alpha} c={consumer}: not positive at low b"
                assert signs[-1] < 0, f"alpha={alpha} c={consumer}: not negative at high b"
                assert changes == 1, f"alpha={alpha} c={consumer}: {changes} sign changes"


def test_criterion_06_storage_revenue_shape(storage_cfg, storage_price_rows):
    with Budget("6 (company revenue shape)", 10.0):
        rows = storage_price_rows
        eut = np.array([r.revenue["eut"] for r in rows])
        assert np.all(np.diff(eut) <= 1e-12)
        deviation = {}
        for alpha in (0.25, 0.65):
            rev = np.array([r.revenue[alpha] for r in rows])
            assert np.all(np.diff(rev) <= 1e-12)
            deviation[alpha] = float(np.max(np.abs(rev - eut)))
        assert deviation[0.65] > 0.0
        assert deviation[0.65] < deviation[0.25]


def test_criterion_07_storage_framing_shape(storage_cfg):
    with Budget("7 (framing sweep shape)", 10.0):
        rows = framing_sweep(
            storage_cfg["consumers"],
            storage_cfg["grid"],
            storage_cfg["ref_grid"],
            storage_cfg["gammas"],
            beta=storage_cfg["frame_beta"],
        )
        identity = [r for r in rows if r.reference == 0.0 and r.gamma == 1.0]
        assert len(identity) == 1
        assert abs(identity[0].pt_total - identity[0].eut_total) <= 1e-9
        by_gamma = {}
        for gamma in storage_cfg["gammas"]:
            totals = np.array([r.pt_total for r in rows if r.gamma == gamma])
            assert np.all(np.diff(totals) <= 1e-12), f"gamma={gamma} not non-increasing"
            by_gamma[gamma] = totals
        refs = np.array([r.reference for r in rows if r.gamma == 1.0])
        positive = refs > 0.0
        assert np.all(by_gamma[2.0][positive] < by_gamma[1.0][positive])


@pytest.fixture(scope="module")
def dsm_cfg():
    cfg = load_dsm_config(dsm_config_path())
    return cfg, cfg["profiles"]


def test_criterion_08_dsm_evening_nonparticipation(dsm_cfg):
    with Budget("8 (heterogeneous evening load)", 60.0):
        cfg, profiles = dsm_cfg
        assert cfg["config"].alphas == (0.5, 0.5, 0.2, 0.1, 0.1, 0.1)
        report = hourly_load_report(
            profiles, cfg["config"], tol=cfg["tol"], max_iter=cfg["max_iter"]
        )
        assert report.eut_converged and report.pt_converged
        pt_evening = float(report.pt[21:24].sum())
        eut_evening = float(report.eut[21:24].sum())
        assert pt_evening > eut_evening


def test_criterion_09_dsm_rationality_sweep(dsm_cfg):
    with Budget("9 (rationality sweep)", 120.0):
        cfg, profiles = dsm_cfg
        sweep = rationality_sweep(
            profiles,
            cfg["config"],
            cfg["alpha_grid"],
            cfg["hour"],
            tol=cfg["tol"],
            max_iter=cfg["max_iter"],
        )
        assert np.all(sweep.converged)
        total_hour = float(sum(p.hourly_demand[cfg["hour"]] for p in profiles))
        share = sweep.eut_load / total_hour
        assert 0.0 < share < 1.0
        assert sweep.alphas[-1] == 1.0
        assert abs(sweep.pt_loads[-1] - sweep.eut_load) <= 1e-9
        diff = sweep.pt_loads - sweep.eut_load
        # entries below the solver-noise floor (residual 1e-9 on ~20 kWh
        # loads) are treated as coincident with EUT
        changes, signs = _sign_changes(diff, 1e-6)
        assert changes == 1, f"{changes} sign changes in {np.round(diff, 4)}"


def test_criterion_10_conservation_and_determinism(tmp_path, dsm_cfg):
    with Budget("10 (conservation + determinism)", 120.0):
        cfg, profiles = dsm_cfg
        table = action_load_table(profiles, cfg["config"])
        for i, p in enumerate(profiles):
            for action in range(cfg["config"].n_actions):
                assert abs(table[i, action].sum() - p.daily_energy()) <= 1e-9
        pairs = [
            ["storage", "--figure", "4"],
            ["dsm", "--figure", "8"],
        ]
        for args in pairs:
            out1 = tmp_path / (args[0] + "_run1")
            out2 = tmp_path / (args[0] + "_run2")
            assert cli_main(args + ["--out", str(out1)]) == 0
            assert cli_main(args + ["--out", str(out2)]) == 0
            for f1 in sorted(out1.glob("*.csv")):
                f2 = out2 / f1.name
                assert f1.read_bytes() == f2.read_bytes(), f"{f1.name} differs"
