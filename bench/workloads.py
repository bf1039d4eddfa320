"""The four benchmark workloads.

Each workload has load(seed) -> inputs, run(inputs, out_dir) -> outputs (one
pass, timed and traced) and check(inputs, outputs) -> Tally (untimed and
untraced). See README.md for why
each workload was chosen and what its point is. A run loads a new input
set, derived from the run's seed by input_seed, for each warm pass.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from ptgrid import dsm, fixtures, formats, games, storage
from ptgrid.prospects import PrelecWeighting, PtProfile

REFERENCE = Path(__file__).resolve().parent / "reference"
TOL = 1e-9  # solver tolerance and the tolerance for matching references


def input_seed(seed: int, index: int) -> int:
    """Seed of a run's index-th input set; set 0 is the run's own seed.

    A run's processes and warm passes use different input sets, so that its
    figures average over several inputs instead of resting on one."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclasses.dataclass
class Tally:
    """Points of one pass. A point succeeds when its solve converged, its
    profile re-certifies, and it matches its reference, invariant or grid
    oracle. A point is wrong when it contradicts what this program is known
    to produce: it differs from the recorded reference or the alpha = 1
    invariant, or a profile the program certified fails re-certification.
    Non-convergence and oracle disagreement are known defects of the
    program: they count against success, not as wrong."""

    attempted: int = 0
    succeeded: int = 0
    wrong: int = 0

    def add(self, ok: bool, wrong: bool = False) -> None:
        self.attempted += 1
        self.succeeded += ok and not wrong
        self.wrong += wrong


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


# ---------------------------------------------------------------------------


class DsmFig9:
    """Fig 9: rationality_sweep over the fixture's 20-point alpha grid on
    synth_profile(seed, 6, flexible_range) profiles. Seed 42 reproduces the
    bundled dsm_profiles_seed42.csv, and its rows must equal the recorded
    `ptgrid dsm --figure 9` output."""

    def load(self, seed):
        cfg = formats.load_dsm_config(fixtures.dsm_config_path())
        profiles = dsm.synth_profile(
            seed, cfg["config"].n_consumers, flexible_range=cfg["flexible_range"]
        )
        reference = None
        if seed == 42:
            with open(REFERENCE / "dsm_fig9_seed42.csv", newline="", encoding="utf-8") as fh:
                reference = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        return {"cfg": cfg, "profiles": profiles, "reference": reference}

    def run(self, inputs, out_dir):
        cfg = inputs["cfg"]
        sweep = dsm.rationality_sweep(
            inputs["profiles"], cfg["config"], cfg["alpha_grid"], cfg["hour"],
            tol=cfg["tol"], max_iter=cfg["max_iter"],
        )
        formats.write_csv(out_dir / "fig9.csv", ["alpha", "eut_load", "pt_load"], sweep.rows())
        return sweep

    def check(self, inputs, sweep):
        tally = Tally()
        reference = inputs["reference"]
        for k, row in enumerate(sweep.rows()):
            ok = True
            if row[0] == 1.0:  # criterion 9: alpha = 1 reproduces EUT
                ok = abs(row[2] - row[1]) <= TOL
            if reference is not None:
                ok = ok and len(reference) == len(sweep.alphas) and all(
                    _close(a, b) for a, b in zip(row, reference[k])
                )
            tally.add(bool(sweep.converged[k]), wrong=not ok)
        return tally


# ---------------------------------------------------------------------------


def _storage_table(rows, alphas, field):
    table = []
    for r in rows:
        record = [r.value]
        for key in ["eut", *alphas]:
            value = getattr(r, field)[key]
            record += list(value) if isinstance(value, tuple) else [value]
        table.append(record)
    return table


def price_cells(row) -> dict:
    """Per model key: buy probabilities, revenue, load, utilities and
    has_interior of one price-sweep row, in JSON-compatible form."""
    return {
        str(key): [row.buy_probs[key], row.revenue[key], row.load[key],
                   row.utilities[key], row.has_interior[key]]
        for key in row.buy_probs
    }


def _same(a, b) -> bool:
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    return _close(a, b)


class StorageFigs:
    """Figs 4-7 on the bundled storage fixture: one selling-price sweep
    (figs 4/5), one company-price sweep (fig 6) and one framing sweep
    (fig 7). No random input; the seed is ignored."""

    def load(self, seed):
        cfg = formats.load_storage_config(fixtures.storage_config_path())
        with open(REFERENCE / "storage_figs.json", encoding="utf-8") as fh:
            reference = json.load(fh)
        return {"cfg": cfg, "reference": reference}

    def run(self, inputs, out_dir):
        cfg = inputs["cfg"]
        consumers, grid, alphas = cfg["consumers"], cfg["grid"], cfg["alphas"]
        price = storage.sweep_selling_price(consumers, grid, cfg["b_grid"], alphas)
        company = storage.sweep_company_price(consumers, grid, cfg["rho_grid"], alphas)
        framing = storage.framing_sweep(
            consumers, grid, cfg["ref_grid"], cfg["gammas"], beta=cfg["frame_beta"]
        )
        tags = [f"alpha{a:g}" for a in alphas]
        formats.write_csv(
            out_dir / "fig4.csv",
            ["selling_price", "eut_buy_1", "eut_buy_2"]
            + [f"pt_buy_{i}_{t}" for t in tags for i in (1, 2)],
            _storage_table(price, alphas, "buy_probs"),
        )
        formats.write_csv(
            out_dir / "fig5.csv",
            ["selling_price", "eut_revenue"] + [f"pt_revenue_{t}" for t in tags],
            _storage_table(price, alphas, "revenue"),
        )
        formats.write_csv(
            out_dir / "fig6.csv",
            ["company_price", "eut_load"] + [f"pt_load_{t}" for t in tags],
            _storage_table(company, alphas, "load"),
        )
        formats.write_csv(
            out_dir / "fig7.csv",
            ["reference", "gamma", "eut_total", "pt_total"],
            [[r.reference, r.gamma, r.eut_total, r.pt_total] for r in framing],
        )
        return {"selling_price": price, "company_price": company, "framing": framing}

    def check(self, inputs, outputs):
        """A point is one (model, grid value) cell of a price sweep, or one
        framing row. Price-sweep profiles are re-certified."""
        cfg, reference = inputs["cfg"], inputs["reference"]
        tally = Tally()
        for sweep in ("selling_price", "company_price"):
            expected = reference[sweep]
            for k, row in enumerate(outputs[sweep]):
                grid = dataclasses.replace(cfg["grid"], **{sweep: row.value})
                game = storage.build_storage_game(cfg["consumers"], grid)
                for key, cell in price_cells(row).items():
                    ok = k < len(expected) and _close(row.value, expected[k]["value"]) \
                        and _same(cell, expected[k]["cells"].get(key))
                    probs = cell[0]
                    if probs is not None:
                        behaviors = [
                            PtProfile.eut() if key == "eut"
                            else PtProfile(weighting=PrelecWeighting(float(key)), frame=c.behavior.frame)
                            for c in cfg["consumers"]
                        ]
                        profile = games.MixedProfile([[p, 1.0 - p] for p in probs])
                        ok = ok and games.equilibrium_residual(game, profile, behaviors) <= TOL
                    tally.add(probs is not None, wrong=not ok)
        expected = reference["framing"]
        for k, row in enumerate(outputs["framing"]):
            record = dataclasses.asdict(row)
            tally.add(True, wrong=not (k < len(expected) and all(
                _same(record[f], expected[k][f]) for f in record
            )))
        return tally


# ---------------------------------------------------------------------------


class CustomGames:
    """Random games of the kind `ptgrid solve --grid` accepts, each solved
    and checked against the grid oracle: seeded 2x2 games (solve_2x2 plus
    the vectorized two-player oracle at grid 200) and a fixed bank of
    3-player, 2-action games (solve_fixed_point plus the n > 2 oracle loop at
    grid 20). The bank does not depend on the seed: about a third of such
    solves hit max_iter at 30x the cost of a converged one, so a seeded bank
    of a few games would make each run's cost depend on how many of them
    fail. The failures stay in the bank and count against success_ratio."""

    N_2X2 = 160
    N_3P = 3
    BANK_SEED = 0
    GRID_2X2 = 200
    GRID_3P = 20

    def load(self, seed):
        rng = np.random.default_rng(seed)
        bank = np.random.default_rng(self.BANK_SEED)
        cases = [(rng.uniform(-5.0, 5.0, size=(2, 2, 2)), rng.uniform(0.2, 1.0))
                 for _ in range(self.N_2X2)]
        cases += [(bank.uniform(-5.0, 5.0, size=(3, 2, 2, 2)), bank.uniform(0.3, 1.0))
                  for _ in range(self.N_3P)]
        return [
            (games.FiniteGame(payoffs), [PtProfile.weighting_only(float(alpha))] * payoffs.shape[0])
            for payoffs, alpha in cases
        ]

    def run(self, inputs, out_dir):
        solved, table = [], []
        for k, (game, behaviors) in enumerate(inputs):
            if game.n_players == 2:
                results = games.solve_2x2(game, behaviors, tol=TOL)
                oracle = games.brute_force_equilibrium(game, behaviors, grid=self.GRID_2X2)
            else:
                results = [games.solve_fixed_point(game, behaviors, tol=TOL)]
                oracle = games.brute_force_equilibrium(game, behaviors, grid=self.GRID_3P)
            solved.append((results, oracle))
            table.append([
                k, game.n_players, behaviors[0].alpha, sum(r.converged for r in results),
                max((r.residual for r in results), default=math.nan), len(oracle),
            ])
        formats.write_csv(
            out_dir / "games.csv",
            ["game", "players", "alpha", "equilibria", "max_residual", "oracle_profiles"],
            table,
        )
        return solved

    def check(self, inputs, solved):
        """2x2: at least one equilibrium, each within 1e-2 of an oracle
        profile (criterion 4). 3-player: converged, and within one grid step
        of an oracle profile. Every returned profile re-certifies."""
        tally = Tally()
        for (game, behaviors), (results, oracle) in zip(inputs, solved):
            near = 1e-2 if game.n_players == 2 else 1.0 / self.GRID_3P
            certified = all(
                games.equilibrium_residual(game, r.profile, behaviors) <= TOL
                for r in results if r.converged
            )
            agrees = all(
                min((max(float(np.max(np.abs(r.profile[i] - cand[i])))
                         for i in range(game.n_players)) for cand in oracle), default=math.inf)
                <= near
                for r in results
            )
            converged = bool(results) and all(r.converged for r in results)
            tally.add(converged and agrees, wrong=not certified)
        return tally


# ---------------------------------------------------------------------------


class DsmScale:
    """synth_profile(seed, 8) on the fixture's DSM parameters (4^8 joint
    actions): build_dsm_game, then an EUT and two homogeneous behavioral
    solve_dsm calls; each equilibrium is one point and is re-certified."""

    N_CONSUMERS = 8
    ALPHAS = (1.0, 0.65, 0.5)

    def load(self, seed):
        cfg = formats.load_dsm_config(fixtures.dsm_config_path())
        config = dataclasses.replace(cfg["config"], n_consumers=self.N_CONSUMERS, alphas=None)
        profiles = dsm.synth_profile(seed, self.N_CONSUMERS, flexible_range=cfg["flexible_range"])
        return {"cfg": cfg, "config": config, "profiles": profiles}

    def run(self, inputs, out_dir):
        cfg, config, profiles = inputs["cfg"], inputs["config"], inputs["profiles"]
        game = dsm.build_dsm_game(profiles, config)
        results = [
            dsm.solve_dsm(profiles, config, alphas=[alpha] * self.N_CONSUMERS, game=game,
                          tol=cfg["tol"], max_iter=cfg["max_iter"])
            for alpha in self.ALPHAS
        ]
        loads = [dsm.nonparticipating_load(r, profiles, config) for r in results]
        formats.write_csv(
            out_dir / "hourly.csv",
            ["hour"] + [f"nonparticipating_alpha{a:g}" for a in self.ALPHAS],
            [[h] + [float(load[h]) for load in loads] for h in range(dsm.HOURS)],
        )
        return game, results

    def check(self, inputs, outputs):
        game, results = outputs
        tally = Tally()
        for alpha, r in zip(self.ALPHAS, results):
            behaviors = [PtProfile.weighting_only(alpha)] * self.N_CONSUMERS
            certified = games.equilibrium_residual(game, r.profile, behaviors) <= TOL
            tally.add(r.converged, wrong=r.converged and not certified)
        return tally


WORKLOADS = {
    "dsm-fig9": DsmFig9(),
    "storage-figs": StorageFigs(),
    "custom-games": CustomGames(),
    "dsm-scale": DsmScale(),
}
