"""Two-consumer storage charge/discharge game: each active consumer either
buys energy for its storage unit or sells its surplus back, trading the
economic gain against a quadratic penalty on the grid's deviation from its
nominal generation set-point.

Action convention: 0 = charge (buy), 1 = discharge (sell).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .games import FiniteGame, MixedProfile, pt_utility, solve_2x2
from .prospects import PrelecWeighting, PtProfile, ValueFrame

CHARGE, DISCHARGE = 0, 1


@dataclass(frozen=True)
class StorageConsumer:
    """An active consumer: energy bought when charging, energy sold when
    discharging, and its behavioral profile."""

    load: float
    surplus: float
    behavior: PtProfile = PtProfile.eut()

    def __post_init__(self):
        for name in ("load", "surplus"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and non-negative, got {v!r}")


@dataclass(frozen=True)
class StorageGridConfig:
    """Grid-side parameters of the storage game.

    nominal_generation is the regulation set-point; when None it defaults to
    passive_load + (total load - total surplus) / 2 so that neither pure
    joint action is penalty-free. The two active consumers share the
    regulation penalty equally.
    """

    passive_load: float = 80.0
    nominal_generation: float | None = None
    penalty_coeff: float = 0.012
    company_price: float = 0.145
    selling_price: float = 0.06

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not math.isfinite(self.passive_load):
            raise ValueError(f"passive_load must be finite, got {self.passive_load!r}")
        for name in ("penalty_coeff", "company_price", "selling_price"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {v!r}")
        g = self.nominal_generation
        if g is not None and not (math.isfinite(g) and g > 0.0):
            raise ValueError(f"nominal_generation must be finite and positive, got {g!r}")

    def setpoint(self, consumers) -> float:
        if self.nominal_generation is not None:
            return self.nominal_generation
        net = sum(c.load for c in consumers) - sum(c.surplus for c in consumers)
        return self.passive_load + net / 2.0


def build_storage_game(consumers, grid: StorageGridConfig) -> FiniteGame:
    """Payoff tensor of the 2x2 charge/discharge game.

    Consumer i earns -price * load when charging and selling_price * surplus
    when discharging, minus its share of the regulation penalty
    penalty_coeff * (generation - setpoint)^2, where generation is the
    passive load plus the active consumers' net draw.
    """
    consumers = tuple(consumers)
    if len(consumers) != 2:
        raise ValueError("the storage game has exactly two active consumers")
    g0 = grid.setpoint(consumers)
    pay = np.zeros((2, 2, 2))
    for a1 in (CHARGE, DISCHARGE):
        for a2 in (CHARGE, DISCHARGE):
            acts = (a1, a2)
            gen = grid.passive_load + sum(
                c.load if a == CHARGE else -c.surplus for c, a in zip(consumers, acts)
            )
            penalty = grid.penalty_coeff * (gen - g0) ** 2
            for i, (c, a) in enumerate(zip(consumers, acts)):
                econ = -grid.company_price * c.load if a == CHARGE else grid.selling_price * c.surplus
                pay[i, a1, a2] = econ - 0.5 * penalty
    return FiniteGame(pay)


def company_revenue(profile: MixedProfile, consumers, grid: StorageGridConfig) -> float:
    """Expected revenue the company collects from the two consumers:
    company_price times each consumer's load weighted by its buy probability."""
    return float(
        grid.company_price
        * sum(profile[i][CHARGE] * c.load for i, c in enumerate(consumers))
    )


def expected_load(profile: MixedProfile, consumers, grid: StorageGridConfig) -> float:
    """Active consumers' net expected contribution to the grid load (kWh)."""
    return float(
        sum(
            profile[i][CHARGE] * c.load - profile[i][DISCHARGE] * c.surplus
            for i, c in enumerate(consumers)
        )
    )


@dataclass(frozen=True)
class SweepRow:
    """Equilibrium outcomes at one swept parameter value.

    buy_probs maps a model key ('eut' or an alpha value) to the two
    consumers' equilibrium buy probabilities; revenue, load and utilities
    (the consumers' perceived expected utilities) are keyed the same way.
    For PT entries the equilibrium is the interior mixed one; has_interior
    flags models where none exists (such rows fall back to a pure
    equilibrium and are excluded from crossover analysis).
    """

    value: float
    buy_probs: dict
    revenue: dict
    load: dict
    utilities: dict
    has_interior: dict


def _equilibrium_for(game, behaviors):
    """Interior mixed equilibrium when it exists, else the lexicographically
    first pure equilibrium."""
    results = solve_2x2(game, behaviors)
    interior = [r for r in results if all(np.all(m < 1.0) and np.all(m > 0.0) for m in r.profile)]
    if interior:
        return interior[0].profile, True
    if not results:
        return None, False
    return results[0].profile, False


def _sweep(consumers, grid, field, values, name, alphas):
    """One SweepRow per value of the grid field, under EUT and under Prelec
    weighting for each alpha; raises ValueError, naming the grid by name,
    unless values are non-empty and strictly ascending."""
    values = list(values)
    if not values or any(v2 <= v1 for v1, v2 in zip(values, values[1:])):
        raise ValueError(f"{name} must be non-empty and strictly ascending")
    models = [("eut", [PtProfile.eut()] * 2)] + [
        (float(a), [PtProfile(PrelecWeighting(float(a)), c.behavior.frame) for c in consumers])
        for a in alphas
    ]
    rows = []
    for value in values:
        g = replace(grid, **{field: float(value)})
        game = build_storage_game(consumers, g)
        buy, rev, load, util, has_int = {}, {}, {}, {}, {}
        for key, behaviors in models:
            profile, interior = _equilibrium_for(game, behaviors)
            has_int[key] = interior
            if profile is None:
                buy[key] = rev[key] = load[key] = util[key] = None
                continue
            buy[key] = tuple(float(profile[i][CHARGE]) for i in range(2))
            rev[key] = company_revenue(profile, consumers, g)
            load[key] = expected_load(profile, consumers, g)
            util[key] = tuple(
                pt_utility(game, i, profile, behaviors) for i in range(2)
            )
        rows.append(
            SweepRow(
                value=float(value),
                buy_probs=buy,
                revenue=rev,
                load=load,
                utilities=util,
                has_interior=has_int,
            )
        )
    return rows


def sweep_selling_price(consumers, grid: StorageGridConfig, b_grid, alphas) -> list:
    """Equilibrium outcomes for each consumer selling price in b_grid, under
    EUT and under Prelec weighting for each alpha."""
    return _sweep(consumers, grid, "selling_price", b_grid, "b_grid", alphas)


def sweep_company_price(consumers, grid: StorageGridConfig, rho_grid, alphas) -> list:
    """Equilibrium outcomes for each company price in rho_grid (the driver
    behind the expected-load comparison)."""
    return _sweep(consumers, grid, "company_price", rho_grid, "rho_grid", alphas)


@dataclass(frozen=True)
class FramingRow:
    """Total expected utility at one (reference, gamma) frame; a total is None
    where no equilibrium was found."""

    reference: float
    gamma: float
    eut_total: float | None
    pt_total: float | None
    has_interior: bool


def _total_utility(game, profile, behaviors):
    if profile is None:
        return None
    return float(sum(pt_utility(game, i, profile, behaviors) for i in range(2)))


def framing_sweep(
    consumers,
    grid: StorageGridConfig,
    ref_grid,
    gammas,
    beta: float = 1.0,
) -> list:
    """Keep weighting rational (alpha = 1) and vary the shared value frame:
    for each (reference, gamma) both consumers adopt that frame, the game is
    solved, and the consumers' total perceived utility is recorded next to
    the total EUT utility at the EUT equilibrium."""
    consumers = tuple(consumers)
    game_eut = build_storage_game(consumers, grid)
    eut = [PtProfile.eut()] * 2
    eut_total = _total_utility(game_eut, _equilibrium_for(game_eut, eut)[0], eut)

    rows = []
    for gamma in gammas:
        for ref in ref_grid:
            frame = ValueFrame(
                reference=float(ref), gamma=float(gamma), beta_gain=beta, beta_loss=beta
            )
            behaviors = [PtProfile(frame=frame)] * 2
            profile, interior = _equilibrium_for(game_eut, behaviors)
            rows.append(
                FramingRow(
                    reference=float(ref),
                    gamma=float(gamma),
                    eut_total=eut_total,
                    pt_total=_total_utility(game_eut, profile, behaviors),
                    has_interior=interior,
                )
            )
    return rows
