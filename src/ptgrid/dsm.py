"""N-consumer demand-side-management participation game: each consumer picks
an evening start hour for load shifting or opts out entirely; hourly prices
scale with the total post-shift load, and every consumer pays its own bill.

A participant starting at hour t relocates the flexible share of its load in
hours [t, t + shift_span) uniformly onto the overnight trough; opting out
leaves its profile untouched. Action convention: actions 0..k-1 are the k
window start hours in ascending order, action k is opt-out.

The payoff tensor has n * A^n entries for n consumers with A actions each.
It is built in fixed-size blocks of joint actions, so working memory is one
block plus the result, and a game over a fixed size limit raises
BudgetExceededError before anything is allocated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .games import (
    BudgetExceededError,
    EquilibriumResult,
    FiniteGame,
    MixedProfile,
    _prefetched_solves,
    solve_fixed_point,
)
from .prospects import PtProfile

HOURS = 24

# Joint actions per block of the payoff build. A block's gathered (B, n, 24)
# loads are the build's working memory, 6 MiB at B = 4096 and n = 8. On a
# 2-vCPU Xeon VM the max RSS after five n = 8 builds was 53.7 / 41.5 / 40.1 /
# 39.6 MB at B = 4096 / 1024 / 512 / 256, with build times of 73-97 ms at
# every B; at B = 64 the per-block overhead made an n = 9 build about 15%
# slower. Blocks smaller than 1024 save under 2 MB.
_BLOCK = 1024
_MAX_PAYOFF_ENTRIES = 2**24  # n * A^n; 128 MiB per float64 copy


@dataclass(frozen=True)
class LoadProfile:
    """A consumer's 24-hour demand and the share of its peak-window load that
    participation can shift."""

    hourly_demand: np.ndarray
    flexible_fraction: float

    def __post_init__(self):
        demand = np.asarray(self.hourly_demand, dtype=float)
        if demand.shape != (HOURS,):
            raise ValueError(f"hourly_demand needs exactly {HOURS} entries")
        # a finite daily total bounds every hour of shifted_load's result;
        # the sum is NaN or inf when an hour is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            if np.any(demand < 0.0) or not np.isfinite(demand.sum()):
                raise ValueError("hourly_demand must be finite and non-negative, as must its sum")
        if not (0.0 <= self.flexible_fraction <= 1.0):
            raise ValueError("flexible_fraction must lie in [0, 1]")
        demand = demand.copy()
        demand.setflags(write=False)
        object.__setattr__(self, "hourly_demand", demand)

    def daily_energy(self) -> float:
        return float(self.hourly_demand.sum())


@dataclass(frozen=True)
class DsmConfig:
    """Parameters of the participation game.

    The hourly price is price_coeff * (total hourly load) ** price_exponent.
    alphas carries the consumers' Prelec rationality parameters (None means
    all rational).
    """

    n_consumers: int = 6
    start_window: tuple = (18, 19, 20)
    include_opt_out: bool = True
    price_coeff: float = 0.02
    price_exponent: float = 1.0
    shift_span: int = 5
    offpeak_hours: tuple = (1, 2, 3, 4, 5)
    alphas: tuple | None = None

    def __post_init__(self):
        if self.n_consumers < 2:
            raise ValueError(f"n_consumers must be at least 2, got {self.n_consumers!r}")
        # a repeated start hour is a second copy of one action; shifted_load
        # adds to each off-peak hour once, so a repeat there would lose energy
        for name in ("start_window", "offpeak_hours"):
            hours = getattr(self, name)
            if not hours:
                raise ValueError(f"{name} must be non-empty")
            if any(not (0 <= h < HOURS) for h in hours):
                raise ValueError(f"{name} hours must lie in [0, 23], got {hours!r}")
            if len(set(hours)) != len(hours):
                raise ValueError(f"{name} must not repeat an hour, got {hours!r}")
        # a span past the day shifts nothing more
        if not 1 <= self.shift_span <= HOURS:
            raise ValueError(f"shift_span must lie in [1, 24], got {self.shift_span!r}")
        # written so that NaN fails
        coeff, exponent = self.price_coeff, self.price_exponent
        if not (math.isfinite(coeff) and coeff >= 0.0):
            raise ValueError(f"price_coeff must be finite and non-negative, got {coeff!r}")
        if not math.isfinite(exponent):
            raise ValueError(f"price_exponent must be finite, got {exponent!r}")
        if self.alphas is not None:
            if len(self.alphas) != self.n_consumers:
                raise ValueError("alphas must list one value per consumer")
            if not all(0.0 < a <= 1.0 for a in self.alphas):
                raise ValueError(f"alphas must lie in (0, 1], got {self.alphas!r}")

    @property
    def n_actions(self) -> int:
        return len(self.start_window) + (1 if self.include_opt_out else 0)

    @property
    def opt_out_action(self) -> int | None:
        return len(self.start_window) if self.include_opt_out else None

    def behaviors(self) -> list:
        # weighting_only(1.0) equals PtProfile.eut(), hash included
        return _weighting_only([1.0] * self.n_consumers if self.alphas is None else self.alphas)


def shifted_load(profile: LoadProfile, start_hour: int, config: DsmConfig) -> np.ndarray:
    """The consumer's 24-hour load after joining at start_hour: the flexible
    share of each hour in [start_hour, start_hour + span) moves uniformly
    onto the off-peak hours."""
    span_hours = [h for h in range(start_hour, start_hour + config.shift_span) if h < HOURS]
    load = np.array(profile.hourly_demand)
    moved = profile.flexible_fraction * load[span_hours].sum()
    load[span_hours] *= 1.0 - profile.flexible_fraction
    load[list(config.offpeak_hours)] += moved / len(config.offpeak_hours)
    return load


def action_load_table(profiles, config: DsmConfig) -> np.ndarray:
    """Per-consumer, per-action 24-hour load vectors, shape (n, A, 24)."""
    table = np.zeros((len(profiles), config.n_actions, HOURS))
    for i, p in enumerate(profiles):
        for a, start in enumerate(config.start_window):
            table[i, a] = shifted_load(p, start, config)
        if config.include_opt_out:
            table[i, config.opt_out_action] = p.hourly_demand
    return table


def build_dsm_game(profiles, config: DsmConfig) -> FiniteGame:
    """Payoff tensor of the participation game: consumer i's payoff at a
    joint action is the negative of its bill, sum_h price(h) * own_load(h),
    with price(h) = price_coeff * total_load(h) ** price_exponent.

    Joint actions are processed in blocks of _BLOCK = 1,024 written straight
    into the result, so the working memory is one block plus the tensor: a
    block's gathered loads are 1,024 * n * 24 floats (1.5 MiB at n = 8), and
    the tracemalloc peak of a build is 6.3 MiB at n = 8 (4 MiB of payoffs)
    and 20.5 MiB at n = 9 (18 MiB). The game adopts the result without a
    copy, and under the identity frame its value memos read it in place.
    Raises BudgetExceededError, before allocating, when the tensor would
    hold more than 2^24 entries (n <= 10 consumers at 4 actions), and after
    the build when a payoff is not finite."""
    profiles = tuple(profiles)
    if len(profiles) != config.n_consumers:
        raise ValueError(
            f"expected {config.n_consumers} load profiles, got {len(profiles)}"
        )
    n, A = len(profiles), config.n_actions
    n_joint = A**n
    if n * n_joint > _MAX_PAYOFF_ENTRIES:
        raise BudgetExceededError(
            f"{n} consumers with {A} actions need {n * n_joint} payoff entries, "
            f"over the limit of {_MAX_PAYOFF_ENTRIES}"
        )
    table = action_load_table(profiles, config)
    shape = (A,) * n
    consumers = np.arange(n)[None, :]
    payoffs = np.empty((n, n_joint))
    # a price past the float range is reported below, not warned about here
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, n_joint, _BLOCK):
            stop = min(start + _BLOCK, n_joint)
            joint = np.stack(np.unravel_index(np.arange(start, stop), shape), axis=1)
            loads = table[consumers, joint, :]  # (B, n, 24)
            total = loads.sum(axis=1)  # (B, 24)
            price = config.price_coeff * total**config.price_exponent
            loads *= price[:, None, :]  # in place: the gathered block is a copy
            payoffs[:, start:stop] = -loads.sum(axis=2).T
            del loads  # freed before the next block is gathered
    try:
        return FiniteGame._adopt(payoffs.reshape((n,) + shape))
    except ValueError as exc:
        raise BudgetExceededError(
            f"{exc}: price_coeff * (total hourly load) ** price_exponent "
            "leaves the float range"
        ) from exc


def solve_dsm(
    profiles,
    config: DsmConfig,
    alphas=None,
    game: FiniteGame | None = None,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> EquilibriumResult:
    """Solve the participation game by damped fixed-point iteration under the
    given rationality parameters (config.alphas when omitted)."""
    if game is None:
        game = build_dsm_game(profiles, config)
    behaviors = config.behaviors() if alphas is None else _weighting_only(alphas)
    return solve_fixed_point(game, behaviors, tol=tol, max_iter=max_iter)


def _weighting_only(alphas) -> list:
    return [PtProfile.weighting_only(float(a)) for a in alphas]


def _solve_points(profiles, config: DsmConfig, game: FiniteGame, alpha_sets, tol, max_iter):
    """One solve_dsm result per entry of alpha_sets (None for config.alphas).
    Every solve runs in one batched fixed-point loop first; each point is
    then the solve_dsm call for its alphas, which returns the batch's result
    without iterating again."""
    behavior_sets = [config.behaviors() if a is None else _weighting_only(a) for a in alpha_sets]
    with _prefetched_solves(game, behavior_sets, tol=tol, max_iter=max_iter):
        return [
            solve_dsm(profiles, config, alphas=a, game=game, tol=tol, max_iter=max_iter)
            for a in alpha_sets
        ]


def nonparticipating_load(
    result: EquilibriumResult | MixedProfile, profiles, config: DsmConfig
) -> np.ndarray:
    """Expected hourly load of consumers who opt out: per hour, the sum of
    each consumer's raw demand weighted by its opt-out probability. Raises
    ValueError unless the profile has one player per load profile."""
    profile = result.profile if isinstance(result, EquilibriumResult) else result
    if len(profile) != len(profiles):
        raise ValueError(
            f"the profile has {len(profile)} players but there are {len(profiles)} load profiles"
        )
    if config.opt_out_action is None:
        return np.zeros(HOURS)
    out = np.zeros(HOURS)
    for mix, p in zip(profile, profiles):
        out += mix[config.opt_out_action] * p.hourly_demand
    return out


@dataclass(frozen=True)
class HourlyLoadReport:
    """Expected nonparticipating load per hour under the rational baseline
    and under the behavioral parameterization."""

    eut: np.ndarray
    pt: np.ndarray
    eut_converged: bool
    pt_converged: bool

    def rows(self):
        return [(h, float(self.eut[h]), float(self.pt[h])) for h in range(HOURS)]


def hourly_load_report(
    profiles,
    config: DsmConfig,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> HourlyLoadReport:
    """Solve the game under EUT and under config.alphas, and report both
    expected nonparticipating load profiles.

    Both are solve_dsm calls on one game whose solves run as one batch of
    solve_fixed_point_batch; each result is bit-identical to a solve of its
    alphas alone."""
    game = build_dsm_game(profiles, config)
    eut, pt = _solve_points(
        profiles, config, game, [[1.0] * config.n_consumers, None], tol, max_iter
    )
    return HourlyLoadReport(
        eut=nonparticipating_load(eut, profiles, config),
        pt=nonparticipating_load(pt, profiles, config),
        eut_converged=eut.converged,
        pt_converged=pt.converged,
    )


@dataclass(frozen=True)
class RationalitySweep:
    """Expected nonparticipating load at one hour across homogeneous
    rationality levels, next to the constant EUT value."""

    hour: int
    alphas: np.ndarray
    pt_loads: np.ndarray
    eut_load: float
    converged: np.ndarray = field(repr=False)

    def rows(self):
        return [
            (float(a), float(self.eut_load), float(v))
            for a, v in zip(self.alphas, self.pt_loads)
        ]


def rationality_sweep(
    profiles,
    config: DsmConfig,
    alpha_grid,
    hour: int,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> RationalitySweep:
    """For each alpha applied to every consumer, the expected
    nonparticipating load at `hour` under the behavioral equilibrium.

    The EUT baseline and every grid point are solve_dsm calls on one game
    whose solves run as one batch of solve_fixed_point_batch: a point leaves
    the batch at the iteration it converges, and each result is
    bit-identical to a solve of that alpha alone."""
    if not (0 <= hour < HOURS):
        raise ValueError("hour must lie in [0, 23]")
    game = build_dsm_game(profiles, config)
    n = config.n_consumers
    alphas = np.asarray(list(alpha_grid), dtype=float)
    eut, *points = _solve_points(
        profiles, config, game, [[a] * n for a in [1.0, *alphas]], tol, max_iter
    )
    return RationalitySweep(
        hour=hour,
        alphas=alphas,
        pt_loads=np.array(
            [nonparticipating_load(r, profiles, config)[hour] for r in points], dtype=float
        ),
        eut_load=float(nonparticipating_load(eut, profiles, config)[hour]),
        converged=np.array([r.converged for r in points], dtype=bool),
    )


# ---------------------------------------------------------------------------
# synthetic load profiles (stand-in for the unavailable metered dataset)

_PEAK_HOUR = 19.0
_PEAK_WIDTH = 2.2
_MORNING_HOUR = 8.0
_MORNING_WIDTH = 2.0
_TROUGH_HOUR = 3.5
_TROUGH_WIDTH = 2.0
# the flexible fractions' range, as calibrated in the bundled fixture; it is
# also the default of a DSM config's flexible_low and flexible_high
FLEXIBLE_RANGE = (0.72, 0.92)


def synth_profile(
    seed: int,
    n_consumers: int,
    flexible_range: tuple = FLEXIBLE_RANGE,
) -> list:
    """Deterministic evening-peaked household profiles, reproducible from the
    seed: a base level plus evening and morning bumps, a shallow overnight
    trough, and mild noise; flexible fractions drawn from flexible_range."""
    if n_consumers < 1:
        raise ValueError("need at least one consumer")
    rng = np.random.default_rng(seed)
    hours = np.arange(HOURS, dtype=float)
    lo, hi = flexible_range
    profiles = []
    for _ in range(n_consumers):
        base = 0.6 + 0.3 * rng.random()
        evening = (2.5 + 1.5 * rng.random()) * np.exp(
            -0.5 * ((hours - _PEAK_HOUR) / _PEAK_WIDTH) ** 2
        )
        morning = (0.6 + 0.5 * rng.random()) * np.exp(
            -0.5 * ((hours - _MORNING_HOUR) / _MORNING_WIDTH) ** 2
        )
        trough = -0.35 * np.exp(-0.5 * ((hours - _TROUGH_HOUR) / _TROUGH_WIDTH) ** 2)
        noise = 0.05 * rng.standard_normal(HOURS)
        demand = np.maximum(base + evening + morning + trough + noise, 0.05)
        ff = lo + (hi - lo) * rng.random()
        profiles.append(LoadProfile(hourly_demand=demand, flexible_fraction=float(ff)))
    return profiles
