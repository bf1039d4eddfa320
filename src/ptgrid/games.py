"""Finite normal-form games evaluated under expected utility or prospect
theory, with best responses, a 2x2 solver backed by a bisection on the
indifference condition, a damped fixed-point solver for n players, and a
simplex-grid brute-force oracle.

Behavioral evaluation follows the opponent-observation model: the evaluating
player i replaces each opponent joint-action probability q with its Prelec
weight w(q, alpha_i) and each payoff with its framed value, while its own
mixing probabilities enter unweighted:

    U_i = sum_a sum_o  p_i(a) * w(q(o)) * v_i(payoff(i, a, o))

The joint probability is formed first and weighted second, and the weights
are applied as they are, without renormalization. One private kernel
(_joint_prob, then _perceived) computes this rule: pure_action_values
validates its inputs and calls it, and through pure_action_values the
utilities, the residual certificate and the grid oracle use it; the 2x2
solver certifies its candidates with it; the fixed-point solver takes its
first iteration through it, which checks the start and the behaviors once
per solve, and calls the kernel directly for the rest.

Each game frames a player's payoffs once per (player, frame) and keeps the
result, own action axis first and flattened to (A_i, prod A_-i), in a private
read-only memo that lives and dies with the game; a value call then does only
the per-call work of weighting the opponents' mixes and one mat-vec.

The fixed-point solver runs a batch of behavior sets on one game in a single
loop (solve_fixed_point_batch; solve_fixed_point is a batch of one). Each
player's mixes are (K, A_i) arrays and each player has one Prelec alpha per
row, so every iteration makes one value call per player for all members
still running. A member leaves the batch at the iteration where its residual
reaches tol or where max_iter is hit, and its result is exactly the one a
solve of that member alone returns, bit for bit. Equal default-start
members are solved once. Inside a _prefetched_solves block, which runs its
behavior sets as one batch, solve_fixed_point on that game returns the
batch's result for a matching default-start solve instead of iterating; the
DSM sweeps read each point through solve_dsm this way.
"""
from __future__ import annotations

import inspect
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .prospects import PROB_TOL, PtProfile, _unit_interval_array, frame_value


class GameFormatError(ValueError):
    """Raised when a game file cannot be parsed."""


class BudgetExceededError(RuntimeError):
    """Raised when an input would exceed a size budget: the grid oracle's
    enumeration or the DSM payoff tensor."""


class FiniteGame:
    """An n-player game given by a payoff tensor of shape
    (n_players, actions_1, ..., actions_n). The constructor copies the
    caller's tensor; the game keeps it read-only."""

    __slots__ = ("payoffs", "n_players", "action_counts", "_framed", "_prefetched")

    def __init__(self, payoffs):
        self._own(np.array(payoffs, dtype=float))

    @classmethod
    def _adopt(cls, payoffs: np.ndarray) -> "FiniteGame":
        """A game that takes over a fresh float array without copying it; the
        caller must hold no other reference it writes through."""
        game = cls.__new__(cls)
        game._own(payoffs)
        return game

    def _own(self, arr: np.ndarray) -> None:
        if arr.ndim < 3:
            raise ValueError("payoff tensor needs shape (n_players, a_1, ..., a_n)")
        n = arr.shape[0]
        if n < 2 or arr.ndim != n + 1:
            raise ValueError(
                f"payoff tensor shape {arr.shape} inconsistent: first axis must "
                "index the players and one axis per player must follow"
            )
        if any(a < 2 for a in arr.shape[1:]):
            raise ValueError("every player needs at least 2 actions")
        # min and max, not isfinite: no full-size temporary, and NaN fails too
        if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
            raise ValueError("payoffs must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "payoffs", arr)
        object.__setattr__(self, "n_players", n)
        object.__setattr__(self, "action_counts", tuple(arr.shape[1:]))
        # (player, frame) -> framed payoffs, filled by _framed_payoffs
        object.__setattr__(self, "_framed", {})
        # _solve_key -> result, filled only inside a _prefetched_solves block
        object.__setattr__(self, "_prefetched", {})

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGame is immutable")

    def __repr__(self):
        return f"FiniteGame(players={self.n_players}, actions={self.action_counts})"

    @classmethod
    def from_bimatrix(cls, a, b) -> "FiniteGame":
        """Two-player game from the row player's and column player's payoff
        matrices."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != b.shape or a.ndim != 2:
            raise ValueError("bimatrix payoffs must be two equal-shape matrices")
        return cls(np.stack([a, b]))


class MixedProfile:
    """One probability vector over actions per player."""

    __slots__ = ("mixes",)

    def __init__(self, mixes):
        vecs = []
        for m in mixes:
            v = np.asarray(m, dtype=float)
            if v.ndim != 1 or v.size < 2:
                raise ValueError("each mix must be a probability vector over >= 2 actions")
            if not np.all(v >= 0.0):
                raise ValueError(f"mixing probabilities must be non-negative numbers: {v!r}")
            if abs(v.sum() - 1.0) > PROB_TOL:
                raise ValueError(f"mixing probabilities sum to {v.sum()!r}, not 1")
            v = v.copy()
            v.setflags(write=False)
            vecs.append(v)
        if len(vecs) < 2:
            raise ValueError("a profile needs at least 2 players")
        object.__setattr__(self, "mixes", tuple(vecs))

    def __setattr__(self, name, value):
        raise AttributeError("MixedProfile is immutable")

    def __getitem__(self, player: int) -> np.ndarray:
        return self.mixes[player]

    def __len__(self) -> int:
        return len(self.mixes)

    def __iter__(self):
        return iter(self.mixes)

    def __repr__(self):
        body = ", ".join(np.array2string(m, precision=6) for m in self.mixes)
        return f"MixedProfile({body})"

    @classmethod
    def uniform(cls, game: FiniteGame) -> "MixedProfile":
        return cls([np.full(a, 1.0 / a) for a in game.action_counts])

    @classmethod
    def pure(cls, game: FiniteGame, actions) -> "MixedProfile":
        actions = tuple(actions)
        if len(actions) != game.n_players:
            raise ValueError("one action per player required")
        vecs = []
        for a, count in zip(actions, game.action_counts):
            if not (0 <= a < count):
                raise ValueError(f"action {a} out of range for {count} actions")
            v = np.zeros(count)
            v[a] = 1.0
            vecs.append(v)
        return cls(vecs)

    def replace(self, player: int, mix) -> "MixedProfile":
        vecs = list(self.mixes)
        vecs[player] = mix
        return MixedProfile(vecs)


@dataclass(frozen=True)
class EquilibriumResult:
    """A candidate equilibrium with its certificate: residual is the largest
    payoff any player could gain by a unilateral pure deviation."""

    profile: MixedProfile
    residual: float
    iterations: int
    converged: bool

    def __post_init__(self):
        if self.residual < 0.0:
            raise ValueError("residual must be non-negative")


def _check_player(game: FiniteGame, player: int) -> None:
    if not (0 <= player < game.n_players):
        raise IndexError(f"player {player} out of range for {game.n_players} players")


def _check_profile(game: FiniteGame, mixes) -> None:
    if len(mixes) != game.n_players:
        raise ValueError("profile has wrong number of players")
    for m, a in zip(mixes, game.action_counts):
        if m.shape[-1] != a:
            raise ValueError("profile mix length does not match action count")


def eut_utility(game: FiniteGame, player: int, profile: MixedProfile) -> float:
    """Objective expected payoff: the payoff tensor contracted with the full
    joint action distribution."""
    _check_player(game, player)
    _check_profile(game, profile)
    joint = np.array(1.0)
    for m in profile:
        joint = np.multiply.outer(joint, m)
    return float(np.sum(joint * game.payoffs[player]))


def pure_action_values(game: FiniteGame, player: int, mixes, behaviors) -> np.ndarray:
    """Perceived value of each of the player's pure actions against the
    opponents' mixes, under the player's own behavioral profile.

    `mixes` is a MixedProfile or any sequence of one probability vector per
    player; the player's own entry is not read. A mix may carry leading
    batch axes: the result has the opponents' batch shapes, broadcast,
    followed by the player's action axis.

    behaviors[player] is one PtProfile, or, when the opponents' mixes share
    one leading batch axis of K rows, a sequence of K PtProfiles with one
    frame: one Prelec alpha per row.
    """
    _check_player(game, player)
    mixes = [np.asarray(m, dtype=float) for m in mixes]
    _check_profile(game, mixes)
    q = _joint_prob([m for j, m in enumerate(mixes) if j != player])
    _unit_interval_array(q, "probability")
    b = behaviors[player]
    if not isinstance(b, (list, tuple)):
        frame, alpha = b.frame, float(b.weighting.alpha)
    else:
        if q.ndim != 2 or q.shape[0] != len(b):
            raise ValueError(
                f"{len(b)} behaviors for player {player} need mixes with one "
                f"batch axis of {len(b)} rows"
            )
        frame = b[0].frame
        if any(r.frame != frame for r in b):
            raise ValueError(f"the behaviors of player {player} must share one frame")
        alpha = _row_alphas(np.array([float(r.weighting.alpha) for r in b]))
    with np.errstate(divide="ignore"):
        return _perceived(_framed_payoffs(game, player, frame), q, alpha)


def _joint_prob(opponents) -> np.ndarray:
    """Joint probability of the opponents' actions: one trailing axis per
    opponent, in order, multiplied left to right, then flattened to
    (..., prod A_-i)."""
    k = len(opponents)
    q = opponents[0].reshape(opponents[0].shape[:-1] + (-1,) + (1,) * (k - 1))
    for pos, m in enumerate(opponents[1:], start=1):
        q = q * m.reshape(m.shape[:-1] + (1,) * pos + (-1,) + (1,) * (k - 1 - pos))
    return q.reshape(q.shape[: q.ndim - k] + (-1,))


def _perceived(framed: np.ndarray, q: np.ndarray, alpha) -> np.ndarray:
    """Perceived action values from the framed payoffs (A_i, M) and the joint
    opponent probabilities q (..., M): Prelec weights, then one mat-vec per
    batch row. alpha is a float for every row, or _row_alphas of a (K, M) q.
    Unchecked: the caller validates q and silences log(0)."""
    if isinstance(alpha, float):
        w = q if alpha == 1.0 else np.exp(-((-np.log(q)) ** alpha))
    else:
        column, half, rational = alpha
        nlog = -np.log(q)
        w = np.exp(-(nlog ** column))
        # numpy takes x ** 0.5 with a scalar exponent as sqrt, which differs
        # in the last bit from the general power loop a column exponent uses
        if half.size:
            w[half] = np.exp(-np.sqrt(nlog[half]))
        # exp(-(-ln q)^1) is not q bit for bit
        if rational.size:
            w[rational] = q[rational]
    return (framed @ w[..., None])[..., 0]


def _row_alphas(alphas: np.ndarray):
    """One player's Prelec alphas of a batch, (K,), as _perceived takes them:
    a float when every row shares it, else the (K, 1) column with the rows
    at 0.5 and the rows at 1, which _perceived computes apart."""
    first = float(alphas[0])
    if np.all(alphas == first):
        return first
    return alphas[:, None], np.flatnonzero(alphas == 0.5), np.flatnonzero(alphas == 1.0)


def _framed_payoffs(game: FiniteGame, player: int, frame) -> np.ndarray:
    """The player's framed payoffs, own action axis first, flattened over the
    opponents' joint actions to shape (A_i, prod A_-i). Computed once per
    (player, frame) and kept, read-only, on the game."""
    key = (player, frame)
    framed = game._framed.get(key)
    if framed is None:
        own_first = np.moveaxis(frame_value(game.payoffs[player], frame), player, 0)
        framed = own_first.reshape(own_first.shape[0], -1)
        framed.setflags(write=False)
        game._framed[key] = framed
    return framed


def pt_utility(game: FiniteGame, player: int, profile: MixedProfile, behaviors) -> float:
    """Perceived expected payoff under prospect-theoretic evaluation; equals
    eut_utility when the player's behavior is the EUT profile."""
    vals = pure_action_values(game, player, profile, behaviors)
    return float(vals @ profile[player])


def best_response(
    game: FiniteGame,
    player: int,
    profile: MixedProfile,
    behaviors,
    tie_tol: float = 1e-12,
) -> tuple:
    """Indices of the player's pure actions maximizing perceived value,
    ascending; ties within tie_tol of the maximum are all reported."""
    vals = pure_action_values(game, player, profile, behaviors)
    best = vals.max()
    return tuple(int(i) for i in np.flatnonzero(vals >= best - tie_tol))


def equilibrium_residual(game: FiniteGame, profile: MixedProfile, behaviors) -> float:
    """Largest unilateral-improvement gap across players; zero certifies a
    perceived-utility equilibrium."""
    worst = 0.0
    for i in range(game.n_players):
        vals = pure_action_values(game, i, profile, behaviors)
        gap = float(vals.max() - vals @ profile[i])
        worst = max(worst, gap)
    return worst


def _eut_behaviors(n: int):
    return [PtProfile.eut()] * n


# ---------------------------------------------------------------------------
# 2x2 solver


def solve_2x2(game: FiniteGame, behaviors=None, tol: float = 1e-9) -> list:
    """All equilibria of a 2-player, 2-action game: pure ones by
    best-response checks, plus the interior mixed one when the perceived
    indifference conditions admit a solution inside (0, 1).

    Each player's mixing probability is pinned by the *opponent's*
    indifference condition w(q) * A = w(1-q) * B. With Prelec weights it is
    transcendental and is solved by bisection (the rational case reduces to
    q = B / (A + B)). Returns [] when no equilibrium certifies within tol; an
    absent interior solution is reported by omission, never fabricated.
    """
    if game.n_players != 2 or game.action_counts != (2, 2):
        raise ValueError("solve_2x2 handles exactly 2 players with 2 actions each")
    if behaviors is None:
        behaviors = _eut_behaviors(2)
    candidates = [MixedProfile.pure(game, joint) for joint in itertools.product((0, 1), repeat=2)]
    mix = _interior_2x2(game, behaviors)
    if mix is not None:
        candidates.append(MixedProfile(mix))
    results = []
    for prof in candidates:
        res = equilibrium_residual(game, prof, behaviors)
        if res <= tol:
            results.append(EquilibriumResult(prof, res, 0, True))
    return results


def _interior_2x2(game, behaviors):
    """Interior mixed equilibrium of a 2x2 game, or None."""
    probs = [None, None]
    for i in (0, 1):
        # player i's indifference fixes the *other* player's mix
        q = _indifference_prob(game, i, behaviors[i])
        if q is None:
            return None
        probs[1 - i] = np.array([q, 1.0 - q])
    return probs


def _indifference_prob(game, player, behavior):
    """Probability q on the opponent's first action making `player`
    indifferent between its two actions, under the player's perception.

    In log-odds form the condition w(q) * A = w(1-q) * B reads
    (-ln(1-q))^alpha - (-ln q)^alpha = ln(B / A). The left side rises
    strictly from -inf to +inf on (0, 1) (Prelec 1998), so a root exists
    exactly when A and B have the same sign, and it is unique. Bisection
    narrows it to two adjacent floats and returns the one that satisfies the
    condition more closely: near 0 or 1 one step of q can move the residual
    certificate by more than its tolerance.
    """
    framed = _framed_payoffs(game, player, behavior.frame)
    # A: perceived advantage of own action 0 against opponent action 0,
    # B: perceived advantage of own action 1 against opponent action 1
    a_gap = float(framed[0, 0] - framed[1, 0])
    b_gap = float(framed[1, 1] - framed[0, 1])
    if np.sign(a_gap) * np.sign(b_gap) <= 0.0:
        return None
    alpha = behavior.weighting.alpha
    # two logs, not log(B / A): the ratio of extreme gaps can underflow to 0
    target = math.log(abs(b_gap)) - math.log(abs(a_gap))

    def excess(q):
        return (-math.log1p(-q)) ** alpha - (-math.log(q)) ** alpha - target

    lo, hi, mid = 0.0, 1.0, 0.5
    while lo < mid < hi:
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return min((q for q in (lo, hi) if 0.0 < q < 1.0), key=lambda q: abs(excess(q)))


# ---------------------------------------------------------------------------
# n-player damped fixed-point solver


def solve_fixed_point(
    game: FiniteGame,
    behaviors=None,
    init: MixedProfile | None = None,
    step: float = 0.1,
    tol: float = 1e-9,
    max_iter: int = 10000,
    temperature: float = 0.2,
    temp_decay: float = 0.995,
    temp_floor: float = 1e-3,
) -> EquilibriumResult:
    """Damped best-response iteration: every player's mix moves a fraction
    `step` toward a smoothed best response each round.

    The smoothing is a softmax over perceived action values whose temperature
    follows a fixed geometric schedule; once it falls below temp_floor the
    target hardens to the argmax (lowest index on ties). Stops as soon as the
    unilateral-improvement residual drops to tol; the result always carries
    the final residual, and non-convergence is reported, not raised.

    Runs solve_fixed_point_batch on a batch of one. Inside a
    _prefetched_solves block on the game, a default-start solve that the
    block ran already returns the block's result without iterating.
    """
    if behaviors is None:
        behaviors = _eut_behaviors(game.n_players)
    if init is None and game._prefetched:
        key = _solve_key(behaviors, (step, tol, max_iter, temperature, temp_decay, temp_floor))
        hit = game._prefetched.get(key)
        if hit is not None:
            return hit
    return solve_fixed_point_batch(
        game, [behaviors], [init], step=step, tol=tol, max_iter=max_iter,
        temperature=temperature, temp_decay=temp_decay, temp_floor=temp_floor,
    )[0]


def solve_fixed_point_batch(
    game: FiniteGame,
    behavior_sets,
    inits=None,
    step: float = 0.1,
    tol: float = 1e-9,
    max_iter: int = 10000,
    temperature: float = 0.2,
    temp_decay: float = 0.995,
    temp_floor: float = 1e-3,
) -> list:
    """solve_fixed_point for K behavior sets on one game in one loop: one
    result per set, in order, each bit-identical to a solve of that set alone.

    `inits` is None or one start profile (None for uniform) per set. Every
    set must give each player the same frame, since the framed payoffs are
    shared; the Prelec alphas may differ per set and per player. Each
    iteration makes one value call per player for all members still running.
    A member whose residual reaches tol, or which reaches max_iter, is
    recorded at that iteration and leaves the batch. Equal behavior sets
    with the default start are solved once and share one result.
    """
    if not (0.0 < step <= 1.0):
        raise ValueError("step must be in (0, 1]")
    n = game.n_players
    sets = [list(b) for b in behavior_sets]
    if not sets:
        raise ValueError("a batch needs at least one behavior set")
    if any(len(b) != n for b in sets):
        raise ValueError(f"every behavior set needs {n} profiles, one per player")
    if inits is None:
        inits = [None] * len(sets)
    if len(inits) != len(sets):
        raise ValueError("inits must give one start profile per behavior set")
    profiles = [MixedProfile.uniform(game) if p is None else p for p in inits]
    for p in profiles:
        _check_profile(game, p)

    params = (step, tol, max_iter, temperature, temp_decay, temp_floor)
    run = []  # members that enter the loop
    source = []  # per member, its index in run
    first = {}  # _solve_key -> index in run
    for k, init in enumerate(inits):
        key = _solve_key(sets[k], params) if init is None else None
        if key in first:
            source.append(first[key])
            continue
        if key is not None:
            first[key] = len(run)
        source.append(len(run))
        run.append(k)
    solved = _fixed_point_loop(
        game, [sets[k] for k in run], [profiles[k] for k in run], *params
    )
    return [solved[j] for j in source]


def _solve_key(behaviors, params) -> tuple:
    """Identity of a default-start solve: the behavior set and the loop
    parameters."""
    return tuple(behaviors), tuple(params)


@contextmanager
def _prefetched_solves(game: FiniteGame, behavior_sets, **kwargs):
    """Run the default-start solves of behavior_sets as one batch and, until
    the block ends, let solve_fixed_point on this game return their results;
    kwargs go to solve_fixed_point_batch. Blocks on one game do not nest."""
    sets = [list(b) for b in behavior_sets]
    results = solve_fixed_point_batch(game, sets, None, **kwargs)
    params = _loop_params(kwargs)
    for behaviors, result in zip(sets, results):
        game._prefetched[_solve_key(behaviors, params)] = result
    try:
        yield
    finally:
        game._prefetched.clear()


def _loop_params(kwargs) -> tuple:
    """The loop parameters of a solve_fixed_point_batch call, defaults filled
    in, in _solve_key order."""
    bound = inspect.signature(solve_fixed_point_batch).bind_partial(**kwargs)
    bound.apply_defaults()
    names = ("step", "tol", "max_iter", "temperature", "temp_decay", "temp_floor")
    return tuple(bound.arguments[name] for name in names)


def _fixed_point_loop(game, sets, profiles, step, tol, max_iter, temperature, temp_decay,
                      temp_floor) -> list:
    """The damped fixed-point loop of solve_fixed_point_batch on checked
    behavior sets and start profiles."""
    n = game.n_players
    mixes = [np.array([p[i] for p in profiles], dtype=float) for i in range(n)]
    # iteration 0 goes through pure_action_values, which checks the start and
    # the behaviors (one frame per player) once; the kernel takes the rest,
    # whose mixes are convex combinations of checked ones
    per_row = [[b[i] for b in sets] for i in range(n)]
    values = [pure_action_values(game, i, mixes, per_row) for i in range(n)]
    framed = [_framed_payoffs(game, i, sets[0][i].frame) for i in range(n)]
    alphas = [np.array([float(b[i].weighting.alpha) for b in sets]) for i in range(n)]
    row_alphas = [_row_alphas(a) for a in alphas]
    eyes = [np.eye(a) for a in game.action_counts]  # hardened-step targets
    members = np.arange(len(sets))  # batch member of each row
    results = [None] * len(sets)
    with np.errstate(divide="ignore"):
        for iteration in range(max_iter + 1):
            if iteration:
                values = [
                    _perceived(framed[i], _joint_prob(mixes[:i] + mixes[i + 1:]), row_alphas[i])
                    for i in range(n)
                ]
            peaks = [v.max(axis=1) for v in values]
            residual = None
            for v, top, m in zip(values, peaks, mixes):
                # per row the same dot product as a single solve's v @ m
                gap = top - (v[:, None, :] @ m[:, :, None])[:, 0, 0]
                residual = gap if residual is None else np.maximum(residual, gap)
            residual = np.maximum(residual, 0.0)
            done = residual <= tol
            if iteration == max_iter:
                done[:] = True
            if done.any():
                for k in np.flatnonzero(done):
                    results[members[k]] = EquilibriumResult(
                        MixedProfile([m[k] for m in mixes]),
                        float(residual[k]),
                        iteration,
                        bool(residual[k] <= tol),
                    )
                if done.all():
                    return results
                keep = ~done
                members = members[keep]
                mixes = [m[keep] for m in mixes]
                values = [v[keep] for v in values]
                peaks = [top[keep] for top in peaks]
                alphas = [a[keep] for a in alphas]
                row_alphas = [_row_alphas(a) for a in alphas]
            temp = temperature * temp_decay**iteration
            new_mixes = []
            for v, top, m, eye in zip(values, peaks, mixes, eyes):
                if temp < temp_floor:
                    target = eye[v.argmax(axis=1)]
                else:
                    spread = np.maximum(top - v.min(axis=1), 1e-12)
                    e = np.exp((v - top[:, None]) / (spread * temp)[:, None])
                    target = e / e.sum(axis=1, keepdims=True)
                new_mixes.append((1.0 - step) * m + step * target)
            mixes = new_mixes
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# brute-force oracle


def _simplex_grid(n_actions: int, grid: int) -> np.ndarray:
    """All probability vectors over n_actions with entries k/grid, one per
    row, with the count vectors in descending lexicographic order: the order
    of itertools.combinations_with_replacement(range(n_actions), grid).

    _local_minima compares each row with the next along a player's axis, so
    this order is part of the oracle's result and must not change.

    Built in closed form by stars and bars: the bar positions of
    combinations(range(grid + n_actions - 1), n_actions - 1), reversed to
    descending order, differenced into counts and divided by grid.
    """
    slots, k = grid + n_actions - 1, n_actions - 1
    rows = math.comb(slots, k)
    # one flat int stream, 2-3x faster than a (rows, k) subarray dtype
    flat = itertools.chain.from_iterable(itertools.combinations(range(slots), k))
    bars = np.fromiter(flat, dtype=np.intp, count=rows * k).reshape(rows, k)[::-1]
    counts = np.diff(bars, axis=1, prepend=-1, append=slots) - 1
    return counts / grid


def grid_enumeration_size(game: FiniteGame, grid: int) -> int:
    size = 1
    for a in game.action_counts:
        size *= math.comb(grid + a - 1, a - 1)
    return size


GRID_BUDGET = 2_000_000  # default cap on the grid profiles the oracle enumerates


def check_grid_budget(game: FiniteGame, grid: int, budget: int = GRID_BUDGET) -> None:
    """Raise BudgetExceededError when the grid oracle at this grid would
    enumerate more than `budget` profiles."""
    total = grid_enumeration_size(game, grid)
    if total > budget:
        raise BudgetExceededError(
            f"{total} grid profiles exceed the budget of {budget}"
        )


def brute_force_equilibrium(
    game: FiniteGame,
    behaviors=None,
    grid: int = 100,
    budget: int = GRID_BUDGET,
) -> list:
    """Approximate equilibria by exhaustive search over a uniform simplex
    grid: returns the profiles whose improvement residual is a local minimum
    among axis neighbors and within grid slack of the global minimum.

    Meant as an independent oracle for small games (<= 3 players, <= 3
    actions); raises ValueError when grid < 1 and BudgetExceededError when
    the enumeration would exceed `budget` profiles.
    """
    if grid < 1:
        raise ValueError(f"grid must be a positive integer, got {grid}")
    if behaviors is None:
        behaviors = _eut_behaviors(game.n_players)
    check_grid_budget(game, grid, budget)
    n = game.n_players
    grids = [_simplex_grid(a, grid) for a in game.action_counts]
    # player j's grid on batch axis j: every cell of the surface is one profile
    mixes = [
        g.reshape((1,) * j + g.shape[:1] + (1,) * (n - 1 - j) + g.shape[1:])
        for j, g in enumerate(grids)
    ]
    residual = 0.0
    for i, own in enumerate(mixes):
        vals = pure_action_values(game, i, mixes, behaviors)
        # the same dot product per cell as equilibrium_residual takes, so the
        # surface matches the per-profile certificate bit for bit
        util = (vals[..., None, :] @ own[..., None])[..., 0, 0]
        residual = np.maximum(residual, vals.max(axis=-1) - util)

    minima = _local_minima(residual)
    # a grid cell adjacent to a true equilibrium has residual of order
    # slope * spacing; anything above that is a flat-valley artifact, not an
    # equilibrium the grid can certify
    keep = _grid_slack(game, grid)
    out = []
    for idx in zip(*np.nonzero(minima)):
        if residual[idx] <= keep:
            out.append(MixedProfile([g[i] for g, i in zip(grids, idx)]))
    return out


def _local_minima(residual: np.ndarray) -> np.ndarray:
    """Boolean mask of entries no larger than any axis neighbor."""
    mask = np.ones(residual.shape, dtype=bool)
    for axis in range(residual.ndim):
        fwd = np.ones_like(mask)
        bwd = np.ones_like(mask)
        sl_lo = [slice(None)] * residual.ndim
        sl_hi = [slice(None)] * residual.ndim
        sl_lo[axis] = slice(None, -1)
        sl_hi[axis] = slice(1, None)
        diff_ok_fwd = residual[tuple(sl_lo)] <= residual[tuple(sl_hi)]
        diff_ok_bwd = residual[tuple(sl_hi)] <= residual[tuple(sl_lo)]
        fwd[tuple(sl_lo)] = diff_ok_fwd
        bwd[tuple(sl_hi)] = diff_ok_bwd
        mask &= fwd & bwd
    return mask


def _grid_slack(game: FiniteGame, grid: int) -> float:
    span = float(game.payoffs.max() - game.payoffs.min())
    return max(span, 1.0) * 2.0 / grid


# ---------------------------------------------------------------------------
# plain-text game format

FORMAT_DOC = """\
Plain-text game format:
  players K
  actions n1 n2 ... nK
  then one line per joint action, in lexicographic order of the action tuple
  (last player's action varying fastest), each listing the K players' payoffs.
Blank lines and lines starting with '#' are ignored.
"""


def format_game(game: FiniteGame) -> str:
    lines = [f"players {game.n_players}"]
    lines.append("actions " + " ".join(str(a) for a in game.action_counts))
    for joint in itertools.product(*(range(a) for a in game.action_counts)):
        pays = (game.payoffs[(i, *joint)] for i in range(game.n_players))
        lines.append(" ".join(f"{p:.17g}" for p in pays))
    return "\n".join(lines) + "\n"


def parse_game(text: str) -> FiniteGame:
    rows = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if len(rows) < 3:
        raise GameFormatError("game file needs a players line, an actions line, and payoffs")
    head = rows[0].split()
    if len(head) != 2 or head[0] != "players":
        raise GameFormatError(f"expected 'players K', got {rows[0]!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise GameFormatError(f"bad player count {head[1]!r}") from exc
    acts = rows[1].split()
    if not acts or acts[0] != "actions" or len(acts) != n + 1:
        raise GameFormatError(f"expected 'actions n1 ... n{n}', got {rows[1]!r}")
    try:
        counts = [int(a) for a in acts[1:]]
    except ValueError as exc:
        raise GameFormatError(f"bad action counts in {rows[1]!r}") from exc
    joints = list(itertools.product(*(range(a) for a in counts)))
    body = rows[2:]
    if len(body) != len(joints):
        raise GameFormatError(
            f"expected {len(joints)} payoff lines, found {len(body)}"
        )
    payoffs = np.zeros((n, *counts))
    for line_no, (joint, line) in enumerate(zip(joints, body), start=3):
        parts = line.split()
        if len(parts) != n:
            raise GameFormatError(
                f"line {line_no}: expected {n} payoffs, found {len(parts)}"
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise GameFormatError(f"line {line_no}: bad payoff in {line!r}") from exc
        for i, v in enumerate(vals):
            payoffs[(i, *joint)] = v
    return FiniteGame(payoffs)


def save_game(game: FiniteGame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_game(game))


def load_game(path) -> FiniteGame:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(fh.read())
