"""Finite normal-form games evaluated under expected utility or prospect
theory: best responses, a residual certificate, a 2x2 solver, a damped
fixed-point solver for n players and a simplex-grid brute-force oracle.

The weighting rule. The evaluating player i replaces each opponent
joint-action probability q with its Prelec weight w(q, alpha_i) and each
payoff with its framed value; its own mixing probabilities enter
unweighted:

    U_i = sum_a sum_o  p_i(a) * w(q(o)) * v_i(payoff(i, a, o))

The joint probability is formed first and weighted second, and the weights
are not renormalized. One private kernel entry, _values (_joint_prob,
prospects._weights, then _mat_vec), computes this rule. pure_action_values
checks its inputs and calls it; the 2x2 solver and the grid oracle call it
on arrays they built, and the solvers' results adopt read-only mixes they
built (MixedProfile._adopt) instead of checking them again.

The certificate. A profile's residual is each player's gap max(v) - v.m
between its best pure action value and the value of its own mix, maximised
over the players and at least 0; only _residual computes it. v.m is the
left fold ((v_0*m_0 + v_1*m_1) + v_2*m_2) + ... in ascending action order,
each product and each sum rounded on its own.

The selection rule, so that a game and a behavior set always give the same
equilibrium: every fixed-point solve starts from the uniform profile, and
iteration t moves every player's mix a fraction _STEP = 0.1 toward a
softmax of its perceived action values at temperature _TEMPERATURE *
_TEMP_DECAY**t (0.2 * 0.995**t). From iteration 1058, the first where that
temperature falls below _TEMP_FLOOR = 1e-3, the target is the argmax,
lowest index on ties. The solve stops at the first iteration whose residual
reaches tol, or where it is certified to cycle, or at max_iter.

The batch and cycle contracts. solve_fixed_point_batch solves K behavior
sets on one game in one loop, each result bit for bit the one a solve of
that set alone returns; equal sets are solved once. A hardened step is m
<- L m + B e(argmax), L = 1 - _STEP and B = _STEP. While a solve's argmax
rows repeat with period p, phase s of the period (the iterations s, s + p,
s + 2p, ... ahead) moves every mass monotonically from the phase's first
state toward its limit. When _ArgmaxPeriods finds a period p > 1, the
solve stops, not converged, with cycle_period p and the state, residual
and iterations it has there, if at every phase, over the box between
those two states, (a) _gap_bounds puts each player's argmax of the phase
above every other action and (b) for some player sum_{b != top} lo(b) *
gap(top, b) exceeds tol, lo(b) its own mass on b at the box's low end. By
induction its rows then repeat forever, and its residual, at least (b),
never reaches tol.

The cycle certificate's rounding margin, for e = 2^-53 and p <=
_CYCLE_STRIDE. A mass that some phase targets keeps within a relative
11 (p + 1) e of the exact steps, as each target step multiplies its
relative error by at most 0.9, and one that none targets only decays; the
box ends are computed within (p + 20) e. The box ends and the bounds of
the joint probabilities (n - 2 roundings each) are widened by _GAP_MARGIN
= 2^-36 relatively, over ten times that, and by _SUBNORMAL_MARGIN =
2^-1070 for subnormal masses, where 0.9 * 2^-1074 rounds to 2^-1074. A
Prelec weight is off by at most 2^-51 (log, ** and exp each within 1 ulp)
and a mat-vec of M terms by M 2^-52 S_a, S_a = sum_o |F[a, o]| over the
framed payoffs F, so each gap bound subtracts _GAP_MARGIN M (S_a + S_b),
against at most (2M + 6) 2^-52 (S_a + S_b) of rounding. (b) subtracts
_GAP_MARGIN A S_max, for the fold of v.m and the drift of a mix's sum from
1 (at most 21 A 2^-52 S_max), and asks for more than tol (1 + _GAP_MARGIN).

What BLAS still decides. No BLAS call computes the certificate, so no CPU
dispatch sets its summation order. The action values it reads come from
one BLAS mat-vec per player, whose summation order the CPU's OpenBLAS
kernel and the operands' layouts pick.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .prospects import PROB_TOL, PtProfile, _unit_interval_array, _weights, frame_value


class GameFormatError(ValueError):
    """Raised when a game file cannot be parsed."""


class SolverFailure(ValueError):
    """Raised when a solve with valid arguments fails numerically."""


class BudgetExceededError(RuntimeError):
    """Raised when an input would exceed a budget: the size of the grid
    oracle's enumeration or of the DSM payoff tensor, or the float range of
    the DSM payoffs."""


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
            raise ValueError(
                "payoff tensor needs shape (n_players, a_1, ..., a_n) with n_players >= 2"
            )
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
        # (behaviors, tol, max_iter) -> result, filled only in _prefetched_solves
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
        return cls._adopt(np.stack([a, b]))


class MixedProfile:
    """One probability vector over actions per player."""

    __slots__ = ("mixes",)

    def __init__(self, mixes):
        vecs = []
        for m in mixes:
            v = np.array(m, dtype=float)
            if v.ndim != 1 or v.size < 2:
                raise ValueError("each mix must be a probability vector over >= 2 actions")
            # the minimum propagates NaN, so NaN fails too
            if not v.min() >= 0.0:
                raise ValueError(f"mixing probabilities must be non-negative numbers: {v!r}")
            if abs(v.sum() - 1.0) > PROB_TOL:
                raise ValueError(f"mixing probabilities sum to {v.sum()!r}, not 1")
            v.setflags(write=False)
            vecs.append(v)
        if len(vecs) < 2:
            raise ValueError("a profile needs at least 2 players")
        object.__setattr__(self, "mixes", tuple(vecs))

    @classmethod
    def _adopt(cls, mixes) -> "MixedProfile":
        """A profile that takes over read-only probability vectors without
        copying or checking them; the caller must hold no other reference
        it writes through."""
        profile = cls.__new__(cls)
        object.__setattr__(profile, "mixes", tuple(mixes))
        return profile

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
            if not _is_integer(a):
                raise TypeError(f"action must be an integer, got {a!r}")
            if not (0 <= a < count):
                raise ValueError(f"action {a} out of range for {count} actions")
            v = np.zeros(count)
            v[a] = 1.0
            vecs.append(v)
        return cls(vecs)


@dataclass(frozen=True)
class EquilibriumResult:
    """A candidate equilibrium with its certificate: residual is the largest
    payoff any player could gain by a unilateral pure deviation. A
    fixed-point result may be no equilibrium: converged is then False, and
    cycle_period is the argmax period of a solve certified to cycle without
    reaching tol (module docstring), else None."""

    profile: MixedProfile
    residual: float
    iterations: int
    converged: bool
    cycle_period: int | None = None

    def __post_init__(self):
        if self.residual < 0.0:
            raise ValueError("residual must be non-negative")


def _is_integer(value) -> bool:
    """Whether value is an integer, a numpy integer included, and not a
    bool: a bool is no count, and numpy reads it as a mask."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_player(game: FiniteGame, player: int) -> None:
    if not _is_integer(player):
        raise TypeError(f"player must be an integer, got {player!r}")
    if not (0 <= player < game.n_players):
        raise IndexError(f"player {player} out of range for {game.n_players} players")


def _check_profile(game: FiniteGame, mixes) -> None:
    if len(mixes) != game.n_players:
        raise ValueError("profile has wrong number of players")
    for m, a in zip(mixes, game.action_counts):
        if m.shape[-1] != a:
            raise ValueError("profile mix length does not match action count")


def _check_behaviors(game: FiniteGame, behaviors):
    """behaviors, or the EUT profile for every player when it is None."""
    if behaviors is None:
        return [PtProfile.eut()] * game.n_players
    if len(behaviors) != game.n_players:
        raise ValueError(f"every behavior set needs {game.n_players} profiles, one per player")
    return behaviors


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
    followed by the player's action axis. behaviors holds one PtProfile per
    player, checked as the solvers check it, None for EUT.
    """
    _check_player(game, player)
    behaviors = _check_behaviors(game, behaviors)
    mixes = [np.asarray(m, dtype=float) for m in mixes]
    _check_profile(game, mixes)
    # products of numbers in [0, 1] stay in [0, 1], so the joint
    # probability needs no check of its own
    for j, m in enumerate(mixes):
        if j != player:
            _unit_interval_array(m, "probability")
    return _values(game, player, mixes, behaviors[player])


def _values(game: FiniteGame, player: int, mixes, behavior) -> np.ndarray:
    """pure_action_values on checked float mixes and the player's own
    PtProfile: the kernel of the module docstring, unchecked."""
    q = _joint_prob([m for j, m in enumerate(mixes) if j != player])
    framed = _framed_payoffs(game, player, behavior.frame)
    with np.errstate(divide="ignore"):
        return _mat_vec(framed, _weights(q, behavior.weighting.alpha))


# The rounding margins of the cycle certificate (module docstring)
_GAP_MARGIN = 2.0 ** -36
_SUBNORMAL_MARGIN = 2.0 ** -1070


def _gap_bounds(game: FiniteGame, player: int, lo, hi, behavior) -> np.ndarray:
    """Lower bounds, (..., A_i, A_i), of v(a) - v(b) for each pair of the
    player's actions, as _values computes them, over every profile of
    opponent mixes between lo and hi (mixes as _values takes them). Each
    joint probability lies between its products at lo and hi, and Prelec's
    w rises, so F[a, o] - F[b, o] adds at least itself times w at lo when
    positive, at hi when negative; less the margin of the module docstring.
    An overflow makes a bound -inf or NaN, which certifies nothing."""
    framed = _framed_payoffs(game, player, behavior.frame)
    q_lo, q_hi = (_joint_prob([m for j, m in enumerate(box) if j != player]) for box in (lo, hi))
    diff = (framed[:, None] - framed).reshape(-1, framed.shape[1])  # (A * A, M)
    size = np.add.reduce(np.abs(framed), axis=-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w_lo = _weights(q_lo * (1.0 - _GAP_MARGIN), behavior.weighting.alpha)
        w_hi = _weights(np.minimum(q_hi * (1.0 + _GAP_MARGIN), 1.0), behavior.weighting.alpha)
        bound = _mat_vec(np.maximum(diff, 0.0), w_lo) + _mat_vec(np.minimum(diff, 0.0), w_hi)
        margin = _GAP_MARGIN * framed.shape[1] * (size[:, None] + size)
        return bound.reshape(bound.shape[:-1] + margin.shape) - margin


# Size of the running product from which _joint_prob fills one action column
# per multiply: each column costs a ufunc dispatch that only a long inner
# loop repays (CHANGES.md, "Column-filled joint probability").
_COLUMN_FILL = 1024


def _joint_prob(opponents) -> np.ndarray:
    """Joint probability of the opponents' actions, (..., prod A_-i), in the
    row-major order of their action axes; their leading batch axes
    broadcast, and the fixed-point loop's block axis is one of them.

    The product runs left to right, q = ((m_0 * m_1) * m_2) * ..., each step
    a flat outer product of the running (..., M) product with the next
    (..., A) mix: one broadcast multiply while q holds fewer than
    _COLUMN_FILL entries, then one multiply per action column, each a long
    inner loop. Both make every entry the same product of the same two
    factors, so both give the same bits.
    """
    q = opponents[0]
    for m in opponents[1:]:
        if q.size < _COLUMN_FILL:
            q = q[..., :, None] * m[..., None, :]
        else:
            out = np.empty(np.broadcast(q, m[..., :1]).shape + m.shape[-1:])
            for b in range(m.shape[-1]):
                np.multiply(q, m[..., b, None], out=out[..., b])
            q = out
        q = q.reshape(q.shape[:-2] + (-1,))
    return q


def _mat_vec(framed: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Action values from the framed payoffs (A_i, M) and the weights
    (..., M): one mat-vec per batch row, whose BLAS path the layouts pick."""
    return (framed @ w[..., None])[..., 0]


def _framed_payoffs(game: FiniteGame, player: int, frame) -> np.ndarray:
    """The player's framed payoffs, own action axis first, flattened over the
    opponents' joint actions to shape (A_i, prod A_-i). Computed once per
    (player, frame) and kept, read-only, on the game. An identity frame reads
    the payoffs in place: the first player's and the last player's memos are
    views of game.payoffs, with the layouts a framed copy would have."""
    key = (player, frame)
    framed = game._framed.get(key)
    if framed is None:
        values = game.payoffs[player]
        if not frame.is_identity:
            values = frame_value(values, frame)
        own_first = np.moveaxis(values, player, 0)
        framed = own_first.reshape(own_first.shape[0], -1)
        framed.setflags(write=False)
        game._framed[key] = framed
    return framed


def pt_utility(game: FiniteGame, player: int, profile: MixedProfile, behaviors) -> float:
    """Perceived expected payoff under prospect-theoretic evaluation; equals
    eut_utility when the player's behavior is the EUT profile."""
    vals = pure_action_values(game, player, profile, behaviors)
    return float(vals @ profile[player])


_TIE_TOL = 1e-12  # best_response reports every action this close to the maximum


def best_response(game: FiniteGame, player: int, profile: MixedProfile, behaviors) -> tuple:
    """Indices of the player's pure actions maximizing perceived value,
    ascending; ties within _TIE_TOL of the maximum are all reported."""
    vals = pure_action_values(game, player, profile, behaviors)
    best = vals.max()
    return tuple(int(i) for i in np.flatnonzero(vals >= best - _TIE_TOL))


def equilibrium_residual(game: FiniteGame, profile: MixedProfile, behaviors) -> float:
    """Largest unilateral-improvement gap across players; zero certifies a
    perceived-utility equilibrium."""
    return float(_residual(
        (pure_action_values(game, i, profile, behaviors), profile[i])
        for i in range(game.n_players)
    ))


def _residual(pairs, tops=None):
    """The certificate of the module docstring, per batch cell. pairs yields
    one (values, mix) per player, each (..., A_i), whose leading batch axes
    broadcast to one shape shared by all players; the fixed-point loop
    passes a block's (P, K, A_i) arrays as one pair. tops, if given, holds
    each pair's row maxima, max(values, axis=-1), in pair order: the loop
    computes them once and shares them with its soft step. v.m is the left
    fold along the action axis: one np.add.accumulate where that axis is
    innermost in memory, else one add per action column."""
    worst = 0.0
    for i, (v, m) in enumerate(pairs):
        prod = v * m
        # own: an array, even for one profile, that the gap is written over
        if prod.strides[-1] == prod.itemsize:
            own = np.add.accumulate(prod, axis=-1)[..., -1].copy()
        else:
            own = prod[..., 0]
            for a in range(1, prod.shape[-1]):
                np.add(own, prod[..., a], out=own)
        gap = np.subtract(np.maximum.reduce(v, axis=-1) if tops is None else tops[i], own, out=own)
        worst = np.maximum(worst, gap, out=gap)
    # np.maximum may return -0.0 for a gap of -0.0; adding 0.0 makes it the
    # stated 0.0 and keeps the bits of every other value
    return np.add(worst, 0.0, out=worst)


# 2x2 solver


def solve_2x2(game: FiniteGame, behaviors=None, tol: float = 1e-9) -> list:
    """All equilibria of a 2-player, 2-action game: the four pure profiles in
    itertools.product order, then the interior one when the perceived
    indifference conditions have a root inside (0, 1), each kept when its
    residual is within tol; [] when none is. An absent interior solution is
    omitted, never fabricated; tol is checked as check_solver_limits does.

    Each player's mix is pinned by the *opponent's* indifference condition
    w(q) * A = w(1-q) * B, which _indifference_prob solves by bisection for
    every alpha, alpha = 1 included; when player 0's has no root, player 1's
    is not solved. The candidates are certified as one batch, one (C, 2)
    stack of mixes per player, so row c has the bits of
    equilibrium_residual on candidate c; each result's mixes are read-only
    rows of those stacks.
    """
    if game.n_players != 2 or game.action_counts != (2, 2):
        raise ValueError("solve_2x2 handles exactly 2 players with 2 actions each")
    check_solver_limits(tol, 0)
    behaviors = _check_behaviors(game, behaviors)
    candidates = list(itertools.product(((1.0, 0.0), (0.0, 1.0)), repeat=2))
    # player i's indifference fixes the other player's mix
    q0 = _indifference_prob(game, 0, behaviors[0])
    q1 = None if q0 is None else _indifference_prob(game, 1, behaviors[1])
    if q1 is not None:
        candidates.append(((q1, 1.0 - q1), (q0, 1.0 - q0)))
    mixes = [np.array([c[i] for c in candidates]) for i in (0, 1)]
    for m in mixes:
        m.setflags(write=False)
    residual = _residual((_values(game, i, mixes, behaviors[i]), mixes[i]) for i in (0, 1))
    return [
        EquilibriumResult(MixedProfile._adopt([m[c] for m in mixes]), float(res), 0, True)
        for c, res in enumerate(residual)
        if res <= tol
    ]


def _indifference_prob(game, player, behavior):
    """Probability q on the opponent's first action making `player`
    indifferent between its two actions, under the player's perception, or
    None when the condition has no root.

    In log-odds form w(q) * A = w(1-q) * B reads (-ln(1-q))^alpha -
    (-ln q)^alpha = ln(B / A), whose left side rises strictly from -inf to
    +inf on (0, 1) (Prelec 1998): a root exists exactly when A and B have
    the same sign, and it is unique; _indifference_root finds it.
    """
    framed = _framed_payoffs(game, player, behavior.frame)
    # A: perceived advantage of own action 0 against opponent action 0,
    # B: perceived advantage of own action 1 against opponent action 1
    a_gap = float(framed[0, 0] - framed[1, 0])
    b_gap = float(framed[1, 1] - framed[0, 1])
    # a sign product <= 0, as np.sign gives it: a NaN gap is not rejected
    if a_gap <= 0.0 <= b_gap or b_gap <= 0.0 <= a_gap:
        return None
    # two logs, not log(B / A): the ratio of extreme gaps can underflow to 0
    return _indifference_root(math.log(abs(b_gap)) - math.log(abs(a_gap)), behavior.weighting.alpha)


# The certified start of _indifference_root. One evaluation of the excess
# rounds log1p, log and each ** within 1 ulp (2^-52 relative; glibc's
# documented bound, and alpha <= 1 does not enlarge it) and each of its two
# subtractions within half an ulp, so it is off by less than 2^-50 of
# F + G + |target|: a margin of 2^-46 of that sum is 16 times the rounding.
_ROOT_MARGIN = 2.0 ** -46
# Newton from u = target, exact at alpha = 1, converges quadratically: it
# certified the roots of 100,000 seeded (target, alpha) pairs with alpha
# down to 0.02 in at most 11 steps, and those of the storage and
# custom-games workloads in at most 8; 12 leaves one step of room.
_NEWTON_STEPS = 12
# Newton's |u| stays below 690, so q = 1 / (1 + e^-u) stays above e^-690,
# about 3e-300: every q and every term the certificate handles is a normal
# float, and e^|u| is far from overflow.
_NEWTON_U_LIMIT = 690.0


def _indifference_root(target, alpha):
    """The root in (0, 1) of the excess E(q) = (-log1p(-q))^alpha -
    (-log q)^alpha - target, as bisection from (0, 1) finds it. Bisection
    narrows it to two adjacent floats and returns the one whose stored
    excess is smaller in magnitude, since near 0 or 1 one step of q can move
    the residual by more than its tolerance; an end that never moved from 0
    or 1 is not a candidate, and a tie keeps lo.

    The bisection starts from the bracket _certified_bracket gives: the one
    it would reach from (0, 1), deciding every midpoint before it the same
    way, so the result has the bits of a start from (0, 1). Both ends of
    that bracket move, since the certified E(a) < 0 < E(b) puts the last
    sign change strictly inside it, so the final pick reads only excesses
    the loop stored.

    Without that bracket, a root beyond the floats takes no loop. When E at
    5e-324 exceeds its margin, the bracket's certificate puts every
    midpoint at hi, and the bisection returns 5e-324; when E at 1 - 2^-53
    is below minus its margin, every midpoint goes to lo, and it returns
    1 - 2^-53.
    """
    bracket = _certified_bracket(target, alpha)
    if bracket is None:
        # sign: the side of 0 that E keeps at every midpoint when the root
        # lies beyond q
        for q, sign in ((math.nextafter(0.0, 1.0), 1.0), (math.nextafter(1.0, 0.0), -1.0)):
            big_f, big_g = (-math.log1p(-q)) ** alpha, (-math.log(q)) ** alpha
            if sign * (big_f - big_g - target) > _ROOT_MARGIN * (big_f + big_g + abs(target)):
                return q
    lo, hi = bracket or (0.0, 1.0)
    lo_excess = hi_excess = 0.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        excess = (-math.log1p(-mid)) ** alpha - (-math.log(mid)) ** alpha - target
        if excess < 0.0:
            lo, lo_excess = mid, excess
        else:
            hi, hi_excess = mid, excess
        mid = 0.5 * (lo + hi)
    if lo == 0.0:
        return hi
    if hi == 1.0:
        return lo
    return hi if abs(hi_excess) < abs(lo_excess) else lo


def _certified_bracket(target, alpha):
    """The bracket that bisection of E from (0, 1) holds when its midpoint
    first falls in a certified interval [a, b]; None without one.

    What is certified: floats a < b with E(a) < -m and E(b) > m, evaluated
    as the bisection evaluates E, where m = _ROOT_MARGIN * (F + G +
    |target|) with F = (-ln(1 - r))^alpha and G = (-ln r)^alpha at a point
    r near the root. Newton on the log-odds u = ln(q / (1 - q)) finds r,
    from u = target (the root at alpha = 1); with f = -ln(1 - q) and g =
    -ln q, dE/du = alpha * (q F / f + (1 - q) G / g). a and b lie two
    margins of E from r, and at least two floats.

    Why the skipped signs are safe: m is 16 times the rounding of one
    evaluation, and E rises strictly, faster than its terms' rounding grows
    beyond a and b, so every midpoint below a evaluates negative and every
    one above b non-negative; the bisection decides them without
    evaluating. Those midpoints are exact dyadic numbers (b - a spans at
    least four floats), so the bracket is the aligned binary interval whose
    midpoint is the first multiple in [a, b] of the largest power of two
    that [a, b] holds.

    None when Newton has not met |E| <= m within _NEWTON_STEPS steps, |u|
    reached _NEWTON_U_LIMIT, a or b is not inside (0, 1) (a root within two
    floats of 1, or beyond the floats), or a margin test failed.
    """
    u = target
    for _ in range(_NEWTON_STEPS):
        if not -_NEWTON_U_LIMIT < u < _NEWTON_U_LIMIT:
            return None
        # f = softplus(u), g = softplus(-u), q and p = 1 - q, without cancellation
        e = math.exp(-abs(u))
        soft, s = math.log1p(e), e / (1.0 + e)
        f, g, q, p = (soft, soft - u, s, 1.0 - s) if u < 0.0 else (soft + u, soft, 1.0 - s, s)
        big_f, big_g = f ** alpha, g ** alpha
        excess = big_f - big_g - target
        slope = alpha * (q * big_f / f + p * big_g / g)
        margin = _ROOT_MARGIN * (big_f + big_g + abs(target))
        if abs(excess) <= margin:
            break
        u -= excess / slope
    else:
        return None
    # r takes one more Newton step, in q (dq/du = q p)
    r = q - excess / slope * q * p
    half = max(2.0 * margin / slope * q * p, 2.0 * math.ulp(r))
    a, b = r - half, r + half
    if not (0.0 < a < b < 1.0
            and (-math.log1p(-a)) ** alpha - (-math.log(a)) ** alpha - target < -margin
            and (-math.log1p(-b)) ** alpha - (-math.log(b)) ** alpha - target > margin):
        return None
    # in units of a's last place, 2^j is the largest power of two with a
    # multiple in [a, b]: mid, the bisection's first midpoint there
    unit = math.frexp(a)[1] - 53
    a_n, b_n = int(math.ldexp(a, -unit)), int(math.ldexp(b, -unit))
    j = ((a_n - 1) ^ b_n).bit_length() - 1
    mid = b_n >> j << j
    return math.ldexp(mid - (1 << j), unit), math.ldexp(mid + (1 << j), unit)


# n-player damped fixed-point solver


# the damped loop's one schedule, stated in the module docstring
_STEP = 0.1
_TEMPERATURE = 0.2
_TEMP_DECAY = 0.995
_TEMP_FLOOR = 1e-3

# The longest argmax period _ArgmaxPeriods looks for: a cycle of a longer
# period runs to max_iter, and each search compares every new row with this
# many rows before it.
_CYCLE_STRIDE = 512


def solve_fixed_point(
    game: FiniteGame, behaviors=None, tol: float = 1e-9, max_iter: int = 10000
) -> EquilibriumResult:
    """Damped best-response iteration under the selection rule of the
    module docstring; the result always carries the final residual, and
    non-convergence is reported, not raised. A solve certified to cycle
    stops early, not converged, with cycle_period set, and with the state,
    residual and iterations a run to that iteration gives. Action values
    that overflow into NaN mixes raise SolverFailure.

    Runs solve_fixed_point_batch on a batch of one. Inside a
    _prefetched_solves block on the game, a solve that the block ran already
    returns the block's result without iterating.
    """
    behaviors = _check_behaviors(game, behaviors)
    hit = game._prefetched.get((tuple(behaviors), tol, max_iter))
    if hit is not None:
        return hit
    return solve_fixed_point_batch(game, [behaviors], tol, max_iter)[0]


def solve_fixed_point_batch(
    game: FiniteGame, behavior_sets, tol: float = 1e-9, max_iter: int = 10000
) -> list:
    """solve_fixed_point for K behavior sets on one game in one loop: one
    result per set, in order, under the batch contract of the module
    docstring. Every set must give each player the same frame, since the
    framed payoffs are shared; the Prelec alphas may differ per set and per
    player.
    """
    check_solver_limits(tol, max_iter)
    sets = [tuple(b) for b in behavior_sets]
    if not sets:
        raise ValueError("a batch needs at least one behavior set")
    for b in sets:
        _check_behaviors(game, b)
        if any(r.frame != f.frame for r, f in zip(b, sets[0])):
            raise ValueError("every behavior set must give each player the same frame")
    first = {}  # distinct behavior set -> its index in the loop, in order
    source = [first.setdefault(b, len(first)) for b in sets]
    solved = _fixed_point_loop(game, list(first), tol, max_iter)
    return [solved[j] for j in source]


def check_solver_limits(tol: float, max_iter: int) -> None:
    """Raise ValueError for a tol that is not a real number, a bool included,
    or is negative, infinite or NaN (an infinite tol would certify any
    profile, and True would pass a residual of 1), and for a max_iter that is
    not a non-negative integer, a bool included."""
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and 0.0 <= tol < math.inf):
        raise ValueError(f"tol must be a finite non-negative number, got {tol!r}")
    # a float would fail in range() instead
    if not (_is_integer(max_iter) and max_iter >= 0):
        raise ValueError(f"max_iter must be a non-negative integer, got {max_iter!r}")


@contextmanager
def _prefetched_solves(game: FiniteGame, behavior_sets, tol: float = 1e-9, max_iter: int = 10000):
    """Run the solves of behavior_sets as one batch and, until the block
    ends, let solve_fixed_point on this game with the same tol and max_iter
    return their results. Blocks on one game do not nest."""
    sets = [tuple(b) for b in behavior_sets]
    results = solve_fixed_point_batch(game, sets, tol, max_iter)
    for behaviors, result in zip(sets, results):
        game._prefetched[behaviors, tol, max_iter] = result
    try:
        yield
    finally:
        game._prefetched.clear()


def _fixed_point_loop(game, sets, tol, max_iter) -> list:
    """The damped loop of solve_fixed_point_batch on checked behavior sets.

    Blocks. A block is the players who face the same sequence of opponent
    action counts, a run of consecutive players of one count (in DSM and
    storage games, all of them). It holds its P players' mixes and values
    as (P, K, A) arrays, K the members still running. A kernel pass makes,
    per block, one gather of the opponents' mixes, one _joint_prob call,
    one Prelec weighting in place, one mat-vec per player written into the
    values, one row max, shared by one _residual call and one damped step
    on the mixes in place. Every entry of those arrays is computed
    as a solve of its member alone computes it.

    Exits. A member leaves at the iteration where its residual reaches tol,
    at max_iter, or at a search of _ArgmaxPeriods that finds it an argmax
    period p > 1 which _certified_cycle proves it keeps forever without
    reaching tol; it then leaves with cycle_period p."""
    n, counts = game.n_players, game.action_counts
    blocks = {}  # opponents' action counts -> the players who face them
    for i in range(n):
        blocks.setdefault(counts[:i] + counts[i + 1:], []).append(i)
    blocks = list(blocks.values())
    where = [None] * n  # player -> (block, position in the block)
    for b, players in enumerate(blocks):
        for p, i in enumerate(players):
            where[i] = (b, p)
    # opponent k of player i is player k + (k >= i). A block's players run
    # over consecutive players of one count, so for each k every opponent
    # lies in one block, and those blocks ascend with k: per source block,
    # one (opponent positions, P) index into its mixes, in k order
    gathers = []
    for players in blocks:
        sources = {}
        for k in range(n - 1):
            rows = [where[k + (k >= i)] for i in players]
            sources.setdefault(rows[0][0], []).append([p for _, p in rows])
        gathers.append([(c, np.array(idx)) for c, idx in sources.items()])
    # iteration 0: one pure_action_values call per player and member on the
    # uniform profile, whose calls the benchmark's tracer counts on the DSM
    # sweeps; the kernel takes the rest
    start = [np.full(a, 1.0 / a) for a in counts]
    values = [np.stack([[pure_action_values(game, i, start, b) for b in sets] for i in players])
              for players in blocks]
    mixes = [np.stack([np.tile(start[i], (len(sets), 1)) for i in players]) for players in blocks]
    framed = [[_framed_payoffs(game, i, sets[0][i].frame) for i in players] for players in blocks]
    # (P, K) per block; _weights takes a block of equal alphas as one number
    alphas = [np.array([[b[i].weighting.alpha for b in sets] for i in players], dtype=float)
              for players in blocks]
    block_alphas = [a.item(0) if (a == a.item(0)).all() else a for a in alphas]
    # the hardened step's _STEP * target, one row per argmax: _STEP * 1 and
    # _STEP * 0 are exact, so a row holds the bits the product would
    step_eyes = [_STEP * np.eye(counts[players[0]]) for players in blocks]
    # a member's hardened argmax row as one code, in which player i's argmax
    # is the digit of place value prod(counts[:i]): equal rows, equal codes
    place = np.cumprod((1,) + counts[:-1])
    radix = [place[players] for players in blocks]
    members = np.arange(len(sets))  # batch member of each row
    periods = None  # the hardened argmax codes, from the first hardened iteration on
    results = [None] * len(sets)
    iteration = 0
    with np.errstate(divide="ignore"):
        while True:
            temp = _TEMPERATURE * _TEMP_DECAY**iteration
            hardened = temp < _TEMP_FLOOR
            if iteration:
                for b, (gather, block_framed) in enumerate(zip(gathers, framed)):
                    # the iteration's largest array, weighted in place
                    q = _joint_prob([o for c, idx in gather for o in mixes[c].take(idx, axis=0)])
                    w = _weights(q, block_alphas[b], out=q)
                    for f, w_p, v_p in zip(block_framed, w[..., None], values[b]):
                        np.matmul(f, w_p, out=v_p[..., None])
                    del q, w, w_p  # w_p too: a view that would keep q alive
            tops = [np.maximum.reduce(v, axis=-1) for v in values]  # shared with the soft step
            # max over a block's players, then over the blocks: exact
            residual = functools.reduce(np.maximum, (
                np.maximum.reduce(_residual([(v, m)], [t])) for v, m, t in zip(values, mixes, tops)
            ))
            done = residual <= tol if iteration < max_iter else np.ones(len(residual), dtype=bool)
            cycles = {}  # row -> the argmax period _certified_cycle proved
            if hardened:
                best = [v.argmax(axis=-1) for v in values]  # (P, K) per block
                codes = functools.reduce(np.add, (np.dot(r, t) for r, t in zip(radix, best)))
                if periods is None:
                    periods = _ArgmaxPeriods(len(members))
                if periods.add(codes):
                    for k in np.flatnonzero((periods.period > 1) & ~done):
                        state = [mixes[b][p, k] for b, p in where]
                        if _certified_cycle(game, sets[members[k]], state, periods.last(k), tol):
                            cycles[k], done[k] = int(periods.period[k]), True
            leaving = np.count_nonzero(done)  # cheaper than done.any() on a few rows
            if leaving:
                # the leaving members' mixes, one read-only copy per block
                left = [m.compress(done, axis=1) for m in mixes]
                for m in left:
                    # the damped step keeps every mix on the simplex unless
                    # overflowing action values make it NaN
                    if not m.min() >= 0.0:
                        raise SolverFailure("the perceived action values overflow: the solver's mixes became NaN")
                    m.setflags(write=False)
                for j, k in enumerate(np.flatnonzero(done)):
                    results[members[k]] = EquilibriumResult(
                        MixedProfile._adopt([left[b][p, j] for b, p in where]),
                        float(residual[k]),
                        iteration,
                        bool(residual[k] <= tol),
                        cycles.get(k),
                    )
                if leaving == len(done):
                    return results
                keep = ~done
                members = members[keep]
                mixes = [m[:, keep] for m in mixes]
                values = [v[:, keep] for v in values]
                tops = [t[:, keep] for t in tops]
                if hardened:
                    best = [t[:, keep] for t in best]
                    periods.keep(keep)
                alphas = [a[:, keep] for a in alphas]
                block_alphas = [a.item(0) if (a == a.item(0)).all() else a for a in alphas]
            for b, (v, m, top) in enumerate(zip(values, mixes, tops)):
                m *= 1.0 - _STEP  # in place: the results and gathers hold copies
                if hardened:
                    m += step_eyes[b][best[b]]
                else:
                    # (v - top) / (max(top - min(v), 1e-12) * temp) bit for bit: top - min(v)
                    # is the largest top - v, and (top - v) / -s is -((top - v) / s)
                    below = top[..., None] - v
                    scale = np.multiply(np.maximum.reduce(below, axis=-1, keepdims=True, initial=1e-12), -temp)
                    e = np.exp(np.divide(below, scale, out=below), out=below)
                    m += np.multiply(np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e), _STEP, out=e)
            iteration += 1


def _certified_cycle(game, behaviors, mixes, codes, tol) -> bool:
    """Whether a hardened member at mixes keeps the argmax codes of its last
    period (oldest first, the current iteration's last) forever and never
    reaches tol, by the cycle certificate of the module docstring. Phase s
    targets codes[s - 1]; it starts at L^s m + B S_s, S_s = sum_{j<s}
    L^(s-1-j) e_j, and tends to L^s m* + B S_s, m* = B S_p / (1 - L^p): sums
    of non-negative terms, evaluated as L^s times a running sum of L^-j
    e_j."""
    period, counts = len(codes), game.action_counts
    tops = np.roll(codes, 1)[:, None] // np.cumprod((1,) + counts[:-1]) % counts  # (p, n)
    decay = (1.0 - _STEP) ** np.arange(period + 1.0)[:, None]  # L^s, s = 0 ... p
    lo, hi = [], []
    for m, top, a in zip(mixes, tops.T, counts):
        # B S_s for s = 0 ... p; row a of eye(a + 1, a), zeros, gives S_0
        added = _STEP * decay * np.cumsum(np.eye(a + 1, a)[np.r_[a, top]] / decay, axis=0)
        start = m * decay[:-1] + added[:-1]
        limit = added[-1] / (1.0 - decay[-1]) * decay[:-1] + added[:-1]
        lo.append(np.maximum(np.minimum(start, limit) * (1.0 - _GAP_MARGIN) - _SUBNORMAL_MARGIN, 0.0))
        hi.append(np.maximum(start, limit) * (1.0 + _GAP_MARGIN) + _SUBNORMAL_MARGIN)
    bound = np.zeros(period)  # per phase, the largest residual bound over the players
    for i, (behavior, top) in enumerate(zip(behaviors, tops.T)):
        gaps = _gap_bounds(game, i, lo, hi, behavior)[np.arange(period), top]  # (p, A): top over each action
        others = np.arange(counts[i]) != top[:, None]
        if not (gaps[others] > 0.0).all():  # a NaN bound fails too
            return False
        size = np.add.reduce(np.abs(_framed_payoffs(game, i, behavior.frame)), axis=-1).max()
        own = np.add.reduce(np.where(others, lo[i] * gaps, 0.0), axis=-1) - _GAP_MARGIN * counts[i] * size
        bound = np.maximum(bound, own)
    return bool((bound > tol * (1.0 + _GAP_MARGIN)).all())


# Hardened rows between two period searches, and the least lookback of a
# period (_ArgmaxPeriods). A search, and the _certified_cycle call it may
# make for each member with a period, costs more than an iteration: a
# search per row would slow every cycling solve, and a longer gap stops one
# later.
_PERIOD_SEARCH = 32


class _ArgmaxPeriods:
    """The hardened argmax codes of the loop's running members (one int per
    member and row, its players' argmaxes in mixed radix) and each member's
    argmax period, the guess that _certified_cycle tests.

    A member's period is the smallest p <= _CYCLE_STRIDE such that each of
    its last max(p, _PERIOD_SEARCH) rows equals the row p before it, 0 when
    none is; the lookback of at least _PERIOD_SEARCH rows keeps a short run
    of equal rows from reading as period 1. A search every _PERIOD_SEARCH
    rows keeps each period its rows still repeat and takes the smallest
    that fits otherwise.

    A search reads a window of the _CYCLE_STRIDE rows before its
    _PERIOD_SEARCH new rows, -1 before the first row (no code equals it),
    and the new rows, then shifts the window up _PERIOD_SEARCH rows. It
    keeps, per member and lag, an age: the rows added after the latest row
    that differs from the row a lag before it.
    """

    def __init__(self, members):
        stride = _CYCLE_STRIDE
        self.codes = np.full((stride + _PERIOD_SEARCH, members), -1)
        # per new row, the stride rows before it and the row itself; made once,
        # as a sliding_window_view call takes a quarter of a one-member search
        self.ahead = sliding_window_view(self.codes, stride + 1, axis=0)
        self.added = 0  # rows added since the last search
        # a lag p fits when the last max(p, _PERIOD_SEARCH) rows repeat it
        self.lookback = np.maximum(np.arange(1, stride + 1), _PERIOD_SEARCH)
        self.steps = np.arange(1, _PERIOD_SEARCH + 1, dtype=np.int16)[:, None, None]
        # the first search finds a mismatch at every lag, against the -1 rows
        self.age = np.zeros((members, stride), dtype=np.intp)
        self.period = np.zeros(members, dtype=np.intp)

    def last(self, k):
        """Member k's codes of its last period, oldest first."""
        end = _CYCLE_STRIDE + self.added
        return self.codes[end - self.period[k]:end, k]

    def add(self, row):
        """Append one row of codes, one per member; True when a search ran."""
        stride = _CYCLE_STRIDE
        self.codes[stride + self.added] = row
        self.added += 1
        if self.added < _PERIOD_SEARCH:
            return False
        # (new rows, K, lag), the lags from stride down
        differ = self.ahead[..., :stride] != self.ahead[..., stride:]
        latest = np.maximum.reduce(differ * self.steps)[:, ::-1]  # new rows' 1-based index
        self.age = np.where(latest > 0, _PERIOD_SEARCH - latest, self.age + _PERIOD_SEARCH)
        fits = self.age >= self.lookback
        kept = fits[np.arange(len(self.period)), self.period - 1] & (self.period > 0)
        smallest = np.where(np.logical_or.reduce(fits, axis=1), fits.argmax(axis=1) + 1, 0)
        self.period = np.where(kept, self.period, smallest)
        self.codes[:stride] = self.codes[_PERIOD_SEARCH:]
        self.added = 0
        return True

    def keep(self, kept):
        """Drop the members kept marks False."""
        self.codes = self.codes[:, kept]
        self.ahead = sliding_window_view(self.codes, _CYCLE_STRIDE + 1, axis=0)
        self.age, self.period = self.age[kept], self.period[kept]


# brute-force oracle


@functools.lru_cache(maxsize=8)
def _simplex_grid(n_actions: int, grid: int) -> np.ndarray:
    """All probability vectors over n_actions with entries k/grid, one per
    row, in the order of itertools.combinations_with_replacement(
    range(n_actions), grid): descending lexicographic count vectors.
    _slack_minima's neighbours and result order depend on it.

    Built by stars and bars: the bar positions of combinations(range(grid +
    n_actions - 1), n_actions - 1), reversed, differenced into counts and
    divided by grid. The last 8 grids are kept, read-only.
    """
    slots, k = grid + n_actions - 1, n_actions - 1
    rows = math.comb(slots, k)
    # one flat int stream, faster than a (rows, k) subarray dtype
    flat = itertools.chain.from_iterable(itertools.combinations(range(slots), k))
    bars = np.fromiter(flat, dtype=np.intp, count=rows * k).reshape(rows, k)[::-1]
    counts = np.diff(bars, axis=1, prepend=-1, append=slots) - 1
    out = counts / grid
    out.setflags(write=False)
    return out


def grid_enumeration_size(game: FiniteGame, grid: int) -> int:
    size = 1
    for a in game.action_counts:
        size *= math.comb(grid + a - 1, a - 1)
    return size


GRID_BUDGET = 2_000_000  # cap on the grid profiles the oracle enumerates


def check_grid_budget(game: FiniteGame, grid: int) -> None:
    """Raise BudgetExceededError when the grid oracle at this grid would
    enumerate more than GRID_BUDGET profiles."""
    total = grid_enumeration_size(game, grid)
    if total > GRID_BUDGET:
        raise BudgetExceededError(
            f"{total} grid profiles exceed the budget of {GRID_BUDGET}"
        )


def brute_force_equilibrium(game: FiniteGame, behaviors=None, grid: int = 100) -> list:
    """Approximate equilibria by exhaustive search over a uniform simplex
    grid: the profiles whose residual is within the grid slack (_grid_slack)
    and no larger than any axis neighbor's, in row-major order of the
    players' grids; a NaN neighbor rules a cell out. The residual is
    computed only on the cells _grid_candidates keeps; the others read
    +inf, which _slack_minima treats as any residual above slack.

    Meant as an independent oracle for small games (<= 3 players, <= 3
    actions); raises ValueError when grid is not an integer >= 1 or
    behaviors does not hold one profile per player, and BudgetExceededError
    when the enumeration would exceed GRID_BUDGET profiles.
    """
    if not (_is_integer(grid) and grid >= 1):
        raise ValueError(f"grid must be a positive integer, got {grid!r}")
    behaviors = _check_behaviors(game, behaviors)
    check_grid_budget(game, grid)
    n = game.n_players
    grids = [_simplex_grid(a, grid) for a in game.action_counts]
    # player j's grid on batch axis j: player i's values are one row per
    # opponent cell, with a length-1 axis i
    mixes = [
        g.reshape((1,) * j + g.shape[:1] + (1,) * (n - 1 - j) + g.shape[1:])
        for j, g in enumerate(grids)
    ]
    values = [_values(game, i, mixes, behaviors[i]) for i in range(n)]
    # a grid cell adjacent to a true equilibrium has residual of order
    # slope * spacing; anything above that is a flat-valley artifact, not an
    # equilibrium the grid can certify
    slack = _grid_slack(game, grid)
    rows = [len(g) for g in grids]
    residual = np.full(rows, np.inf)
    for cells, opponents in _grid_candidates(values, grid, slack, rows):
        # gathered action-major, as (A, cells) arrays read through their
        # transpose: the max over a row is then an elementwise max of rows
        residual[cells] = _residual(
            (v.reshape(-1, v.shape[-1]).T.take(o, axis=1).T, g.T.take(c, axis=1).T)
            for v, o, g, c in zip(values, opponents, grids, cells)
        )
    at = _slack_minima(residual, slack)
    # rows of the read-only cached grids
    return [MixedProfile._adopt([g[i] for g, i in zip(grids, idx)]) for idx in zip(*at)]


# Candidates per block of _grid_candidates, whose arrays then stay below
# malloc's mmap threshold, so that repeated oracles do not grow the peak RSS
# (CHANGES.md, "the grid oracle computes the residual only on the cells a
# per-player bound cannot rule out").
_CANDIDATE_BLOCK = 1 << 13


def _grid_candidates(values, grid, slack, rows):
    """The cells of brute_force_equilibrium's grid that a per-player bound
    cannot rule out, in blocks: per block, one index array per player's
    axis and, per player, each cell's flat opponent cell. values[i] is
    player i's (..., A_i) values, one row per opponent cell; rows[i] is its
    grid's length.

    The run rule. A player with two actions and values (v_0, v_1) at an
    opponent cell has own row k = ((G - k) / G, k / G), G = grid, and exact
    gap d * c / G: d = |v_0 - v_1|, c the count of its worse action (k if
    v_0 >= v_1, else G - k). The computed gap (a rounded row, two products,
    a sum, a difference) is within about 2 eps (|v_0| + |v_1|) of it, plus
    2**-1072 from underflow. So it can be within slack only if c <=
    floor(x) + 2, x = G (slack + E) / d, E = 16 eps (2 w + slack), w the
    largest |v| of any player: E is eight times that error and covers the
    underflow, since slack >= 2 / G; the + 2 is a margin for the rounding
    of the bound. Those rows form one run, (first row, count), per opponent
    cell. A player with more than two actions keeps every row, and so does
    every player unless all values are finite and below 2**1000: then no op
    overflows and no dropped cell's residual is NaN, which its neighbors
    would read. The cells in the run of every bounded player are yielded,
    each once: the runs of the player p whose runs hold the fewest cells,
    expanded, then filtered by the others' runs. The kept cells' residuals
    take the elementwise ops of a full surface, so they have its bits."""
    shapes = [v.shape[:-1] for v in values]  # opponent cells, a length-1 axis at the player's own
    values = [v.reshape(-1, v.shape[-1]) for v in values]
    two = [i for i, v in enumerate(values) if v.shape[-1] == 2]
    # the two-action players' opponent cells end to end, for one pass of ops
    pairs = [np.concatenate([values[i] for i in two])] if two else []
    largest = [float(np.abs(v).max()) for v in [v for v in values if v.shape[-1] != 2] + pairs]
    runs = [None] * len(values)  # per player, (first row, count) per opponent cell; None keeps every row
    sizes = [len(v) * r for v, r in zip(values, rows)]
    if two and all(w < 2.0**1000 for w in largest):  # a NaN fails
        d = pairs[0][:, 0] - pairs[0][:, 1]
        with np.errstate(divide="ignore", over="ignore"):  # d = 0 gives inf, a tiny d overflows to it
            x = np.divide(grid * (slack + 2.0**-48 * (2 * max(largest) + slack)), np.abs(d))
        # floor(x) + 3, clipped, which keeps the same rows and makes inf an int
        count = np.minimum(x, grid - 2, out=x).astype(np.intp) + 3
        first = np.where(d < 0.0, (grid + 1) - count, 0)
        bounds = [0, *itertools.accumulate(len(values[i]) for i in two)]
        for i, size, lo, hi in zip(two, np.add.reduceat(count, bounds[:-1]).tolist(), bounds, bounds[1:]):
            runs[i], sizes[i] = (first[lo:hi], count[lo:hi]), size
    p = sizes.index(min(sizes))  # any player gives the same cells
    first, count = runs[p] or (np.zeros(len(values[p]), np.intp), np.full(len(values[p]), rows[p]))
    ends = count.cumsum()
    starts = ends - count - first  # a candidate's own row is its index less its cell's start
    # row-major strides of each player's opponent cells, and per axis but
    # p's the index on it of each of p's opponent cells
    strides = [[math.prod(shape[j + 1:]) for j in range(len(shape))] for shape in shapes]
    cell = np.arange(len(count))
    axes = [None if j == p else cell // s % size for j, (size, s) in enumerate(zip(shapes[p], strides[p]))]

    def opponent(cells, i):  # player i's flat opponent cells; a term of stride 1 is the array itself
        terms = [a if s == 1 else a * s for j, (a, s) in enumerate(zip(cells, strides[i])) if j != i]
        return functools.reduce(np.add, terms)

    # blocks of p's opponent cells, each holding about _CANDIDATE_BLOCK
    # candidates, or one cell when that cell holds more
    total = int(ends[-1])
    cuts = [] if total <= _CANDIDATE_BLOCK else np.searchsorted(
        ends, np.arange(_CANDIDATE_BLOCK, total, _CANDIDATE_BLOCK), side="right")
    for lo, hi in zip([0, *cuts], [*cuts, len(count)]):
        if lo == hi:
            continue
        reps = count[lo:hi]
        own = np.arange(int(ends[lo - 1]) if lo else 0, int(ends[hi - 1])) - starts[lo:hi].repeat(reps)
        cells = [own if j == p else a[lo:hi].repeat(reps) for j, a in enumerate(axes)]
        keep = None
        for i, run in enumerate(runs):
            if i != p and run is not None:
                # row - first < count, unsigned: a row before the run wraps
                at = opponent(cells, i)
                f, c = (a.take(at).view(np.uintp) for a in run)
                inside = np.subtract(cells[i].view(np.uintp), f, out=f) < c
                keep = inside if keep is None else np.logical_and(keep, inside, out=keep)
        if keep is not None:
            cells = [c[keep] for c in cells]
        yield tuple(cells), [opponent(cells, i) for i in range(len(cells))]


def _slack_minima(residual: np.ndarray, slack: float) -> tuple:
    """Index arrays, one per axis, of the cells whose residual is within
    slack and no larger than any axis neighbour's, in row-major order.

    The cells within slack are taken first, and only they are compared
    with their neighbours, each with `<=`: a NaN neighbour fails the cell,
    a tie keeps it, and a NaN cell is never within slack. Only the
    survivors are unravelled, so that few of the small temporaries numpy
    caches are alive at once."""
    flat = residual.ravel()
    cells = np.flatnonzero(flat <= slack)  # row-major, as np.nonzero
    mine = flat[cells]
    keep = np.ones(cells.size, dtype=bool)
    stride = 1  # between axis neighbours in flat, last axis first
    for size in reversed(residual.shape):
        pos = cells // stride % size
        # a cell on an edge compares with itself instead, which holds
        keep &= mine <= flat[np.where(pos > 0, cells - stride, cells)]
        keep &= mine <= flat[np.where(pos < size - 1, cells + stride, cells)]
        stride *= size
    return np.unravel_index(cells[keep], residual.shape)


def _grid_slack(game: FiniteGame, grid: int) -> float:
    """2 / grid times the payoff span, at least 2 / grid. The halves are
    subtracted, so the span of any finite payoffs does not overflow: the
    slack is finite for grid >= 4, and has the bits of max(span, 1.0) * 2.0
    / grid wherever that does not overflow."""
    hi, lo = float(game.payoffs.max()), float(game.payoffs.min())
    return max(0.5 * hi - 0.5 * lo, 0.5) / grid * 4.0


# plain-text game format

def format_game(game: FiniteGame) -> str:
    lines = [f"players {game.n_players}"]
    lines.append("actions " + " ".join(str(a) for a in game.action_counts))
    # one line per joint action in row-major order, as parse_game reads them
    for pays in game.payoffs.reshape(game.n_players, -1).T:
        lines.append(" ".join(f"{p:.17g}" for p in pays))
    return "\n".join(lines) + "\n"


def parse_game(text: str) -> FiniteGame:
    """The game in text, in the plain-text format of README's "Game files"."""
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
        raise GameFormatError(f"players {n} needs 'actions n1 ... n{n}', got {rows[1]!r}")
    try:
        counts = [int(a) for a in acts[1:]]
    except ValueError as exc:
        raise GameFormatError(f"bad action counts in {rows[1]!r}") from exc
    if any(c < 1 for c in counts):
        raise GameFormatError(f"action counts must be positive, got {rows[1]!r}")
    # counted before anything is allocated: the body holds one line per joint action
    body = rows[2:]
    if len(body) != math.prod(counts):
        raise GameFormatError(
            f"{rows[1]!r} needs {math.prod(counts)} payoff lines, found {len(body)}"
        )
    table = np.empty((len(body), n))
    for line_no, line in enumerate(body, start=3):
        parts = line.split()
        if len(parts) != n:
            raise GameFormatError(
                f"line {line_no}: expected {n} payoffs, found {len(parts)}"
            )
        try:
            table[line_no - 3] = [float(p) for p in parts]
        except ValueError as exc:
            raise GameFormatError(f"line {line_no}: bad payoff in {line!r}") from exc
    try:
        return FiniteGame._adopt(np.ascontiguousarray(table.T).reshape((n, *counts)))
    except ValueError as exc:
        raise GameFormatError(str(exc)) from exc


def save_game(game: FiniteGame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_game(game))


def load_game(path) -> FiniteGame:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GameFormatError(f"{path}: {exc}") from exc
    return parse_game(text)
