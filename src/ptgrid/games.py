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
(_joint_prob, prospects._weights, then _mat_vec) computes this rule; its
_weights is the package's one Prelec evaluation, which prelec_weight calls
too. pure_action_values validates its inputs, one PtProfile per player, and
calls the kernel, and through pure_action_values the utilities, the
residual certificate and the grid oracle use it, as does the 2x2 solver,
with one call per player for all its candidates. The fixed-point solver
takes its first iteration through it, one call per player and batch member
on the uniform profile, and calls the kernel directly for the rest.

One private function, _residual, computes the residual certificate: each
player's gap max(v) - v.m between its best pure action value and the value
of its own mix, maximised over the players and at least 0. Its four callers
are equilibrium_residual (one profile), solve_2x2 (one row per candidate),
the fixed-point solver's stopping test (one block of players at a time, one
row per batch member) and brute_force_equilibrium (one cell per grid
profile). v.m is summed over the actions in ascending order,
((v_0*m_0 + v_1*m_1) + v_2*m_2) + ..., from separately rounded numpy
multiplies and adds; no BLAS call computes the certificate, so no CPU
dispatch sets its summation order. The action values it reads still come
from a BLAS mat-vec (_mat_vec), whose order the CPU's OpenBLAS kernel picks.

Each game frames a player's payoffs once per (player, frame) and keeps the
result, own action axis first and flattened to (A_i, prod A_-i), in a private
read-only memo that lives and dies with the game; a value call then does only
the per-call work of weighting the opponents' mixes and one mat-vec. Under
the identity frame the memo holds the payoffs themselves, not a framed copy:
the first and the last player's are views of the payoff tensor (C- and
F-ordered, as a copy would be), and only a middle player's own-axis-first
reshape copies.

The fixed-point solver follows one stated rule, so that "the equilibrium"
of a game and a behavior set is always the same profile: every solve starts
from the uniform profile, and each iteration moves every player's mix a
fraction _STEP = 0.1 toward a softmax of its perceived action values at
temperature _TEMPERATURE * _TEMP_DECAY**t (0.2 * 0.995**t). From iteration
1058, the first where that temperature falls below _TEMP_FLOOR = 1e-3, the
target is the argmax, lowest index on ties. The solve stops at the first
iteration whose residual reaches tol, or at max_iter.

From iteration 1058 on, a member's next mixes are a fixed function of its
own mixes. So when its mixes at iteration t repeat, bit for bit, its mixes
at an earlier hardened iteration s, its states cycle with period t - s,
none of them reaches tol (it ran through them all), and its state at
max_iter is its state at t + (max_iter - t) mod (t - s). The solver keeps a
snapshot of the running members' mixes, retaken every _CYCLE_STRIDE = 512
hardened iterations, and compares every hardened iteration's mixes with it;
a member that repeats it leaves at that finish iteration with iterations =
max_iter, converged False and the residual of the state it holds, which are
the bits of the full run.

The solver runs a batch of behavior sets on one game in a single loop
(solve_fixed_point_batch; solve_fixed_point is a batch of one), and steps
the players a block at a time. A block is the players who face the same
sequence of opponent action counts; they have one own count too, and they
are a run of consecutive players of that count. In every DSM and storage
game all players form one block. A block holds its P players' mixes and
values as (P, K, A) arrays, so each iteration makes, per block, one
_joint_prob call for all its players and all members still running, one
Prelec weighting of that joint probability in its own buffer, one residual
call and one damped step. Each player has one Prelec alpha per batch
member, so the block's alphas form a (P, K) array, one per row of the joint
probability; _weights takes that array, or its one number when every row
shares it. The weights are computed once per block, the mat-vec once per
player, since the memo's layout picks the BLAS path. A member leaves the
batch at the iteration where its residual reaches tol, where max_iter is
hit or where its cycle reaches its finish iteration, and its result is
exactly the one a solve of that member alone returns, bit for bit. Equal
behavior sets are solved once. Inside a _prefetched_solves block, which
runs its behavior sets as one batch, solve_fixed_point on that game returns
the batch's result for a matching solve instead of iterating; the DSM
sweeps read each point through solve_dsm this way.
"""
from __future__ import annotations

import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .prospects import PROB_TOL, PtProfile, _unit_interval_array, _weights, frame_value


class GameFormatError(ValueError):
    """Raised when a game file cannot be parsed."""


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


def _check_behaviors(game: FiniteGame, behaviors) -> None:
    if len(behaviors) != game.n_players:
        raise ValueError(f"every behavior set needs {game.n_players} profiles, one per player")


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
    followed by the player's action axis. behaviors[player] is the player's
    PtProfile.
    """
    _check_player(game, player)
    mixes = [np.asarray(m, dtype=float) for m in mixes]
    _check_profile(game, mixes)
    q = _joint_prob([m for j, m in enumerate(mixes) if j != player])
    _unit_interval_array(q, "probability")
    b = behaviors[player]
    framed = _framed_payoffs(game, player, b.frame)
    with np.errstate(divide="ignore"):
        return _mat_vec(framed, _weights(q, b.weighting.alpha))


# Size of the running product from which _joint_prob fills one action column
# per multiply. Each column call costs a ufunc dispatch that only a long inner
# loop repays: on a 2-vCPU Xeon VM, starting the columns at 128 or 256
# entries made a 6-player single-row product slower than the broadcast alone
# (27 vs 21 us), and any start from 512 to 4096 gave about the same times.
_COLUMN_FILL = 1024


def _joint_prob(opponents) -> np.ndarray:
    """Joint probability of the opponents' actions, (..., prod A_-i), in the
    row-major order of their action axes; the opponents' leading batch axes
    broadcast. The fixed-point loop passes a block of P players at once: its
    k-th opponent is the (P, K, A) stack of each player's k-th opponent's
    mixes, and the block axis is one more batch axis.

    The product runs left to right: q = ((m_0 * m_1) * m_2) * ..., each step
    a flat outer product of the running (..., M) product with the next
    opponent's (..., A) mix. While q holds fewer than _COLUMN_FILL entries a
    step is one broadcast multiply; from then on it fills the (..., M, A)
    result one action column per multiply, so each call runs a long inner
    loop instead of one of length A. Either way every entry is the same
    product of the same two factors, so both give the same bits.
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


def _residual(pairs):
    """The residual certificate of the module docstring. pairs yields one
    (values, mix) per player: its perceived action values and its own mix,
    each (..., A_i), whose leading batch axes broadcast to one shape shared
    by all players. Returns the largest gap max(v) - v.m over the players,
    and at least 0, per batch cell. The fixed-point loop passes one block's
    (P, K, A_i) arrays as one pair, so the block axis is a batch axis here.

    v.m is the left fold ((v_0*m_0 + v_1*m_1) + v_2*m_2) + ... in ascending
    action order, from separately rounded numpy multiplies and adds: no BLAS
    call, einsum or reduction along the action axis, whose order a CPU
    dispatch could change. The gap and the running maximum are written over
    each player's fold buffer."""
    worst = 0.0
    for v, m in pairs:
        # an array even for one profile, so that the gap can be written over it
        own = np.asarray(v[..., 0] * m[..., 0])
        for a in range(1, v.shape[-1]):
            own += v[..., a] * m[..., a]
        gap = np.subtract(v.max(axis=-1), own, out=own)
        worst = np.maximum(worst, gap, out=gap)
    return worst


def _eut_behaviors(n: int):
    return [PtProfile.eut()] * n


# ---------------------------------------------------------------------------
# 2x2 solver


def solve_2x2(game: FiniteGame, behaviors=None, tol: float = 1e-9) -> list:
    """All equilibria of a 2-player, 2-action game: the four pure profiles in
    itertools.product order, then the interior mixed one when the perceived
    indifference conditions admit a solution inside (0, 1), each kept when
    its residual certificate is within tol.

    Each player's mixing probability is pinned by the *opponent's*
    indifference condition w(q) * A = w(1-q) * B. With Prelec weights it is
    transcendental and _indifference_prob solves it by bisection (the
    rational case reduces to q = B / (A + B)). When player 0's condition has
    no root there is no interior candidate, and player 1's is not solved.
    The C candidates are certified as one batch: one (C, 2) stack of mixes
    per player, one pure_action_values call per player and one _residual
    call. Each row takes the same elementwise ops, the same mat-vec and the
    same fold as a single profile, so row c has the bits of
    equilibrium_residual on candidate c. Returns [] when no equilibrium
    certifies within tol; an absent interior solution is reported by
    omission, never fabricated. tol is checked as check_solver_limits does.
    """
    if game.n_players != 2 or game.action_counts != (2, 2):
        raise ValueError("solve_2x2 handles exactly 2 players with 2 actions each")
    check_solver_limits(tol, 0)
    if behaviors is None:
        behaviors = _eut_behaviors(2)
    _check_behaviors(game, behaviors)
    candidates = list(itertools.product(((1.0, 0.0), (0.0, 1.0)), repeat=2))
    # player i's indifference fixes the other player's mix
    q0 = _indifference_prob(game, 0, behaviors[0])
    q1 = None if q0 is None else _indifference_prob(game, 1, behaviors[1])
    if q1 is not None:
        candidates.append(((q1, 1.0 - q1), (q0, 1.0 - q0)))
    mixes = [np.array([c[i] for c in candidates]) for i in (0, 1)]
    residual = _residual((pure_action_values(game, i, mixes, behaviors), mixes[i]) for i in (0, 1))
    return [
        EquilibriumResult(MixedProfile([m[c] for m in mixes]), float(res), 0, True)
        for c, res in enumerate(residual)
        if res <= tol
    ]


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


# the damped loop's one schedule, stated in the module docstring
_STEP = 0.1
_TEMPERATURE = 0.2
_TEMP_DECAY = 0.995
_TEMP_FLOOR = 1e-3

# Hardened iterations between two snapshots of the cycle test (module
# docstring). A member whose period is at most this is caught within two
# strides of entering its cycle; a longer period runs to max_iter. In 120
# random games of 3 or 4 players and 2 or 3 actions, all 63 solves that did
# not converge entered an exact cycle, between iterations 1058 and 8625,
# with periods from 14 to 626. Strides of 128, 256, 512 and 1024 caught 56,
# 61, 62 and 63 of them, after 7379, 7153, 7120 and 7374 iterations on mean.
_CYCLE_STRIDE = 512


def solve_fixed_point(
    game: FiniteGame, behaviors=None, tol: float = 1e-9, max_iter: int = 10000
) -> EquilibriumResult:
    """Damped best-response iteration from the uniform profile on the one
    schedule the module docstring states. Stops as soon as the
    unilateral-improvement residual drops to tol; the result always carries
    the final residual, and non-convergence is reported, not raised. A
    hardened solve whose mixes repeat bit for bit ends early with the state,
    residual and iteration count of its max_iter-th iteration (module
    docstring).

    Runs solve_fixed_point_batch on a batch of one. Inside a
    _prefetched_solves block on the game, a solve that the block ran already
    returns the block's result without iterating.
    """
    if behaviors is None:
        behaviors = _eut_behaviors(game.n_players)
    hit = game._prefetched.get(_solve_key(behaviors, tol, max_iter))
    if hit is not None:
        return hit
    return solve_fixed_point_batch(game, [behaviors], tol, max_iter)[0]


def solve_fixed_point_batch(
    game: FiniteGame, behavior_sets, tol: float = 1e-9, max_iter: int = 10000
) -> list:
    """solve_fixed_point for K behavior sets on one game in one loop: one
    result per set, in order, each bit-identical to a solve of that set alone.

    Every set must give each player the same frame, since the framed payoffs
    are shared; the Prelec alphas may differ per set and per player. Each
    iteration steps every block of players once for all members still
    running (see the module docstring).
    A member whose residual reaches tol, or which reaches max_iter, is
    recorded at that iteration and leaves the batch; a member in an exact
    cycle leaves with its max_iter-th state. Equal behavior sets are solved
    once and share one result.
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
    """Raise ValueError for a tol that is negative, infinite or NaN (an
    infinite tol would certify any profile) and for a negative max_iter."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite non-negative number, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter!r}")


def _solve_key(behaviors, tol, max_iter) -> tuple:
    """Identity of a solve: the behavior set, tol and max_iter."""
    return tuple(behaviors), tol, max_iter


@contextmanager
def _prefetched_solves(game: FiniteGame, behavior_sets, tol: float = 1e-9, max_iter: int = 10000):
    """Run the solves of behavior_sets as one batch and, until the block
    ends, let solve_fixed_point on this game with the same tol and max_iter
    return their results. Blocks on one game do not nest."""
    sets = [list(b) for b in behavior_sets]
    results = solve_fixed_point_batch(game, sets, tol, max_iter)
    for behaviors, result in zip(sets, results):
        game._prefetched[_solve_key(behaviors, tol, max_iter)] = result
    try:
        yield
    finally:
        game._prefetched.clear()


def _fixed_point_loop(game, sets, tol, max_iter) -> list:
    """The damped fixed-point loop of solve_fixed_point_batch on checked
    behavior sets, every member from the uniform profile, one block of
    players at a time (see the module docstring)."""
    n, counts = game.n_players, game.action_counts
    blocks = {}  # opponents' action counts -> the players who face them
    for i in range(n):
        blocks.setdefault(counts[:i] + counts[i + 1:], []).append(i)
    blocks = list(blocks.values())
    where = [None] * n  # player -> (block, position in the block)
    for b, players in enumerate(blocks):
        for p, i in enumerate(players):
            where[i] = (b, p)
    # opponent k of player i is player k + (k >= i); a block's players run
    # over consecutive players of one count, so for each k every opponent
    # lies in one block: (that block, the opponents' positions in it)
    gathers = [
        [
            (where[k + (k >= players[0])][0], np.array([where[k + (k >= i)][1] for i in players]))
            for k in range(n - 1)
        ]
        for players in blocks
    ]
    # iteration 0: one pure_action_values call per player and member on the
    # uniform profile, whose calls the benchmark's tracer counts on the DSM
    # sweeps; the kernel takes the rest
    start = [np.full(a, 1.0 / a) for a in counts]
    values = [np.stack([[pure_action_values(game, i, start, b) for b in sets] for i in players])
              for players in blocks]
    mixes = [np.stack([np.tile(start[i], (len(sets), 1)) for i in players]) for players in blocks]
    framed = [[_framed_payoffs(game, i, sets[0][i].frame) for i in players] for players in blocks]
    # (P, K) per block: one alpha per player and batch member; _weights
    # takes a block whose rows all share one alpha as that one number
    alphas = [np.array([[b[i].weighting.alpha for b in sets] for i in players], dtype=float)
              for players in blocks]
    block_alphas = [a.item(0) if (a == a.item(0)).all() else a for a in alphas]
    eyes = [np.eye(counts[players[0]]) for players in blocks]  # hardened-step targets
    members = np.arange(len(sets))  # batch member of each row
    finish = np.full(len(sets), max_iter)  # the iteration each row leaves at, at the latest
    snapshot = since = None  # the hardened mixes the cycle test compares with, and their iteration
    results = [None] * len(sets)
    with np.errstate(divide="ignore"):
        for iteration in range(max_iter + 1):
            if iteration:
                for b, (gather, block_framed) in enumerate(zip(gathers, framed)):
                    # the iteration's largest array, weighted in place
                    q = _joint_prob([mixes[c][rows] for c, rows in gather])
                    _weights(q, block_alphas[b], out=q)
                    v = values[b]  # overwritten: the last step has read it
                    for p, f in enumerate(block_framed):
                        v[p] = _mat_vec(f, q[p])
                    del q
            temp = _TEMPERATURE * _TEMP_DECAY**iteration
            if temp < _TEMP_FLOOR:
                # the cycle test of the module docstring: a row that repeats
                # the snapshot has period iteration - since
                if snapshot is not None:
                    repeat = functools.reduce(np.logical_and, (
                        (m.view(np.int64) == s).all(axis=(0, 2)) for m, s in zip(mixes, snapshot)
                    ))
                    if np.count_nonzero(repeat):
                        finish[repeat] = iteration + (max_iter - iteration) % (iteration - since)
                if snapshot is None or iteration - since == _CYCLE_STRIDE:
                    # the bits, so that neither -0 == 0 nor nan != nan can
                    # decide; mixes are never written in place
                    snapshot, since = [m.view(np.int64) for m in mixes], iteration
            # max over a block's players, then over the blocks: exact
            residual = functools.reduce(np.maximum, (
                _residual([(v, m)]).max(axis=0) for v, m in zip(values, mixes)
            ))
            done = (residual <= tol) | (finish == iteration)
            leaving = np.count_nonzero(done)  # cheaper than done.any() on a few rows
            if leaving:
                for k in np.flatnonzero(done):
                    converged = bool(residual[k] <= tol)
                    results[members[k]] = EquilibriumResult(
                        MixedProfile([mixes[b][p, k] for b, p in where]),
                        float(residual[k]),
                        iteration if converged else max_iter,
                        converged,
                    )
                if leaving == len(done):
                    return results
                keep = ~done
                members, finish = members[keep], finish[keep]
                mixes = [m[:, keep] for m in mixes]
                values = [v[:, keep] for v in values]
                if snapshot is not None:
                    snapshot = [m[:, keep] for m in snapshot]
                alphas = [a[:, keep] for a in alphas]
                block_alphas = [a.item(0) if (a == a.item(0)).all() else a for a in alphas]
            new_mixes = []
            for v, m, eye in zip(values, mixes, eyes):
                if temp < _TEMP_FLOOR:
                    target = eye[v.argmax(axis=-1)]
                else:
                    top = v.max(axis=-1)
                    spread = np.maximum(top - v.min(axis=-1), 1e-12)
                    e = np.exp((v - top[..., None]) / (spread * temp)[..., None])
                    target = e / e.sum(axis=-1, keepdims=True)
                new_mixes.append((1.0 - _STEP) * m + _STEP * target)
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
    grid: returns the profiles whose improvement residual is a local minimum
    among axis neighbors and within grid slack of the global minimum.

    Meant as an independent oracle for small games (<= 3 players, <= 3
    actions); raises ValueError when grid < 1 or behaviors does not hold one
    profile per player, and BudgetExceededError when the enumeration would
    exceed GRID_BUDGET profiles.
    """
    if grid < 1:
        raise ValueError(f"grid must be a positive integer, got {grid}")
    if behaviors is None:
        behaviors = _eut_behaviors(game.n_players)
    _check_behaviors(game, behaviors)
    check_grid_budget(game, grid)
    n = game.n_players
    # one grid per distinct action count, shared by the players who have it
    built = {a: _simplex_grid(a, grid) for a in set(game.action_counts)}
    grids = [built[a] for a in game.action_counts]
    # player j's grid on batch axis j: every cell of the surface is one profile
    mixes = [
        g.reshape((1,) * j + g.shape[:1] + (1,) * (n - 1 - j) + g.shape[1:])
        for j, g in enumerate(grids)
    ]
    # a generator, not a list: no player's value surface is made before
    # _residual reaches that player
    residual = _residual(
        (pure_action_values(game, i, mixes, behaviors), own) for i, own in enumerate(mixes)
    )

    # a grid cell adjacent to a true equilibrium has residual of order
    # slope * spacing; anything above that is a flat-valley artifact, not an
    # equilibrium the grid can certify
    keep = _local_minima(residual) & (residual <= _grid_slack(game, grid))
    return [MixedProfile([g[i] for g, i in zip(grids, idx)]) for idx in zip(*np.nonzero(keep))]


def _local_minima(residual: np.ndarray) -> np.ndarray:
    """Boolean mask of entries no larger than any axis neighbor."""
    mask = np.ones(residual.shape, dtype=bool)
    for axis in range(residual.ndim):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        mask[lo] &= residual[lo] <= residual[hi]
        mask[hi] &= residual[hi] <= residual[lo]
    return mask


def _grid_slack(game: FiniteGame, grid: int) -> float:
    span = float(game.payoffs.max() - game.payoffs.min())
    return max(span, 1.0) * 2.0 / grid


# ---------------------------------------------------------------------------
# plain-text game format

def format_game(game: FiniteGame) -> str:
    lines = [f"players {game.n_players}"]
    lines.append("actions " + " ".join(str(a) for a in game.action_counts))
    for joint in itertools.product(*(range(a) for a in game.action_counts)):
        pays = (game.payoffs[(i, *joint)] for i in range(game.n_players))
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
        return parse_game(fh.read())
