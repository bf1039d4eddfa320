import itertools
import math
import tracemalloc

import numpy as np
import pytest

import ptgrid.games
from ptgrid.games import (
    BudgetExceededError,
    FiniteGame,
    GameFormatError,
    MixedProfile,
    best_response,
    brute_force_equilibrium,
    equilibrium_residual,
    eut_utility,
    format_game,
    parse_game,
    pt_utility,
    pure_action_values,
    solve_2x2,
    solve_fixed_point,
    solve_fixed_point_batch,
)
from ptgrid.dsm import build_dsm_game, synth_profile
from ptgrid.fixtures import dsm_config_path, storage_config_path
from ptgrid.formats import load_dsm_config, load_storage_config
from ptgrid.games import (
    _ArgmaxPeriods,
    _certified_bracket,
    _certified_cycle,
    _framed_payoffs,
    _gap_bounds,
    _grid_candidates,
    _grid_slack,
    _indifference_prob,
    _indifference_root,
    _joint_prob,
    _mat_vec,
    _prefetched_solves,
    _residual,
    _simplex_grid,
    _slack_minima,
    _values,
)
from ptgrid.prospects import (
    PrelecWeighting,
    PtProfile,
    ValueFrame,
    _weights,
    frame_value,
    prelec_weight,
)
from ptgrid.storage import framing_sweep, sweep_company_price, sweep_selling_price

MATCHING_PENNIES = FiniteGame.from_bimatrix(
    [[1.0, -1.0], [-1.0, 1.0]],
    [[-1.0, 1.0], [1.0, -1.0]],
)

PRISONERS_DILEMMA = FiniteGame.from_bimatrix(
    [[-1.0, -3.0], [0.0, -2.0]],
    [[-1.0, 0.0], [-3.0, -2.0]],
)


def eut_behaviors(n):
    return [PtProfile.eut()] * n


def random_game(rng, n_players=None):
    n = n_players or int(rng.integers(2, 4))
    counts = [int(rng.integers(2, 4)) for _ in range(n)]
    payoffs = rng.uniform(-5.0, 5.0, size=(n, *counts))
    return FiniteGame(payoffs)


def random_profile(rng, game):
    return MixedProfile([rng.dirichlet(np.ones(a)) for a in game.action_counts])


# ---------------------------------------------------------------------------
# construction and validation


def test_game_validation():
    with pytest.raises(ValueError):
        FiniteGame(np.zeros((2, 2)))  # missing per-player axes
    with pytest.raises(ValueError):
        FiniteGame(np.zeros((2, 2, 1)))  # one action
    with pytest.raises(ValueError):
        FiniteGame(np.full((2, 2, 2), np.inf))
    game = FiniteGame(np.zeros((2, 2, 2)))
    with pytest.raises(AttributeError):
        game.payoffs = None
    with pytest.raises(ValueError):
        game.payoffs[0, 0, 0] = 1.0  # read-only array
    with pytest.raises(AttributeError):
        game._framed = {}


def test_profile_validation():
    game = MATCHING_PENNIES
    with pytest.raises(ValueError):
        MixedProfile([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(ValueError):
        MixedProfile([[-0.1, 1.1], [0.5, 0.5]])
    with pytest.raises(ValueError):
        MixedProfile([[np.nan, np.nan], [0.5, 0.5]])
    with pytest.raises(ValueError):
        MixedProfile([[np.nan, 1.0], [0.5, 0.5]])
    with pytest.raises(ValueError):
        MixedProfile([[-5e-324, 1.0], [0.5, 0.5]])
    # -0.0 is not negative
    MixedProfile([[-0.0, 1.0], [0.5, 0.5]])
    uniform = MixedProfile.uniform(game)
    np.testing.assert_array_equal(uniform[0], [0.5, 0.5])
    pure = MixedProfile.pure(game, (1, 0))
    np.testing.assert_array_equal(pure[0], [0.0, 1.0])
    with pytest.raises(ValueError):
        MixedProfile.pure(game, (2, 0))


# ---------------------------------------------------------------------------
# utilities


def test_constant_game_utility():
    game = FiniteGame(np.full((2, 2, 2), 3.25))
    rng = np.random.default_rng(0)
    for _ in range(5):
        prof = random_profile(rng, game)
        assert eut_utility(game, 0, prof) == pytest.approx(3.25, abs=1e-12)
        assert eut_utility(game, 1, prof) == pytest.approx(3.25, abs=1e-12)


def test_pure_profile_reads_tensor_entry():
    rng = np.random.default_rng(1)
    game = random_game(rng, 3)
    for joint in [(0, 0, 0), (1, 1, 1), (0, 1, 0)]:
        prof = MixedProfile.pure(game, joint)
        for i in range(3):
            assert eut_utility(game, i, prof) == pytest.approx(
                game.payoffs[(i, *joint)], abs=1e-12
            )


def test_matching_pennies_uniform_is_zero():
    prof = MixedProfile.uniform(MATCHING_PENNIES)
    assert eut_utility(MATCHING_PENNIES, 0, prof) == pytest.approx(0.0, abs=1e-15)
    assert eut_utility(MATCHING_PENNIES, 1, prof) == pytest.approx(0.0, abs=1e-15)


def test_pt_reduces_to_eut_randomized():
    rng = np.random.default_rng(2)
    for _ in range(100):
        game = random_game(rng)
        prof = random_profile(rng, game)
        behaviors = eut_behaviors(game.n_players)
        for i in range(game.n_players):
            assert abs(
                pt_utility(game, i, prof, behaviors) - eut_utility(game, i, prof)
            ) <= 1e-12


def test_pt_endpoint_weights_ignore_alpha():
    # against a pure opponent the weighting cannot matter: w(0)=0, w(1)=1
    rng = np.random.default_rng(3)
    game = random_game(rng, 2)
    behaviors = [PtProfile.weighting_only(0.3)] * 2
    pure_opp = MixedProfile(
        [rng.dirichlet(np.ones(game.action_counts[0])), np.eye(game.action_counts[1])[0]]
    )
    assert pt_utility(game, 0, pure_opp, behaviors) == pytest.approx(
        eut_utility(game, 0, pure_opp), abs=1e-12
    )


def test_pt_hand_expanded_2x2():
    # opponent mixes 0.5/0.5 under alpha=0.5: both outcomes weighted by
    # w(0.5) = exp(-sqrt(ln 2)) instead of 0.5
    game = FiniteGame.from_bimatrix([[4.0, -2.0], [1.0, 3.0]], [[0.0, 0.0], [0.0, 0.0]])
    behaviors = [PtProfile.weighting_only(0.5), PtProfile.eut()]
    prof = MixedProfile([[1.0, 0.0], [0.5, 0.5]])
    w = math.exp(-math.sqrt(math.log(2.0)))
    assert pt_utility(game, 0, prof, behaviors) == pytest.approx(
        w * 4.0 + w * -2.0, abs=1e-12
    )
    prof2 = MixedProfile([[0.25, 0.75], [0.5, 0.5]])
    expected = 0.25 * (w * 4.0 + w * -2.0) + 0.75 * (w * 1.0 + w * 3.0)
    assert pt_utility(game, 0, prof2, behaviors) == pytest.approx(expected, abs=1e-12)


def test_pt_framing_applies_to_own_payoffs():
    game = FiniteGame.from_bimatrix([[4.0, -4.0], [0.0, 0.0]], [[0.0] * 2] * 2)
    frame = ValueFrame(reference=0.0, gamma=2.0, beta_gain=1.0, beta_loss=1.0)
    behaviors = [PtProfile(frame=frame), PtProfile.eut()]
    prof = MixedProfile([[1.0, 0.0], [0.5, 0.5]])
    # gains kept, losses doubled: 0.5*4 + 0.5*(-8) = -2
    assert pt_utility(game, 0, prof, behaviors) == pytest.approx(-2.0, abs=1e-12)


def test_affine_shift_with_weighting_only():
    # framing off: adding c to every payoff of player i shifts its perceived
    # utility by c * sum of weights and leaves best responses unchanged
    rng = np.random.default_rng(6)
    game = random_game(rng, 2)
    behaviors = [PtProfile.weighting_only(0.45)] * 2
    prof = random_profile(rng, game)
    shifted = FiniteGame(
        np.stack([game.payoffs[0] + 7.5, game.payoffs[1]])
    )
    base_br = best_response(game, 0, prof, behaviors)
    shifted_br = best_response(shifted, 0, prof, behaviors)
    assert base_br == shifted_br
    wsum = prelec_weight(prof[1], 0.45).sum()
    assert pt_utility(shifted, 0, prof, behaviors) == pytest.approx(
        pt_utility(game, 0, prof, behaviors) + 7.5 * wsum, abs=1e-10
    )


@pytest.mark.parametrize("n_players", [2, 3])
def test_batched_values_equal_per_profile_calls(n_players):
    rng = np.random.default_rng(14)
    game = random_game(rng, n_players)
    behaviors = [
        PtProfile.behavioral(alpha=float(rng.uniform(0.3, 1.0))) for _ in range(n_players)
    ]
    stacked = [rng.dirichlet(np.ones(a), size=6) for a in game.action_counts]
    # player 0 unbatched, the others on a shared batch axis; the batch
    # shape is that of the opponents' mixes
    mixed = [stacked[0][2]] + stacked[1:]
    for i in range(n_players):
        batched = pure_action_values(game, i, stacked, behaviors)
        assert batched.shape == (6, game.action_counts[i])
        broadcast = np.broadcast_to(pure_action_values(game, i, mixed, behaviors), batched.shape)
        for k in range(6):
            one = MixedProfile([m[k] for m in stacked])
            single = pure_action_values(game, i, one, behaviors)
            np.testing.assert_array_equal(batched[k], single)
            one = MixedProfile([stacked[0][2]] + [m[k] for m in stacked[1:]])
            single = pure_action_values(game, i, one, behaviors)
            np.testing.assert_array_equal(broadcast[k], single)


def reference_values(game, player, mixes, behaviors):
    """The value kernel written out step by step, every step redone on every
    call: q by the left-to-right broadcast product, Prelec weights on the
    interior entries only with the endpoints set by hand, the framed payoffs
    moved own-axis-first and flattened, then one mat-vec."""
    mixes = [np.asarray(m, dtype=float) for m in mixes]
    opponents = [m for j, m in enumerate(mixes) if j != player]
    k = len(opponents)
    q = 1.0
    for pos, m in enumerate(opponents):
        q = q * m.reshape(m.shape[:-1] + (1,) * pos + (-1,) + (1,) * (k - 1 - pos))
    alpha = behaviors[player].weighting.alpha
    if alpha == 1.0:
        w = q.copy()
    else:
        w = np.zeros_like(q)
        interior = (q > 0.0) & (q < 1.0)
        w[interior] = np.exp(-((-np.log(q[interior])) ** alpha))
        w[q == 1.0] = 1.0
    w = w.reshape(w.shape[: w.ndim - k] + (-1,))
    own_first = np.moveaxis(frame_value(game.payoffs[player], behaviors[player].frame), player, 0)
    framed = own_first.reshape(own_first.shape[0], -1)
    return (framed @ w[..., None])[..., 0]


def mixes_with_endpoints(rng, game, batch):
    """A batch of mixes per player: random interior ones, pure ones (exact 0
    and 1) and ones with a single zero entry."""
    out = []
    for a in game.action_counts:
        m = rng.dirichlet(np.ones(a), size=batch)
        m[: a] = np.eye(a)
        m[a] = 0.0
        m[a, :2] = [0.25, 0.75]
        out.append(m)
    return out


FRAMES = [ValueFrame(), ValueFrame(reference=0.5, gamma=2.25, beta_gain=0.88, beta_loss=0.88)]


@pytest.mark.parametrize("n_players", [2, 3])
@pytest.mark.parametrize("alpha", [1.0, 0.65, 0.1])
@pytest.mark.parametrize("frame", FRAMES)
def test_values_equal_reference_kernel_bit_for_bit(n_players, alpha, frame):
    rng = np.random.default_rng(15 + n_players)
    behaviors = [PtProfile(PrelecWeighting(alpha), frame)] * n_players
    for _ in range(4):
        game = random_game(rng, n_players)
        mixes = mixes_with_endpoints(rng, game, 9)
        # the same mixes unbatched, and spread over one batch axis per player
        spread = [
            m.reshape((1,) * j + m.shape[:1] + (1,) * (n_players - 1 - j) + m.shape[1:])
            for j, m in enumerate(mixes)
        ]
        for i in range(n_players):
            for batch in (mixes, spread, [m[-1] for m in mixes]):
                expected = reference_values(game, i, batch, behaviors)
                # first call fills the memo, the second reads it
                assert np.array_equal(pure_action_values(game, i, batch, behaviors), expected)
                checked = pure_action_values(game, i, batch, behaviors)
                assert np.array_equal(checked, expected)
                # the unchecked kernel entry the solvers call
                assert _values(game, i, batch, behaviors[i]).tobytes() == checked.tobytes()


def reshape_chain_joint_prob(opponents):
    """The joint probability as one n-dimensional broadcast per opponent:
    one trailing axis per opponent, multiplied left to right, flattened."""
    k = len(opponents)
    q = opponents[0].reshape(opponents[0].shape[:-1] + (-1,) + (1,) * (k - 1))
    for pos, m in enumerate(opponents[1:], start=1):
        q = q * m.reshape(m.shape[:-1] + (1,) * pos + (-1,) + (1,) * (k - 1 - pos))
    return q.reshape(q.shape[: q.ndim - k] + (-1,))


def test_joint_prob_matches_reshape_chain():
    rng = np.random.default_rng(8)

    def mix(*shape):
        x = rng.random(shape)
        x[..., 0][rng.random(shape[:-1]) < 0.2] = 0.0  # exact zeros, as in hardened mixes
        return x / x.sum(axis=-1, keepdims=True)

    cases = [
        [mix(2), mix(2)],  # 1-D, 3 players
        [mix(4) for _ in range(6)],  # 1-D, the last step past the column threshold
        [mix(5, 2), mix(5, 2)],  # n = 3, 2 actions
        [mix(20, 4) for _ in range(5)],  # n = 6, K = 20: two column steps
        [mix(1, 4) for _ in range(7)],  # n = 8, K = 1
        [mix(6, 20, 4) for _ in range(5)],  # the loop's block of 6 players, K = 20
        [mix(3, 2), mix(3, 3), mix(3, 4)],  # unequal action counts
        [mix(200, 2), mix(200, 3), mix(200, 4)],  # ... past the threshold
        [mix(4), mix(3, 2), mix(3, 4)],  # a 1-D mix with batched ones
        [mix(6, 3).reshape(1, 6, 1, 3), mix(7, 2).reshape(1, 1, 7, 2)],  # oracle axes
        [mix(400, 3).reshape(1, 400, 1, 3), mix(5, 2).reshape(1, 1, 5, 2)],
        [
            mix(5, 3).reshape(1, 5, 1, 1, 3),
            mix(6, 3).reshape(1, 1, 6, 1, 3),
            mix(7, 3).reshape(1, 1, 1, 7, 3),
        ],
        [mix(4)],  # a single opponent
        [mix(20, 4)],
    ]
    for opponents in cases:
        want = reshape_chain_joint_prob(opponents)
        got = _joint_prob(opponents)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_framed_payoffs_are_kept_per_player_and_frame():
    rng = np.random.default_rng(17)
    game = random_game(rng, 3)
    prof = random_profile(rng, game)
    for _ in range(2):
        for frame in FRAMES:
            behaviors = [PtProfile(PrelecWeighting(0.65), frame)] * 3
            for i in range(3):
                assert np.array_equal(
                    pure_action_values(game, i, prof, behaviors),
                    reference_values(game, i, prof, behaviors),
                )
    assert len(game._framed) == 3 * len(FRAMES)
    identity, behavioral = (_framed_payoffs(game, 1, f) for f in FRAMES)
    assert not np.array_equal(identity, behavioral)
    assert identity.shape == (game.action_counts[1], game.action_counts[0] * game.action_counts[2])
    assert not identity.flags.writeable
    # a fresh game starts with an empty memo
    assert FiniteGame(game.payoffs)._framed == {}


@pytest.mark.parametrize("n_players", [2, 3, 6])
def test_identity_memo_gives_the_bits_of_a_framed_copy(n_players):
    # the identity memo reads the payoffs in place; the values must be those
    # of the frame_value copy it replaced, layout and mat-vec order included
    rng = np.random.default_rng(40 + n_players)
    game = random_game(rng, n_players)
    mixes = mixes_with_endpoints(rng, game, 7)
    for i in range(n_players):
        own_first = np.moveaxis(frame_value(game.payoffs[i], ValueFrame()), i, 0)
        copied = own_first.reshape(own_first.shape[0], -1)
        memo = _framed_payoffs(game, i, ValueFrame())
        assert memo.tobytes() == copied.tobytes()
        assert memo.flags.c_contiguous == copied.flags.c_contiguous
        assert memo.flags.f_contiguous == copied.flags.f_contiguous
        for alpha in (1.0, 0.65, 0.1):
            behaviors = [PtProfile.weighting_only(alpha)] * n_players
            for batch in (mixes, [m[-1] for m in mixes]):
                q = _joint_prob([m for j, m in enumerate(batch) if j != i])
                with np.errstate(divide="ignore"):
                    want = _mat_vec(copied, _weights(q, alpha))
                got = pure_action_values(game, i, batch, behaviors)
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("behavior", [PtProfile.eut(), PtProfile.behavioral()])
def test_nan_opponent_mix_raises(behavior):
    game = MATCHING_PENNIES
    with pytest.raises(ValueError):
        pure_action_values(game, 0, [[0.5, 0.5], [np.nan, np.nan]], [behavior] * 2)
    # each opponent mix is checked, not only their joint product, which is
    # 0.25 everywhere here
    game = FiniteGame(np.zeros((3, 2, 2, 2)))
    with pytest.raises(ValueError):
        pure_action_values(game, 0, [[0.5, 0.5], [-0.5, -0.5], [-0.5, -0.5]], [behavior] * 3)


# ---------------------------------------------------------------------------
# best response


def test_best_response_dominant_action():
    behaviors = eut_behaviors(2)
    prof = MixedProfile.uniform(PRISONERS_DILEMMA)
    assert best_response(PRISONERS_DILEMMA, 0, prof, behaviors) == (1,)
    assert best_response(PRISONERS_DILEMMA, 1, prof, behaviors) == (1,)


def test_best_response_constant_game_ties():
    game = FiniteGame(np.zeros((2, 3, 2)))
    prof = MixedProfile.uniform(game)
    assert best_response(game, 0, prof, eut_behaviors(2)) == (0, 1, 2)


def test_player_index_errors():
    prof = MixedProfile.uniform(MATCHING_PENNIES)
    with pytest.raises(IndexError):
        eut_utility(MATCHING_PENNIES, 2, prof)
    with pytest.raises(IndexError):
        pt_utility(MATCHING_PENNIES, -1, prof, eut_behaviors(2))
    # a bool would index the payoffs as a mask, and a bool or float player
    # would be the memo key of an integer one
    game = FiniteGame(np.arange(8.0).reshape(2, 2, 2))
    prof = MixedProfile.uniform(game)
    want = solve_2x2(FiniteGame(game.payoffs))
    for player in (True, False, np.True_, 1.0, "1"):
        with pytest.raises(TypeError):
            eut_utility(game, player, prof)
        with pytest.raises(TypeError):
            best_response(game, player, prof, eut_behaviors(2))
        with pytest.raises(TypeError):
            pure_action_values(game, player, prof, eut_behaviors(2))
    assert eut_utility(game, np.int64(1), prof) == 5.5
    got = solve_2x2(game)
    assert [[m.tobytes() for m in r.profile] for r in got] == [[m.tobytes() for m in r.profile] for r in want]


# ---------------------------------------------------------------------------
# 2x2 solver


def interior(results):
    return [
        r
        for r in results
        if all(np.all(m > 0.0) and np.all(m < 1.0) for m in r.profile)
    ]


def test_solve_2x2_prisoners_dilemma():
    results = solve_2x2(PRISONERS_DILEMMA)
    assert len(results) == 1
    prof = results[0].profile
    np.testing.assert_allclose(prof[0], [0.0, 1.0])
    np.testing.assert_allclose(prof[1], [0.0, 1.0])
    assert results[0].residual <= 1e-9


def test_solve_2x2_matching_pennies_eut():
    results = solve_2x2(MATCHING_PENNIES)
    assert len(results) == 1
    mixed = results[0].profile
    np.testing.assert_allclose(mixed[0], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(mixed[1], [0.5, 0.5], atol=1e-12)


def test_solve_2x2_matching_pennies_pt_symmetric():
    behaviors = [PtProfile.weighting_only(0.5)] * 2
    results = interior(solve_2x2(MATCHING_PENNIES, behaviors))
    assert len(results) == 1
    # symmetry forces w(p) = w(1-p), hence p = 1/2 even under weighting
    np.testing.assert_allclose(results[0].profile[0], [0.5, 0.5], atol=1e-10)
    np.testing.assert_allclose(results[0].profile[1], [0.5, 0.5], atol=1e-10)


def test_solve_2x2_asymmetric_pt_deviates_from_eut():
    game = FiniteGame.from_bimatrix(
        [[3.0, -1.0], [-2.0, 2.0]],
        [[-3.0, 1.0], [2.0, -2.0]],
    )
    eut_mix = interior(solve_2x2(game))[0].profile
    pt_mix = interior(solve_2x2(game, [PtProfile.weighting_only(0.5)] * 2))[0].profile
    # player 2's mix solves player 1's asymmetric indifference (gaps 5 vs 3)
    assert eut_mix[1][0] == pytest.approx(3.0 / 8.0, abs=1e-10)
    assert not np.allclose(eut_mix[1], pt_mix[1], atol=1e-3)
    for res in solve_2x2(game, [PtProfile.weighting_only(0.5)] * 2):
        assert res.residual <= 1e-9


def test_solve_2x2_no_interior_reported_by_omission():
    results = solve_2x2(PRISONERS_DILEMMA, eut_behaviors(2))
    assert interior(results) == []


def test_solve_2x2_rejects_a_tol_that_is_not_finite_and_non_negative():
    # an infinite tol once certified every candidate
    # and True, a bool, once kept every candidate with a residual up to 1
    for bad in (float("inf"), float("nan"), -1e-9, True, "1e-9"):
        with pytest.raises(ValueError, match="tol"):
            solve_2x2(PRISONERS_DILEMMA, tol=bad)


def test_solve_2x2_rejects_wrong_shape():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        solve_2x2(random_game(rng, 3))


@pytest.mark.parametrize("alpha", [0.2, 0.35, 0.65, 1.0])
def test_solve_2x2_interior_root_satisfies_indifference(alpha):
    # player 2 plays matching pennies, so player 1's indifference alone pins
    # player 2's mix: w(q) * A = w(1 - q) * B with A, B player 1's gaps
    behaviors = [PtProfile.weighting_only(alpha)] * 2
    for a_gap, b_gap in [(5.0, 3.0), (1.0, 2.5), (-2.0, -7.0), (0.5, 0.5)]:
        game = FiniteGame.from_bimatrix(
            [[a_gap, 0.0], [0.0, b_gap]], [[-1.0, 1.0], [1.0, -1.0]]
        )
        (res,) = interior(solve_2x2(game, behaviors))
        q = res.profile[1][0]
        assert prelec_weight(q, alpha) * a_gap == pytest.approx(
            prelec_weight(1.0 - q, alpha) * b_gap, rel=1e-12
        )


def test_solve_2x2_returns_the_float_closest_to_the_root():
    # player 2's mix is pinned 5e-11 away from pure: there one float step of
    # q moves the residual by about 2e-9, so only the closer of the two
    # floats around the root certifies within the default tolerance
    game = FiniteGame([
        [[-0.32869653311640956, 3.214614416331779], [-0.31028021086948154, 1.092304536381672]],
        [[-3.224217550686399, 1.564232394556191], [-2.3963694120660897, -3.8213444645645467]],
    ])
    behaviors = [PtProfile.weighting_only(0.4919477550838598)] * 2
    (res,) = interior(solve_2x2(game, behaviors))
    assert res.profile[1][1] == pytest.approx(5.03e-11, rel=1e-3)
    assert res.residual <= 1e-9


def test_solve_2x2_extreme_gap_ratio():
    # B / A underflows to 0.0; the root lies below the smallest float, so
    # only the pure equilibrium certifies
    game = FiniteGame.from_bimatrix([[1e200, 0.0], [0.0, 1e-200]], [[-1.0, 1.0], [1.0, -1.0]])
    results = solve_2x2(game, [PtProfile.weighting_only(0.5)] * 2)
    assert [tuple(int(np.argmax(m)) for m in r.profile) for r in results] == [(0, 1)]
    assert interior(results) == []


def bisected_indifference_root(target, alpha):
    """The 2x2 root as plain bisection finds it, the reference for
    _indifference_root: from (0, 1), every midpoint evaluated."""
    lo, hi, mid = 0.0, 1.0, 0.5
    lo_excess = hi_excess = 0.0
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


def assert_root_is_bisected(target, alpha):
    got, want = _indifference_root(target, alpha), bisected_indifference_root(target, alpha)
    assert got.hex() == want.hex(), (target, alpha)


def test_indifference_root_matches_bisection_on_a_seeded_sweep():
    rng = np.random.default_rng(2828)
    n = 100_000
    alphas = rng.uniform(0.02, 1.0, n)
    alphas[::7], alphas[3::7] = 1.0, 0.5
    # |target| from 1e-6 to 800 ** alpha: past 744.4 ** alpha and 36.7 **
    # alpha, so some roots lie beyond the floats, at 5e-324 and 1 - 2^-53
    targets = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, alphas * math.log10(800.0))
    certified = 0
    for target, alpha in zip(targets.tolist(), alphas.tolist()):
        assert_root_is_bisected(target, alpha)
        certified += _certified_bracket(target, alpha) is not None
    assert certified > 0.9 * n


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
def test_indifference_root_falls_back_beyond_the_certificate(alpha):
    # |target| >= 700 and roots below 1e-300 are bisected from (0, 1)
    for target in (-800.0, -750.0, -700.0, 700.0, 750.0, 800.0):
        assert _certified_bracket(target, alpha) is None
        assert_root_is_bisected(target, alpha)
    for log_q in (-691.0, -695.0, -700.0, -720.0, -744.0):
        # the target whose root is e^log_q, up to a term below 1e-29
        target = -(-log_q) ** alpha
        assert bisected_indifference_root(target, alpha) < 1e-300
        assert _certified_bracket(target, alpha) is None
        assert_root_is_bisected(target, alpha)


def test_indifference_root_beyond_the_floats_is_not_bisected(monkeypatch):
    # roots at 5e-324 and at 1 - 2^-53 are certified by one evaluation
    # there, where a bisection from (0, 1) makes about 1,075 and 54. Every
    # evaluation of the excess, and every Newton step, calls log1p once
    calls = []
    log1p = math.log1p
    monkeypatch.setattr(math, "log1p", lambda x: calls.append(x) or log1p(x))
    for target, alpha, root in [(-800.0, 1.0, 5e-324), (-750.0, 0.5, 5e-324), (-(745.0 ** 0.1), 0.1, 5e-324),
                                (40.0, 1.0, 1.0 - 2.0 ** -53), (800.0 ** 0.7, 0.7, 1.0 - 2.0 ** -53),
                                (37.0 ** 0.5, 0.5, 1.0 - 2.0 ** -53)]:
        calls.clear()
        assert _indifference_root(target, alpha) == root
        assert len(calls) <= 10, (target, alpha)
        assert_root_is_bisected(target, alpha)


def workload_roots(monkeypatch):
    """(target, alpha) of every root the storage figures' sweeps and the
    custom-games benchmark's 2x2 games (seed 3, input sets 0-3) solve."""
    roots = {"storage": [], "custom-games": []}
    solve = ptgrid.games._indifference_root

    def record(target, alpha):
        roots[which].append((target, alpha))
        return solve(target, alpha)

    monkeypatch.setattr(ptgrid.games, "_indifference_root", record)
    which = "storage"
    cfg = load_storage_config(storage_config_path())
    sweep_selling_price(cfg["consumers"], cfg["grid"], cfg["b_grid"], cfg["alphas"])
    sweep_company_price(cfg["consumers"], cfg["grid"], cfg["rho_grid"], cfg["alphas"])
    framing_sweep(cfg["consumers"], cfg["grid"], cfg["ref_grid"], cfg["gammas"], beta=cfg["frame_beta"])
    which = "custom-games"
    for k in range(4):
        # the benchmark's seed of input set k, then its 160 2x2 draws
        rng = np.random.default_rng(3 if k == 0 else int(np.random.SeedSequence([3, k]).generate_state(1)[0]))
        for _ in range(160):
            game = FiniteGame(rng.uniform(-5.0, 5.0, size=(2, 2, 2)))
            solve_2x2(game, [PtProfile.weighting_only(float(rng.uniform(0.2, 1.0)))] * 2)
    return roots


def test_indifference_root_matches_bisection_on_the_workload_roots(monkeypatch):
    roots = workload_roots(monkeypatch)
    assert len(roots["storage"]) > 300 and len(roots["custom-games"]) > 500
    for name, pairs in roots.items():
        for target, alpha in pairs:
            assert_root_is_bisected(target, alpha)
            if _certified_bracket(target, alpha) is None:
                # only a root beyond the floats: every storage root certifies
                assert name == "custom-games"
                assert bisected_indifference_root(target, alpha) in (5e-324, 1.0 - 2.0 ** -53)


def per_candidate_solve_2x2(game, behaviors, tol):
    """solve_2x2 as one profile per certificate: the pure profiles in
    itertools.product order, then the interior one, each kept when its
    equilibrium_residual is within tol."""
    candidates = [MixedProfile.pure(game, joint) for joint in itertools.product((0, 1), repeat=2)]
    # player i's indifference fixes the other player's mix
    q = [_indifference_prob(game, i, behaviors[i]) for i in (0, 1)]
    if None not in q:
        candidates.append(MixedProfile([[q[1], 1.0 - q[1]], [q[0], 1.0 - q[0]]]))
    results = []
    for prof in candidates:
        res = equilibrium_residual(game, prof, behaviors)
        if res <= tol:
            results.append((prof, res))
    return results


def assert_adopted(profile):
    """A solver's profile holds read-only mixes that view only read-only
    arrays, with the bytes MixedProfile gives on the same rows."""
    built = MixedProfile(profile.mixes)
    for m, b in zip(profile, built):
        view = m
        while view is not None:
            assert not view.flags.writeable
            view = view.base
        assert (m.dtype, m.shape, m.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_solve_2x2_matches_per_candidate_certificates_bit_for_bit():
    rng = np.random.default_rng(1515)
    several = interiors = 0
    for g in range(600):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        game = FiniteGame(rng.normal(size=(2, 2, 2)) * scale)
        alpha = (1.0, 0.5, float(rng.uniform(0.05, 1.0)))[g % 3]
        behaviors = [PtProfile(PrelecWeighting(alpha), FRAMES[g // 3 % 2])] * 2
        for tol in (1e-9, 0.0):
            got = solve_2x2(game, behaviors, tol)
            want = per_candidate_solve_2x2(game, behaviors, tol)
            assert len(got) == len(want)
            for r, (prof, res) in zip(got, want):
                assert [m.tobytes() for m in r.profile] == [m.tobytes() for m in prof]
                assert_adopted(r.profile)
                assert repr(r.residual) == repr(res)
                assert (r.iterations, r.converged) == (0, True)
                assert r.residual == equilibrium_residual(game, r.profile, behaviors)
            several += len(got) > 1
            interiors += len(interior(got))
    # the order and the interior row are both tested
    assert several > 100 and interiors > 100


@pytest.mark.parametrize("count", [1, 3])
def test_solvers_reject_a_behavior_list_of_the_wrong_length(count):
    behaviors = [PtProfile.weighting_only(0.5)] * count
    for solve in (solve_2x2, brute_force_equilibrium, solve_fixed_point):
        with pytest.raises(ValueError, match="every behavior set needs 2 profiles, one per player"):
            solve(MATCHING_PENNIES, behaviors)


# the public value functions check a behavior list as the solvers do, and
# take None as EUT for every player. At SKEWED matching pennies' residual is
# not 0, so an unchecked list does not pass for the uniform profile's 0.0
WRONG_LENGTH = "every behavior set needs 2 profiles, one per player"
SKEWED = MixedProfile([[0.3, 0.7], [0.6, 0.4]])


@pytest.mark.parametrize("count", [1, 3])
def test_pure_action_values_checks_behaviors_as_the_solvers_do(count):
    for player in (0, 1):
        with pytest.raises(ValueError, match=WRONG_LENGTH):
            pure_action_values(MATCHING_PENNIES, player, SKEWED, eut_behaviors(count))
        want = pure_action_values(MATCHING_PENNIES, player, SKEWED, eut_behaviors(2))
        assert pure_action_values(MATCHING_PENNIES, player, SKEWED, None).tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [1, 3])
def test_pt_utility_checks_behaviors_as_the_solvers_do(count):
    for player in (0, 1):
        with pytest.raises(ValueError, match=WRONG_LENGTH):
            pt_utility(MATCHING_PENNIES, player, SKEWED, eut_behaviors(count))
        want = pt_utility(MATCHING_PENNIES, player, SKEWED, eut_behaviors(2))
        assert pt_utility(MATCHING_PENNIES, player, SKEWED, None) == want


@pytest.mark.parametrize("count", [1, 3])
def test_best_response_checks_behaviors_as_the_solvers_do(count):
    for player in (0, 1):
        with pytest.raises(ValueError, match=WRONG_LENGTH):
            best_response(MATCHING_PENNIES, player, SKEWED, eut_behaviors(count))
    assert [best_response(MATCHING_PENNIES, i, SKEWED, None) for i in (0, 1)] == [(0,), (0,)]


@pytest.mark.parametrize("count", [1, 3])
def test_equilibrium_residual_checks_behaviors_as_the_solvers_do(count):
    uniform = MixedProfile.uniform(MATCHING_PENNIES)
    for profile in (uniform, SKEWED):
        with pytest.raises(ValueError, match=WRONG_LENGTH):
            equilibrium_residual(MATCHING_PENNIES, profile, eut_behaviors(count))
        want = equilibrium_residual(MATCHING_PENNIES, profile, eut_behaviors(2))
        assert equilibrium_residual(MATCHING_PENNIES, profile, None) == want


@pytest.mark.parametrize("actions", [(True, 0), (1.0, 0), (0, np.float64(1.0))])
def test_pure_profile_takes_integer_actions_only(actions):
    with pytest.raises(TypeError, match="action must be an integer"):
        MixedProfile.pure(MATCHING_PENNIES, actions)
    # a numpy integer is an integer
    assert MixedProfile.pure(MATCHING_PENNIES, (np.int64(1), 0))[0].tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# fixed-point solver


def test_fixed_point_matching_pennies_stays_uniform():
    res = solve_fixed_point(MATCHING_PENNIES)
    assert res.converged
    assert res.iterations == 0
    np.testing.assert_allclose(res.profile[0], [0.5, 0.5], atol=1e-12)


def test_fixed_point_finds_dominant_equilibrium():
    res = solve_fixed_point(PRISONERS_DILEMMA)
    assert res.converged
    assert_adopted(res.profile)
    np.testing.assert_allclose(res.profile[0], [0.0, 1.0], atol=1e-6)
    np.testing.assert_allclose(res.profile[1], [0.0, 1.0], atol=1e-6)
    assert res.residual <= 1e-9


def test_fixed_point_rejects_mixes_made_nan_by_overflow():
    # the weighted values of payoffs near the float range overflow, and the
    # softmax of inf - inf is NaN: no profile holds such mixes
    game = FiniteGame(np.random.default_rng(0).uniform(0.99, 1.0, size=(3, 2, 2, 2)) * 1.79e308)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        solve_fixed_point(game, [PtProfile.weighting_only(0.5)] * 3, max_iter=50)


def test_fixed_point_reports_nonconvergence_honestly():
    # from uniform, matching pennies is solved at once; the dilemma is not
    res = solve_fixed_point(PRISONERS_DILEMMA, max_iter=3, tol=1e-12)
    assert not res.converged
    assert res.iterations == 3
    assert res.residual > 1e-12


def test_fixed_point_certificate_matches_recomputed_residual():
    # the solver's stopping test and equilibrium_residual are one function,
    # so a result's residual is the recomputed certificate exactly
    rng = np.random.default_rng(8)
    for _ in range(5):
        game = random_game(rng, 2)
        behaviors = [PtProfile.weighting_only(float(rng.uniform(0.3, 1.0)))] * 2
        res = solve_fixed_point(game, behaviors, max_iter=4000, tol=1e-8)
        assert equilibrium_residual(game, res.profile, behaviors) == res.residual
        if res.converged:
            assert res.residual <= 1e-8
    for n in (2, 3):
        game = random_game(rng, n)
        sets = [
            [PtProfile.weighting_only(float(a)) for a in rng.choice([0.3, 0.5, 0.8, 1.0], size=n)]
            for _ in range(6)
        ]
        for behaviors, res in zip(sets, solve_fixed_point_batch(game, sets, max_iter=4000)):
            assert equilibrium_residual(game, res.profile, behaviors) == res.residual


def cellwise_residual(pairs):
    """The certificate one cell at a time: each player's gap
    max(v) - fold_dot(v, m), the largest over the players and at least 0."""
    shape = np.broadcast_shapes(*(a.shape[:-1] for pair in pairs for a in pair))
    out = np.empty(shape)
    for idx in np.ndindex(*shape):
        worst = 0.0
        for v, m in pairs:
            v, m = np.broadcast_to(v, shape + v.shape[-1:]), np.broadcast_to(m, shape + m.shape[-1:])
            worst = max(worst, float(v[idx].max() - fold_dot(v[idx], m[idx])))
        out[idx] = worst
    return out


def residual_cases(rng, a, scale):
    """(values, mix) pairs in the shapes and layouts _residual's callers
    pass: one profile, a (C, A) batch of candidates, a (P, K, A) block, the
    2- and 3-player oracle surfaces and the oracle's gathered candidate
    cells, with some values and probabilities exactly 0, and a batch whose
    products are zeros of both signs."""

    def values(shape):
        v = rng.uniform(-5.0, 5.0, size=shape) * scale
        v[rng.random(shape) < 0.2] = 0.0
        return v

    def mixes(shape):
        m = rng.dirichlet(np.ones(a), size=shape[:-1])
        m[rng.random(shape) < 0.2] = 0.0
        return m

    def surface(n, g):
        # player j's mix varies along batch axis j only, its values along the others
        pairs = []
        for j in range(n):
            along, across = [1] * n, [g] * n
            along[j], across[j] = g, 1
            pairs.append((values(tuple(across) + (a,)), mixes(tuple(along) + (a,))))
        return pairs

    def gathered(n, cells):
        # as brute_force_equilibrium gathers them: (A, cells) arrays read
        # through their transpose, so not C-contiguous
        return [(values((a, cells)).T, np.ascontiguousarray(mixes((cells, a)).T).T) for _ in range(n)]

    def negative_zero(c):
        # max(v) = -0.0 and every product is a zero: v <= -0.0 with v_0 =
        # -0.0, and m = 0 where v < 0. m_0 = -0.0 in the later rows makes
        # v.m = +0.0 there, so their gap is -0.0 - 0.0 = -0.0
        v = -np.abs(values((c, a)))
        v[:, 0] = -0.0
        m = mixes((c, a))
        m[v < 0.0] = 0.0
        m[:, 0] = -0.0
        m[:c // 2, 0] = 1.0
        return [(v, m)]

    return [
        [(values((a,)), mixes((a,))) for _ in range(3)],
        [(values((5, a)), mixes((5, a))) for _ in range(2)],
        [(values((3, 4, a)), mixes((3, 4, a)))],
        surface(2, 6),
        surface(3, 4),
        gathered(2, 7),
        gathered(3, 5),
        negative_zero(6),
    ]


@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
@pytest.mark.parametrize("a", [2, 3, 4])
def test_residual_is_the_stated_fold_bit_for_bit(a, scale):
    rng = np.random.default_rng(17 + a)
    for pairs in residual_cases(rng, a, scale):
        got = np.asarray(_residual(iter(pairs)))
        expected = cellwise_residual(pairs)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_equilibrium_residual_returns_a_python_float():
    for profile in (MixedProfile.uniform(MATCHING_PENNIES), MixedProfile.pure(MATCHING_PENNIES, (0, 0))):
        residual = equilibrium_residual(MATCHING_PENNIES, profile, eut_behaviors(2))
        assert type(residual) is float


def test_determinism_bit_identical():
    rng = np.random.default_rng(9)
    game = random_game(rng, 2)
    behaviors = [PtProfile.weighting_only(0.6)] * 2
    r1 = solve_fixed_point(game, behaviors)
    r2 = solve_fixed_point(game, behaviors)
    assert r1.residual == r2.residual
    assert r1.iterations == r2.iterations
    for m1, m2 in zip(r1.profile, r2.profile):
        np.testing.assert_array_equal(m1, m2)


def single_solve_values(game, player, mixes, behaviors):
    """The value kernel the single-solve loop called before batching: the
    q product from 1.0, prelec_weight with its scalar alpha, the memoized
    framed payoffs and one mat-vec."""
    opponents = [m for j, m in enumerate(mixes) if j != player]
    k = len(opponents)
    q = 1.0
    for pos, m in enumerate(opponents):
        q = q * m.reshape(m.shape[:-1] + (1,) * pos + (-1,) + (1,) * (k - 1 - pos))
    b = behaviors[player]
    w = prelec_weight(q, b.weighting.alpha)
    w = w.reshape(w.shape[: w.ndim - k] + (-1,))
    return (_framed_payoffs(game, player, b.frame) @ w[..., None])[..., 0]


def fold_dot(v, m):
    """v.m as the certificate states it: ((v_0*m_0 + v_1*m_1) + v_2*m_2) + ...
    over the last axis, each product and each sum rounded on its own."""
    own = v[..., 0] * m[..., 0]
    for a in range(1, v.shape[-1]):
        own = own + v[..., a] * m[..., a]
    return own


def reference_solve(game, behaviors, step=0.1, tol=1e-9, max_iter=10000,
                    temperature=0.2, temp_decay=0.995, temp_floor=1e-3):
    """The single-solve loop as it stood before batching: Python-float
    residuals and one 1-D mix per player, from the uniform profile."""
    mixes = list(MixedProfile.uniform(game))
    for iteration in range(max_iter + 1):
        values = [single_solve_values(game, i, mixes, behaviors) for i in range(game.n_players)]
        peaks = [v.max() for v in values]
        residual = max(float(top - fold_dot(v, m)) for v, top, m in zip(values, peaks, mixes))
        residual = max(residual, 0.0)
        if residual <= tol or iteration == max_iter:
            return iteration, residual, residual <= tol, mixes
        temp = temperature * temp_decay**iteration
        new_mixes = []
        for v, top, m in zip(values, peaks, mixes):
            if temp < temp_floor:
                target = np.zeros_like(m)
                target[int(np.argmax(v))] = 1.0
            else:
                e = np.exp((v - top) / (max(float(top - v.min()), 1e-12) * temp))
                target = e / e.sum()
            new_mixes.append((1.0 - step) * m + step * target)
        mixes = new_mixes


def assert_same_as_reference(game, behavior_sets, alone=True, **kw):
    """Each member of one batched solve (and, with `alone`, the same member
    solved by itself) carries the reference loop's iterations, residual,
    converged flag and profile bytes; the reference loop stops a member
    certified to cycle at the iteration the member left at."""
    batch = solve_fixed_point_batch(game, behavior_sets, **kw)
    for behaviors, res in zip(behavior_sets, batch):
        stop = dict(kw, max_iter=res.iterations) if res.cycle_period else kw
        iterations, residual, converged, mixes = reference_solve(game, behaviors, **stop)
        single = [solve_fixed_point(game, behaviors, **kw)] if alone else []
        for r in [res] + single:
            assert (r.iterations, r.residual, r.converged) == (iterations, residual, converged)
            assert [m.tobytes() for m in r.profile] == [m.tobytes() for m in mixes]
    return batch


def dsm_fixture(seed):
    cfg = load_dsm_config(dsm_config_path())
    config = cfg["config"]
    profiles = synth_profile(seed, config.n_consumers, flexible_range=cfg["flexible_range"])
    return cfg, config, build_dsm_game(profiles, config)


def test_batch_matches_single_solve_loop_on_fig9_grid():
    # 0.49999999999999994 on the grid, exact 0.5 added: numpy takes a scalar
    # ** 0.5 as sqrt; the EUT member and the grid's exact 1.0 must weight
    # with q itself
    cfg, config, game = dsm_fixture(42)
    assert cfg["alpha_grid"][-1] == 1.0
    alphas = [1.0, *cfg["alpha_grid"], 0.5]
    sets = [[PtProfile.weighting_only(float(a))] * config.n_consumers for a in alphas]
    batch = assert_same_as_reference(
        game, sets, alone=False, tol=cfg["tol"], max_iter=cfg["max_iter"]
    )
    assert len({r.iterations for r in batch}) > 5  # members left at many iterations


@pytest.mark.parametrize("seed", [42, 7])
def test_batch_matches_single_solve_loop_on_fig8_pair(seed):
    cfg, config, game = dsm_fixture(seed)
    assert set(config.alphas) == {0.5, 0.2, 0.1}
    sets = [[PtProfile.weighting_only(1.0)] * config.n_consumers, config.behaviors()]
    assert_same_as_reference(game, sets, tol=cfg["tol"], max_iter=cfg["max_iter"])


def test_batch_matches_single_solve_loop_at_max_iter():
    # 1.0, 0.65 and 0.5 leave at certified cycles, 0.3 at max_iter, and 0.1
    # converges
    game = FiniteGame(np.random.default_rng(0).uniform(-5.0, 5.0, size=(3, 2, 2, 2)))
    sets = [[PtProfile.weighting_only(a)] * 3 for a in (1.0, 0.65, 0.5, 0.3, 0.1)]
    sets.append([PtProfile.weighting_only(a) for a in (0.5, 1.0, 0.3)])
    batch = assert_same_as_reference(game, sets, max_iter=1500)
    assert [r.iterations for r in batch[:5]] == [1121, 1121, 1121, 1500, 345]
    assert [r.cycle_period for r in batch[:5]] == [14, 19, 25, None, None]
    assert not any(r.converged for r in batch[:4])


def test_batch_matches_single_solve_loop_past_a_cycle():
    # the first three members' argmax rows repeat with periods 19 (0.65), 25
    # (0.5) and 14 (1.0), which the search at iteration 1121 finds and the
    # certificate proves: each leaves there, with the state the reference
    # loop has at that iteration, alone as in the batch; 0.1 converges
    game = FiniteGame(np.random.default_rng(0).uniform(-5.0, 5.0, size=(3, 2, 2, 2)))
    sets = [[PtProfile.weighting_only(a)] * 3 for a in (0.65, 0.5, 1.0, 0.1)]
    batch = assert_same_as_reference(game, sets, max_iter=10_000)
    assert [(r.iterations, r.converged, r.cycle_period) for r in batch] == [
        (1121, False, 19), (1121, False, 25), (1121, False, 14), (345, True, None)
    ]


def test_batch_matches_single_solve_loop_to_tol_past_a_refused_period(cycle_certificates):
    # the member's argmax rows repeat with period 77 from before iteration
    # 1218, and its residual first reaches this tol at iteration 1376: the
    # certificate, tried at each search on the way, refuses the period
    game = FiniteGame(np.random.default_rng(3).uniform(-5.0, 5.0, size=(3, 2, 2, 2)))
    tol = float.fromhex("0x1.2d0bac13dff27p-3")
    (res,) = assert_same_as_reference(game, [[PtProfile.weighting_only(0.65)] * 3], alone=False,
                                      tol=tol, max_iter=1500)
    assert (res.iterations, res.converged, res.cycle_period) == (1376, True, None)
    assert 77 in {len(args[3]) for args, _ in cycle_certificates}
    assert not any(verdict for _, verdict in cycle_certificates)


def sweep_game(k):
    """Game k of the default_rng(7) sweep of 3- and 4-player games with 2 or
    3 actions, and its behaviors: one Prelec alpha for every player."""
    rng = np.random.default_rng(7)
    for _ in range(k + 1):
        n = rng.integers(3, 5)
        rng.integers(2, 4, size=n)
        payoffs = rng.uniform(-5.0, 5.0, (n,) + (rng.integers(2, 4),) * n)
        alpha = rng.uniform(0.3, 1.0)
    return FiniteGame(payoffs), [PtProfile.weighting_only(alpha)] * int(n)


def test_batch_matches_single_solve_loop_without_a_period(cycle_certificates):
    # 4 players, 3 actions: the hardened mixes repeat with period 626, more
    # than _CYCLE_STRIDE, and no argmax period up to it holds for long. Two
    # searches find a period of 18 that breaks soon after; the certificate
    # refuses it, and the member runs to max_iter
    game, behaviors = sweep_game(18)
    (res,) = assert_same_as_reference(game, [behaviors], alone=False, max_iter=3000)
    assert (res.iterations, res.converged, res.cycle_period) == (3000, False, None)
    assert [(len(args[3]), verdict) for args, verdict in cycle_certificates] == [(18, False)] * 2


def reference_argmax_rows(game, behaviors, mixes, count, tol):
    """The argmax codes of count hardened steps of the reference loop from
    mixes, one per step; the residual of every state on the way must exceed
    tol."""
    place = np.cumprod((1,) + game.action_counts[:-1])
    rows = []
    for _ in range(count):
        values = [single_solve_values(game, i, mixes, behaviors) for i in range(game.n_players)]
        assert max(float(v.max() - fold_dot(v, m)) for v, m in zip(values, mixes)) > tol
        tops = [int(np.argmax(v)) for v in values]
        rows.append(int(np.dot(place, tops)))
        mixes = [(1.0 - 0.1) * m + 0.1 * np.eye(len(m))[t] for m, t in zip(mixes, tops)]
    return np.array(rows)


@pytest.mark.parametrize("k, period", [(31, 33), (44, 167), (56, 478), (67, 214), (79, 322)])
def test_certified_sweep_members_keep_their_argmax_period(k, period):
    # the reference loop, run on from the state a certified member leaves
    # with, repeats the certified period's argmax rows and stays above tol
    game, behaviors = sweep_game(k)
    res = solve_fixed_point(game, behaviors, max_iter=3000)
    assert (res.converged, res.cycle_period) == (False, period)
    rows = reference_argmax_rows(game, behaviors, list(res.profile), 2000, 1e-9)
    assert (rows[period:] == rows[:-period]).all()


def test_argmax_periods_on_synthetic_code_rows():
    # member 0: 40 distinct rows, then period 7 with a run of five equal
    # rows; member 1: period 5 with a run of four, one row ahead from row
    # 1500 on. 3000 rows shift the window of 512 + 32 rows 93 times
    total = 3000
    rows = np.empty((total, 2), dtype=np.int64)
    rows[:40, 0] = np.random.default_rng(28).permutation(40) + 10
    rows[40:, 0] = np.resize([3, 3, 3, 3, 3, 1, 2], total - 40)
    rows[:, 1] = np.resize([0, 1, 1, 1, 1], total + 1)[np.arange(total) + (np.arange(total) >= 1500)]
    periods = _ArgmaxPeriods(2)
    # the periods after each search, by the rows added before it
    after = {n: tuple(periods.period.tolist()) for n, row in enumerate(rows, 1) if periods.add(row)}
    assert sorted(after) == list(range(32, total + 1, 32))
    # a period holds once the last max(p, 32) rows repeat it: period 5 from
    # 37 rows, period 7 from 40 + 39. Rows 62 and 63 are equal, but member 0
    # never takes period 1
    assert (after[32], after[64], after[96]) == ((0, 0), (0, 5), (7, 5))
    assert {period[0] for n, period in after.items() if n >= 96} == {7}
    # member 1's rows 1500 to 1504 break its period; the first search whose
    # lookback is past them finds it again, from the ages of its lags
    assert (after[1472], after[1504], after[1536], after[1568]) == ((7, 5), (7, 0), (7, 0), (7, 5))
    assert {period for n, period in after.items() if n >= 1568} == {(7, 5)}
    # a member's last period, oldest row first
    assert periods.last(0).tolist() == rows[-7:, 0].tolist()
    # member 1 dropped, member 0 keeps its period
    periods.keep(np.array([True, False]))
    more = np.resize([3, 3, 3, 3, 3, 1, 2], total + 700)[total - 40:total + 660, None]
    assert {tuple(periods.period.tolist()) for row in more if periods.add(row)} == {(7,)}


def reference_period(column, previous):
    """The period rule of _ArgmaxPeriods on one member's rows so far, written
    out: a lag p <= 512 fits when each of the last max(p, 32) rows equals
    the row p before it, a row before the first counting as a mismatch; the
    previous period stays while it fits, else the smallest lag that fits
    wins, 0 when none does."""
    n = len(column)

    def fits(p):
        look = max(p, 32)
        return n >= look + p and (column[n - look:] == column[n - look - p:n - p]).all()

    if previous and fits(previous):
        return previous
    return next((p for p in range(1, 513) if fits(p)), 0)


def test_argmax_periods_follow_the_reference_rule():
    # members 0 and 1: runs of random periods of 2 to 40, some with one
    # broken row; member 2: period 300; member 3: period 100, which repeats
    # at lag 20 but for one row per period, so whether it reads 20 or 100
    # depends on the period it holds. Member 1 is dropped after row 2000
    rng = np.random.default_rng(33)
    total = 4000
    rows = np.empty((total, 4), dtype=np.int64)
    for k in (0, 1):
        runs = []
        while sum(map(len, runs)) < total:
            run = np.resize(rng.integers(0, 6, rng.integers(2, 41)), rng.integers(60, 400))
            if rng.random() < 0.5:
                run[rng.integers(len(run))] += 6
            runs.append(run)
        rows[:, k] = np.concatenate(runs)[:total]
    rows[:, 2] = np.resize(rng.integers(0, 6, 300), total)
    rows[:, 3] = np.resize(rng.integers(0, 6, 20), total)
    rows[99::100, 3] += 6
    periods = _ArgmaxPeriods(4)
    members, want = np.arange(4), np.zeros(4, dtype=int)
    searches, kept = 0, set()
    for n, row in enumerate(rows, 1):
        if periods.add(row[members]):
            assert n % 32 == 0
            searches += 1
            for column in members:
                smallest = reference_period(rows[:n, column], 0)
                want[column] = reference_period(rows[:n, column], want[column])
                if want[column] != smallest:
                    kept.add(int(column))
            assert periods.period.tolist() == want[members].tolist()
            for k, column in enumerate(members):
                if want[column]:
                    assert periods.last(k).tolist() == rows[n - want[column]:n, column].tolist()
        if n == 2000:
            periods.keep(members != 1)
            members = members[members != 1]
    assert searches == total // 32
    # members 2 and 3 end on their periods, and the kept rule decided member 3's
    assert want[2:].tolist() == [300, 100] and 3 in kept


def bank_game(k):
    """Game k of the benchmark's 3-player bank and its alpha, drawn as its
    workload draws them: payoffs then alpha from one default_rng(0)."""
    bank = np.random.default_rng(0)
    for _ in range(k + 1):
        payoffs, alpha = bank.uniform(-5.0, 5.0, size=(3, 2, 2, 2)), float(bank.uniform(0.3, 1.0))
    return FiniteGame(payoffs), [PtProfile.weighting_only(alpha)] * 3


def test_bank_game_0_leaves_at_a_certified_cycle_of_period_18(joint_prob_calls, cycle_certificates):
    # the search at iteration 1121 finds period 18 and the certificate
    # proves it: the solve leaves there, with the reference loop's state,
    # and makes no kernel pass past it
    game, behaviors = bank_game(0)
    res = solve_fixed_point(game, behaviors)
    assert (res.iterations, res.converged, res.cycle_period) == (1121, False, 18)
    assert len(joint_prob_calls) < 1200
    iterations, residual, converged, mixes = reference_solve(game, behaviors, max_iter=res.iterations)
    assert (res.iterations, res.residual, res.converged) == (iterations, residual, converged)
    assert [m.tobytes() for m in res.profile] == [m.tobytes() for m in mixes]
    # the same period with one player's argmax flipped in any one phase is
    # refused
    (args, verdict), = [c for c in cycle_certificates if c[1]]
    game, behaviors, state, codes, tol = args
    for s, place in itertools.product(range(18), (1, 2, 4)):
        flipped = codes.copy()
        flipped[s] ^= place
        assert not _certified_cycle(game, behaviors, state, flipped, tol), (s, place)


def test_custom_games_bank_solves_like_reference_loop():
    # the benchmark's 3-player bank as its workload draws it, payoffs then
    # alpha from one default_rng(0); the first solve leaves at a certified
    # cycle, the others converge
    bank = np.random.default_rng(0)
    cases = [(bank.uniform(-5.0, 5.0, size=(3, 2, 2, 2)), bank.uniform(0.3, 1.0)) for _ in range(3)]
    solved = [
        assert_same_as_reference(FiniteGame(payoffs), [[PtProfile.weighting_only(float(alpha))] * 3])[0]
        for payoffs, alpha in cases
    ]
    assert [r.iterations for r in solved] == [1121, 316, 325]
    assert [r.converged for r in solved] == [False, True, True]
    assert [r.cycle_period for r in solved] == [18, None, None]


def box_points(rng, lo, hi, count):
    """Every corner of the box [lo, hi] of one (A,) vector per player, then
    count seeded points inside it: one (N, A) array per player."""
    coords = np.concatenate(lo), np.concatenate(hi)
    corners = np.array([np.where(pick, coords[1], coords[0])
                        for pick in itertools.product((False, True), repeat=len(coords[0]))])
    inside = coords[0] + rng.random((count, len(coords[0]))) * (coords[1] - coords[0])
    points = np.concatenate([corners, inside])
    return np.split(points, np.cumsum([len(m) for m in lo])[:-1], axis=1)


@pytest.mark.parametrize("alpha", [1.0, 0.65, 0.3])
@pytest.mark.parametrize("frame", FRAMES)
def test_gap_bounds_hold_over_the_box(alpha, frame):
    # each bound is at most the gap the value kernel computes at every
    # corner of the box and at 200 points inside it, and it is close to the
    # gap on a box of one point
    rng = np.random.default_rng(31)
    game = FiniteGame(rng.uniform(-5.0, 5.0, size=(3, 3, 2, 2)))
    behavior = PtProfile(PrelecWeighting(alpha), frame)
    ends = [np.sort(rng.dirichlet(np.ones(a), size=2), axis=0) for a in game.action_counts]
    lo, hi = [e[0] for e in ends], [e[1] for e in ends]
    for player in range(3):
        # the player's own vector is not read: zeros leave the corners to
        # the opponents
        own = np.zeros(game.action_counts[player])
        points = box_points(rng, [own if j == player else m for j, m in enumerate(lo)],
                            [own if j == player else m for j, m in enumerate(hi)], 200)
        values = _values(game, player, points, behavior)
        gaps = values[:, :, None] - values[:, None, :]
        assert (gaps >= _gap_bounds(game, player, lo, hi, behavior)).all()
        point = [p[-1] for p in points]
        assert np.abs(_gap_bounds(game, player, point, point, behavior) - gaps[-1]).max() < 1e-6


def test_gap_bound_on_an_exact_tie_is_negative():
    # player 0's two actions pay the same against every opponent action, so
    # v(0) - v(1) is exactly 0 at every profile: only a bound below 0 leaves
    # room for the rounding of the values
    rng = np.random.default_rng(32)
    payoffs = rng.uniform(-5.0, 5.0, size=(3, 2, 2, 2))
    payoffs[0, 1] = payoffs[0, 0]
    game = FiniteGame(payoffs)
    mixes = [rng.dirichlet(np.ones(2)) for _ in range(3)]
    for alpha in (1.0, 0.65, 0.3):
        bound = _gap_bounds(game, 0, mixes, mixes, PtProfile.weighting_only(alpha))
        assert bound[0, 1] < 0.0 and bound[1, 0] < 0.0


def test_batch_matches_single_solve_loop_in_hardened_phase_with_3_actions():
    # the schedule's temperature falls below temp_floor after iteration 1057;
    # from there each player's target is a row of its own 3x3 identity
    game = FiniteGame(np.random.default_rng(15).uniform(-5.0, 5.0, size=(2, 3, 3)))
    sets = [[PtProfile.weighting_only(a)] * 2 for a in (1.0, 0.65, 0.4, 0.2)]
    batch = assert_same_as_reference(game, sets, max_iter=1200)
    assert [r.iterations for r in batch] == [939, 939, 947, 1150]
    assert all(r.converged for r in batch)


def test_batch_members_leave_at_different_iterations():
    rng = np.random.default_rng(12)
    game = FiniteGame(rng.uniform(-5.0, 5.0, size=(2, 3, 3)))
    sets = [[PtProfile(PrelecWeighting(a), FRAMES[1])] * 2 for a in (0.65, 1.0, 0.5, 0.2, 0.1)]
    batch = assert_same_as_reference(game, sets)
    assert len({r.iterations for r in batch}) == 4


@pytest.mark.parametrize(
    "seed, counts, iterations",
    [
        # every player faces another sequence of opponent counts: three
        # blocks of one player
        (7, (2, 3, 2), [1200, 1200, 402, 383, 403, 1096, 403, 1200]),
        # players 0, 1 and players 2, 3 form two blocks of two
        (3, (2, 2, 3, 3), [436, 437, 441, 426, 1200, 441, 1200, 422]),
    ],
)
def test_batch_matches_single_solve_loop_with_unequal_action_counts(seed, counts, iterations):
    n = len(counts)
    game = FiniteGame(np.random.default_rng(seed).uniform(-5.0, 5.0, size=(n, *counts)))
    sets = [[PtProfile.weighting_only(a)] * n for a in (1.0, 0.65, 0.5, 0.3)]
    # each player's rows mix alphas, 0.5 and 1 among them
    cycle = (0.5, 1.0, 0.3, 0.65)
    sets += [[PtProfile.weighting_only(cycle[(i + k) % 4]) for i in range(n)] for k in range(4)]
    # past iteration 1058, so the members still running take argmax steps
    batch = assert_same_as_reference(game, sets, max_iter=1200)
    assert [r.iterations for r in batch] == iterations


def test_batch_rejects_frames_that_differ():
    sets = [[PtProfile.eut()] * 2, [PtProfile.behavioral(alpha=1.0)] * 2]
    with pytest.raises(ValueError, match="frame"):
        solve_fixed_point_batch(MATCHING_PENNIES, sets)
    with pytest.raises(ValueError):
        solve_fixed_point_batch(MATCHING_PENNIES, [[PtProfile.eut()]])
    with pytest.raises(ValueError):
        solve_fixed_point_batch(MATCHING_PENNIES, [])
    bad_limits = (("max_iter", -1), ("max_iter", True), ("max_iter", False),
                  ("tol", -1e-9), ("tol", float("nan")), ("tol", float("inf")),
                  ("tol", True), ("tol", "1e-9"))
    for name, bad in bad_limits:
        with pytest.raises(ValueError, match=name):
            solve_fixed_point_batch(MATCHING_PENNIES, [eut_behaviors(2)], **{name: bad})


def test_batch_solves_equal_sets_once(loop_runs):
    a, b = [PtProfile.weighting_only(0.6)] * 2, [PtProfile.weighting_only(1.0)] * 2
    batch = solve_fixed_point_batch(MATCHING_PENNIES, [a, b, list(a), a, b])
    assert loop_runs == [2]  # a and b
    assert batch[2] is batch[0] and batch[3] is batch[0] and batch[4] is batch[1]
    for behaviors, res in zip([a, b], batch):
        alone = solve_fixed_point(MATCHING_PENNIES, behaviors)
        assert (alone.iterations, alone.residual) == (res.iterations, res.residual)
        assert [m.tobytes() for m in alone.profile] == [m.tobytes() for m in res.profile]


def test_prefetched_solves_serve_matching_solves_in_the_block(loop_runs):
    game = random_game(np.random.default_rng(5), 2)
    sets = [[PtProfile.weighting_only(a)] * 2 for a in (1.0, 0.5)]
    with _prefetched_solves(game, sets, tol=1e-8):
        assert loop_runs == [2]
        served = solve_fixed_point(game, [PtProfile.weighting_only(0.5)] * 2, tol=1e-8)
        assert solve_fixed_point(game, sets[1], tol=1e-8) is served
        assert loop_runs == [2]
        # another tolerance or iteration cap is another solve
        assert solve_fixed_point(game, sets[1], tol=1e-9) is not served
        assert solve_fixed_point(game, sets[1], tol=1e-8, max_iter=500) is not served
        assert loop_runs == [2, 1, 1]
    again = solve_fixed_point(game, sets[1], tol=1e-8)
    assert loop_runs == [2, 1, 1, 1]
    assert (again.iterations, again.residual) == (served.iterations, served.residual)
    assert [m.tobytes() for m in again.profile] == [m.tobytes() for m in served.profile]


# ---------------------------------------------------------------------------
# brute force oracle


def test_brute_force_matching_pennies():
    profiles = brute_force_equilibrium(MATCHING_PENNIES, grid=100)
    assert any(
        np.all(np.abs(p[0] - 0.5) <= 0.01) and np.all(np.abs(p[1] - 0.5) <= 0.01)
        for p in profiles
    )


def test_brute_force_dominance():
    profiles = brute_force_equilibrium(PRISONERS_DILEMMA, grid=50)
    assert any(
        np.allclose(p[0], [0.0, 1.0]) and np.allclose(p[1], [0.0, 1.0])
        for p in profiles
    )


@pytest.mark.parametrize("grid", [0, -1])
def test_brute_force_rejects_grid_below_one(grid):
    with pytest.raises(ValueError, match="grid must be a positive integer"):
        brute_force_equilibrium(MATCHING_PENNIES, grid=grid)


def test_solver_counts_must_be_integers():
    # a float count would pass a bound check alone, then raise TypeError
    # from range() or math.comb
    with pytest.raises(ValueError, match="max_iter must be a non-negative integer"):
        solve_fixed_point(MATCHING_PENNIES, max_iter=10.5)
    with pytest.raises(ValueError, match="grid must be a positive integer"):
        brute_force_equilibrium(MATCHING_PENNIES, grid=2.5)
    # bools are Integral, but no count
    for flag in (True, False):
        with pytest.raises(ValueError, match="max_iter must be a non-negative integer"):
            solve_fixed_point(MATCHING_PENNIES, max_iter=flag)
        with pytest.raises(ValueError, match="grid must be a positive integer"):
            brute_force_equilibrium(MATCHING_PENNIES, grid=flag)
    # numpy integers are counts
    assert solve_fixed_point(PRISONERS_DILEMMA, max_iter=np.int64(3), tol=1e-12).iterations == 3
    by_int = brute_force_equilibrium(MATCHING_PENNIES, grid=4)
    by_numpy = brute_force_equilibrium(MATCHING_PENNIES, grid=np.int64(4))
    assert [[m.tolist() for m in p] for p in by_numpy] == [[m.tolist() for m in p] for p in by_int]


def test_brute_force_budget():
    rng = np.random.default_rng(10)
    game = random_game(rng, 3)
    with pytest.raises(BudgetExceededError):
        brute_force_equilibrium(game, grid=200)


def test_solver_vs_oracle_on_random_2x2():
    # the acceptance suite runs the full 20-game version at grid=200;
    # here a faster smoke version guards the invariant during development
    rng = np.random.default_rng(12)
    for _ in range(5):
        game = random_game(rng, 2)
        if game.action_counts != (2, 2):
            game = FiniteGame(rng.uniform(-5, 5, size=(2, 2, 2)))
        behaviors = [
            PtProfile.weighting_only(float(rng.uniform(0.2, 1.0))) for _ in range(2)
        ]
        solved = solve_2x2(game, behaviors)
        oracle = brute_force_equilibrium(game, behaviors, grid=100)
        for res in solved:
            assert res.residual <= 1e-9
            dist = min(
                max(
                    np.max(np.abs(res.profile[i] - cand[i])) for i in range(2)
                )
                for cand in oracle
            )
            assert dist <= 0.02


def enumerated_simplex_grid(n_actions, grid):
    """The simplex grid built one unit at a time, in the order of
    combinations_with_replacement: the oracle's row-order contract."""
    out = []
    for comp in itertools.combinations_with_replacement(range(n_actions), grid):
        v = np.zeros(n_actions)
        for c in comp:
            v[c] += 1.0
        out.append(v / grid)
    return np.array(out)


@pytest.mark.parametrize(
    "n_actions, grids",
    [(a, range(1, 31)) for a in (2, 3, 4, 5)] + [(2, [200]), (3, [100])],
)
def test_simplex_grid_matches_enumeration(n_actions, grids):
    for grid in grids:
        built, expected = _simplex_grid(n_actions, grid), enumerated_simplex_grid(n_actions, grid)
        assert built.shape == expected.shape and built.dtype == expected.dtype
        assert np.array_equal(built, expected)
        assert built.tobytes() == expected.tobytes()  # same bytes in the same row order


def neighbour_minima(residual):
    """Mask of the cells no larger than any axis neighbour, one cell and one
    neighbour at a time: the full-surface rule the oracle's filter keeps."""
    shape = residual.shape
    mask = np.ones(shape, dtype=bool)
    for idx in np.ndindex(*shape):
        for axis in range(len(shape)):
            for step in (-1, 1):
                k = idx[axis] + step
                if 0 <= k < shape[axis]:
                    other = idx[:axis] + (k,) + idx[axis + 1:]
                    mask[idx] &= bool(residual[idx] <= residual[other])
    return mask


def reference_oracle(game, behaviors, grid):
    """The oracle's search written as a plain loop: the residual of every
    grid profile, then the same local-minimum and slack filter."""
    grids = [enumerated_simplex_grid(a, grid) for a in game.action_counts]
    residual = np.empty([g.shape[0] for g in grids])
    for idx in np.ndindex(*residual.shape):
        prof = MixedProfile([g[i] for g, i in zip(grids, idx)])
        residual[idx] = equilibrium_residual(game, prof, behaviors)
    keep = neighbour_minima(residual) & (residual <= _grid_slack(game, grid))
    return [[g[i] for g, i in zip(grids, idx)] for idx in zip(*np.nonzero(keep))]


@pytest.mark.parametrize("counts, grid", [((2, 2, 2), 12), ((3, 3), 8)])
def test_brute_force_matches_reference_loop(counts, grid):
    rng = np.random.default_rng(15)
    for _ in range(3):
        game = FiniteGame(rng.uniform(-5.0, 5.0, size=(len(counts), *counts)))
        behaviors = [
            PtProfile.weighting_only(float(rng.uniform(0.3, 1.0))) for _ in counts
        ]
        found = brute_force_equilibrium(game, behaviors, grid=grid)
        expected = reference_oracle(game, behaviors, grid)
        assert found
        assert len(found) == len(expected)
        for prof, ref in zip(found, expected):
            assert_adopted(prof)
            for m, r in zip(prof, ref):
                np.testing.assert_array_equal(m, r)


def assert_same_cells(found, mask):
    expected = np.nonzero(mask)  # row-major
    assert len(found) == len(expected)
    for f, e in zip(found, expected):
        assert f.dtype == e.dtype and np.array_equal(f, e)


@pytest.mark.parametrize("shape", [(1,), (7,), (5, 6), (1, 6), (4, 1, 5), (3, 4, 5)])
def test_local_minima_matches_neighbour_loop(shape):
    # the oracle's filter against the full-surface rule: small integers, so
    # that neighbours tie, NaN cells and neighbours, and slacks that keep no
    # cell, some cells or all of them
    rng = np.random.default_rng(16)
    for nan_share in (0.0, 0.0, 0.15, 0.15, 0.3):
        residual = rng.integers(0, 4, size=shape).astype(float)
        residual[rng.random(shape) < nan_share] = np.nan
        minima = neighbour_minima(residual)
        for slack in (-1.0, 0.0, 1.0, 2.5, 3.0, math.inf):
            assert_same_cells(_slack_minima(residual, slack), minima & (residual <= slack))
    # a transposed surface is read in its own row-major order
    residual = residual.T
    assert_same_cells(_slack_minima(residual, 3.0), neighbour_minima(residual) & (residual <= 3.0))


def full_surface_oracle(game, behaviors, grid):
    """The oracle with every cell a candidate: _residual over the broadcast
    grids, then _slack_minima. Returns its profiles, the residual surface,
    the players' action values and each player's gap surface."""
    n = game.n_players
    grids = [_simplex_grid(a, grid) for a in game.action_counts]
    mixes = [
        g.reshape((1,) * j + g.shape[:1] + (1,) * (n - 1 - j) + g.shape[1:])
        for j, g in enumerate(grids)
    ]
    values = [pure_action_values(game, i, mixes, behaviors) for i in range(n)]
    residual = _residual(zip(values, mixes))
    at = _slack_minima(residual, _grid_slack(game, grid))
    profiles = [[g[i] for g, i in zip(grids, idx)] for idx in zip(*at)]
    return profiles, residual, values, [_residual([(v, m)]) for v, m in zip(values, mixes)]


def assert_candidate_rule_sound(game, behaviors, grid):
    """brute_force_equilibrium returns the full-surface oracle's profiles,
    as bytes, and every cell the candidate rule drops has a finite
    full-surface residual above slack, with some two-action player's gap
    above slack by more than two of its grid steps d / grid."""
    # near the float range the values and gaps overflow, with warnings, on
    # both paths; the slack does not (test_grid_slack_near_the_float_range)
    with np.errstate(over="ignore", invalid="ignore"):
        expected, residual, values, gaps = full_surface_oracle(game, behaviors, grid)
        found = brute_force_equilibrium(game, behaviors, grid=grid)
    slack = _grid_slack(game, grid)
    assert [[m.tobytes() for m in p] for p in found] == [[m.tobytes() for m in p] for p in expected]
    dropped = np.ones(residual.shape, dtype=bool)
    for cells, _ in _grid_candidates(values, grid, slack, list(residual.shape)):
        dropped[cells] = False
    if not dropped.any():  # as when the values overflow
        return 0
    assert np.isfinite(residual[dropped]).all() and (residual[dropped] > slack).all()
    margin = np.zeros(residual.shape, dtype=bool)
    for v, gap in zip(values, gaps):
        if v.shape[-1] == 2:
            margin |= gap > slack + 2.0 * np.abs(v[..., 0] - v[..., 1]) / grid
    assert margin[dropped].all()
    return dropped.sum()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_candidate_rule_on_random_2x2_and_3_player_games(seed):
    # the benchmark's games: an input set's 160 2x2 games at grid 200, and
    # the fixed bank of three 3-player, 2-action games at grid 20
    rng, bank = np.random.default_rng(seed), np.random.default_rng(0)
    cases = [(rng.uniform(-5.0, 5.0, size=(2, 2, 2)), rng.uniform(0.2, 1.0), 200) for _ in range(160)]
    cases += [(bank.uniform(-5.0, 5.0, size=(3, 2, 2, 2)), bank.uniform(0.3, 1.0), 20) for _ in range(3)]
    for payoffs, alpha, grid in cases:
        behaviors = [PtProfile.weighting_only(float(alpha))] * len(payoffs)
        assert assert_candidate_rule_sound(FiniteGame(payoffs), behaviors, grid)


def test_candidate_rule_across_payoff_scales_and_grids():
    rng = np.random.default_rng(24)
    base = [rng.uniform(-5.0, 5.0, size=(2, 2, 2)) for _ in range(2)]
    for payoffs in base:
        for k in range(-60, 61, 12):
            behaviors = [PtProfile.weighting_only(0.5), PtProfile.weighting_only(0.8)]
            assert_candidate_rule_sound(FiniteGame(np.ldexp(payoffs, k)), behaviors, 200)
        for grid in (1, 2, 7, 1000):
            assert_candidate_rule_sound(FiniteGame(payoffs), [PtProfile.weighting_only(0.6)] * 2, grid)
    # a large common offset: the values' rounding error, about 2 eps *
    # 2**49, is many grid steps d / grid where the players nearly tie
    for _ in range(3):
        offset = 2.0**48 + rng.integers(-3, 4, size=(2, 2, 2))
        for alpha, grid in ((0.3, 200), (0.6, 1000), (1.0, 1000)):
            assert_candidate_rule_sound(FiniteGame(offset), [PtProfile.weighting_only(alpha)] * 2, grid)


def test_candidate_rule_near_the_float_range():
    # below 2**1000 the bound applies; near 1e308 the values overflow, every
    # cell is a candidate, and the NaN cells rule out their neighbours
    rng = np.random.default_rng(25)
    for scale in (1e300, -1e300, 1.79e308, -1.79e308):
        for low in (-1.0, 0.5, 0.99):
            payoffs = rng.uniform(low, 1.0, size=(2, 2, 2)) * scale
            for alpha in (0.3, 0.6, 1.0):
                assert_candidate_rule_sound(FiniteGame(payoffs), [PtProfile.weighting_only(alpha)] * 2, 50)


def test_grid_slack_near_the_float_range():
    # payoffs spanning the whole float range: no overflow warning, which the
    # suite raises, a finite slack from grid 4 on and inf below it
    top = float(np.finfo(float).max)
    for hi, lo in ((top, -top), (1.79e308, -1.79e308), (top, 0.0)):
        game = FiniteGame(np.array([[[hi, lo], [lo, hi]]] * 2))
        for grid in (4, 5, 50, 1000):
            assert math.isfinite(_grid_slack(game, grid))
        if hi - lo == math.inf:
            assert [_grid_slack(game, grid) for grid in (1, 2, 3)] == [math.inf] * 3
    # elsewhere the bits of the direct formula, max(span, 1) * 2 / grid
    rng = np.random.default_rng(27)
    for _ in range(2000):
        hi, lo = np.sort(rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.integers(-6, 300, 2))[::-1]
        grid = int(rng.integers(1, 2000))
        game = FiniteGame(np.array([[[hi, lo], [lo, hi]]] * 2))
        assert _grid_slack(game, grid) == max(float(hi - lo), 1.0) * 2.0 / grid


def test_candidate_rule_on_ties_frames_and_mixed_action_counts():
    rng = np.random.default_rng(26)
    for _ in range(4):
        # integer payoffs tie often; player 1's are constant, so its d is 0
        payoffs = rng.integers(-2, 3, size=(2, 2, 2)).astype(float)
        assert_candidate_rule_sound(FiniteGame(payoffs), [PtProfile.weighting_only(0.5)] * 2, 200)
        payoffs[1] = 3.0
        assert_candidate_rule_sound(FiniteGame(payoffs), [PtProfile.eut()] * 2, 200)
    for alpha in (0.1, 0.4, 0.7, 1.0):
        game = FiniteGame(rng.uniform(-5.0, 5.0, size=(2, 2, 2)))
        assert_candidate_rule_sound(game, [PtProfile.behavioral(alpha=alpha)] * 2, 200)
    for counts, grids in (((2, 2, 2), (1, 2, 7)), ((2, 3), (1, 2, 7, 50))):
        for grid in grids:
            game = FiniteGame(rng.uniform(-5.0, 5.0, size=(len(counts), *counts)))
            behaviors = [PtProfile.weighting_only(float(rng.uniform(0.1, 1.0))) for _ in counts]
            assert_candidate_rule_sound(game, behaviors, grid)


def assert_candidates_are_the_run_rule(game, behaviors, grid):
    """_grid_candidates yields each cell at most once, and yields exactly
    the cells at which every bounded two-action player's worse-action count
    c meets c <= floor(x) + 2, x = G (slack + E) / d, E = 16 eps (2 w +
    slack) with w the largest |v| of any player, as its docstring states;
    when any value is NaN, infinite or at least 2**1000, no player is
    bounded and every cell is yielded. Returns the number of cells."""
    n = game.n_players
    grids = [_simplex_grid(a, grid) for a in game.action_counts]
    mixes = [
        g.reshape((1,) * j + g.shape[:1] + (1,) * (n - 1 - j) + g.shape[1:])
        for j, g in enumerate(grids)
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        values = [pure_action_values(game, i, mixes, behaviors) for i in range(n)]
    slack = _grid_slack(game, grid)
    shape = tuple(len(g) for g in grids)
    yielded = np.zeros(shape, dtype=np.intp)
    for cells, _ in _grid_candidates(values, grid, slack, list(shape)):
        np.add.at(yielded, cells, 1)
    expected = np.ones(shape, dtype=bool)
    w = np.max([np.abs(v).max() for v in values])  # NaN if any value is
    if w < 2.0**1000:
        eps = np.finfo(float).eps
        for i, v in enumerate(values):
            if v.shape[-1] != 2:
                continue
            k = np.arange(grid + 1).reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
            c = np.where(v[..., 0] >= v[..., 1], k, grid - k)
            with np.errstate(divide="ignore", over="ignore"):
                x = grid * (slack + 16 * eps * (2 * w + slack)) / np.abs(v[..., 0] - v[..., 1])
            expected &= c <= np.floor(x) + 2
    assert yielded.max() <= 1
    np.testing.assert_array_equal(yielded.astype(bool), expected)
    return int(expected.sum())


def test_candidates_are_exactly_the_run_rule():
    # the benchmark's games: seed 1's 160 2x2 games at grid 200 and the bank
    # of three 3-player games at grid 20; then small and large grids, a
    # three-action player, who keeps every row, and values past 2**1000,
    # where every cell is a candidate
    rng, bank = np.random.default_rng(1), np.random.default_rng(0)
    cases = [(rng.uniform(-5.0, 5.0, size=(2, 2, 2)), rng.uniform(0.2, 1.0), 200) for _ in range(160)]
    cases += [(bank.uniform(-5.0, 5.0, size=(3, 2, 2, 2)), bank.uniform(0.3, 1.0), 20) for _ in range(3)]
    for payoffs, alpha, grid in cases:
        behaviors = [PtProfile.weighting_only(float(alpha))] * len(payoffs)
        cells = assert_candidates_are_the_run_rule(FiniteGame(payoffs), behaviors, grid)
        assert 0 < cells < (grid + 1) ** len(payoffs)
    payoffs = np.random.default_rng(28).uniform(-5.0, 5.0, size=(2, 2, 2))
    for grid in (1, 2, 7, 1000):
        assert_candidates_are_the_run_rule(FiniteGame(payoffs), [PtProfile.weighting_only(0.6)] * 2, grid)
    game = FiniteGame(np.random.default_rng(29).uniform(-5.0, 5.0, size=(2, 2, 3)))
    assert_candidates_are_the_run_rule(game, [PtProfile.weighting_only(0.7)] * 2, 50)
    huge = FiniteGame(payoffs * 2.0**1000)
    assert assert_candidates_are_the_run_rule(huge, [PtProfile.eut()] * 2, 50) == 51 * 51
    # subnormal payoffs: slack over a subnormal d overflows to inf, without
    # a warning, and every row of the player is a candidate
    tiny = FiniteGame(payoffs * 1e-310)
    assert assert_candidates_are_the_run_rule(tiny, [PtProfile.eut()] * 2, 20) == 21 * 21


# ---------------------------------------------------------------------------
# text format


def test_boundary_layer_equilibrium_certified_by_residual():
    # under strong weighting (alpha ~ 0.34) the weight curve is nearly flat,
    # so indifference can pin a mixing probability of order 1e-4; the grid
    # oracle cannot resolve that boundary layer at any practical resolution,
    # but the residual certificate still verifies the solved point
    rng = np.random.default_rng(2024)
    game = FiniteGame(rng.uniform(-5.0, 5.0, size=(2, 2, 2)))
    behaviors = [
        PtProfile.weighting_only(float(rng.uniform(0.2, 1.0))) for _ in range(2)
    ]
    results = solve_2x2(game, behaviors)
    extreme = [
        r for r in results if any(np.min(m) < 1e-3 and np.min(m) > 0 for m in r.profile)
    ]
    assert extreme, "expected a boundary-layer mixed equilibrium"
    for r in extreme:
        assert r.residual <= 1e-9
        assert equilibrium_residual(game, r.profile, behaviors) <= 1e-9


def test_format_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(5):
        game = random_game(rng)
        text = format_game(game)
        back = parse_game(text)
        assert back.action_counts == game.action_counts
        np.testing.assert_array_equal(back.payoffs, game.payoffs)


def test_format_is_documented_layout():
    text = format_game(MATCHING_PENNIES)
    lines = text.strip().splitlines()
    assert lines[0] == "players 2"
    assert lines[1] == "actions 2 2"
    assert len(lines) == 2 + 4
    assert lines[2].split() == ["1", "-1"]  # joint action (0, 0)


def test_parse_errors():
    with pytest.raises(GameFormatError):
        parse_game("players 2\nactions 2 2\n1 1\n")  # wrong line count
    with pytest.raises(GameFormatError):
        parse_game("actors 2\nactions 2 2\n" + "0 0\n" * 4)
    with pytest.raises(GameFormatError):
        parse_game("players 2\nactions 2\n" + "0 0\n" * 4)
    with pytest.raises(GameFormatError):
        parse_game("players 2\nactions 2 2\n" + "0 x\n" * 4)


def test_parse_counts_lines_before_allocating():
    # one payoff line for a million joint actions used to build every joint
    # action tuple first (3.3 s and 61 MiB)
    tracemalloc.start()
    try:
        with pytest.raises(GameFormatError, match="1000000 payoff lines, found 1"):
            parse_game("players 2\nactions 1000 1000\n1 -1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "text, word",
    [
        ("players 2\nactions 2 2\n1 -1\n-1 nan\n-1 1\n1 -1\n", "finite"),
        ("players 1\nactions 2\n1\n-1\n", "n_players >= 2"),
        ("players 2\nactions 1 2\n1 -1\n-1 1\n", "at least 2 actions"),
        ("players 2\nactions -2 -2\n" + "1 -1\n" * 4, "positive"),
    ],
)
def test_parse_maps_game_errors(text, word):
    with pytest.raises(GameFormatError, match=word):
        parse_game(text)


def test_parsed_payoffs_are_c_contiguous():
    # the layout of the payoffs picks the BLAS path of the value memos
    game = parse_game(format_game(random_game(np.random.default_rng(3))))
    assert game.payoffs.flags.c_contiguous


def test_parse_ignores_comments_and_blanks():
    text = "# a game\nplayers 2\n\nactions 2 2\n1 -1\n-1 1\n-1 1\n1 -1\n"
    game = parse_game(text)
    np.testing.assert_array_equal(game.payoffs, MATCHING_PENNIES.payoffs)
