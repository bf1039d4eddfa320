import itertools
import math
import tracemalloc

import numpy as np
import pytest

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
from ptgrid.fixtures import dsm_config_path
from ptgrid.formats import load_dsm_config
from ptgrid.games import (
    _framed_payoffs,
    _grid_slack,
    _indifference_prob,
    _joint_prob,
    _local_minima,
    _mat_vec,
    _prefetched_solves,
    _residual,
    _simplex_grid,
)
from ptgrid.prospects import (
    PrelecWeighting,
    PtProfile,
    ValueFrame,
    _weights,
    frame_value,
    prelec_weight,
)

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
                assert np.array_equal(pure_action_values(game, i, batch, behaviors), expected)


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
    for bad in (float("inf"), float("nan"), -1e-9):
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
    np.testing.assert_allclose(res.profile[0], [0.0, 1.0], atol=1e-6)
    np.testing.assert_allclose(res.profile[1], [0.0, 1.0], atol=1e-6)
    assert res.residual <= 1e-9


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
    """(values, mix) pairs in the shapes _residual's callers pass: one
    profile, a (C, A) batch of candidates, a (P, K, A) block and the 2- and
    3-player oracle surfaces, with some values and probabilities exactly 0."""

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

    return [
        [(values((a,)), mixes((a,))) for _ in range(3)],
        [(values((5, a)), mixes((5, a))) for _ in range(2)],
        [(values((3, 4, a)), mixes((3, 4, a)))],
        surface(2, 6),
        surface(3, 4),
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
    converged flag and profile bytes."""
    batch = solve_fixed_point_batch(game, behavior_sets, **kw)
    for behaviors, res in zip(behavior_sets, batch):
        iterations, residual, converged, mixes = reference_solve(game, behaviors, **kw)
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
    game = FiniteGame(np.random.default_rng(0).uniform(-5.0, 5.0, size=(3, 2, 2, 2)))
    sets = [[PtProfile.weighting_only(a)] * 3 for a in (1.0, 0.65, 0.5, 0.3, 0.1)]
    sets.append([PtProfile.weighting_only(a) for a in (0.5, 1.0, 0.3)])
    batch = assert_same_as_reference(game, sets, max_iter=1500)
    assert [r.iterations for r in batch[:5]] == [1500, 1500, 1500, 1500, 345]
    assert not any(r.converged for r in batch[:4])


def test_batch_matches_single_solve_loop_past_a_cycle(joint_prob_calls):
    # the first three members' hardened mixes repeat bit for bit (0.65 from
    # iteration 7160 with period 18), so each leaves at the iteration whose
    # state is the one at max_iter; 0.65 and 1.0 leave while 0.5 still runs,
    # which prunes the snapshot's rows, and 0.1 converges at 345
    game = FiniteGame(np.random.default_rng(0).uniform(-5.0, 5.0, size=(3, 2, 2, 2)))
    sets = [[PtProfile.weighting_only(a)] * 3 for a in (0.65, 0.5, 1.0, 0.1)]
    batch = assert_same_as_reference(game, sets, alone=False, max_iter=10_000)
    assert [r.iterations for r in batch] == [10_000] * 3 + [345]
    assert [r.converged for r in batch] == [False] * 3 + [True]
    assert len(joint_prob_calls) < 8000  # the reference loop does not call the kernel
    # the finish iteration is each member's own: 0.65 alone at another
    # residue of its period
    joint_prob_calls.clear()
    (alone,) = assert_same_as_reference(game, sets[:1], alone=False, max_iter=9_999)
    assert (alone.iterations, alone.converged) == (9_999, False)
    assert len(joint_prob_calls) < 8000


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
    bad_limits = (("max_iter", -1), ("tol", -1e-9), ("tol", float("nan")), ("tol", float("inf")))
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


def test_prefetched_solves_serve_matching_default_start_solves_in_the_block(loop_runs):
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


def reference_oracle(game, behaviors, grid):
    """The oracle's search written as a plain loop: the residual of every
    grid profile, then the same local-minimum and slack filter."""
    grids = [enumerated_simplex_grid(a, grid) for a in game.action_counts]
    residual = np.empty([g.shape[0] for g in grids])
    for idx in np.ndindex(*residual.shape):
        prof = MixedProfile([g[i] for g, i in zip(grids, idx)])
        residual[idx] = equilibrium_residual(game, prof, behaviors)
    keep = _local_minima(residual) & (residual <= _grid_slack(game, grid))
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
            for m, r in zip(prof, ref):
                np.testing.assert_array_equal(m, r)


@pytest.mark.parametrize("shape", [(1,), (7,), (5, 6), (1, 6), (4, 1, 5), (3, 4, 5)])
def test_local_minima_matches_neighbour_loop(shape):
    # small integers, so that neighbours tie
    rng = np.random.default_rng(16)
    for _ in range(5):
        residual = rng.integers(0, 3, size=shape).astype(float)
        expected = np.ones(shape, dtype=bool)
        for idx in np.ndindex(*shape):
            for axis in range(len(shape)):
                for step in (-1, 1):
                    k = idx[axis] + step
                    if 0 <= k < shape[axis]:
                        other = idx[:axis] + (k,) + idx[axis + 1:]
                        expected[idx] &= bool(residual[idx] <= residual[other])
        assert np.array_equal(_local_minima(residual), expected)


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
