import math
import warnings

import numpy as np
import pytest

from ptgrid.prospects import (
    PreferenceReport,
    PrelecWeighting,
    Prospect,
    PtProfile,
    ValueFrame,
    _weights,
    evaluate_prospect,
    frame_value,
    preference_demo,
    prelec_inverse,
    prelec_weight,
)

INV_E = 1.0 / math.e

# exp(-(ln 10)^0.5) evaluated with 50-digit decimal arithmetic
PRELEC_01_05 = 0.21927532886002092


def test_prelec_endpoints():
    for alpha in (0.1, 0.5, 1.0):
        assert prelec_weight(0.0, alpha) == 0.0
        assert prelec_weight(1.0, alpha) == 1.0


def test_prelec_fixed_point():
    # -ln(1/e) = 1, so w(1/e) = 1/e for every alpha
    for alpha in np.arange(0.1, 1.01, 0.1):
        assert abs(prelec_weight(INV_E, float(alpha)) - INV_E) < 1e-12


def test_prelec_frozen_value():
    assert abs(prelec_weight(0.1, 0.5) - PRELEC_01_05) < 1e-12


def test_prelec_alpha_one_is_identity():
    p = np.linspace(0.0, 1.0, 11)
    np.testing.assert_array_equal(prelec_weight(p, 1.0), p)


def test_prelec_strictly_increasing():
    p = np.linspace(0.001, 0.999, 200)
    for alpha in (0.1, 0.3, 0.65, 1.0):
        w = prelec_weight(p, alpha)
        assert np.all(np.diff(w) > 0)


def test_prelec_over_and_under_weighting():
    # overweight below the 1/e fixed point, underweight above, for alpha < 1
    p = np.linspace(0.01, 0.99, 99)
    for alpha in (0.1, 0.25, 0.5, 0.9):
        w = prelec_weight(p, alpha)
        below = p < INV_E - 1e-12
        above = p > INV_E + 1e-12
        assert np.all(w[below] > p[below])
        assert np.all(w[above] < p[above])


def test_prelec_domain_errors():
    with pytest.raises(ValueError):
        prelec_weight(-0.1, 0.5)
    with pytest.raises(ValueError):
        prelec_weight(1.1, 0.5)
    with pytest.raises(ValueError):
        prelec_weight(0.5, 0.0)
    with pytest.raises(ValueError):
        prelec_weight(0.5, 1.5)
    with pytest.raises(ValueError):
        prelec_inverse(2.0, 0.5)
    for fn in (prelec_weight, prelec_inverse):
        for alpha in (0.3, 1.0):
            with pytest.raises(ValueError):
                fn(float("nan"), alpha)
            with pytest.raises(ValueError):
                fn(np.array([0.2, np.nan, 0.7]), alpha)


def test_prelec_accepts_empty_array():
    for fn in (prelec_weight, prelec_inverse):
        assert fn(np.array([]), 0.5).shape == (0,)


def test_prelec_endpoints_and_subnormal_without_warnings():
    p = np.array([0.0, 5e-324, 0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = prelec_weight(p, 0.3)
        back = prelec_inverse(np.array([0.0, 1.0]), 0.3)
    expected = [0.0, prelec_weight(5e-324, 0.3), prelec_weight(0.5, 0.3), 1.0]
    np.testing.assert_array_equal(w, expected)
    assert 0.0 < w[1] < w[2]
    np.testing.assert_array_equal(back, [0.0, 1.0])


@pytest.mark.parametrize("fn", [prelec_weight, prelec_inverse])
def test_prelec_scalar_matches_array_bit_for_bit(fn):
    p = np.random.default_rng(3).uniform(0.0, 1.0, 200)
    for alpha in (0.1, 0.3, 0.65, 0.88):
        arr = fn(p, alpha)
        assert [fn(float(x), alpha) for x in p] == arr.tolist()


@pytest.mark.parametrize("fn, inverse", [(prelec_weight, False), (prelec_inverse, True)])
def test_prelec_matches_the_closed_form_bit_for_bit(fn, inverse):
    # the closed form, evaluated here independently of the package; alpha 1
    # returns p itself, and the inverse of 0.5 has exponent 2
    p = np.concatenate([[0.0, 5e-324, 1.0], np.random.default_rng(5).uniform(0.0, 1.0, 300)])
    for alpha in (0.1, 0.5, 0.65, 1.0, 1, np.float32(0.5)):
        e = 1.0 / alpha if inverse else alpha
        with np.errstate(divide="ignore"):
            want = p if e == 1 else np.exp(-((-np.log(p)) ** e))
        assert fn(p, alpha).tobytes() == want.tobytes()
        assert fn(float(p[-1]), alpha) == want[-1]


def test_weights_of_row_alphas_are_the_bits_of_each_row():
    # one alpha per row gives each row the bits of that row weighted with
    # its alpha as one number: sqrt at exactly 0.5, q itself at exactly 1
    rng = np.random.default_rng(19)
    q = rng.uniform(0.0, 1.0, (3, 5, 40))
    q[..., :3] = [0.0, 5e-324, 1.0]
    mixed = rng.choice([0.1, 0.5, 0.65, 1.0], size=(3, 5))
    mixed[0, :4] = [0.1, 0.5, 0.65, 1.0]
    with np.errstate(divide="ignore"):
        for alphas in (mixed, np.full((3, 5), 0.5), np.full((3, 5), 1.0)):
            fresh = _weights(q, alphas)
            w = q.copy()
            assert _weights(w, alphas, out=w) is w
            assert fresh.tobytes() == w.tobytes()
            for row, got, alpha in zip(q.reshape(-1, 40), w.reshape(-1, 40), alphas.flat):
                assert got.tobytes() == _weights(row, float(alpha)).tobytes()
        # the rows were read, not written
        assert q[..., :3].tolist() == [[[0.0, 5e-324, 1.0]] * 5] * 3


def test_weights_of_a_number_are_the_bits_of_its_float():
    q = np.concatenate([[0.0, 5e-324, 1.0], np.random.default_rng(20).uniform(0.0, 1.0, 100)])
    with np.errstate(divide="ignore"):
        for number, as_float in ((1, 1.0), (np.float32(0.5), 0.5), (np.float64(0.65), 0.65)):
            assert _weights(q, number).tobytes() == _weights(q, as_float).tobytes()


def test_prelec_inverse_fixed_point_and_endpoints():
    assert abs(prelec_inverse(INV_E, 0.3) - INV_E) < 1e-12
    for alpha in (0.2, 0.7, 1.0):
        assert prelec_inverse(1.0, alpha) == 1.0
        assert prelec_inverse(0.0, alpha) == 0.0


def test_prelec_inverse_of_frozen_value():
    assert abs(prelec_inverse(PRELEC_01_05, 0.5) - 0.1) < 1e-12


def test_prelec_round_trip():
    p = np.arange(0.01, 1.0, 0.01)
    for alpha in (0.1, 0.25, 0.5, 0.65, 0.9, 1.0):
        back = prelec_inverse(prelec_weight(p, alpha), alpha)
        assert np.max(np.abs(back - p)) <= 1e-9


def test_weighting_type_validation():
    with pytest.raises(ValueError):
        PrelecWeighting(0.0)
    with pytest.raises(ValueError):
        PrelecWeighting(1.2)
    assert PrelecWeighting(1.0).is_rational
    assert not PrelecWeighting(0.5).is_rational


def test_frame_identity():
    frame = ValueFrame()
    assert frame.is_identity
    x = np.array([-3.0, 0.0, 7.0])
    np.testing.assert_array_equal(frame_value(x, frame), x)
    assert frame_value(7.0, frame) == 7.0


def test_frame_zero_at_reference():
    frame = ValueFrame(reference=4.2, gamma=2.0, beta_gain=0.8, beta_loss=0.7)
    assert frame_value(4.2, frame) == 0.0


def test_frame_loss_branch_closed_form():
    # -gamma * (-x)^beta_loss with x = -4: -2 * 4^0.5 = -4
    frame = ValueFrame(reference=0.0, gamma=2.0, beta_gain=1.0, beta_loss=0.5)
    assert frame_value(-4.0, frame) == pytest.approx(-4.0, abs=1e-12)


def test_frame_monotone_and_loss_dominance():
    frame = ValueFrame(reference=1.0, gamma=2.25, beta_gain=0.88, beta_loss=0.88)
    u = np.linspace(-10, 10, 401)
    v = frame_value(u, frame)
    assert np.all(np.diff(v) > 0)
    # concave over gains
    gains = v[u >= 1.0]
    assert np.all(np.diff(np.diff(gains)) <= 1e-9)
    # equal-distance losses loom at least as large as gains
    for d in (0.1, 1.0, 5.0):
        assert abs(frame_value(1.0 - d, frame)) >= frame_value(1.0 + d, frame)


def test_frame_validation():
    with pytest.raises(ValueError):
        ValueFrame(gamma=0.5)
    with pytest.raises(ValueError):
        ValueFrame(gamma=float("nan"))
    with pytest.raises(ValueError):
        ValueFrame(gamma=float("inf"))
    with pytest.raises(ValueError):
        ValueFrame(beta_gain=0.0)
    with pytest.raises(ValueError):
        ValueFrame(beta_loss=1.5)
    with pytest.raises(ValueError):
        frame_value(float("nan"), ValueFrame(gamma=2.0))


def test_prospect_validation():
    with pytest.raises(ValueError):
        Prospect([])
    with pytest.raises(ValueError):
        Prospect([(10.0, 0.6), (0.0, 0.5)])
    with pytest.raises(ValueError):
        Prospect([(10.0, -0.1), (0.0, 1.1)])
    with pytest.raises(ValueError):
        Prospect([(1.0, float("nan")), (0.0, 1.0)])
    with pytest.raises(ValueError):
        Prospect([(1.0, float("nan")), (0.0, float("nan"))])
    p = Prospect.binary(100.0, 0.5)
    assert p.expected_value() == pytest.approx(50.0)
    with pytest.raises(AttributeError):
        p.values = None


def test_evaluate_prospect_certainty_and_expectation():
    eut = PtProfile.eut()
    assert evaluate_prospect(Prospect.certain(3.5), eut) == pytest.approx(3.5, abs=1e-12)
    gamble = Prospect([(100.0, 0.5), (0.0, 0.5)])
    assert evaluate_prospect(gamble, eut) == pytest.approx(50.0, abs=1e-12)


def test_evaluate_prospect_matches_plain_expectation_under_eut():
    rng = np.random.default_rng(11)
    eut = PtProfile.eut()
    for _ in range(200):
        k = rng.integers(1, 6)
        probs = rng.dirichlet(np.ones(k))
        values = rng.uniform(-50, 50, size=k)
        prospect = Prospect(list(zip(values, probs)))
        assert abs(evaluate_prospect(prospect, eut) - values @ probs) <= 1e-12


def test_preference_demo_reversal():
    # frozen closed-form oracle values for alpha=0.65, gamma=2.25, beta=0.88:
    # w(0.5) = exp(-(ln 2)^0.65), v(x) = x^0.88 / -2.25 * (-x)^0.88
    report = preference_demo()
    assert report.pt_values["a"] == pytest.approx(26.167835825163795, abs=1e-9)
    assert report.pt_values["b"] == pytest.approx(31.267532059704937, abs=1e-9)
    assert report.pt_values["c"] == pytest.approx(-58.877630606618546, abs=1e-9)
    assert report.pt_values["d"] == pytest.approx(-70.35194713433611, abs=1e-9)
    assert report.prefers_certain_gain
    assert report.prefers_risky_loss
    assert report.reversal


def test_preference_demo_eut_indifference():
    report = preference_demo()
    assert report.eut_values["a"] == pytest.approx(report.eut_values["b"], abs=1e-12)
    assert report.eut_values["c"] == pytest.approx(report.eut_values["d"], abs=1e-12)
    rational = preference_demo(PtProfile.eut())
    assert not rational.reversal
    assert rational.pt_values["a"] == pytest.approx(rational.pt_values["b"], abs=1e-12)


def test_preference_gap_vanishes_in_rational_limit():
    gaps = []
    for eps in (0.3, 0.1, 0.03, 0.01):
        profile = PtProfile.behavioral(alpha=1 - eps, gamma=1 + eps, beta=1 - eps)
        r = preference_demo(profile)
        gaps.append(abs(r.pt_values["b"] - r.pt_values["a"]))
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.5


def test_report_render_mentions_orderings():
    text = preference_demo().render()
    assert "b > a" in text
    assert "c > d" in text
    assert isinstance(preference_demo(), PreferenceReport)


def test_profile_helpers():
    assert PtProfile.eut().is_eut
    assert not PtProfile.behavioral().is_eut
    assert PtProfile.weighting_only(0.4).alpha == 0.4
    assert PtProfile.weighting_only(0.4).frame.is_identity
