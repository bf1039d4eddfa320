"""Prospect-theory primitives: Prelec probability weighting, reference-point
value framing, and subjective evaluation of risky prospects.

All functions accept floats or numpy arrays and are pure; the dataclasses are
frozen and safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PROB_TOL = 1e-9

# Canonical behavioral calibration, used wherever parameters are not given.
DEFAULT_ALPHA = 0.65
DEFAULT_GAMMA = 2.25
DEFAULT_BETA = 0.88


def prelec_weight(p, alpha: float):
    """Prelec probability weight w(p) = exp(-(-ln p)^alpha).

    The formula is exact at the ends: ln 0 = -inf gives w(0) = 0 and ln 1 = 0
    gives w(1) = 1. alpha = 1 returns p unchanged (the rational limit).
    Scalar in, scalar out; arrays are weighted elementwise.
    """
    _check_alpha(alpha)
    return _prelec(p, alpha, "probability")


def prelec_inverse(w, alpha: float):
    """Inverse of prelec_weight: p = exp(-(-ln w)^(1/alpha))."""
    _check_alpha(alpha)
    return _prelec(w, 1.0 / alpha, "weight")


def _prelec(x, exponent: float, what: str):
    """_weights of a checked copy of x; exponent 1 returns the copy."""
    arr, scalar = _unit_interval_array(x, what)
    out = arr.copy()
    with np.errstate(divide="ignore"):
        _weights(out, exponent, out=out)
    return float(out[0]) if scalar else out


def _weights(q: np.ndarray, alpha, out=None) -> np.ndarray:
    """The package's one Prelec evaluation: exp(-(-ln q)^alpha) of q
    (..., M), computed in one buffer, a new one or q itself when out is q.
    alpha is one number for every entry of q, or an ndarray of one alpha per
    row, shaped q.shape[:-1]. A number takes `**=`: numpy's ** with a scalar
    exponent takes 0.5 as sqrt and 2 as a square, which differ in the last
    bit from the general power loop, and 1 returns q. Rows get the same
    bits: a row at exactly 0.5 takes sqrt before the power overwrites it,
    and a row at exactly 1 keeps q. The caller sets errstate: ln 0 divides
    by zero."""
    rows = isinstance(alpha, np.ndarray)
    if rows:
        half, rational = alpha == 0.5, alpha == 1.0
        kept = q[rational]  # before out, which may be q, is written
        alpha = alpha[..., None]
    elif alpha == 1.0:
        return q  # exp(-(-ln q)^1) is not q bit for bit
    w = np.log(q, out=out)
    np.negative(w, out=w)
    if rows:
        roots = np.sqrt(w[half])
    w **= alpha
    if rows:
        w[half] = roots
    np.negative(w, out=w)
    np.exp(w, out=w)
    if rows:
        w[rational] = kept
    return w


def _unit_interval_array(x, what: str):
    """x as a float array, rejecting any entry outside [0, 1], NaN included.

    A scalar comes back as a one-element array: numpy evaluates 0-d operands
    with scalar math, which can differ from its array loops in the last bit.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError(f"{what} outside [0, 1]: {x!r}")
    return arr.reshape(-1) if scalar else arr, scalar


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")


@dataclass(frozen=True)
class PrelecWeighting:
    """Probability-weighting behavior; alpha = 1 is the fully rational case."""

    alpha: float = 1.0

    def __post_init__(self):
        _check_alpha(self.alpha)

    @property
    def is_rational(self) -> bool:
        return self.alpha == 1.0


@dataclass(frozen=True)
class ValueFrame:
    """Reference-point framing of outcomes: concave over gains, convex over
    losses, with losses scaled up by the aversion factor gamma.

    The default instance is the identity frame (maps every value to itself).
    """

    reference: float = 0.0
    gamma: float = 1.0
    beta_gain: float = 1.0
    beta_loss: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.reference):
            raise ValueError("reference must be finite")
        if not (math.isfinite(self.gamma) and self.gamma >= 1.0):
            raise ValueError(f"gamma must be finite and >= 1, got {self.gamma!r}")
        for name in ("beta_gain", "beta_loss"):
            b = getattr(self, name)
            if not (0.0 < b <= 1.0):
                raise ValueError(f"{name} must be in (0, 1], got {b!r}")

    @property
    def is_identity(self) -> bool:
        return (
            self.reference == 0.0
            and self.gamma == 1.0
            and self.beta_gain == 1.0
            and self.beta_loss == 1.0
        )


def frame_value(u, frame: ValueFrame):
    """Map an objective value to its framed subjective value.

    With x = u - reference: x^beta_gain for gains (x >= 0), and
    -gamma * (-x)^beta_loss for losses. The identity frame returns u's
    bits: x - 0.0 keeps -0.0, and x**1.0 and -1.0 * (-x)**1.0 are exact.
    """
    arr = np.asarray(u, dtype=float)
    # min and max, not isfinite: no full-size temporary, and NaN fails too
    if arr.size and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise ValueError("values must be finite")
    x = arr - frame.reference
    gains = x >= 0.0
    out = np.empty_like(x)
    out[gains] = x[gains] ** frame.beta_gain
    out[~gains] = -frame.gamma * (-x[~gains]) ** frame.beta_loss
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class PtProfile:
    """Per-agent behavioral parameters: probability weighting plus framing."""

    weighting: PrelecWeighting = field(default_factory=PrelecWeighting)
    frame: ValueFrame = field(default_factory=ValueFrame)

    @classmethod
    def eut(cls) -> "PtProfile":
        """The rational baseline: alpha = 1 and the identity frame."""
        return cls()

    @classmethod
    def weighting_only(cls, alpha: float) -> "PtProfile":
        return cls(weighting=PrelecWeighting(alpha))

    @classmethod
    def behavioral(
        cls,
        alpha: float = DEFAULT_ALPHA,
        gamma: float = DEFAULT_GAMMA,
        beta: float = DEFAULT_BETA,
        reference: float = 0.0,
    ) -> "PtProfile":
        """Canonical behavioral calibration; every parameter overridable."""
        return cls(
            weighting=PrelecWeighting(alpha),
            frame=ValueFrame(reference=reference, gamma=gamma, beta_gain=beta, beta_loss=beta),
        )

    @property
    def is_eut(self) -> bool:
        return self.weighting.is_rational and self.frame.is_identity

    @property
    def alpha(self) -> float:
        return self.weighting.alpha


class Prospect:
    """A finite set of (outcome value, objective probability) pairs."""

    __slots__ = ("values", "probabilities")

    def __init__(self, outcomes):
        pairs = [(float(v), float(p)) for v, p in outcomes]
        if not pairs:
            raise ValueError("prospect needs at least one outcome")
        values = np.array([v for v, _ in pairs])
        probs, _ = _unit_interval_array([p for _, p in pairs], "probability")
        if abs(probs.sum() - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("outcome values must be finite")
        values.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probabilities", probs)

    def __setattr__(self, name, value):
        raise AttributeError("Prospect is immutable")

    def __repr__(self):
        pairs = ", ".join(f"({v:g}, {p:g})" for v, p in zip(self.values, self.probabilities))
        return f"Prospect([{pairs}])"

    @classmethod
    def certain(cls, value: float) -> "Prospect":
        return cls([(value, 1.0)])

    @classmethod
    def binary(cls, value: float, p: float, other: float = 0.0) -> "Prospect":
        """Two-outcome gamble: `value` with probability p, else `other`."""
        return cls([(value, p), (other, 1.0 - p)])

    def expected_value(self) -> float:
        return float(self.values @ self.probabilities)


def evaluate_prospect(prospect: Prospect, profile: PtProfile) -> float:
    """Subjective value sum_i w(p_i) * v(u_i); the plain expected value under
    the EUT profile."""
    w = prelec_weight(prospect.probabilities, profile.weighting.alpha)
    v = frame_value(prospect.values, profile.frame)
    return float(w @ v)


@dataclass(frozen=True)
class PreferenceReport:
    """Values of the four buy-in letter options under a behavioral profile
    and under the EUT baseline.

    Gain pair: (a) 50% chance of +100 vs (b) certain +50.
    Loss pair: (c) 50% chance of -100 vs (d) certain -50.
    Both pairs have equal expected value, so EUT is indifferent; a behavioral
    profile typically prefers the certain gain but the risky loss.
    """

    profile: PtProfile
    pt_values: dict
    eut_values: dict

    @property
    def prefers_certain_gain(self) -> bool:
        return self.pt_values["b"] > self.pt_values["a"]

    @property
    def prefers_risky_loss(self) -> bool:
        return self.pt_values["c"] > self.pt_values["d"]

    @property
    def reversal(self) -> bool:
        return self.prefers_certain_gain and self.prefers_risky_loss

    def render(self) -> str:
        lines = ["option  subjective      expected"]
        for k in "abcd":
            lines.append(f"{k}       {self.pt_values[k]:>12.6f}  {self.eut_values[k]:>12.6f}")
        gain = "b > a" if self.prefers_certain_gain else ("a > b" if self.pt_values["a"] > self.pt_values["b"] else "a ~ b")
        loss = "c > d" if self.prefers_risky_loss else ("d > c" if self.pt_values["d"] > self.pt_values["c"] else "c ~ d")
        lines.append(f"gain pair: {gain}")
        lines.append(f"loss pair: {loss}")
        lines.append(f"preference reversal: {'yes' if self.reversal else 'no'}")
        return "\n".join(lines)


def demo_options() -> dict:
    """The four options of the gain/loss letter, keyed a-d."""
    return {
        "a": Prospect.binary(100.0, 0.5),
        "b": Prospect.certain(50.0),
        "c": Prospect.binary(-100.0, 0.5),
        "d": Prospect.certain(-50.0),
    }


def preference_demo(profile: PtProfile | None = None) -> PreferenceReport:
    """Evaluate the gain/loss demo options under `profile` (canonical
    behavioral calibration when omitted) and under EUT."""
    if profile is None:
        profile = PtProfile.behavioral()
    options = demo_options()
    eut = PtProfile.eut()
    return PreferenceReport(
        profile=profile,
        pt_values={k: evaluate_prospect(o, profile) for k, o in options.items()},
        eut_values={k: evaluate_prospect(o, eut) for k, o in options.items()},
    )
