"""Seeded input fuzz of the command line.

Each case changes one key of a bundled scenario config (`storage --figure 4`
and `--figure 7`, `dsm --figure 8` on three consumers) or one field of a
game file (`solve`), and runs `cli.main` in process. A second sample changes
one key of `prospect`'s config or of `dsm --figure 9`'s on three consumers,
drawn from the command's key table. Every case must exit 0, 2 or 3 without a
traceback or a numpy warning, which the suite makes an error. An exit 2 must
print exactly one `error:` line that names the key at fault, and must leave
no output directory. An exit 3 must print exactly one line and leave no
output directory either.

The case sets are fixed by SEED, VOCABULARY, N_CASES and N_TABLE_CASES: a
fixed count, not a timer, bounds the run time. The probe cases that once
ended in a traceback are kept by name in PROBES.
"""
import random

import pytest

from ptgrid import fixtures
from ptgrid.cli import main
from ptgrid.formats import DSM_KEYS, PROSPECT_KEYS, read_kv_config, write_csv

SEED = 20261018
N_CASES = 60
N_TABLE_CASES = 40

# "reversed", "one-point" and "repeated" are derived from the value they
# replace; every other word is written as it stands.
VOCABULARY = (
    "0", "-1", "nan", "inf", "-inf", "1e308", "1e-320", "", ",", "text",
    "reversed", "one-point", "repeated",
)


def _storage_base():
    return read_kv_config(fixtures.storage_config_path())


def _dsm_base():
    cfg = read_kv_config(fixtures.dsm_config_path())
    del cfg["profiles_csv"]  # it holds six consumers; these runs synthesize three
    cfg.update(n_consumers="3", alphas="0.5,0.2,0.1")
    return cfg


def _prospect_base():
    return {key: repr(default) for key, (_, default) in PROSPECT_KEYS.items()}


# One field per key: the two header lines and each payoff cell of a 2x2 game.
GAME_BASE = {"players": "2", "actions": "2 2"}
GAME_BASE.update({f"payoff {k}": v for k, v in enumerate("1 -1 -1 1 -1 1 1 -1".split())})

TARGETS = {
    "storage4": (_storage_base, ["storage", "--figure", "4"]),
    "storage7": (_storage_base, ["storage", "--figure", "7"]),
    "dsm8": (_dsm_base, ["dsm", "--figure", "8"]),
    "game": (lambda: dict(GAME_BASE), ["solve"]),
    "prospect": (_prospect_base, ["prospect"]),
    "dsm9": (_dsm_base, ["dsm", "--figure", "9"]),
}
# the second sample's targets, each with the key table its keys come from
TABLES = {"prospect": PROSPECT_KEYS, "dsm9": DSM_KEYS}


def _value(word: str, original: str, sep: str) -> str:
    """The text a vocabulary word stands for, in place of original."""
    if ":" in original:
        start, stop, count = original.split(":")
        derived = {
            "reversed": f"{stop}:{start}:{count}",
            "one-point": f"{start}:{start}:1",
            "repeated": f"{start},{start},{stop}",
        }
    else:
        items = original.split(sep)
        derived = {
            "reversed": sep.join(reversed(items)),
            "one-point": items[0],
            "repeated": sep.join(items[:1] + items),
        }
    return derived.get(word, word)


def _all_cases(keys_of):
    """Every (target, key, word) for the targets and keys of keys_of."""
    cases = []
    for target, keys in keys_of.items():
        for key in keys:
            cases += [(target, key, word) for word in VOCABULARY]
    return cases


# the first sample's targets, each with its base fields as its keys
FIRST = {t: TARGETS[t][0]() for t in ("storage4", "storage7", "dsm8", "game")}
CASES = random.Random(SEED).sample(_all_cases(FIRST), N_CASES)
TABLE_CASES = random.Random(SEED).sample(_all_cases(TABLES), N_TABLE_CASES)


def _game_text(fields: dict) -> str:
    cells = [fields[f"payoff {k}"] for k in range(8)]
    rows = [" ".join(cells[k:k + 2]) for k in range(0, 8, 2)]
    return "\n".join([f"players {fields['players']}", f"actions {fields['actions']}", *rows]) + "\n"


def _fields(target: str, key: str, value: str) -> dict:
    """The target's base fields with key set to value."""
    fields = TARGETS[target][0]()
    fields[key] = value
    return fields


def _run(tmp_path, capsys, target, fields):
    """Run the target on fields; returns (exit code, stderr, output directory)."""
    argv = TARGETS[target][1]
    out = tmp_path / "out"
    if target == "game":
        path = tmp_path / "case.game"
        path.write_text(_game_text(fields), encoding="utf-8")
        argv = [*argv, str(path)]
    else:
        path = tmp_path / "case.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()), encoding="utf-8")
        argv = [*argv, "--config", str(path), "--out", str(out)]
    code = main(argv)
    return code, capsys.readouterr().err, out


def _named(target: str, key: str) -> str:
    """The word an error about key must contain."""
    if target != "game":
        return key
    return {"players": "player", "actions": "action"}.get(key, "payoff")


def _check(tmp_path, capsys, target, fields, words):
    """Run one case; an exit 2 must name each of words."""
    code, err, out = _run(tmp_path, capsys, target, fields)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert all(word in err for word in words), err
        assert not out.exists()
    if code == 3:
        assert len(err.splitlines()) == 1, err
        assert not out.exists()
    return code


@pytest.mark.parametrize(
    "target, key, word",
    CASES + TABLE_CASES,
    ids=[f"{t}-{k}-{w or 'empty'}" for t, k, w in CASES + TABLE_CASES],
)
def test_fuzz_case(tmp_path, capsys, target, key, word):
    # profiles_csv is in DSM_KEYS but not in _dsm_base, so it replaces nothing
    original = TARGETS[target][0]().get(key, "")
    value = _value(word, original, " " if target == "game" else ",")
    _check(tmp_path, capsys, target, _fields(target, key, value), [_named(target, key)])


# Inputs that ended in a traceback (exit 1), or exited without naming their
# key or with output that repeats itself, before they were mended, each with
# the exit code it has now.
PROBES = [
    ("storage4", "load_2", "1e308", 2),  # OverflowError in the set-point penalty
    ("storage4", "surplus_2", "1e308", 2),
    ("storage7", "passive_load", "1e308", 2),
    ("storage7", "nominal_generation", "1e308", 2),
    ("storage4", "company_price", "1e308", 2),  # "payoffs must be finite"
    ("storage7", "selling_price", "1e308", 2),
    ("storage4", "penalty_coeff", "1e308", 2),
    ("storage7", "ref_grid", "1e308", 2),  # TypeError: no equilibrium passed on as None
    ("storage7", "gammas", "1e308", 2),
    ("dsm8", "price_exponent", "1e308", 2),
    ("dsm8", "shift_span", "1000000000", 2),  # about 40 s per start hour
    ("dsm8", "start_window", "18,18", 2),  # identical actions
    ("dsm8", "profiles_csv", "missing.csv", 2),  # _dsm_base deletes the key; this sets it
    ("dsm8", "profiles_csv", ".", 2),  # the config's directory; its error named no key
    ("storage4", "alphas", "0.25,0.25,0.65", 2),  # a duplicate column, solved twice
    ("game", "payoff 3", "nan", 2),  # FiniteGame's ValueError
    ("prospect", "gamma", "1e308", 2),  # RuntimeWarning: loss values past the float range
    ("dsm9", "tol", "inf", 2),  # every starting point passed as converged
    ("dsm8", "price_coeff", "1e305", 3),  # RuntimeWarnings, then "mixes became NaN"
    ("dsm9", "price_coeff", "1e305", 3),
    ("storage4", "b_grid", "0.03:0.09:1000000000000", 2),  # MemoryError in np.linspace
    ("dsm9", "alpha_grid", "0.05:1.0:1000000000000", 2),
]


@pytest.mark.parametrize(
    "target, key, value, code", PROBES, ids=[f"{t}-{k}-{v}" for t, k, v, _ in PROBES]
)
def test_probe_case(tmp_path, capsys, target, key, value, code):
    fields = _fields(target, key, value)
    assert _check(tmp_path, capsys, target, fields, [_named(target, key)]) == code


# A misspelled key of each command, with the key its error must suggest.
MISSPELLED = [
    ("dsm8", "alpah_grid", "alpha_grid"),
    ("storage4", "alpha", "alphas"),
    ("prospect", "alpah", "alpha"),
]


@pytest.mark.parametrize("target, typo, key", MISSPELLED, ids=[t for t, _, _ in MISSPELLED])
def test_misspelled_key(tmp_path, capsys, target, typo, key):
    fields = TARGETS[target][0]()
    fields[typo] = fields.pop(key)
    assert _check(tmp_path, capsys, target, fields, [repr(typo), repr(key)]) == 2


def test_overflowing_profiles_csv(tmp_path, capsys):
    # every hour at 1e308: each daily total, and so the load that shifting
    # moves, is past the float range
    path = tmp_path / "profiles.csv"
    header = [f"h{h:02d}" for h in range(24)] + ["flexible_fraction"]
    write_csv(path, header, [[1e308] * 24 + [0.5]] * 3)
    fields = _fields("dsm8", "profiles_csv", str(path))
    assert _check(tmp_path, capsys, "dsm8", fields, ["profiles_csv"]) == 2


# Game files that FiniteGame rejected with a ValueError, and one whose four
# payoff lines fit a (-2, -2) shape; with the word their error line must hold.
GAME_PROBES = [
    ("players 1\nactions 2\n1\n-1\n", "player"),
    ("players 2\nactions 1 2\n1 -1\n-1 1\n", "action"),
    ("players 2\nactions -2 -2\n" + "1 -1\n" * 4, "action"),
]


@pytest.mark.parametrize(
    "text, word", GAME_PROBES, ids=["players-1", "one-action", "negative-actions"]
)
def test_game_probe(tmp_path, capsys, text, word):
    path = tmp_path / "case.game"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1 and word in err
