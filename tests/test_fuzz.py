"""Seeded input fuzz of the command line.

Each case changes one key of a bundled scenario config (`storage --figure 4`
and `--figure 7`, `dsm --figure 8` on three consumers) or one field of a
game file (`solve`), and runs `cli.main` in process. Every case must exit
0, 2 or 3 without a traceback. An exit 2 must print exactly one `error:`
line that names the key at fault, and must leave no output directory.

The case set is fixed by SEED, VOCABULARY and N_CASES: a fixed count, not a
timer, bounds the run time. The probe cases that once ended in a traceback
are kept by name in PROBES.
"""
import random

import pytest

from ptgrid import fixtures
from ptgrid.cli import main
from ptgrid.formats import read_kv_config

SEED = 20261018
N_CASES = 60

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


# One field per key: the two header lines and each payoff cell of a 2x2 game.
GAME_BASE = {"players": "2", "actions": "2 2"}
GAME_BASE.update({f"payoff {k}": v for k, v in enumerate("1 -1 -1 1 -1 1 1 -1".split())})

TARGETS = {
    "storage4": (_storage_base, ["storage", "--figure", "4"]),
    "storage7": (_storage_base, ["storage", "--figure", "7"]),
    "dsm8": (_dsm_base, ["dsm", "--figure", "8"]),
    "game": (lambda: dict(GAME_BASE), ["solve"]),
}


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


def _all_cases():
    cases = []
    for target, (base, _) in TARGETS.items():
        for key in base():
            cases += [(target, key, word) for word in VOCABULARY]
    return cases


CASES = random.Random(SEED).sample(_all_cases(), N_CASES)


def _game_text(fields: dict) -> str:
    cells = [fields[f"payoff {k}"] for k in range(8)]
    rows = [" ".join(cells[k:k + 2]) for k in range(0, 8, 2)]
    return "\n".join([f"players {fields['players']}", f"actions {fields['actions']}", *rows]) + "\n"


def _run(tmp_path, capsys, target, key, value):
    """Run one case; returns (exit code, stderr, output directory)."""
    base, argv = TARGETS[target]
    fields = base()
    fields[key] = value
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


def _check(tmp_path, capsys, target, key, value):
    code, err, out = _run(tmp_path, capsys, target, key, value)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert _named(target, key) in err
        assert not out.exists()
    return code


@pytest.mark.parametrize(
    "target, key, word", CASES, ids=[f"{t}-{k}-{w or 'empty'}" for t, k, w in CASES]
)
def test_fuzz_case(tmp_path, capsys, target, key, word):
    original = TARGETS[target][0]()[key]
    _check(tmp_path, capsys, target, key, _value(word, original, " " if target == "game" else ","))


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
]


@pytest.mark.parametrize(
    "target, key, value, code", PROBES, ids=[f"{t}-{k}-{v}" for t, k, v, _ in PROBES]
)
def test_probe_case(tmp_path, capsys, target, key, value, code):
    assert _check(tmp_path, capsys, target, key, value) == code


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
