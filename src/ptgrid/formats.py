"""Plain-text scenario configs, CSV tables, load-profile files, and run
manifests.

Scenario configs are flat `key = value` files: '#' starts a comment, values
are scalars, comma-separated lists, or `start:stop:count` grid expressions
(inclusive endpoints, like numpy.linspace).
"""
from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .dsm import FLEXIBLE_RANGE, HOURS, DsmConfig, LoadProfile
from .games import check_solver_limits
from .prospects import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_GAMMA,
    PrelecWeighting,
    PtProfile,
    ValueFrame,
    frame_value,
)
from .storage import StorageConsumer, StorageGridConfig, build_storage_game


class ConfigError(ValueError):
    """Raised when a config or data file cannot be parsed."""


@contextmanager
def config_errors(key: str | None = None):
    """Raise a value check's ValueError as a ConfigError, after the key or
    keys it concerns when they are given."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}" if key else str(exc)) from exc


def read_kv_config(path) -> dict:
    """Parse a key = value file into a dict of raw strings."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    out = {}
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{line_no}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def parse_grid(text: str) -> np.ndarray:
    """A grid expression: either 'start:stop:count' or a comma list."""
    if ":" not in text:
        return parse_float_list(text)
    with config_errors(f"bad grid expression {text.strip()!r}"):
        start, stop, count = text.split(":")
        if int(count) < 1:
            raise ValueError("the count must be positive")
        return np.linspace(float(start), float(stop), int(count))


def parse_float_list(text: str) -> np.ndarray:
    with config_errors(f"bad number list {text!r}"):
        return np.array([float(t) for t in text.split(",") if t.strip()])


def parse_int_list(text: str) -> tuple:
    with config_errors(f"bad integer list {text!r}"):
        return tuple(int(t) for t in text.split(",") if t.strip())


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text) -> bool:
    if str(text).lower() not in _BOOLS:
        raise ValueError(f"not a boolean: {text!r}")
    return _BOOLS[str(text).lower()]


# ---------------------------------------------------------------------------
# scenario configs: one table per command of key -> (parser, default), where a
# default is parsed like a value and _REQUIRED marks a key every config sets.
# An absent key with default None is not resolved, so a DsmConfig or
# StorageGridConfig field keeps its own default.

_REQUIRED = object()

PROSPECT_KEYS = {
    "alpha": (float, DEFAULT_ALPHA),
    "gamma": (float, DEFAULT_GAMMA),
    "beta": (float, DEFAULT_BETA),
    "reference": (float, 0.0),
}

STORAGE_KEYS = {
    "load_1": (float, _REQUIRED),
    "surplus_1": (float, _REQUIRED),
    "load_2": (float, _REQUIRED),
    "surplus_2": (float, _REQUIRED),
    "passive_load": (float, None),
    "nominal_generation": (float, None),
    "penalty_coeff": (float, _REQUIRED),
    "company_price": (float, _REQUIRED),
    "selling_price": (float, None),
    "alphas": (parse_float_list, "0.25,0.65"),
    "b_grid": (parse_grid, "0.03:0.09:25"),
    "rho_grid": (parse_grid, "0.10:0.20:21"),
    "ref_grid": (parse_grid, "0.0:2.0:9"),
    "gammas": (parse_float_list, "1.0,2.0"),
    "frame_beta": (float, 1.0),
}

DSM_KEYS = {
    "n_consumers": (int, None),
    "seed": (int, 42),
    "profiles_csv": (str, None),  # a path; when absent, the synthetic generator
    "flexible_low": (float, FLEXIBLE_RANGE[0]),
    "flexible_high": (float, FLEXIBLE_RANGE[1]),
    "start_window": (parse_int_list, None),
    "include_opt_out": (_parse_bool, None),
    "price_coeff": (float, None),
    "price_exponent": (float, None),
    "shift_span": (int, None),
    "offpeak_hours": (parse_int_list, None),
    "alphas": (lambda text: tuple(parse_float_list(text).tolist()), None),
    "alpha_grid": (parse_grid, "0.05:1.0:20"),
    "hour": (int, 19),
    "tol": (float, 1e-9),
    "max_iter": (int, 10000),
}


def _resolve(cfg: dict, table: dict) -> dict:
    """Each key of cfg read by its table entry's parser, plus each absent key
    that has a default. Raises ConfigError for a key outside the table,
    naming the closest known key, and for a missing required key."""
    for key in cfg:
        if key not in table:
            import difflib  # only on this error path, off the start-up time

            close = difflib.get_close_matches(key, table, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"unknown key {key!r}{hint}")
    values = {}
    for key, (parse, default) in table.items():
        if key not in cfg and default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        if key in cfg or default is not None:
            with config_errors(key):
                values[key] = parse(cfg.get(key, default))
    return values


def _fields_of(cls, values: dict):
    """cls built from the values of the keys that name its fields."""
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})


def resolve_prospect_config(cfg: dict) -> tuple:
    """The prospect demo's parameters from a key/value set (PROSPECT_KEYS)
    and the behavioral profile they make."""
    params = _resolve(cfg, PROSPECT_KEYS)
    with config_errors():
        return params, PtProfile.behavioral(**params)


def load_storage_config(path) -> dict:
    """Resolve a storage scenario config file; its keys are STORAGE_KEYS.

    Raises ConfigError, naming the key, for a value out of its range: b_grid
    and rho_grid must be non-empty and strictly ascending, ref_grid and
    gammas non-empty, none of these grids nor alphas may repeat a value,
    and every value of these grids, of alphas and frame_beta must pass the
    check of the price, reference, gamma, Prelec alpha or frame exponent it
    stands for. The game is built at the configured prices and at every
    b_grid and rho_grid value, and framed at each (ref_grid, gammas) point,
    so payoffs past the float range are a ConfigError too.
    """
    cfg = read_kv_config(path)
    values = _resolve(cfg, STORAGE_KEYS)
    b_grid = _sweep_values("b_grid", values["b_grid"], True)
    rho_grid = _sweep_values("rho_grid", values["rho_grid"], True)
    ref_grid = _sweep_values("ref_grid", values["ref_grid"])
    gammas = _sweep_values("gammas", values["gammas"])
    alphas = values["alphas"]
    if alphas.size:  # no alphas is valid: the figures then hold the EUT columns only
        _sweep_values("alphas", alphas)
    alphas = alphas.tolist()
    beta = values["frame_beta"]
    with config_errors():  # the messages name the fields, which are the keys
        grid = _fields_of(StorageGridConfig, values)
    consumers = []
    for i in (1, 2):
        load, surplus = values[f"load_{i}"], values[f"surplus_{i}"]
        with config_errors(f"load_{i}, surplus_{i}"):
            consumers.append(StorageConsumer(load=load, surplus=surplus))
    with config_errors("alphas"):
        for alpha in alphas:
            PrelecWeighting(alpha)
    with config_errors("ref_grid, gammas, frame_beta"):
        frames = [
            ValueFrame(reference=float(ref), gamma=float(gamma), beta_gain=beta, beta_loss=beta)
            for gamma in gammas
            for ref in ref_grid
        ]
    with config_errors("b_grid"):
        points = [replace(grid, selling_price=float(b)) for b in b_grid]
    with config_errors("rho_grid"):
        points += [replace(grid, company_price=float(rho)) for rho in rho_grid]
    game = _storage_game(consumers, grid)  # the game framing_sweep frames
    for point in points:
        _storage_game(consumers, point)
    with np.errstate(over="ignore"):
        bad = [f for f in frames if not np.all(np.isfinite(frame_value(game.payoffs, f)))]
    if bad:
        raise ConfigError(
            f"ref_grid, gammas: the frame at reference {bad[0].reference!r} and gamma "
            f"{bad[0].gamma!r} takes a payoff past the float range"
        )
    return {
        "consumers": tuple(consumers),
        "grid": grid,
        "alphas": alphas,
        "b_grid": b_grid,
        "rho_grid": rho_grid,
        "ref_grid": ref_grid,
        "gammas": gammas.tolist(),
        "frame_beta": beta,
        "raw": cfg,
    }


def _storage_game(consumers, grid):
    try:
        return build_storage_game(consumers, grid)
    except (OverflowError, ValueError) as exc:  # a Python float ** overflows with an error
        raise ConfigError(
            f"payoffs past the float range at selling_price {grid.selling_price!r} and "
            f"company_price {grid.company_price!r}; they depend on load_1, surplus_1, load_2, "
            "surplus_2, passive_load, nominal_generation, penalty_coeff and the prices "
            "(company_price, selling_price, b_grid, rho_grid)"
        ) from exc


def _sweep_values(key: str, values: np.ndarray, ascending: bool = False) -> np.ndarray:
    """The values of a sweep key, which must be non-empty, repeat no value
    and, if ascending, be strictly ascending."""
    if values.size == 0:
        raise ConfigError(f"{key} must be non-empty")
    # written so that NaN fails
    if ascending and not np.all(values[1:] > values[:-1]):
        raise ConfigError(f"{key} must be strictly ascending, got {values.tolist()!r}")
    # a set, not np.unique, which imports numpy.ma (about 13 ms)
    if len(set(values.tolist())) < values.size:
        raise ConfigError(f"{key} must not repeat a value, got {values.tolist()!r}")
    return values


def load_dsm_config(path) -> dict:
    """Resolve a DSM scenario config file (see resolve_dsm_config)."""
    return resolve_dsm_config(read_kv_config(path))


def resolve_dsm_config(cfg: dict) -> dict:
    """Resolve the key/value set of a DSM scenario; its keys are DSM_KEYS.

    Raises ConfigError, naming the key, for a value out of its range: alphas
    and alpha_grid in (0, 1] with alpha_grid non-empty and repeating no
    value, hour in [0, 23], 0 <= flexible_low <= flexible_high <= 1,
    seed >= 0, and the DsmConfig and solver limits.
    """
    values = _resolve(cfg, DSM_KEYS)
    tol, max_iter = values["tol"], values["max_iter"]
    with config_errors():  # the messages name the fields, which are the keys
        config = _fields_of(DsmConfig, values)
        check_solver_limits(tol, max_iter)
    low, high = values["flexible_low"], values["flexible_high"]
    # written so that NaN fails
    if not (0.0 <= low <= high <= 1.0):
        raise ConfigError(
            "flexible_low and flexible_high must satisfy 0 <= flexible_low <= "
            f"flexible_high <= 1, got {low!r} and {high!r}"
        )
    alpha_grid = _sweep_values("alpha_grid", values["alpha_grid"])
    if not np.all((alpha_grid > 0.0) & (alpha_grid <= 1.0)):
        raise ConfigError(f"alpha_grid values must lie in (0, 1], got {alpha_grid.tolist()!r}")
    hour = values["hour"]
    if not 0 <= hour < HOURS:
        raise ConfigError(f"hour must lie in [0, 23], got {hour}")
    seed = values["seed"]
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return {
        "config": config,
        "seed": seed,
        "profiles_csv": values.get("profiles_csv"),
        "flexible_range": (low, high),
        "alpha_grid": alpha_grid,
        "hour": hour,
        "tol": tol,
        "max_iter": max_iter,
        "raw": cfg,
    }


# ---------------------------------------------------------------------------
# load-profile CSV: header h00..h23 plus flexible_fraction, one row per consumer


_PROFILE_HEADER = [f"h{h:02d}" for h in range(HOURS)] + ["flexible_fraction"]


def profiles_table(profiles) -> tuple:
    """(header, rows) of a load-profile CSV, for write_csv."""
    return _PROFILE_HEADER, [[*p.hourly_demand, p.flexible_fraction] for p in profiles]


def write_profiles_csv(path, profiles) -> None:
    write_csv(path, *profiles_table(profiles))


def read_profiles_csv(path) -> list:
    """The load profiles of a CSV in write_profiles_csv's layout."""
    header, rows = read_csv(path)
    if header != _PROFILE_HEADER:
        raise ConfigError(
            f"{path}: bad header; expected {','.join(_PROFILE_HEADER[:3])},...,"
            f"{_PROFILE_HEADER[-1]}"
        )
    profiles = []
    for row_no, row in enumerate(rows, 2):
        if len(row) != HOURS + 1:
            raise ConfigError(
                f"{path}: row {row_no}: expected {HOURS + 1} columns, got {len(row)}"
            )
        try:
            profiles.append(
                LoadProfile(hourly_demand=np.array(row[:HOURS]), flexible_fraction=row[HOURS])
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: row {row_no}: {exc}") from exc
    if not profiles:
        raise ConfigError(f"{path}: no profile rows")
    return profiles


# ---------------------------------------------------------------------------
# generic CSV tables


def write_csv(path, header, rows) -> None:
    """Write a table with full-precision floats (round-trips exactly)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{v:.17g}" if isinstance(v, float) else v for v in row]
            )


def read_csv(path) -> tuple:
    """Read back a table written by write_csv: (header, list of float rows)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"csv file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty csv") from None
        rows = []
        for row_no, row in enumerate(reader, 2):
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ConfigError(f"{path}: row {row_no}: non-numeric cell") from exc
    return header, rows


# ---------------------------------------------------------------------------
# run manifests


def write_manifest(path, command: str, config: dict, outputs, seed=None) -> None:
    from . import __version__

    payload = {
        "command": command,
        "config": config,
        "outputs": [str(o) for o in outputs],
        "seed": seed,
        "version": __version__,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
