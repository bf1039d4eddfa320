"""Plain-text scenario configs, CSV tables, load-profile files, and run
manifests.

Scenario configs are flat `key = value` files: '#' starts a comment, values
are scalars, comma-separated lists, or `start:stop:count` grid expressions
(inclusive endpoints, like numpy.linspace).
"""
from __future__ import annotations

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dsm import HOURS, DsmConfig, LoadProfile
from .games import check_solver_limits
from .prospects import PrelecWeighting, PtProfile, ValueFrame
from .storage import StorageConsumer, StorageGridConfig


class ConfigError(ValueError):
    """Raised when a config or data file cannot be parsed."""


def read_kv_config(path) -> dict:
    """Parse a key = value file into a dict of raw strings."""
    path = Path(path)
    if not path.exists():
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
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid expression needs start:stop:count, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad grid expression {text!r}") from exc
        if count < 1:
            raise ConfigError("grid count must be positive")
        return np.linspace(start, stop, count)
    return parse_float_list(text)


def parse_float_list(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",") if t.strip()])
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}") from exc


def parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


def _get_float(cfg: dict, key: str, default=None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {cfg[key]!r}") from exc


def _get_int(cfg: dict, key: str, default=None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {cfg[key]!r}") from exc


def _get_bool(cfg: dict, key: str, default: bool) -> bool:
    if key not in cfg:
        return default
    v = cfg[key].lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ConfigError(f"bad boolean for {key!r}: {cfg[key]!r}")


# ---------------------------------------------------------------------------
# storage scenario config


def load_storage_config(path) -> dict:
    """Resolve a storage scenario config file.

    Keys: load_1, surplus_1, load_2, surplus_2, passive_load,
    nominal_generation (optional), penalty_coeff, company_price,
    selling_price, alphas, b_grid, rho_grid, ref_grid, gammas, frame_beta.
    Raises ConfigError for a value out of its range: b_grid and rho_grid
    must be non-empty and strictly ascending, ref_grid and gammas non-empty,
    and every value of these grids, of alphas and frame_beta must pass the
    check of the price, reference, gamma, Prelec alpha or frame exponent it
    stands for.
    """
    cfg = read_kv_config(path)
    nominal = _get_float(cfg, "nominal_generation", 0.0) if "nominal_generation" in cfg else None
    b_grid = _sweep_values("b_grid", parse_grid(cfg.get("b_grid", "0.03:0.09:25")), True)
    rho_grid = _sweep_values("rho_grid", parse_grid(cfg.get("rho_grid", "0.10:0.20:21")), True)
    ref_grid = _sweep_values("ref_grid", parse_grid(cfg.get("ref_grid", "0.0:2.0:9")))
    gammas = _sweep_values("gammas", parse_float_list(cfg.get("gammas", "1.0,2.0")))
    try:
        grid = StorageGridConfig(
            passive_load=_get_float(cfg, "passive_load", 80.0),
            nominal_generation=nominal,
            penalty_coeff=_get_float(cfg, "penalty_coeff"),
            company_price=_get_float(cfg, "company_price"),
            selling_price=_get_float(cfg, "selling_price", 0.06),
        )
        for b in b_grid:
            replace(grid, selling_price=float(b))
        for rho in rho_grid:
            replace(grid, company_price=float(rho))
        for ref in ref_grid:
            ValueFrame(reference=float(ref))
        for gamma in gammas:
            ValueFrame(gamma=float(gamma))
        alphas = parse_float_list(cfg.get("alphas", "0.25,0.65")).tolist()
        for alpha in alphas:
            PrelecWeighting(alpha)
        beta = _get_float(cfg, "frame_beta", 1.0)
        ValueFrame(beta_gain=beta, beta_loss=beta)
        return {
            "consumers": tuple(
                StorageConsumer(
                    load=_get_float(cfg, f"load_{i}"),
                    surplus=_get_float(cfg, f"surplus_{i}"),
                    behavior=PtProfile.eut(),
                )
                for i in (1, 2)
            ),
            "grid": grid,
            "alphas": alphas,
            "b_grid": b_grid,
            "rho_grid": rho_grid,
            "ref_grid": ref_grid,
            "gammas": gammas.tolist(),
            "frame_beta": beta,
            "raw": cfg,
        }
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sweep_values(key: str, values: np.ndarray, ascending: bool = False) -> np.ndarray:
    """The values of a sweep key, which must be non-empty and, if ascending,
    strictly ascending."""
    if values.size == 0:
        raise ConfigError(f"{key} must be non-empty")
    # written so that NaN fails
    if ascending and not np.all(values[1:] > values[:-1]):
        raise ConfigError(f"{key} must be strictly ascending, got {values.tolist()!r}")
    return values


# ---------------------------------------------------------------------------
# DSM scenario config


def load_dsm_config(path) -> dict:
    """Resolve a DSM scenario config file.

    Keys: n_consumers, seed, profiles_csv (optional; overrides the synthetic
    generator), flexible_low/flexible_high, start_window, include_opt_out,
    price_coeff, price_exponent, shift_span, offpeak_hours, alphas,
    alpha_grid, hour, tol, max_iter. Raises ConfigError for a value out of
    its range: alphas and alpha_grid in (0, 1] with alpha_grid non-empty,
    hour in [0, 23], 0 <= flexible_low <= flexible_high <= 1, seed >= 0, and
    the DsmConfig and solver limits.
    """
    cfg = read_kv_config(path)
    n = _get_int(cfg, "n_consumers", 6)
    alphas = None
    if "alphas" in cfg:
        alphas = tuple(parse_float_list(cfg["alphas"]).tolist())
    try:
        config = DsmConfig(
            n_consumers=n,
            start_window=parse_int_list(cfg.get("start_window", "18,19,20")),
            include_opt_out=_get_bool(cfg, "include_opt_out", True),
            price_coeff=_get_float(cfg, "price_coeff", 0.02),
            price_exponent=_get_float(cfg, "price_exponent", 1.0),
            shift_span=_get_int(cfg, "shift_span", 5),
            offpeak_hours=parse_int_list(cfg.get("offpeak_hours", "1,2,3,4,5")),
            alphas=alphas,
        )
        tol, max_iter = _get_float(cfg, "tol", 1e-9), _get_int(cfg, "max_iter", 10000)
        check_solver_limits(tol, max_iter)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    low, high = _get_float(cfg, "flexible_low", 0.7), _get_float(cfg, "flexible_high", 0.95)
    # written so that NaN fails
    if not (0.0 <= low <= high <= 1.0):
        raise ConfigError(
            "flexible_low and flexible_high must satisfy 0 <= flexible_low <= "
            f"flexible_high <= 1, got {low!r} and {high!r}"
        )
    alpha_grid = _sweep_values("alpha_grid", parse_grid(cfg.get("alpha_grid", "0.05:1.0:20")))
    if not np.all((alpha_grid > 0.0) & (alpha_grid <= 1.0)):
        raise ConfigError(f"alpha_grid values must lie in (0, 1], got {alpha_grid.tolist()!r}")
    hour = _get_int(cfg, "hour", 19)
    if not 0 <= hour < HOURS:
        raise ConfigError(f"hour must lie in [0, 23], got {hour}")
    seed = _get_int(cfg, "seed", 42)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return {
        "config": config,
        "seed": seed,
        "profiles_csv": cfg.get("profiles_csv"),
        "flexible_range": (low, high),
        "alpha_grid": alpha_grid,
        "hour": hour,
        "tol": tol,
        "max_iter": max_iter,
        "raw": cfg,
    }


# ---------------------------------------------------------------------------
# load-profile CSV: header h00..h23 plus flexible_fraction, one row per consumer


def write_profiles_csv(path, profiles) -> None:
    header = [f"h{h:02d}" for h in range(HOURS)] + ["flexible_fraction"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for p in profiles:
            writer.writerow(
                [f"{v:.17g}" for v in p.hourly_demand] + [f"{p.flexible_fraction:.17g}"]
            )


def read_profiles_csv(path) -> list:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"profile file not found: {path}")
    expected = [f"h{h:02d}" for h in range(HOURS)] + ["flexible_fraction"]
    profiles = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty profile file") from None
        if header != expected:
            raise ConfigError(
                f"{path}: bad header; expected {','.join(expected[:3])},...,"
                f"{expected[-1]}"
            )
        for row_no, row in enumerate(reader, 2):
            if len(row) != HOURS + 1:
                raise ConfigError(
                    f"{path}: row {row_no}: expected {HOURS + 1} columns, got {len(row)}"
                )
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ConfigError(f"{path}: row {row_no}: non-numeric cell") from exc
            try:
                profiles.append(
                    LoadProfile(
                        hourly_demand=np.array(values[:HOURS]),
                        flexible_fraction=values[HOURS],
                    )
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
    if not path.exists():
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
