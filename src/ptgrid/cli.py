"""Command-line front end.

Subcommands: prospect (gain/loss demo report), solve (equilibria of a game
file), storage (selling-price / company-price / framing sweeps as CSV), and
dsm (hourly-load and rationality-sweep CSV). Exit codes: 0 success, 2 input
or config error (including inputs over a size limit), 3 numerical or solver
failure. The default output directory comes from --out, falling back to the
PTGRID_OUT environment variable, then to the working directory.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, fixtures
from .dsm import build_dsm_game, hourly_load_report, rationality_sweep, synth_profile
from .formats import (
    ConfigError,
    load_dsm_config,
    load_storage_config,
    read_profiles_csv,
    write_csv,
    write_manifest,
    write_profiles_csv,
)
from .games import (
    BudgetExceededError,
    GameFormatError,
    brute_force_equilibrium,
    check_grid_budget,
    check_solver_limits,
    load_game,
    solve_2x2,
    solve_fixed_point,
)
from .prospects import DEFAULT_ALPHA, DEFAULT_BETA, DEFAULT_GAMMA, PtProfile, preference_demo
from .storage import framing_sweep, sweep_company_price, sweep_selling_price

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


class SolverFailure(RuntimeError):
    pass


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("PTGRID_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# prospect


def _prospect_params(args) -> dict:
    """Behavioral parameters from the config file, overridden by flags."""
    params = {
        "alpha": DEFAULT_ALPHA, "gamma": DEFAULT_GAMMA, "beta": DEFAULT_BETA, "reference": 0.0
    }
    if args.config:
        from .formats import read_kv_config

        raw = read_kv_config(args.config)
        for key in params:
            if key in raw:
                try:
                    params[key] = float(raw[key])
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key!r}: {raw[key]!r}") from exc
    for key in params:
        flag = getattr(args, key)
        if flag is not None:
            params[key] = flag
    return params


def cmd_prospect(args) -> int:
    params = _prospect_params(args)
    try:
        profile = PtProfile.behavioral(**params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = preference_demo(profile)
    text = report.render()
    out = _out_dir(args)
    report_path = out / "prospect_report.txt"
    report_path.write_text(text + "\n", encoding="utf-8")
    write_manifest(out / "prospect_manifest.json", "prospect", params, [report_path])
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def _format_profile(profile) -> str:
    return "  ".join(
        "(" + ", ".join(f"{p:.6f}" for p in mix) + ")" for mix in profile
    )


def cmd_solve(args) -> int:
    if args.grid < 0:
        raise ConfigError(f"--grid must be non-negative, got {args.grid}")
    try:
        check_solver_limits(args.tol, args.max_iter)
        behavior = PtProfile.weighting_only(args.alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    game = load_game(args.game)
    if args.grid:
        # before any solve, so an oversized grid prints no equilibrium first
        check_grid_budget(game, args.grid)
    behaviors = [behavior] * game.n_players
    if game.n_players == 2 and game.action_counts == (2, 2):
        results = solve_2x2(game, behaviors, tol=args.tol)
    else:
        res = solve_fixed_point(
            game, behaviors, tol=args.tol, max_iter=args.max_iter
        )
        results = [res] if res.converged else []
        if not res.converged:
            print(
                f"did not converge: residual {res.residual:.3e} after "
                f"{res.iterations} iterations",
                file=sys.stderr,
            )
    if not results:
        return EXIT_SOLVER
    for r in results:
        print(f"equilibrium  residual={r.residual:.3e}  {_format_profile(r.profile)}")
    if args.grid:
        oracle = brute_force_equilibrium(game, behaviors, grid=args.grid)
        for prof in oracle:
            print(f"grid-oracle  {_format_profile(prof)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# storage


def _storage_fig4(cfg, out):
    rows = sweep_selling_price(cfg["consumers"], cfg["grid"], cfg["b_grid"], cfg["alphas"])
    header = ["selling_price", "eut_buy_1", "eut_buy_2"]
    for a in cfg["alphas"]:
        header += [f"pt_buy_1_alpha{a:g}", f"pt_buy_2_alpha{a:g}"]
    table = []
    for r in rows:
        rec = [r.value, r.buy_probs["eut"][0], r.buy_probs["eut"][1]]
        for a in cfg["alphas"]:
            rec += [r.buy_probs[a][0], r.buy_probs[a][1]]
        table.append(rec)
    path = out / "fig4.csv"
    write_csv(path, header, table)
    return [path]


def _storage_fig5(cfg, out):
    rows = sweep_selling_price(cfg["consumers"], cfg["grid"], cfg["b_grid"], cfg["alphas"])
    header = ["selling_price", "eut_revenue"] + [
        f"pt_revenue_alpha{a:g}" for a in cfg["alphas"]
    ]
    table = [
        [r.value, r.revenue["eut"]] + [r.revenue[a] for a in cfg["alphas"]] for r in rows
    ]
    path = out / "fig5.csv"
    write_csv(path, header, table)
    return [path]


def _storage_fig6(cfg, out):
    rows = sweep_company_price(cfg["consumers"], cfg["grid"], cfg["rho_grid"], cfg["alphas"])
    header = ["company_price", "eut_load"] + [f"pt_load_alpha{a:g}" for a in cfg["alphas"]]
    table = [
        [r.value, r.load["eut"]] + [r.load[a] for a in cfg["alphas"]] for r in rows
    ]
    path = out / "fig6.csv"
    write_csv(path, header, table)
    return [path]


def _storage_fig7(cfg, out):
    rows = framing_sweep(
        cfg["consumers"],
        cfg["grid"],
        cfg["ref_grid"],
        cfg["gammas"],
        beta=cfg["frame_beta"],
    )
    header = ["reference", "gamma", "eut_total", "pt_total"]
    table = [[r.reference, r.gamma, r.eut_total, r.pt_total] for r in rows]
    path = out / "fig7.csv"
    write_csv(path, header, table)
    return [path]


_STORAGE_FIGS = {4: _storage_fig4, 5: _storage_fig5, 6: _storage_fig6, 7: _storage_fig7}


def cmd_storage(args) -> int:
    config_path = Path(args.config) if args.config else fixtures.storage_config_path()
    cfg = load_storage_config(config_path)
    out = _out_dir(args)
    outputs = _STORAGE_FIGS[args.figure](cfg, out)
    write_manifest(
        out / f"fig{args.figure}_manifest.json",
        f"storage --figure {args.figure}",
        {"config_file": str(config_path), **cfg["raw"]},
        outputs,
    )
    for p in outputs:
        print(f"wrote {p}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dsm


def _dsm_profiles(cfg, config_dir: Path):
    if cfg["profiles_csv"]:
        csv_path = Path(cfg["profiles_csv"])
        if not csv_path.is_absolute():
            csv_path = config_dir / csv_path
        profiles = read_profiles_csv(csv_path)
        if len(profiles) != cfg["config"].n_consumers:
            raise ConfigError(
                f"{csv_path}: expected {cfg['config'].n_consumers} profiles, "
                f"got {len(profiles)}"
            )
        return profiles
    return synth_profile(
        cfg["seed"], cfg["config"].n_consumers, flexible_range=cfg["flexible_range"]
    )


def _dsm_fig8(cfg, profiles, out):
    report = hourly_load_report(
        profiles, cfg["config"], tol=cfg["tol"], max_iter=cfg["max_iter"]
    )
    if not (report.eut_converged and report.pt_converged):
        raise SolverFailure("equilibrium solve did not converge")
    path = out / "fig8.csv"
    write_csv(path, ["hour", "eut_nonparticipating", "pt_nonparticipating"], report.rows())
    return [path]


def _dsm_fig9(cfg, profiles, out):
    sweep = rationality_sweep(
        profiles,
        cfg["config"],
        cfg["alpha_grid"],
        cfg["hour"],
        tol=cfg["tol"],
        max_iter=cfg["max_iter"],
    )
    if not np.all(sweep.converged):
        raise SolverFailure("rationality sweep had non-converged grid points")
    path = out / "fig9.csv"
    write_csv(path, ["alpha", "eut_load", "pt_load"], sweep.rows())
    return [path]


def cmd_dsm(args) -> int:
    config_path = Path(args.config) if args.config else fixtures.dsm_config_path()
    cfg = load_dsm_config(config_path)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {args.seed}")
        # an explicit seed means synthetic profiles, even if the config names a CSV
        cfg["seed"] = args.seed
        cfg["profiles_csv"] = None
    if args.tol is not None:
        cfg["tol"] = args.tol
    if args.max_iter is not None:
        cfg["max_iter"] = args.max_iter
    try:
        check_solver_limits(cfg["tol"], cfg["max_iter"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    profiles = _dsm_profiles(cfg, Path(config_path).parent)
    out = _out_dir(args)
    if args.figure == 8:
        outputs = _dsm_fig8(cfg, profiles, out)
    else:
        outputs = _dsm_fig9(cfg, profiles, out)
    profiles_out = out / "profiles.csv"
    write_profiles_csv(profiles_out, profiles)
    outputs.append(profiles_out)
    write_manifest(
        out / f"fig{args.figure}_manifest.json",
        f"dsm --figure {args.figure}",
        {"config_file": str(config_path), **cfg["raw"]},
        outputs,
        seed=cfg["seed"],
    )
    for p in outputs:
        print(f"wrote {p}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptgrid",
        description="Behavioral smart-grid game simulator",
    )
    parser.add_argument("--version", action="version", version=f"ptgrid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prospect", help="gain/loss preference demo report")
    p.add_argument("--config", help="key = value file with alpha/gamma/beta/reference")
    p.add_argument("--alpha", type=float, help=f"Prelec rationality (default {DEFAULT_ALPHA})")
    p.add_argument("--gamma", type=float, help=f"loss aversion (default {DEFAULT_GAMMA})")
    p.add_argument("--beta", type=float, help=f"gain/loss curvature (default {DEFAULT_BETA})")
    p.add_argument("--reference", type=float, help="framing reference point (default 0)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_prospect)

    p = sub.add_parser("solve", help="solve a plain-text game file")
    p.add_argument("game", help="game file path")
    p.add_argument("--alpha", type=float, default=1.0, help="Prelec alpha for all players")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=10000, dest="max_iter")
    p.add_argument("--grid", type=int, default=0, help="also run the grid oracle")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("storage", help="storage-scenario sweep CSVs")
    p.add_argument("--config", help="scenario config (bundled fixture when omitted)")
    p.add_argument("--figure", type=int, choices=sorted(_STORAGE_FIGS), required=True)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_storage)

    p = sub.add_parser("dsm", help="DSM-scenario sweep CSVs")
    p.add_argument("--config", help="scenario config (bundled fixture when omitted)")
    p.add_argument("--figure", type=int, choices=(8, 9), required=True)
    p.add_argument("--seed", type=int, help="generate the profiles from this seed")
    p.add_argument("--tol", type=float, help="solver tolerance override")
    p.add_argument("--max-iter", type=int, dest="max_iter", help="solver iteration cap")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_dsm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (
        ConfigError, GameFormatError, BudgetExceededError, FileNotFoundError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
