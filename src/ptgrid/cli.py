"""Command-line front end.

Subcommands: prospect (gain/loss demo report), solve (equilibria of a game
file), storage (selling-price / company-price / framing sweeps as CSV), and
dsm (hourly-load and rationality-sweep CSV). Exit codes: 0 success, 2 input
or config error (including a file that cannot be read or is not UTF-8 text,
and inputs over a size limit), 3 numerical or solver failure. main() decides
them for every command: it runs the command with numpy's overflow and
invalid-value warnings off, since every value past the float range is
checked, and maps each error type to its exit code and one stderr line.
The default output directory comes from --out, falling back to the
PTGRID_OUT environment variable, then to the working directory. A flag is
written over the config key of its name before the config is checked, and
every output is written after all computation, so a failed run writes
nothing.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, fixtures
from .dsm import hourly_load_report, rationality_sweep
from .formats import (
    PROSPECT_KEYS,
    ConfigError,
    config_errors,
    load_storage_config,
    profiles_table,
    read_kv_config,
    resolve_dsm_config,
    resolve_prospect_config,
    write_csv,
    write_manifest,
)
from .games import (
    BudgetExceededError,
    GameFormatError,
    SolverFailure,
    brute_force_equilibrium,
    check_grid_budget,
    check_solver_limits,
    load_game,
    solve_2x2,
    solve_fixed_point,
)
from .prospects import PtProfile, preference_demo
from .storage import framing_sweep, sweep_company_price, sweep_selling_price

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _read_config(path, args, flags) -> dict:
    """The config file's key/value set (empty without a file) with each flag
    of flags that is set written over its key; repr round-trips a float
    exactly. An explicit --seed means synthetic profiles, so it drops
    profiles_csv."""
    cfg = read_kv_config(path) if path else {}
    for key in flags:
        if getattr(args, key) is not None:
            cfg[key] = repr(getattr(args, key))
    if getattr(args, "seed", None) is not None:
        cfg.pop("profiles_csv", None)
    return cfg


def _write(args, config: dict, outputs, seed=None) -> int:
    """Make the output directory, write each output, (file name, header,
    rows) as a CSV table or (file name, text) as text, then the run
    manifest. Commands call it only after every computation has succeeded,
    so a run that fails writes nothing and makes no directory."""
    out = Path(args.out or os.environ.get("PTGRID_OUT") or ".")
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, *content in outputs:
        paths.append(out / name)
        if len(content) == 2:
            write_csv(paths[-1], *content)
        else:
            paths[-1].write_text(*content, encoding="utf-8")
    stem, command = args.command, args.command
    if "figure" in args:
        stem, command = f"fig{args.figure}", f"{command} --figure {args.figure}"
    write_manifest(out / f"{stem}_manifest.json", command, config, paths, seed=seed)
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# prospect


def cmd_prospect(args) -> int:
    params, profile = resolve_prospect_config(_read_config(args.config, args, PROSPECT_KEYS))
    report = preference_demo(profile)
    if not np.all(np.isfinite(list(report.pt_values.values()))):
        raise ConfigError("gamma, beta, reference: a demo option's value leaves the float range")
    text = report.render()
    print(text)
    return _write(args, params, [("prospect_report.txt", text + "\n")])


# ---------------------------------------------------------------------------
# solve


def _format_profile(profile) -> str:
    return "  ".join(
        "(" + ", ".join(f"{p:.6f}" for p in mix) + ")" for mix in profile
    )


def cmd_solve(args) -> int:
    if args.grid < 0:
        raise ConfigError(f"--grid must be non-negative, got {args.grid}")
    with config_errors():
        check_solver_limits(args.tol, args.max_iter)
        behavior = PtProfile.weighting_only(args.alpha)
    game = load_game(args.game)
    if args.grid:
        # before any solve, so an oversized grid prints no equilibrium first
        check_grid_budget(game, args.grid)
    behaviors = [behavior] * game.n_players
    if game.n_players == 2 and game.action_counts == (2, 2):
        results = solve_2x2(game, behaviors, tol=args.tol)
        failure = f"no equilibrium certified within tol {args.tol:g}"
    else:
        res = solve_fixed_point(game, behaviors, tol=args.tol, max_iter=args.max_iter)
        results = [res] if res.converged else []
        failure = f"did not converge: residual {res.residual:.3e} after {res.iterations} iterations"
        if res.cycle_period:
            failure += f", certified cycle of period {res.cycle_period}"
    if not results:
        print(failure, file=sys.stderr)
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

# price figure -> (swept column, SweepRow field, columns per model)
_PRICE_FIGS = {
    4: ("selling_price", "buy_probs", ("buy_1", "buy_2")),
    5: ("selling_price", "revenue", ("revenue",)),
    6: ("company_price", "load", ("load",)),
}


def _storage_figure(cfg, figure: int):
    """The figure's (file name, header, rows). A price figure holds the swept
    value, then its columns under EUT and under each alpha, empty where no
    equilibrium was found."""
    if figure == 7:
        rows = framing_sweep(
            cfg["consumers"], cfg["grid"], cfg["ref_grid"], cfg["gammas"], beta=cfg["frame_beta"]
        )
        header = ["reference", "gamma", "eut_total", "pt_total"]
        return "fig7.csv", header, [[r.reference, r.gamma, r.eut_total, r.pt_total] for r in rows]
    swept, field, columns = _PRICE_FIGS[figure]
    alphas = cfg["alphas"]
    if swept == "selling_price":
        rows = sweep_selling_price(cfg["consumers"], cfg["grid"], cfg["b_grid"], alphas)
    else:
        rows = sweep_company_price(cfg["consumers"], cfg["grid"], cfg["rho_grid"], alphas)
    header = [swept] + [f"eut_{c}" for c in columns]
    header += [f"pt_{c}_alpha{a:g}" for a in alphas for c in columns]
    table = []
    for r in rows:
        record = [r.value]
        for key in ["eut", *alphas]:
            cells = getattr(r, field)[key]
            record += list(cells) if isinstance(cells, tuple) else [cells] * len(columns)
        table.append(record)
    return f"fig{figure}.csv", header, table


def cmd_storage(args) -> int:
    config_path = Path(args.config) if args.config else fixtures.storage_config_path()
    cfg = load_storage_config(config_path)
    table = _storage_figure(cfg, args.figure)
    return _write(args, {"config_file": str(config_path), **cfg["raw"]}, [table])


# ---------------------------------------------------------------------------
# dsm


def _dsm_figure(cfg, figure: int):
    """The figure's (file name, header, rows)."""
    profiles, config, tol, max_iter = cfg["profiles"], cfg["config"], cfg["tol"], cfg["max_iter"]
    if figure == 8:
        report = hourly_load_report(profiles, config, tol=tol, max_iter=max_iter)
        if not (report.eut_converged and report.pt_converged):
            raise SolverFailure("equilibrium solve did not converge")
        return "fig8.csv", ["hour", "eut_nonparticipating", "pt_nonparticipating"], report.rows()
    sweep = rationality_sweep(
        profiles, config, cfg["alpha_grid"], cfg["hour"], tol=tol, max_iter=max_iter
    )
    if not np.all(sweep.converged):
        raise SolverFailure("rationality sweep had non-converged grid points")
    return "fig9.csv", ["alpha", "eut_load", "pt_load"], sweep.rows()


def cmd_dsm(args) -> int:
    config_path = Path(args.config) if args.config else fixtures.dsm_config_path()
    keys = _read_config(config_path, args, ("seed", "tol", "max_iter"))
    cfg = resolve_dsm_config(keys, config_path.parent)
    return _write(
        args,
        {"config_file": str(config_path), **cfg["raw"]},
        [_dsm_figure(cfg, args.figure), ("profiles.csv", *profiles_table(cfg["profiles"]))],
        seed=cfg["seed"],
    )


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptgrid",
        description="Behavioral smart-grid game simulator",
    )
    parser.add_argument("--version", action="version", version=f"ptgrid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prospect", help="gain/loss preference demo report")
    p.add_argument("--config", help=f"key = value file with {'/'.join(PROSPECT_KEYS)}")
    for key, what in (("alpha", "Prelec rationality"), ("gamma", "loss aversion"),
                      ("beta", "gain/loss curvature"), ("reference", "framing reference point")):
        p.add_argument(f"--{key}", type=float, help=f"{what} (default {PROSPECT_KEYS[key][1]:g})")
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
    p.add_argument("--figure", type=int, choices=(4, 5, 6, 7), required=True)
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
        # values past the float range are checked and reported, never warned
        # about: a solve whose values overflow raises SolverFailure
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ConfigError, GameFormatError, BudgetExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
