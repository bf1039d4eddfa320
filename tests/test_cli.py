import json

import numpy as np
import pytest

from ptgrid import storage
from ptgrid.cli import main
from ptgrid.fixtures import example_game_path
from ptgrid.dsm import synth_profile
from ptgrid.formats import read_csv, read_manifest, read_profiles_csv
from ptgrid.games import FiniteGame, save_game


def run(args):
    return main(list(args))


def test_prospect_default_reports_reversal(tmp_path, capsys):
    assert run(["prospect", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "b > a" in out
    assert "c > d" in out
    report = (tmp_path / "prospect_report.txt").read_text()
    assert "preference reversal: yes" in report
    manifest = read_manifest(tmp_path / "prospect_manifest.json")
    assert manifest["command"] == "prospect"


def test_prospect_rational_is_indifferent(tmp_path, capsys):
    assert run([
        "prospect", "--alpha", "1", "--gamma", "1", "--beta", "1",
        "--out", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "a ~ b" in out
    assert "preference reversal: no" in out


def test_prospect_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("alpha = 1.0\ngamma = 1.0\nbeta = 1.0\n")
    assert run(["prospect", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "preference reversal: no" in capsys.readouterr().out
    # flags override the file
    assert run([
        "prospect", "--config", str(cfg), "--alpha", "0.65", "--gamma", "2.25",
        "--beta", "0.88", "--out", str(tmp_path),
    ]) == 0
    assert "preference reversal: yes" in capsys.readouterr().out


def test_prospect_missing_config_exits_2(tmp_path, capsys):
    assert run(["prospect", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "error" in capsys.readouterr().err


def test_prospect_bad_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("alpha = fast\n")
    assert run(["prospect", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "alpha" in capsys.readouterr().err


def test_solve_matching_pennies(capsys):
    assert run(["solve", str(example_game_path("matching_pennies"))]) == 0
    out = capsys.readouterr().out
    assert "0.500000" in out
    assert "residual" in out


def test_solve_dominance_fixture(capsys):
    assert run(["solve", str(example_game_path("dominance"))]) == 0
    out = capsys.readouterr().out
    assert "(0.000000, 1.000000)" in out


def test_solve_with_grid_oracle(capsys):
    assert run([
        "solve", str(example_game_path("matching_pennies")), "--alpha", "0.5",
        "--grid", "50",
    ]) == 0
    out = capsys.readouterr().out
    assert "grid-oracle" in out


def test_solve_grid_zero_runs_no_oracle(capsys):
    assert run(["solve", str(example_game_path("matching_pennies")), "--grid", "0"]) == 0
    out = capsys.readouterr().out
    assert "equilibrium" in out and "grid-oracle" not in out


def test_solve_grid_over_budget_exits_2(capsys):
    assert run(["solve", str(example_game_path("matching_pennies")), "--grid", "10000"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "budget" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # the budget is checked before any solve


def test_solve_negative_grid_exits_2(capsys):
    assert run(["solve", str(example_game_path("matching_pennies")), "--grid", "-5"]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "--grid" in err
    assert "Traceback" not in err


def assert_input_error(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert all(w in err for w in words)


@pytest.mark.parametrize("flags", [["--max-iter", "-1"], ["--tol", "nan"], ["--tol", "-1"]])
def test_solve_bad_solver_limits_exit_2(tmp_path, capsys, flags):
    path = tmp_path / "g3.game"
    save_game(FiniteGame(np.random.default_rng(0).uniform(-5.0, 5.0, size=(3, 2, 2, 2))), path)
    assert run(["solve", str(path), *flags]) == 2
    assert_input_error(capsys, flags[0].lstrip("-").replace("-", "_"))


def test_solve_cycling_game_reports_its_max_iter_state(tmp_path, capsys, joint_prob_calls):
    # the game's hardened mixes repeat bit for bit from iteration 7160 with
    # period 19, which the cycle test sees at 7221, so the solve stops within
    # a period of that with the state and message of iteration 100000; its
    # hardened iterations take one kernel call per window of 19
    path = tmp_path / "g3.game"
    save_game(FiniteGame(np.random.default_rng(0).uniform(-5.0, 5.0, size=(3, 2, 2, 2))), path)
    assert run(["solve", str(path), "--alpha", "0.65", "--max-iter", "100000"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "did not converge: residual 2.814e-02 after 100000 iterations\n"
    assert len(joint_prob_calls) < 2000


def test_solve_overflowing_game_is_a_solver_failure(tmp_path, capsys):
    # finite payoffs whose perceived values overflow make the solver's mixes
    # NaN: one line and exit 3, with no warning (the suite makes warnings
    # errors) and no traceback
    path = tmp_path / "overflow.game"
    save_game(FiniteGame(np.random.default_rng(0).uniform(0.99, 1.0, size=(3, 2, 2, 2)) * 1.79e308), path)
    assert run(["solve", str(path), "--alpha", "0.5", "--max-iter", "50"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver failure: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


# payoffs at +-1.7e308, whose differences overflow
NEAR_MAX = 1.7e308


def test_solve_grid_oracle_on_near_max_payoffs_warns_nothing(tmp_path, capsys):
    # a dominance game: the oracle's gaps overflow, which main() neither
    # warns about (the suite makes warnings errors) nor fails on
    path = tmp_path / "dom.game"
    save_game(FiniteGame(NEAR_MAX * np.array([[[1, 1], [-1, -1]], [[1, -1], [1, -1]]])), path)
    assert run(["solve", str(path), "--grid", "10"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("equilibrium  residual=0.000e+00  (1.000000, 0.000000)")


def test_solve_2x2_game_certifying_nothing_prints_one_line(tmp_path, capsys):
    # matching pennies at +-1.7e308 and alpha 0.5: no candidate is certified
    path = tmp_path / "pennies.game"
    save_game(FiniteGame(NEAR_MAX * np.array([[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]])), path)
    assert run(["solve", str(path), "--alpha", "0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("no equilibrium certified") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["prospect", "--config"], ["storage", "--figure", "4", "--config"],
     ["dsm", "--figure", "8", "--config"]],
    ids=["solve", "prospect", "storage", "dsm"],
)
def test_non_utf8_input_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "latin.txt"
    path.write_bytes(bytes.fromhex("fffe00626164"))
    out = tmp_path / "out"
    assert run([*argv, str(path), *([] if argv == ["solve"] else ["--out", str(out)])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["0", "-0.5", "1.5", "nan"])
def test_solve_alpha_outside_unit_interval_exits_2(capsys, alpha):
    assert run(["solve", str(example_game_path("matching_pennies")), "--alpha", alpha]) == 2
    assert_input_error(capsys, "alpha")


def test_solve_missing_file_exits_2(capsys):
    assert run(["solve", "no_such.game"]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_corrupt_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text("players 2\nactions 2 2\n1 2\n")
    assert run(["solve", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_storage_fig4_alpha_one_matches_eut(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "load_1 = 20\nsurplus_1 = 10\nload_2 = 15\nsurplus_2 = 5\n"
        "passive_load = 80\nnominal_generation = 100\n"
        "penalty_coeff = 0.012\ncompany_price = 0.145\n"
        "alphas = 1.0\nb_grid = 0.03:0.09:7\n"
    )
    out = tmp_path / "out"
    assert run(["storage", "--config", str(cfg), "--figure", "4", "--out", str(out)]) == 0
    header, rows = read_csv(out / "fig4.csv")
    assert header[:3] == ["selling_price", "eut_buy_1", "eut_buy_2"]
    for row in rows:
        assert row[1] == pytest.approx(row[3], abs=1e-9)
        assert row[2] == pytest.approx(row[4], abs=1e-9)
    manifest = read_manifest(out / "fig4_manifest.json")
    assert "fig4.csv" in manifest["outputs"][0]


def test_storage_fig5_revenue_non_increasing(tmp_path):
    out = tmp_path / "out"
    assert run(["storage", "--figure", "5", "--out", str(out)]) == 0
    header, rows = read_csv(out / "fig5.csv")
    revenue = np.array([r[1] for r in rows])
    assert np.all(np.diff(revenue) <= 1e-12)
    for col in (2, 3):
        pt = np.array([r[col] for r in rows])
        assert np.all(np.diff(pt) <= 1e-12)


def test_storage_fig6_load_columns_round_trip(tmp_path):
    out = tmp_path / "out"
    assert run(["storage", "--figure", "6", "--out", str(out)]) == 0
    header, rows = read_csv(out / "fig6.csv")
    assert header[:2] == ["company_price", "eut_load"]
    assert len(rows) == 21
    eut = np.array([r[1] for r in rows])
    assert np.all(np.diff(eut) < 0)  # higher company price, less buying


def test_dsm_fig9_columns_round_trip(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text(
        "n_consumers = 3\nseed = 5\nshift_span = 5\nprice_coeff = 0.02\n"
        "alpha_grid = 0.2,0.6,1.0\nhour = 19\n"
    )
    out = tmp_path / "out"
    assert run(["dsm", "--config", str(cfg), "--figure", "9", "--out", str(out)]) == 0
    header, rows = read_csv(out / "fig9.csv")
    assert header == ["alpha", "eut_load", "pt_load"]
    assert len(rows) == 3
    assert rows[-1][1] == pytest.approx(rows[-1][2], abs=1e-9)  # alpha = 1


def test_storage_fig7_reference_monotone(tmp_path):
    out = tmp_path / "out"
    assert run(["storage", "--figure", "7", "--out", str(out)]) == 0
    header, rows = read_csv(out / "fig7.csv")
    assert header == ["reference", "gamma", "eut_total", "pt_total"]
    for gamma in (1.0, 2.0):
        totals = [r[3] for r in rows if r[1] == gamma]
        assert np.all(np.diff(totals) <= 1e-12)


def test_storage_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("load_1 = x\n")
    assert run(["storage", "--config", str(cfg), "--figure", "4"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("penalty_coeff", "-1"), ("load_1", "-3")])
def test_storage_out_of_range_config_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "load_1 = 20\nsurplus_1 = 10\nload_2 = 15\nsurplus_2 = 5\n"
        "penalty_coeff = 0.012\ncompany_price = 0.145\n".replace(f"{key} = ", f"{key} = {value} #")
    )
    assert run(["storage", "--config", str(cfg), "--figure", "4", "--out", str(tmp_path)]) == 2
    assert_input_error(capsys, key.split("_")[0])


@pytest.mark.parametrize(
    "line, figure, word",
    [
        ("b_grid = ,", "4", "b_grid"),
        ("b_grid = 0.09,0.06,0.03", "4", "b_grid"),
        ("b_grid = -0.03,0.03", "5", "selling_price"),
        ("rho_grid = ,", "6", "rho_grid"),
        ("rho_grid = 0.2,0.1", "6", "rho_grid"),
        ("ref_grid = ,", "7", "ref_grid"),
        ("ref_grid = nan", "7", "reference"),
        ("gammas = ,", "7", "gammas"),
        ("gammas = 0.5,2", "7", "gamma"),
        ("alphas = 0.25,nan", "5", "alpha"),
        ("frame_beta = 1.5", "7", "beta"),
    ],
)
def test_storage_bad_sweep_value_exits_2(tmp_path, capsys, line, figure, word):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "load_1 = 20\nsurplus_1 = 10\nload_2 = 15\nsurplus_2 = 5\n"
        f"penalty_coeff = 0.012\ncompany_price = 0.145\n{line}\n"
    )
    out = tmp_path / "out"
    assert run(["storage", "--config", str(cfg), "--figure", figure, "--out", str(out)]) == 2
    assert_input_error(capsys, word)
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--max-iter", "-1"], ["--tol", "nan"], ["--seed", "-1"]])
def test_dsm_bad_solver_limits_exit_2(tmp_path, capsys, flags):
    assert run(["dsm", "--figure", "8", *flags, "--out", str(tmp_path)]) == 2
    assert_input_error(capsys, flags[0].lstrip("-").replace("-", "_"))


@pytest.mark.parametrize(
    "line",
    [
        "max_iter = -1",
        "tol = nan",
        "price_coeff = nan",
        "offpeak_hours =",
        "offpeak_hours = 1,1,2",
        "seed = -3",
        "alphas = nan,0.5,0.5",
        "alpha_grid = 0:1:3",
        "alpha_grid = ,",
        "hour = 30",
        "flexible_low = 1.5",
    ],
)
def test_dsm_bad_config_value_exits_2(tmp_path, capsys, line):
    key = line.split()[0]
    base = [b for b in ("n_consumers = 3", "seed = 5") if b.split()[0] != key]
    cfg = tmp_path / "d.cfg"
    cfg.write_text("\n".join(base + [line]) + "\n")
    assert run(["dsm", "--config", str(cfg), "--figure", "8", "--out", str(tmp_path)]) == 2
    assert_input_error(capsys, key)


def test_dsm_fig8_fixture_and_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["dsm", "--figure", "8", "--out", str(out1)]) == 0
    assert run(["dsm", "--figure", "8", "--out", str(out2)]) == 0
    assert (out1 / "fig8.csv").read_bytes() == (out2 / "fig8.csv").read_bytes()
    header, rows = read_csv(out1 / "fig8.csv")
    assert header == ["hour", "eut_nonparticipating", "pt_nonparticipating"]
    assert len(rows) == 24
    manifest = read_manifest(out1 / "fig8_manifest.json")
    assert manifest["seed"] == 42


def test_dsm_seed_flag_generates_the_profiles(tmp_path):
    # the bundled config names a profiles CSV; --seed takes precedence over it
    out = tmp_path / "out"
    assert run(["dsm", "--figure", "8", "--seed", "7", "--out", str(out)]) == 0
    written = read_profiles_csv(out / "profiles.csv")
    expected = synth_profile(7, 6, (0.72, 0.92))
    assert len(written) == len(expected)
    for got, want in zip(written, expected):
        np.testing.assert_array_equal(got.hourly_demand, want.hourly_demand)
        assert got.flexible_fraction == want.flexible_fraction
    assert read_manifest(out / "fig8_manifest.json")["seed"] == 7


def test_dsm_config_without_a_flexible_range_takes_the_generator_default(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("n_consumers = 3\nalpha_grid = 0.5,1.0\n")
    out = tmp_path / "out"
    assert run(["dsm", "--config", str(cfg), "--figure", "9", "--out", str(out)]) == 0
    written = read_profiles_csv(out / "profiles.csv")
    expected = synth_profile(42, 3)
    assert len(written) == len(expected)
    for got, want in zip(written, expected):
        assert got.hourly_demand.tobytes() == want.hourly_demand.tobytes()
        assert repr(got.flexible_fraction) == repr(want.flexible_fraction)


def test_dsm_manifest_records_the_flags_over_the_config(tmp_path):
    out = tmp_path / "out"
    argv = ["dsm", "--figure", "8", "--seed", "7", "--tol", "1e-6", "--max-iter", "5000"]
    assert run([*argv, "--out", str(out)]) == 0
    config = read_manifest(out / "fig8_manifest.json")["config"]
    assert (config["seed"], config["tol"], config["max_iter"]) == ("7", "1e-06", "5000")
    assert "profiles_csv" not in config


def test_prospect_manifest_records_the_flags_over_the_config(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("alpha = 1.0\ngamma = 1.5\n")
    assert run(["prospect", "--config", str(cfg), "--alpha", "0.5", "--out", str(tmp_path)]) == 0
    config = read_manifest(tmp_path / "prospect_manifest.json")["config"]
    assert config == {"alpha": 0.5, "gamma": 1.5, "beta": 0.88, "reference": 0.0}


def test_dsm_solver_failure_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["dsm", "--figure", "8", "--max-iter", "0", "--out", str(out)]) == 3
    assert "solver failure" in capsys.readouterr().err
    assert not out.exists()


def test_storage_price_figure_without_equilibrium_has_empty_cells(tmp_path, monkeypatch):
    # fig 4 used to index the missing buy probabilities: a TypeError
    monkeypatch.setattr(storage, "solve_2x2", lambda game, behaviors: [])
    out = tmp_path / "out"
    assert run(["storage", "--figure", "4", "--out", str(out)]) == 0
    lines = (out / "fig4.csv").read_text().splitlines()
    assert lines[1] == "0.029999999999999999" + "," * 6


def test_dsm_fig8_rational_alphas_coincide(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text(
        "n_consumers = 3\nseed = 11\nshift_span = 5\nprice_coeff = 0.02\n"
        "alphas = 1.0,1.0,1.0\n"
    )
    out = tmp_path / "out"
    assert run(["dsm", "--config", str(cfg), "--figure", "8", "--out", str(out)]) == 0
    _, rows = read_csv(out / "fig8.csv")
    for row in rows:
        assert row[1] == pytest.approx(row[2], abs=1e-9)


def test_dsm_corrupt_profiles_exit_2(tmp_path, capsys):
    bad = tmp_path / "p.csv"
    bad.write_text("h00,h01\n1,2\n")
    cfg = tmp_path / "d.cfg"
    cfg.write_text(f"n_consumers = 2\nprofiles_csv = {bad.name}\n")
    assert run(["dsm", "--config", str(cfg), "--figure", "8"]) == 2
    err = capsys.readouterr().err
    assert "header" in err or "row" in err


def test_dsm_over_size_limit_exits_2(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("n_consumers = 20\n")
    out = tmp_path / "out"
    assert run(["dsm", "--config", str(cfg), "--figure", "8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "payoff entries" in err
    assert "Traceback" not in err
    assert not out.exists()  # the game is built before anything is written


def test_env_var_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PTGRID_OUT", str(tmp_path / "envout"))
    assert run(["prospect"]) == 0
    assert (tmp_path / "envout" / "prospect_report.txt").exists()


def test_unknown_command_exits_2(capsys):
    assert run(["bogus"]) == 2
