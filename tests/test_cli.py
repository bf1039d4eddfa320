import json

import numpy as np
import pytest

from ptgrid.cli import main
from ptgrid.fixtures import example_game_path
from ptgrid.dsm import synth_profile
from ptgrid.formats import read_csv, read_manifest, read_profiles_csv


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


def test_env_var_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PTGRID_OUT", str(tmp_path / "envout"))
    assert run(["prospect"]) == 0
    assert (tmp_path / "envout" / "prospect_report.txt").exists()


def test_unknown_command_exits_2(capsys):
    assert run(["bogus"]) == 2
