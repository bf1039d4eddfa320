import re

import numpy as np
import pytest

from ptgrid.dsm import synth_profile
from ptgrid.fixtures import dsm_config_path
from ptgrid.formats import (
    MAX_SWEEP_VALUES,
    ConfigError,
    load_dsm_config,
    load_storage_config,
    parse_grid,
    read_csv,
    read_kv_config,
    read_manifest,
    read_profiles_csv,
    write_csv,
    write_manifest,
    write_profiles_csv,
)

STORAGE_CFG = (
    "load_1 = 20\nsurplus_1 = 10\nload_2 = 15\nsurplus_2 = 5\n"
    "penalty_coeff = 0.012\ncompany_price = 0.145\n"
)


def test_kv_parsing(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# comment\nkey = 1.5\nname = hello  # trailing\n\n")
    parsed = read_kv_config(cfg)
    assert parsed == {"key": "1.5", "name": "hello"}


def test_kv_errors(tmp_path):
    with pytest.raises(ConfigError):
        read_kv_config(tmp_path / "missing.cfg")
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line\n")
    with pytest.raises(ConfigError):
        read_kv_config(bad)
    dup = tmp_path / "dup.cfg"
    dup.write_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        read_kv_config(dup)


def test_parse_grid_forms():
    np.testing.assert_allclose(parse_grid("0.0:1.0:5"), [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(parse_grid("1,2,3"), [1.0, 2.0, 3.0])
    with pytest.raises(ConfigError):
        parse_grid("0:1")
    with pytest.raises(ConfigError):
        parse_grid("a,b")


def test_parse_grid_count_is_checked_before_allocating():
    assert parse_grid(f"0:1:{MAX_SWEEP_VALUES}").shape == (MAX_SWEEP_VALUES,)
    with pytest.raises(ConfigError, match=f"count must lie in \\[1, {MAX_SWEEP_VALUES}\\]"):
        parse_grid(f"0:1:{MAX_SWEEP_VALUES + 1}")


@pytest.mark.parametrize("key", ["b_grid", "rho_grid", "ref_grid", "gammas", "alphas", "alpha_grid"])
def test_sweep_key_over_the_limit(tmp_path, key):
    # a comma list, which parse_grid does not count, one value over the limit
    values = ",".join(map(repr, np.linspace(0.5, 1.0, MAX_SWEEP_VALUES + 1).tolist()))
    cfg = tmp_path / "s.cfg"
    if key == "alpha_grid":
        cfg.write_text(f"alpha_grid = {values}\n")
        load = load_dsm_config
    else:
        cfg.write_text(STORAGE_CFG + f"{key} = {values}\n")
        load = load_storage_config
    with pytest.raises(ConfigError, match=f"{key} holds {MAX_SWEEP_VALUES + 1} values"):
        load(cfg)


def test_storage_config_round_trip(tmp_path):
    from ptgrid.fixtures import storage_config_path

    cfg = load_storage_config(storage_config_path())
    assert cfg["consumers"][0].load == 20.0
    assert cfg["consumers"][1].surplus == 5.0
    assert cfg["grid"].nominal_generation == 100.0
    assert cfg["alphas"] == [0.25, 0.65]
    assert cfg["b_grid"].shape == (25,)


def test_storage_config_missing_key(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("load_1 = 20\nsurplus_1 = 10\nload_2 = 15\nsurplus_2 = 5\n")
    with pytest.raises(ConfigError):
        load_storage_config(cfg)  # penalty_coeff and company_price required


def test_dsm_config_fixture_loads():
    cfg = load_dsm_config(dsm_config_path())
    assert cfg["config"].n_consumers == 6
    assert cfg["config"].price_exponent == 1.82
    assert cfg["config"].alphas == (0.5, 0.5, 0.2, 0.1, 0.1, 0.1)
    assert cfg["profiles_csv"] == "dsm_profiles_seed42.csv"
    assert cfg["hour"] == 19
    frozen = read_profiles_csv(dsm_config_path().parent / "dsm_profiles_seed42.csv")
    assert _same_profiles(cfg["profiles"], frozen)


def _same_profiles(a, b) -> bool:
    return len(a) == len(b) and all(
        p.hourly_demand.tobytes() == q.hourly_demand.tobytes()
        and p.flexible_fraction == q.flexible_fraction
        for p, q in zip(a, b)
    )


def test_dsm_config_resolves_its_profiles(tmp_path, monkeypatch):
    # without profiles_csv, the seed's synthetic profiles
    cfg = tmp_path / "d.cfg"
    cfg.write_text("n_consumers = 3\nseed = 7\nflexible_low = 0.5\nflexible_high = 0.6\n")
    assert _same_profiles(load_dsm_config(cfg)["profiles"], synth_profile(7, 3, (0.5, 0.6)))
    # a relative profiles_csv lies beside the config, whatever the working
    # directory is and however the config's path is given, and an absolute
    # one is read as it is
    (tmp_path / "data").mkdir()
    (tmp_path / "elsewhere").mkdir()
    profiles = synth_profile(11, 3)
    write_profiles_csv(tmp_path / "data" / "p.csv", profiles)
    cfg = tmp_path / "data" / "d.cfg"
    monkeypatch.chdir(tmp_path / "elsewhere")
    for name in ("p.csv", tmp_path / "data" / "p.csv"):
        cfg.write_text(f"n_consumers = 3\nprofiles_csv = {name}\n")
        for path in (cfg, "../data/d.cfg"):
            assert _same_profiles(load_dsm_config(path)["profiles"], profiles)
    cfg.write_text("n_consumers = 4\nprofiles_csv = p.csv\n")
    with pytest.raises(ConfigError, match="profiles_csv: .*expected 4 profiles, got 3"):
        load_dsm_config(cfg)


def test_dsm_config_bad_values(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("n_consumers = 1\n")
    with pytest.raises(ConfigError):
        load_dsm_config(cfg)
    cfg.write_text("start_window = 18,26\n")
    with pytest.raises(ConfigError):
        load_dsm_config(cfg)
    for line in ("max_iter = -1", "tol = -1e-9", "tol = nan", "price_coeff = nan",
                 "price_exponent = inf"):
        cfg.write_text(line + "\n")
        with pytest.raises(ConfigError, match=line.split()[0]):
            load_dsm_config(cfg)


@pytest.mark.parametrize("key, value", [("penalty_coeff", "-1"), ("load_1", "-3")])
def test_storage_config_out_of_range_value(tmp_path, key, value):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(STORAGE_CFG.replace(f"{key} = ", f"{key} = {value}  # "))
    with pytest.raises(ConfigError, match=key.split("_")[0]):
        load_storage_config(cfg)


def test_profiles_csv_round_trip(tmp_path):
    profiles = synth_profile(5, 3)
    path = tmp_path / "p.csv"
    write_profiles_csv(path, profiles)
    back = read_profiles_csv(path)
    assert len(back) == 3
    for a, b in zip(profiles, back):
        np.testing.assert_array_equal(a.hourly_demand, b.hourly_demand)
        assert a.flexible_fraction == b.flexible_fraction


def test_profiles_csv_diagnostics(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("h00,h01\n1,2\n")
    with pytest.raises(ConfigError, match="bad header"):
        read_profiles_csv(path)
    header = ",".join([f"h{h:02d}" for h in range(24)] + ["flexible_fraction"])
    path.write_text(header + "\n" + ",".join(["1"] * 24) + "\n")
    with pytest.raises(ConfigError, match="row 2"):
        read_profiles_csv(path)
    path.write_text(header + "\n" + ",".join(["x"] * 25) + "\n")
    with pytest.raises(ConfigError, match="row 2"):
        read_profiles_csv(path)
    path.write_text(header + "\n" + ",".join(["-1"] + ["1"] * 24) + "\n")
    with pytest.raises(ConfigError, match="row 2: hourly_demand must be finite and non-negative"):
        read_profiles_csv(path)
    path.write_text(header + "\n")
    with pytest.raises(ConfigError, match="no profile rows"):
        read_profiles_csv(path)
    path.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        read_profiles_csv(path)
    for reader in (read_profiles_csv, read_csv):
        with pytest.raises(ConfigError, match="csv file not found"):
            reader(tmp_path)
    # bytes that are not UTF-8 raised a bare UnicodeDecodeError naming no file
    path.write_bytes(b"h00\n\xff\xfe")
    for reader in (read_profiles_csv, read_csv):
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
            reader(path)


def test_csv_read_back_exact(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[0.1, 1.0 / 3.0], [1e-17, 123456.789012345678]]
    write_csv(path, ["a", "b"], rows)
    header, back = read_csv(path)
    assert header == ["a", "b"]
    for r, b in zip(rows, back):
        assert r == b  # %.17g round-trips doubles exactly


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.json"
    write_manifest(path, "storage --figure 4", {"k": "v"}, ["fig4.csv"], seed=7)
    m = read_manifest(path)
    assert m["command"] == "storage --figure 4"
    assert m["config"] == {"k": "v"}
    assert m["outputs"] == ["fig4.csv"]
    assert m["seed"] == 7
    assert m["version"]
