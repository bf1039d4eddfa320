"""The six-consumer participation-timing game on the bundled fixture.

Consumers pick an evening hour to start shifting their flexible load into
the overnight trough, or opt out entirely. Prices scale with total hourly
load, so participation is a congestion game: worthwhile until the trough
fills up. The run compares the rational equilibrium with a heterogeneous
behavioral population and then sweeps a shared rationality level.
"""
import numpy as np

from ptgrid.dsm import hourly_load_report, rationality_sweep
from ptgrid.fixtures import dsm_config_path
from ptgrid.formats import load_dsm_config

cfg = load_dsm_config(dsm_config_path())
profiles, config = cfg["profiles"], cfg["config"]

total = sum(p.hourly_demand for p in profiles)
print(f"{config.n_consumers} consumers, evening peak "
      f"{total[17:22].max():.1f} kWh, overnight trough {total[2:6].min():.1f} kWh")
print("rationality mix:", config.alphas)

report = hourly_load_report(profiles, config)
print("\nexpected nonparticipating load (kWh)")
print(f"{'hour':>5} {'rational':>9} {'behavioral':>11}")
for h in range(16, 24):
    print(f"{h:5d} {report.eut[h]:9.3f} {report.pt[h]:11.3f}")
evening = slice(21, 24)
print(f"\n21:00-23:00 total: rational {report.eut[evening].sum():.2f}, "
      f"behavioral {report.pt[evening].sum():.2f}")
print("the least rational consumers sit out, leaving more evening load unshifted")

print("\nshared-rationality sweep at 19:00")
sweep = rationality_sweep(profiles, config, np.arange(0.05, 1.01, 0.1), hour=19)
print(f"rational level: {sweep.eut_load:.3f} kWh "
      f"({sweep.eut_load / total[19]:.1%} of the hour's demand)")
for a, v in zip(sweep.alphas, sweep.pt_loads):
    marker = "+" if v > sweep.eut_load + 1e-6 else ("-" if v < sweep.eut_load - 1e-6 else " ")
    print(f"  alpha={a:4.2f}: {v:7.3f} {marker}")
print("heavy distortion keeps consumers out (+); mild distortion draws an")
print("extra participant in (-); near rationality the two coincide")
