"""Output that must not depend on the OpenBLAS kernel the CPU selects.

OPENBLAS_CORETYPE forces a DYNAMIC_ARCH OpenBLAS onto one kernel family, so
child processes under Haswell, Prescott and SkylakeX run the summation
orders of AVX2, SSE3 and AVX-512 CPUs on one host. Where numpy is not built
on OpenBLAS the variable does nothing, and the tests skip.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ptgrid
from ptgrid.cli import main
from ptgrid.fixtures import example_game_path

KERNELS = ("Haswell", "Prescott", "SkylakeX")


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        return "unknown"


def run_child(args, coretype):
    src = str(Path(ptgrid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": coretype}
    out = subprocess.run(
        [sys.executable, "-m", "ptgrid.cli", *args], capture_output=True, check=True, env=env
    )
    return out.stdout


@pytest.mark.parametrize("name", ["dominance", "matching_pennies"])
def test_solve_with_grid_prints_the_same_bytes_under_every_kernel(name, capsys):
    if "openblas" not in blas_name().lower():
        pytest.skip(f"numpy's BLAS is {blas_name()!r}, not OpenBLAS: OPENBLAS_CORETYPE does nothing")
    args = ["solve", str(example_game_path(name)), "--grid", "50"]
    assert main(args) == 0
    here = capsys.readouterr().out.encode()
    for coretype in KERNELS:
        assert run_child(args, coretype) == here, coretype


def test_dominance_oracle_list_is_pinned(capsys):
    # the grid oracle's profiles on the dominance fixture; an FMA dot in the
    # certificate printed 0.06 in place of 0.12
    assert main(["solve", str(example_game_path("dominance")), "--grid", "50"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    firsts = [float(row[1].strip("(,")) for row in rows if row[0] == "grid-oracle"]
    assert firsts == [0.12, 0.10, 0.08, 0.04, 0.02, 0.0]
