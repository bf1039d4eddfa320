"""Record the benchmark's correctness references from the current program.

Usage, from the repository root: python3 bench/record_reference.py

Writes bench/reference/dsm_fig9_seed42.csv, the fig9.csv that
`ptgrid dsm --figure 9` writes with the bundled config, and
bench/reference/storage_figs.json, every row of the three storage sweeps
with its has_interior flags. Re-record only for a change that is meant to
alter these outputs, and say so in that change.
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from ptgrid import fixtures, formats

    import workloads

    reference = BENCH / "reference"
    reference.mkdir(exist_ok=True)
    scratch = ROOT / ".bench_out" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run(
            [sys.executable, "-m", "ptgrid.cli", "dsm", "--figure", "9", "--out", str(scratch)],
            env={**os.environ, "PYTHONPATH": str(src)},
            check=True,
        )
        shutil.copyfile(scratch / "fig9.csv", reference / "dsm_fig9_seed42.csv")

        cfg = formats.load_storage_config(fixtures.storage_config_path())
        outputs = workloads.StorageFigs().run({"cfg": cfg}, scratch)
        record = {
            sweep: [{"value": row.value, "cells": workloads.price_cells(row)}
                    for row in outputs[sweep]]
            for sweep in ("selling_price", "company_price")
        }
        record["framing"] = [dataclasses.asdict(row) for row in outputs["framing"]]
        with open(reference / "storage_figs.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
