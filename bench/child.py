"""One benchmark process: start-up, then passes of one workload.

Usage: python child.py '{"workload": W, "seed": S, "mode": M, "seconds": R,
"set": K, "spawn": T, "root": DIR}', where T is the parent's time.monotonic()
just before it started this process. Modes:

  setup   import ptgrid and load the inputs
  cold    setup, then one pass
  steady  setup, one pass, then passes for R seconds of work
  trace   steady, then one untraced and one traced pass

The first pass and the last two trace passes use input set K (see
workloads.input_seed); each warm pass loads the next set.

Prints one JSON object. Times are in reference seconds (see speed.py).
"""
import json
import os
import resource
import shutil
import sys
from pathlib import Path

from speed import SpeedSampler


def main() -> int:
    opts = json.loads(sys.argv[1])
    root = os.path.realpath(opts["root"])
    sampler = SpeedSampler()
    sampler.start()
    spawn = opts["spawn"]
    t_import = sampler.now()

    import ptgrid

    t_imported = sampler.now()
    expected = os.path.join(root, "src", "ptgrid")
    if os.path.dirname(os.path.realpath(ptgrid.__file__)) != expected:
        print(f"child: imported {ptgrid.__file__}, expected {expected}", file=sys.stderr)
        return 2

    import workloads

    workload = workloads.WORKLOADS[opts["workload"]]
    inputs = workload.load(workloads.input_seed(opts["seed"], opts["set"]))
    t_setup = sampler.now()
    ref = sampler.reference_seconds
    out = {
        "setup_s": ref(spawn, t_setup),
        "setup_raw_s": t_setup - spawn,
        "import_s": ref(t_import, t_imported),
        "inputs_s": ref(t_imported, t_setup),
        "attempted": 0,
        "succeeded": 0,
        "wrong": 0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        },
    }
    out_dir = Path(root, ".bench_out", f"pass-{os.getpid()}")
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if opts["mode"] != "setup":
            run_passes(opts, workloads, inputs, sampler, out, out_dir, spawn)
    finally:
        sampler.stop()
        shutil.rmtree(out_dir, ignore_errors=True)
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


def run_passes(opts, workloads, inputs, sampler, out, out_dir, spawn):
    workload = workloads.WORKLOADS[opts["workload"]]

    def timed_pass(inputs):
        start = sampler.now()
        outputs = workload.run(inputs, out_dir)
        return start, sampler.now(), outputs

    def count(inputs, outputs):
        tally = workload.check(inputs, outputs)
        out["attempted"] += tally.attempted
        out["succeeded"] += tally.succeeded
        out["wrong"] += tally.wrong
        return tally.attempted

    _, cold_end, outputs = timed_pass(inputs)
    out["cold_s"] = sampler.reference_seconds(spawn, cold_end)
    out["cold_raw_s"] = cold_end - spawn
    count(inputs, outputs)
    if opts["mode"] == "cold":
        return

    work = warm_s = 0.0
    points = passes = 0
    while work < opts["seconds"] or points == 0:
        passes += 1
        warm_inputs = workload.load(workloads.input_seed(opts["seed"], opts["set"] + passes))
        start, end, outputs = timed_pass(warm_inputs)
        work += end - start
        warm_s += sampler.reference_seconds(start, end)
        points += count(warm_inputs, outputs)
    out["points_per_s"] = points / warm_s
    out["raw_points_per_s"] = points / work
    if opts["mode"] != "trace":
        return

    from tracer import Tracer

    start, end, outputs = timed_pass(inputs)
    untraced_pps = count(inputs, outputs) / sampler.reference_seconds(start, end)
    with Tracer(sampler.now) as tracer:
        start, end, outputs = timed_pass(inputs)
    pass_s = sampler.reference_seconds(start, end)
    traced_pps = count(inputs, outputs) / pass_s
    tracer.write_spans(out_dir.parent / f"spans-{opts['workload']}.tsv")
    out["trace"] = {
        **tracer.metrics(end - start),
        "trace.pass_s": pass_s,
        "trace.self_share_sum": tracer.self_seconds() / (end - start),
        "trace.points_per_s": traced_pps,
        "trace.untraced_points_per_s": untraced_pps,
        "trace.overhead_ratio": untraced_pps / traced_pps - 1.0,
    }


if __name__ == "__main__":
    sys.exit(main())
