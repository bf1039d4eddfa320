"""ptgrid benchmark entry point.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds R --trace 0|1

Runs one workload, one fresh single-threaded child process at a time, and
prints one JSON object as its last line of output. With --trace 0 it
reports the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced pass. Environment details and the raw child results go to the line
before it and to .bench_out/results.jsonl. See bench/README.md.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_BUDGET_S = 170.0
SETUP_SAMPLES = 5
# Cold passes measured per run, each in its own process on its own input
# set. dsm-scale's solver work varies by up to 40% between seeds; on
# dsm-fig9 and custom-games one cold pass takes 7-10 s.
COLD_SAMPLES = {"dsm-fig9": 1, "storage-figs": 5, "custom-games": 1, "dsm-scale": 3}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, mode: str, input_set: int, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run budget exhausted")
    opts = {"workload": args.workload, "seed": args.seed, "mode": mode,
            "seconds": args.seconds, "set": input_set, "root": str(ROOT)}
    opts["spawn"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(opts)],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, timeout=remaining, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child exceeded the run budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def environment(child: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None  # not a git checkout
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, timeout=30, check=True,
            ).stdout.decode().strip()
        except (subprocess.SubprocessError, OSError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        **child["versions"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure(args, deadline: float) -> tuple:
    if args.trace:
        child = run_child(args, "trace", 0, deadline)
        metrics = {
            "setup.import_s": child["import_s"],
            "setup.inputs_s": child["inputs_s"],
            **child["trace"],
        }
        return [child], metrics
    cold = COLD_SAMPLES[args.workload] - 1
    children = [run_child(args, "cold" if i < cold else "setup", i + 1, deadline)
                for i in range(SETUP_SAMPLES - 1)]
    steady = run_child(args, "steady", 0, deadline)
    children.append(steady)
    attempted = sum(c["attempted"] for c in children)
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "cold_pass_s": statistics.median(c["cold_s"] for c in children if "cold_s" in c),
        "points_per_s": steady["points_per_s"],
        "peak_rss_mb": steady["maxrss_mb"],
        "success_ratio": sum(c["succeeded"] for c in children) / attempted,
    }
    return children, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(COLD_SAMPLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ptgrid" / "__init__.py").is_file():
        print(f"error: no ptgrid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        children, metrics = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    missing = sorted({m["name"] for m in declared} - metrics.keys())
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    wrong = sum(c["wrong"] for c in children)
    result = {
        "correct": wrong == 0,
        "attempted": sum(c["attempted"] for c in children),
        "failed": wrong,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(children[-1]), "children": children}
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, "result": result}) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
