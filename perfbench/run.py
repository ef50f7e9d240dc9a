#!/usr/bin/env python3
"""fsoi-sim benchmark: build, run one workload, check it, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--scale F] [--record]

Builds the simulator library and the benchmark program in perfbench/ into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload in a fresh process, checks every simulated output and prints,
as the last line of standard output, one JSON object:

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"run_s": {"value": 0.71, "unit": "s"}, ...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. --scale shrinks every instruction budget (smoke
tests; the recorded reference values hold only at scale 1). --record
stores this run's cycle count, instruction count and stat digest as the
reference for its workload in perfbench/expected.json (seed 7 only).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(HERE, "expected.json")
REFERENCE_SEED = 7


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """(Re)configure and (re)build the benchmark program; returns its path and a
    scratch directory beside it."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench"), os.path.join(out, "work")


def run_bench(binary, workdir, args):
    """Run the benchmark program in its own process; returns (result, peak RSS MB)."""
    os.makedirs(workdir, exist_ok=True)
    proc = subprocess.Popen([binary, "--workdir", workdir] + args,
                            stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 reports this child's own high-water mark, not the build's.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark program exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark program printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


# Timings are the median over PARTS consecutive, equal parts of a run's
# samples of each part's fastest sample. Other tenants of the shared
# host slow some samples by up to 1.6x; over 300-s traces under an
# intermittent memory-streaming load, the plain median of 35-s windows
# spread 11-15% (quartile distance over median) and this statistic
# 7-13%.
PARTS = 5


def typical(samples):
    """Median over PARTS consecutive parts of the samples (the last one
    takes the remainder) of each part's minimum."""
    parts = min(PARTS, len(samples))
    size = len(samples) // parts
    mins = [min(samples[i * size:(i + 1) * size if i < parts - 1 else None])
            for i in range(parts)]
    return statistics.median(mins)


def fingerprint(rep):
    return (rep["cycles"], rep["instructions"], rep["digest"])


def check(workload, reps, reference):
    """Count failed repetitions; see README.md "Correctness"."""
    majority = collections.Counter(map(fingerprint, reps)).most_common(1)[0][0]
    failed = 0
    for i, rep in enumerate(reps):
        why = rep["problem"]
        if not why and fingerprint(rep) != majority:
            why = "differs from the other repetitions"
        if not why and reference is not None and fingerprint(rep) != reference:
            why = "differs from the recorded seed-7 reference"
        if why:
            failed += 1
            log(f"FAILED {workload} repetition {i}: {why}")
    return failed, majority


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--record", action="store_true")
    opts = ap.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {opts.workload!r}")
    wanted = spec["per_layer" if opts.trace else "end_to_end"]
    if opts.seconds is None:
        opts.seconds = spec["run_seconds"]

    binary, workdir = build()
    raw, peak_rss_mb = run_bench(binary, workdir, [
        "--workload", opts.workload, "--seed", str(opts.seed),
        "--seconds", str(opts.seconds), "--trace", str(opts.trace),
        "--scale", str(opts.scale)])

    reference = None
    at_reference = opts.seed == REFERENCE_SEED and opts.scale == 1.0
    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            expected = json.load(f)
    if at_reference and not opts.record:
        ref = expected[opts.workload]
        reference = (ref["cycles"], ref["instructions"], ref["digest"])
    failed, majority = check(opts.workload, raw["reps"], reference)

    if opts.record:
        if not at_reference or failed:
            sys.exit("--record needs a clean run at seed 7, scale 1")
        expected[opts.workload] = dict(zip(
            ("cycles", "instructions", "digest"), majority))
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=2, sort_keys=True)
            f.write("\n")

    if opts.trace:
        values = raw["metrics"]
    else:
        cycles, instructions, _ = majority
        run_s = typical(raw["run_s"])
        values = {
            "run_s": run_s,
            "sim_cycles_per_s": cycles / run_s,
            "sim_instr_per_s": instructions / run_s,
            "setup_s": typical(raw["setup_s"]),
            "peak_rss_mb": peak_rss_mb,
        }
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        sys.exit(f"metric names differ from BENCHMARK.json: "
                 f"{sorted(set(values) ^ set(names))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        log(f"{opts.workload:>14} {name:<36} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(raw["reps"]),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
