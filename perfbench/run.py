#!/usr/bin/env python3
"""Campaign benchmark for the SOS reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_driver (Release) from the
repository sources into $CARGO_TARGET_DIR (default .bench_build), writes the
workload's spec files from the seed under .bench_work/, runs the workload and
prints perfbench_driver's lines, a run-context stamp, and as the last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. The stamped result
is also written to .bench_work/results/. Exits non-zero when the build fails or
any correctness check fails.
"""

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("paper_mc", "scale_mc", "fleet_sweep", "design_study")
BENCH_DIR = Path(__file__).resolve().parent
FLEET_CAMPAIGNS = 8


def paper_specs(rng):
    seed = rng.getrandbits(48)
    common = """n = 10000
sos = 100
filters = 10
p_break = 0.5
mc_trials = auto:ci=0.015
mc_walks = 10
seed = {seed}
"""
    return {
        "paper_one_burst": """campaign = paper_one_burst
mode = sweep
attacker = one-burst
layers = 3, 4
mappings = one-to-one, one-to-two, one-to-all
break_in = 0, 200, 400
congestion = 2000, 6000
""" + common.format(seed=seed),
        "paper_successive": """campaign = paper_successive
mode = sweep
attacker = successive
rounds = 3
prior_knowledge = 0.2
layers = 3, 4, 6
mappings = one-to-one, one-to-two, one-to-half
break_in = 200, 400
congestion = 2000, 6000
""" + common.format(seed=seed + 1),
    }


def scale_specs(rng):
    specs = {}
    for label, n in (("1e6", 1000000), ("1e7", 10000000)):
        specs["scale_" + label] = f"""campaign = scale_{label}
mode = sweep
attacker = one-burst
n = {n}
sos = 100
filters = 10
p_break = 0.5
layers = 4
mappings = one-to-two
break_in = 200
congestion = 2000, 20000
mc_trials = 400
mc_walks = 10
seed = {rng.getrandbits(48)}
"""
    return specs


def fleet_specs(rng):
    specs = {}
    for i in range(FLEET_CAMPAIGNS):
        specs[f"fleet_{i}"] = f"""campaign = fleet_{i}
mode = sweep
attacker = one-burst
n = 10000
sos = 100
filters = 10
p_break = 0.5
layers = 3, 4, 5, 6
mappings = one-to-one, one-to-two, one-to-half, one-to-all
break_in = 0, 200, 400
congestion = 2000, 6000
mc_trials = 8
mc_walks = 10
seed = {rng.getrandbits(48)}
"""
    return specs


def design_specs(rng):
    return {
        "design_study": f"""optimize = design_study
n = 10000
filters = 10
layers = 1..8
sos = 40..200
mappings = one-to-one, one-to-two, one-to-five, one-to-half, one-to-all
distributions = even, increasing, decreasing
attacker = successive
rounds = 3
prior_knowledge = 0.2
p_break = 0.5
budget_total = 4000
budget_break_in_cost = 2
budget_congestion_cost = 1
split_steps = 21
searcher = exhaustive
validate_trials = 500
mc_walks = 10
seed = {rng.getrandbits(48)}
"""
    }


GENERATORS = {
    "paper_mc": paper_specs,
    "scale_mc": scale_specs,
    "fleet_sweep": fleet_specs,
    "design_study": design_specs,
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir, jobs):
    """Configures (once) and builds perfbench_driver; returns its path or
    None."""
    build_dir.mkdir(parents=True, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(jobs),
                  "--target", "perfbench_driver"])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, env=env)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            if step[1] == "-S":
                shutil.rmtree(build_dir, ignore_errors=True)
            return None
    driver = build_dir / "perfbench_driver"
    return driver if driver.exists() else None


def git_commit(root):
    try:
        result = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10)
        if result.returncode == 0:
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def build_context(build_dir):
    cache = build_dir / "CMakeCache.txt"
    build_type, compiler = "unknown", "unknown"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
            elif line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1]
    return build_type, compiler


def cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").exists():
        log("perfbench: run from the repository root (no src/ tree here)")
        return 2
    nproc = os.cpu_count() or 1
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = root / target / "perfbench"
    driver = build(build_dir, nproc)
    if driver is None:
        log("perfbench: build failed")
        return 2

    work = root / ".bench_work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    specs = work / "specs"
    specs.mkdir(parents=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    for name, text in GENERATORS[args.workload](rng).items():
        (specs / f"{name}.spec").write_text(text)

    load_before = os.getloadavg()
    cpu_before = cpu_times()
    started = time.time()
    result = subprocess.run(
        [str(driver), f"--workload={args.workload}", f"--specs={specs}",
         f"--work={work}", f"--seed={args.seed}", f"--seconds={args.seconds}",
         f"--trace={args.trace}", f"--nproc={nproc}"],
        stdout=subprocess.PIPE, text=True)
    elapsed = time.time() - started
    load_after = os.getloadavg()
    cpu_after = cpu_times()
    steal_share = None
    if cpu_before and cpu_after and cpu_after[1] > cpu_before[1]:
        steal_share = round((cpu_after[0] - cpu_before[0]) /
                            (cpu_after[1] - cpu_before[1]), 4)
    lines = result.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    summary = None
    if lines:
        try:
            summary = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    if summary is None:
        log(f"perfbench: driver exited {result.returncode} without a result")
        return result.returncode or 1

    build_type, compiler = build_context(build_dir)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "build_type": build_type,
        "compiler": compiler,
        "git_commit": git_commit(root),
        "host": platform.node(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "cpu_steal_share": steal_share,
        "loaded_host": max(load_before[0], load_after[0]) > nproc,
        "driver_wall_s": round(elapsed, 3),
    }
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    stamp.write_text(
        json.dumps({"context": context, "result": summary}, indent=2))
    print("context " + json.dumps(context))
    print(json.dumps(summary))
    # Stores are large and per-run; keep only specs, traces and results.
    for child in work.iterdir():
        if child.name in ("specs", "trace"):
            continue
        if child.is_dir():
            shutil.rmtree(child, ignore_errors=True)
        else:
            child.unlink()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
