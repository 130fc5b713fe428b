#!/usr/bin/env python3
"""Build and run the ccdem host-time benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later calls only
re-check the build.  One workload per call: the last stdout line is the
JSON result {correct, attempted, failed, metrics}, whose metrics are
BENCHMARK.json's end_to_end (--trace 0) or per_layer (--trace 1) names; a
report with the host block and every metric measured lands in
.bench_build/reports/.  With --trace 0, set-up is repeated in fresh
processes and setup_s is the median.  `--workload all` runs every workload
of BENCHMARK.json REPS times in an order rotated per repetition, so none
always runs first, and prints the medians.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

# steady_video is not in BENCHMARK.json (its host time follows the host's
# memory-bandwidth swings, see README.md) but stays runnable by name.
WORKLOADS = ["steady_video", "steady_interactive", "dst_fuzz", "campaign_ab"]
SETUP_SAMPLES = 9  # set-ups per --trace 0 run: the timed run's and 8 more
REPS = 3  # repetitions of every workload with --workload all

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ccdem_perfbench")
# The compiler's and the benchmark's temporary files stay in the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(trace):
    """BENCHMARK.json's metric names and units for this kind of run."""
    spec = benchmark_spec()
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(os.cpu_count() or 1)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=ENV)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, env=ENV)


def revision():
    """Commit (when the checkout is a git work tree) and a digest of src/."""
    commit = "none"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            loose = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(loose):
                with open(loose) as f:
                    commit = f.read().strip()
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return f"{commit} src-sha256:{digest.hexdigest()[:16]}"


def run_binary(args, extra, timeout):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.run([BINARY] + args + extra, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, env=ENV)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def run_one(workload, seed, seconds, trace, commit, quiet=False):
    """One workload: returns (exit code, result dict or None)."""
    work = os.path.join(BUILD, f"work-{os.getpid()}")
    report = os.path.join(BUILD, "reports",
                          f"{workload}-seed{seed}-trace{trace}.json")
    common = ["--workload", workload, "--seed", str(seed), "--work-dir", work]
    try:
        code, lines = run_binary(
            common, ["--seconds", str(seconds), "--trace", str(trace),
                     "--report", report, "--commit", commit],
            timeout=seconds + 150)
        if not quiet:
            for line in lines[:-1]:
                print(line)
        if not lines:
            return (code or 1), None
        result = json.loads(lines[-1])
        measured = result["metrics"]
        result["metrics"] = {}
        for name, unit in declared_metrics(trace).items():
            if measured.get(name, {}).get("unit") != unit:
                log(f"metric {name} ({unit}) was not measured in that unit")
                return 1, None
            result["metrics"][name] = measured[name]
        if trace == 0 and code == 0:
            setups = [result["metrics"]["setup_s"]["value"]]
            for _ in range(SETUP_SAMPLES - 1):
                scode, slines = run_binary(common, ["--setup-only"], 150)
                if scode != 0 or not slines:
                    return (scode or 1), None
                setups.append(json.loads(slines[-1])["setup_s"])
            median = statistics.median(setups)
            result["metrics"]["setup_s"]["value"] = median
            if not quiet:
                print(f"setup_s samples = {setups} s (median {median})")
            with open(report) as f:
                rep = json.load(f)
            rep["metrics"]["setup_s"]["value"] = median
            rep["metrics"]["setup_s"]["samples"] = setups
            with open(report, "w") as f:
                json.dump(rep, f, indent=2)
                f.write("\n")
        return code, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(seed, seconds, commit):
    """BENCHMARK.json's workloads, REPS times, in an order rotated per
    repetition."""
    workloads = [w["name"] for w in benchmark_spec()["workloads"]]
    values = {w: {} for w in workloads}
    worst = 0
    for rep in range(REPS):
        k = rep % len(workloads)
        order = workloads[k:] + workloads[:k]
        for w in order:
            log(f"rep {rep + 1}/{REPS}: {w}")
            code, result = run_one(w, seed + rep, seconds, 0, commit, quiet=True)
            worst = worst or code
            if result is None:
                return code or 1
            for name, m in result["metrics"].items():
                values[w].setdefault(name, (m["unit"], []))[1].append(m["value"])
            if not result["correct"]:
                worst = worst or 1
    summary = {}
    for w in workloads:
        summary[w] = {}
        for name, (unit, vals) in values[w].items():
            med = statistics.median(vals)
            summary[w][name] = {"median": med, "min": min(vals),
                                "max": max(vals), "unit": unit}
            print(f"{w:19s} {name:20s} median {med:.6g} {unit} "
                  f"(min {min(vals):.6g}, max {max(vals):.6g}, n={len(vals)})")
    path = os.path.join(BUILD, "reports", f"all-seed{seed}.json")
    with open(path, "w") as f:
        json.dump({"seed": seed, "seconds": seconds, "reps": REPS,
                   "commit": commit, "workloads": summary}, f, indent=2)
        f.write("\n")
    print(json.dumps({"correct": worst == 0, "report": path}))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    commit = revision()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, commit)
    code, result = run_one(args.workload, args.seed, args.seconds, args.trace,
                           commit)
    if result is None:
        log("the benchmark printed no result")
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
