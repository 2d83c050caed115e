#!/usr/bin/env python3
"""DHARMA benchmark runner.

Builds the Go benchmark in this directory from source (everything it
writes goes under .bench_build/ at the repository root) and runs it.

One run, as BENCHMARK.json names it:
    python3 perfbench/run.py --workload browse-hot --seed 1 --seconds 20 --trace 0

Repeat mode: N runs in fresh processes with seeds first..first+N-1, then
each metric's median, quartiles and quartile spread (IQR / median). With
--trace 1 every seed is also run untraced, and the tracing overhead is
printed as the traced run's ops/s against the untraced one's:
    python3 perfbench/run.py --repeat 10 --workload annotate-durable --seconds 20

Self-test (each workload at a tiny size, a Naive-mode run and injected
store faults that the checks must reject):
    python3 perfbench/run.py --selftest
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "bin", "perfbench")
RUN_TIMEOUT = 170  # seconds one measured run may take, set-up and checks included
BUILD_TIMEOUT = 850


def go_env():
    """Environment that keeps the Go toolchain's caches inside .bench_build."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "xdg-config"),
                     ("XDG_CACHE_HOME", "xdg-cache"), ("TMPDIR", "tmp")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOFLAGS"] = ""
    env["GOTOOLCHAIN"] = "local"
    env["GOTELEMETRY"] = "off"
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at %s: the benchmark builds the repository's own sources" % ROOT)
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    try:
        proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                              timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit("perfbench: build failed: %s" % err)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % proc.returncode)


def run_once(workload, seed, seconds, trace, capture):
    """Runs the built benchmark once; returns (exit code, stdout or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--dir", os.path.join(BUILD, "perfbench")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=go_env(),
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %ds and was stopped" % RUN_TIMEOUT, file=sys.stderr)
        return 1, None
    return proc.returncode, out.decode() if capture else None


def result_of(out):
    return json.loads(out.strip().splitlines()[-1])


def summarize(name, values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def repeat(args):
    runs, plain = [], []
    for i in range(args.repeat):
        seed = args.first_seed + i
        started = time.time()
        code, out = run_once(args.workload, seed, args.seconds, args.trace, True)
        if code != 0:
            sys.exit("perfbench: seed %d exited %d" % (seed, code))
        res = result_of(out)
        runs.append(res)
        steal = [l.split(":")[-1].strip() for l in out.splitlines() if "stolen" in l]
        line = "seed %d: correct=%s attempted=%d failed=%d (%.0fs, steal %s)" % (
            seed, res["correct"], res["attempted"], res["failed"], time.time() - started,
            steal[0] if steal else "n/a")
        if args.trace == 1:
            code, out = run_once(args.workload, seed, args.seconds, 0, True)
            if code != 0:
                sys.exit("perfbench: untraced seed %d exited %d" % (seed, code))
            plain.append(result_of(out))
        print(line + "  " + " ".join("%s=%.4g" % (k, res["metrics"][k]["value"])
                                     for k in sorted(res["metrics"])[:12]), flush=True)

    print("\n%s, %d runs of %ss, seeds %d..%d" % (args.workload, len(runs), args.seconds,
                                                 args.first_seed, args.first_seed + len(runs) - 1))
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print("correct in every run: %s; failed share per run: %s" % (all(r["correct"] for r in runs), shares))
    print("%-34s %14s %14s %14s %9s  unit" % ("metric", "median", "q1", "q3", "iqr/med"))
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summarize(name, values)
        print("%-34s %14.4f %14.4f %14.4f %8.2f%%  %s" % (
            name, med, q1, q3, 100 * spread, runs[0]["metrics"][name]["unit"]))
    if plain:
        traced = statistics.median(r["metrics"]["trace.ops_per_s"]["value"] for r in runs)
        untraced = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in plain)
        print("tracing overhead: traced %.1f ops/s vs untraced %.1f ops/s (%.1f%% slower)" % (
            traced, untraced, 100 * (1 - traced / untraced)))
        for name in ("rpcs_per_op",):
            values = [r["metrics"][name]["value"] for r in plain]
            print("untraced %s median %.4f (traced trace.%s median %.4f)" % (
                name, statistics.median(values), name,
                statistics.median(r["metrics"]["trace." + name]["value"] for r in runs)))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="runs in fresh processes (repeat mode)")
    ap.add_argument("--first-seed", type=int, default=1, help="first seed of repeat mode")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    build()
    if args.selftest:
        proc = subprocess.run(["go", "test", "-count=1", "-timeout", "600s", "."], cwd=HERE, env=go_env())
        sys.exit(proc.returncode)
    if not args.workload:
        ap.error("--workload is required")
    if args.repeat > 0:
        repeat(args)
        return
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace, False)
    sys.exit(code)


if __name__ == "__main__":
    main()
