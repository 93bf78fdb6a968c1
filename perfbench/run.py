#!/usr/bin/env python3
"""Builds and runs the layered benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The benchmark is compiled from this checkout's sources into
$CARGO_TARGET_DIR (default .bench_build)/perfbench, then run. Its standard
output ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --workload all every workload runs in turn and a summary line follows.
--selftest runs the benchmark's own tests, then a smoke-size run of every
workload that must print every end-to-end metric of BENCHMARK.json.
Metric definitions: perfbench/METRICS.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dict_de", "digits_dc"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds; returns the build directory or None."""
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen,
        ["cmake", "--build", out, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return out


def source_id():
    """The git commit when there is one, else a hash of the library sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_one(out, workload, seed, seconds, trace, capture=False):
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", "%g" % seconds, "--trace", str(trace),
           "--out", os.path.join(out, "out"), "--source-id", source_id()]
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest(out):
    if subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in WORKLOADS:
        res = run_one(out, w, 1, 2, 0, capture=True)
        got = last_json(res.stdout) if res.returncode == 0 else None
        metrics = (got or {}).get("metrics", {})
        for m in spec["end_to_end"]:
            have = metrics.get(m["name"])
            good = have is not None and have.get("unit") == m["unit"]
            ok = ok and good
            print("%s  smoke %s: %s [%s]" % ("ok  " if good else "FAIL", w,
                                            m["name"], m["unit"]))
        good = bool(got) and got["correct"] and got["failed"] == 0
        ok = ok and good
        print("%s  smoke %s: correct, failed = 0" % ("ok  " if good else "FAIL", w))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload not in WORKLOADS + ["all"]:
        ap.error("--workload must be one of %s or all" % ", ".join(WORKLOADS))

    out = build()
    if out is None:
        return 1
    if args.selftest:
        return selftest(out)
    if args.workload != "all":
        return run_one(out, args.workload, args.seed, args.seconds,
                       args.trace).returncode
    summary = {}
    for w in WORKLOADS:
        res = run_one(out, w, args.seed, args.seconds, args.trace, capture=True)
        sys.stdout.write(res.stdout)
        if res.returncode:
            return res.returncode
        summary[w] = last_json(res.stdout)
    print(json.dumps({"workloads": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
