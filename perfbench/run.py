#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold_scan --seed 1 --seconds 10 --trace 0

The driver (perfbench/driver.cc) is compiled together with the
libraries under src/ into .bench_build/perfbench; an up-to-date build is
a no-op. Build output goes to stderr, so the driver's last stdout line
(one JSON object) stays the last line of this script's stdout. The exit
code is the driver's, or non-zero when the build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cold_scan", "chain_follow")
# A run measures for --seconds (twice with --trace 1) plus set-up and
# checks; anything longer than this is a hung run.
DRIVER_TIMEOUT_S = 170
BUILD_JOBS = "4"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def source_digest():
    """SHA-256 over every file under src/ and perfbench/ (path + bytes):
    identifies the measured code in checkouts that carry no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if shutil.which("git") is None or not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
           "-j", BUILD_JOBS]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    args = parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest(),
           "--trace-out",
           os.path.join(BUILD_DIR, "trace_%s.json" % args.workload)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: driver exceeded %ds" % DRIVER_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
