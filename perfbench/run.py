#!/usr/bin/env python3
"""Builds the CATT benchmark from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload cs_sweep --seed 1 --seconds 25 --trace 0

The first run configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/perfbench with an optimized build type; later
runs rebuild incrementally. The self-tests run before every benchmark run.
All arguments are passed to the benchmark program; the last line it prints is the JSON
result. Build output goes to stderr.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-scratch")
TMP = os.path.join(ROOT, ".bench_build", "tmp")


def build():
    # Compilers put their temporary files in TMPDIR; keep them in the checkout.
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    jobs = str(len(os.sched_getaffinity(0)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark is built from."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def main():
    build()
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode != 0:
        sys.exit("perfbench: self-tests failed")
    cmd = [os.path.join(BUILD, "catt_perfbench"), *sys.argv[1:],
           "--expected", os.path.join(HERE, "expected"), "--scratch", SCRATCH,
           "--commit", source_id()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
