#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md in this directory).

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload gol_functional --seed 1 --seconds 20 --trace 0

The benchmark is configured and built as an optimized (Release) CMake
package in $CARGO_TARGET_DIR, or .bench_build when that is unset, relative to
the checkout. The last line of standard output is the benchmark's JSON result;
the exit code is the benchmark's.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "4"


def log(msg):
    print(f"e2ebench/run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, env=None):
    """Runs a build step, forwarding its output to stderr only on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"failed ({proc.returncode}): {' '.join(cmd)}")
        sys.exit(proc.returncode or 1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "multi", "scheduler.cpp")):
        log(f"no program sources under {os.path.join(ROOT, 'src')}")
        sys.exit(2)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
               "--target", "e2ebench"])
    return os.path.join(build_dir, "e2ebench")


def source_id():
    """The git commit when the checkout is a repository (never looking
    above it), else a digest of the program and benchmark sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["gol_functional", "nmf_cluster",
                                 "gemm_streamed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.abspath(build_dir))
    env = dict(os.environ)
    env.pop("MAPS_EXEC_THREADS", None)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--out-dir", os.path.abspath(build_dir), "--commit", source_id()],
        cwd=ROOT, env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
