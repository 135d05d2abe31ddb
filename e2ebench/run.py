#!/usr/bin/env python3
"""Entry point of the end-to-end MEANet benchmark.

    python3 e2ebench/run.py --workload camera_stream --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test

Run from the repository root. Each invocation:

1. builds the library, meanet_cloudd and the e2ebench binary from the
   checkout's sources into .bench_build/e2ebench (incremental after the
   first run);
2. trains the served models with that build, once per source tree: the
   weights live under .bench_build/prep/<hash of every compiled file>-s<prep
   seed>, so weights trained by one version of the code are never loaded by
   another;
3. runs the binary with every inherited MEANET_* variable removed, in its
   own process group, and relays its output. The last stdout line is the
   JSON result; the exit code is non-zero when a build step, a run or an
   output check fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("camera_stream", "bulk_mobilenet", "wire_offload", "edge_training")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
RUN_TIMEOUT_S = 170
DEFAULT_PREP_SEED = 1


def log(message):
    print(f"[e2ebench] {message}", file=sys.stderr, flush=True)


def clean_env():
    """The environment minus MEANET_* kernel knobs (and their names)."""
    cleared = sorted(k for k in os.environ if k.startswith("MEANET_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEANET_")}
    return env, cleared


def source_hash():
    """SHA-256 over every file the build compiles: the library, the daemon,
    the benchmark binary and their build files."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools"),
             os.path.join(BENCH_DIR, "src")]
    files = [os.path.join(ROOT, "CMakeLists.txt"), os.path.join(BENCH_DIR, "CMakeLists.txt")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def check(cmd, env):
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise SystemExit(f"[e2ebench] failed ({result.returncode}): {' '.join(cmd)}")


def build(env):
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        check(["cmake", "-S", os.path.relpath(BENCH_DIR, ROOT), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release", *generator], env)
    check(["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))], env)


def prepare(env, prep_seed):
    """Trains the served models once per source tree and prep seed."""
    prep_dir = os.path.join(BUILD_ROOT, "prep", f"{source_hash()}-s{prep_seed}")
    if os.path.isfile(os.path.join(prep_dir, "meta.txt")):
        return prep_dir
    staging = f"{prep_dir}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    log(f"training the served models into {prep_dir}")
    check([os.path.join(BUILD_DIR, "e2ebench"), "prepare", "--out", staging,
           "--prep-seed", str(prep_seed)], env)
    os.rename(staging, prep_dir)
    return prep_dir


def run_benchmark(cmd, env):
    """Runs the binary in its own process group; a timeout kills the group
    (the binary and any meanet_cloudd it spawned) and reaps it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopping it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 124
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: picks the inputs (and edge_training's data)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run printing the per-layer metrics")
    parser.add_argument("--prep-seed", type=int, default=DEFAULT_PREP_SEED,
                        help="seed the served models are trained from")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's helper tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.prep_seed < 0:
        parser.error("seeds are non-negative integers")

    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"no {needed} at the repository root {ROOT}: nothing to build")
            return 2

    env, cleared = clean_env()
    if cleared:
        log(f"cleared inherited kernel variables: {', '.join(cleared)}")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "e2ebench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build(env)
        if args.self_test:
            return subprocess.run([os.path.join(BUILD_DIR, "e2ebench_tests")], cwd=ROOT,
                                  env=env).returncode
        prep_dir = prepare(env, args.prep_seed)

    run_dir = os.path.join(BUILD_ROOT, "run")
    os.makedirs(run_dir, exist_ok=True)
    print("# env " + json.dumps({"cleared": cleared, "prep": prep_dir}), flush=True)
    return run_benchmark([os.path.join(BUILD_DIR, "e2ebench"), "run",
                       "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", repr(args.seconds), "--trace", str(args.trace),
                       "--prep", prep_dir, "--prep-seed", str(args.prep_seed),
                       "--cloudd", os.path.join(BUILD_DIR, "meanet", "tools", "meanet_cloudd"),
                       "--run-dir", run_dir], env)


if __name__ == "__main__":
    sys.exit(main())
