#!/usr/bin/env python3
"""Benchmark entry point: builds the release `cgte` binary and the
`perfbench` driver from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Build output goes to stderr; stdout ends
with the driver's report line and its result line (see README.md).
Artifacts go to $CARGO_TARGET_DIR (default `.bench_build`); each run's
scratch files live under `.bench_work/` and are removed when it ends.
"""

import os
import signal
import subprocess
import sys
import time

# One run must end within 180 s; the driver's own steps are bounded
# tighter than this, so hitting it means something is wedged.
RUN_TIMEOUT_S = 170


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "cgte-cli", "--bin", "cgte"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    root = os.getcwd()
    for manifest in ("Cargo.toml", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, manifest)):
            sys.exit(f"run.py: {manifest} not found; run from the repository root")
    args = sys.argv[1:]
    opts = dict(zip(args[::2], args[1::2]))
    if "--workload" not in opts or "--seed" not in opts:
        sys.exit("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    target = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(root, target)
    work = os.path.join(root, ".bench_work",
                        f"{opts['--workload']}-{opts['--seed']}-{os.getpid()}")
    cmd = [os.path.join(target, "release", "perfbench"), *args,
           "--cgte", os.path.join(target, "release", "cgte"), "--work", work]
    # The driver and every `cgte` it spawns share a new process group, so
    # a wedged run can be stopped as a whole.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        sys.exit(f"run.py: driver exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


def kill_group(proc):
    """SIGKILLs the driver's process group and waits until it is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    main()
