#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench.exe from source with
dune, runs it, and relays its output: detail lines, then one JSON line with
the end-to-end metrics (--trace 0) or the per-layer split (--trace 1).
Exits nonzero when the build fails or any output check fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["long-history", "exhaustive", "queue-judge", "service"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # The measured window, the last round that overruns it, the set-ups and
    # the output checks after the window.
    timeout_s = 2 * args.seconds + 120

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # No shared dune cache: everything the build writes stays in _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--display", "quiet", "./perfbench/bench.exe"],
            cwd=root,
            env=env,
            stdout=sys.stderr,
        )
    except OSError as e:
        sys.exit(f"perfbench: cannot run dune: {e}")
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    command = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # The service workload's client and server take turns (one closed-loop
    # client), so they share one CPU: a round trip then costs context
    # switches on that CPU instead of cross-CPU wake-ups, whose latency on
    # a shared host varies from run to run.
    pin = None
    if args.workload == "service" and hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    # A process group of its own, so a timeout also stops the server process
    # the service workload forks.
    proc = subprocess.Popen(command, cwd=root, start_new_session=True, preexec_fn=pin)
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {args.workload} did not finish within {timeout_s} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
