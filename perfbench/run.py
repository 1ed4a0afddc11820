#!/usr/bin/env python3
"""Build the perfbench binary from source (Release) and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wsj_dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench under the checkout; build output
goes to stderr, so the last line of stdout is the JSON result.
A --trace 1 run also writes its spans and phase trees to
.bench_build/traces/<workload>-seed<seed>.json. --selftest builds and runs
the benchmark's own tests, which include a smoke-sized run of every
workload.
"""

import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, target)


def fixed_layout():
    """Turns off address-space randomization for the benchmark process.

    Heap and stack addresses then repeat from run to run, which removes a
    layout-dependent share of the run-to-run spread. Best effort: the run
    proceeds with randomization when the call is unavailable.
    """
    addr_no_randomize = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xffffffff)
        if current != -1:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        pass


def option(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main(args):
    selftest = "--selftest" in args
    target = "perfbench_selftest" if selftest else "perfbench"
    try:
        binary = build(target)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if selftest:
        return subprocess.run([binary], stdout=sys.stderr).returncode
    command = [binary] + args
    if option(args, "--trace") == "1" and "--trace-out" not in args:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (option(args, "--workload"),
                                   option(args, "--seed"))
        command += ["--trace-out", os.path.join(traces, name)]
    return subprocess.run(command, preexec_fn=fixed_layout).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
