#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of the repository. The first call configures and builds
the decima library and the harness under .bench_build/perfbench (a few
minutes); later calls only re-check the build. The harness prints one JSON
object as the last line of standard output; build logs go to standard error.
--self-test builds and runs the harness's own check tests instead.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the harness; returns the build dir."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("run from the root of the decima repository "
             "(no CMakeLists.txt and src/ here)")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return BUILD


def main(argv):
    if argv == ["--self-test"]:
        proc = subprocess.run([os.path.join(build(), "perfbench_checks_test")])
        return proc.returncode
    if len(argv) % 2 or not argv:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>")
    binary = os.path.join(build(), "perfbench")
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE)
    out = proc.stdout.decode()
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("harness exited with code %d" % proc.returncode)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
