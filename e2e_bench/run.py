#!/usr/bin/env python3
"""Build and run the auditherm end-to-end benchmark.

Usage (from the repository root):

    python3 e2e_bench/run.py --workload analyze|serve|fleet --seed N \
        --seconds S --trace 0|1
    python3 e2e_bench/run.py --workload analyze --self-test

The first call configures and builds the program and the benchmark from
source into the build directory ($CARGO_TARGET_DIR if set, else
.bench_build); later calls rebuild only what changed. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result.
"""

import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(build_root):
    build_dir = os.path.join(build_root, "e2e_bench")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no program sources at %s" % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "e2e_bench"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2e_bench")


def main():
    args = sys.argv[1:]
    workload = "unknown"
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        workload = args[args.index("--workload") + 1]
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("run.py: build failed: %s" % err)
    work_dir = os.path.join(BENCH_DIR, "work", os.path.basename(workload))
    results_dir = os.path.join(BENCH_DIR, "results")
    sys.stdout.flush()
    completed = subprocess.run([binary] + args + ["--work-dir", work_dir,
                                                  "--results-dir", results_dir])
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(work_dir))
    except OSError:
        pass
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
