#!/usr/bin/env python3
"""Builds and runs the repository benchmark, fim_perfbench.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (which compiles the library
from src/) in Release mode under .bench_build/ (or $CARGO_TARGET_DIR);
later runs rebuild incrementally. The program's output is passed through.
Its last line is one JSON object; this script checks that the metrics in
it are exactly the ones BENCHMARK.json lists for the mode (end_to_end for
--trace 0, per_layer for --trace 1), with the same units, and withholds
the line and exits non-zero if they are not.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    source_dir = os.path.join(ROOT, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "fim_perfbench")


def expected_metrics(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = "--trace" in args and args[args.index("--trace") + 1] == "1"
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    args = sys.argv[1:]
    binary = build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 2
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("benchmark timed out", file=sys.stderr)
        return 3
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or "--self-test" in args:
        sys.stdout.write(out)
        return proc.returncode
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(args)
    if got != want:
        print("metrics differ from BENCHMARK.json: missing %s, extra %s" %
              (sorted(set(want) - set(got)), sorted(set(got) - set(want))),
              file=sys.stderr)
        return 4
    print(lines[-1])
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
