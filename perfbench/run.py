#!/usr/bin/env python3
"""Build and run the eNODE serving benchmark.

    python3 perfbench/run.py --workload <mixed-open|conv-closed> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Configures and builds perfbench/ (which
compiles the library from src/) in .bench_build, or in $CARGO_TARGET_DIR
when set, runs the benchmark's own tests, then runs one workload. Build
and test output goes to stderr; the benchmark's stdout passes through, so
its last line is the JSON result. Exits non-zero, without a result, when
the sources are missing, the build or the tests fail.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def step(cmd, env=None, timeout=None):
    """Run a build or test command with its output on stderr."""
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                         stderr=sys.stderr, timeout=timeout)
    if res.returncode != 0:
        log(f"failed ({res.returncode}): {' '.join(map(str, cmd))}")
        sys.exit(1)


def source_digest():
    """sha256 over the library and benchmark sources, path by path."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, if the checkout itself is a git repository."""
    if not (ROOT / ".git").exists():
        return "unavailable: checkout is not a git repository"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         env=env, capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unavailable"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no eNODE sources at {ROOT / 'src'}; run from a full checkout")
        sys.exit(1)

    build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (build / "CMakeCache.txt").is_file():
        step(["cmake", "-S", str(HERE), "-B", str(build),
              "-DCMAKE_BUILD_TYPE=Release"], env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", str(build), "-j", jobs, "--target",
          "perfbench", "perfbench_tests"], env=env)
    step([str(build / "perfbench_tests"), "--gtest_brief=1"], env=env)

    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SOURCE_SHA256"] = source_digest()
    cmd = [str(build / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
