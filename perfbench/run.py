#!/usr/bin/env python3
"""Build perfbench from source in Release + LTO and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build tree lives in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), never in
the repository's own build directory, so every number comes from this
tree's Release build. The last stdout line is the JSON result; the
metric names in it are checked against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            dirty = subprocess.run(["git", "status", "--porcelain"],
                                   cwd=REPO_ROOT, capture_output=True,
                                   text=True, timeout=10).stdout.strip()
            return "git:" + out.stdout.strip() + ("+dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(REPO_ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "__pycache__" in f:
                continue
            digest.update(os.path.relpath(f, REPO_ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources next to {BENCH_DIR}", 2)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    spec_path = os.path.join(REPO_ROOT, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(REPO_ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the repository root", 2)
    want = expected_metrics(args.trace)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(os.path.abspath(build_dir))

    env = dict(os.environ, PERFBENCH_SOURCE=source_id())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines))
        fail(f"perfbench exited with {proc.returncode}", proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print("\n".join(lines))
        fail("no JSON result line")
    got = set(result.get("metrics", {}))
    if got != want or set(result) != {"correct", "attempted", "failed",
                                       "metrics"}:
        print("\n".join(lines[:-1]))
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(want - got)}, unexpected {sorted(got - want)}")
    print("\n".join(lines))
    try:
        os.rmdir(".bench_tmp")  # the stores live here while a run lasts
    except OSError:
        pass


if __name__ == "__main__":
    main()
