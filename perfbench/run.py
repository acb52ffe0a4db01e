#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test          # tests of the benchmark helpers

Run from the repository root. The first call configures and builds the
library from src/ plus the benchmark (perfbench/geobench.cpp) in Release mode
under $CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed. geobench's stdout is passed through; its last line is the result
JSON. Results and spans land in <build dir>/results, and the counts that must
repeat at one seed are remembered under <build dir>/determinism/<source sha>.

A traced run (--trace 1) also needs the untraced run at the same seed, to
report the tracing overhead; it reuses a current result from the results
directory or makes that run first.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_mesh2d", "churn_serve")
PASS_TIMEOUT_S = 85  # a traced run may need an untraced pass first


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def source_sha():
    """Content hash of the library sources and the benchmark's own code."""
    digest = hashlib.sha256()
    code = {".cpp", ".hpp", ".py", ".txt"}
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*")
                           if p.is_file() and p.suffix in code):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def build(target):
    """Configure (once) and build `target`; build output goes to stderr."""
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}")
    cmake_dir = build_dir() / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir() / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (cmake_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(cmake_dir), "--target", target,
                      "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(step))
    return cmake_dir / target


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    entries = json.loads(spec.read_text())["per_layer" if trace else "end_to_end"]
    return {e["name"]: e["unit"] for e in entries}


def run_pass(binary, args, trace, sha):
    """One geobench process; returns (returncode, stdout)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out-dir", str(build_dir() / "results"),
           "--state-dir", str(build_dir() / "determinism" / sha),
           "--git-sha", git_sha(), "--source-sha", sha]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stdout or "")
        fail(f"{args.workload} did not finish within {PASS_TIMEOUT_S} s")
    return proc.returncode, proc.stdout


def result_file(args, trace):
    return (build_dir() / "results" /
            f"{args.workload}-seed{args.seed}-trace{trace}.json")


def add_tracing_overhead(args, metrics):
    """Tracing overhead: the traced run's end-to-end times against the
    untraced run's at the same seed, as traced / untraced - 1."""
    traced = json.loads(result_file(args, 1).read_text())["end_to_end"]
    untraced = json.loads(result_file(args, 0).read_text())["end_to_end"]
    for name, key in (("trace.overhead_frac", "partition_s"),
                      ("trace.route_overhead_frac", "route_p50_s")):
        value = traced[key]["value"] / untraced[key]["value"] - 1.0
        metrics[name] = {"value": value, "unit": "ratio"}


def untraced_result_is_current(args, sha):
    path = result_file(args, 0)
    if not path.exists():
        return False
    provenance = json.loads(path.read_text())["provenance"]
    return (provenance["source_sha"] == sha and
            provenance["seconds"] == args.seconds)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the helper tests instead")
    args = parser.parse_args()

    if args.test:
        sys.exit(subprocess.run([str(build("geobench_tests"))]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("geobench")
    sha = source_sha()
    if args.trace and not untraced_result_is_current(args, sha):
        # The overhead needs the untraced run at this seed; its output is
        # not this command's result, so it goes to stderr.
        code, out = run_pass(binary, args, 0, sha)
        sys.stderr.write(out)
        if code:
            sys.exit(code)
    code, out = run_pass(binary, args, args.trace, sha)
    lines = out.strip().splitlines()
    if code or not lines:
        sys.stdout.write(out)
        sys.exit(code or 1)

    result = json.loads(lines[-1])
    if args.trace:
        add_tracing_overhead(args, result["metrics"])
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)

    expected = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if expected is not None and got != expected:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json "
             f"{sorted(expected.items())}")


if __name__ == "__main__":
    main()
