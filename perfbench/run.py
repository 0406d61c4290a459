#!/usr/bin/env python3
"""CLA end-to-end benchmark: build, run one workload, print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload record-taskq|live-ldap \
        --seed N --seconds S --trace 0|1

Builds the perfbench package (Release) into .bench_build/perfbench, runs
the benchmark program for S seconds and prints, as the last stdout line, one JSON
object with "correct", "attempted", "failed" and "metrics": the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(spans go to .bench_build/spans/). The line before it stamps the result
with the machine, compiler, build type and commit. A Debug or sanitizer
build is refused: the run reports failure instead of numbers.

See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD_DIR / "perfbench"
WORKLOADS = ("record-taskq", "live-ldap")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the program; build output goes to stderr."""
    if not (ROOT / "src" / "cla").is_dir():
        fail(f"no CLA sources under {ROOT / 'src'}; run from a full checkout", 2)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def refusal_reason(info):
    """Why a build must not be timed, or None. `info` is --build-info's JSON."""
    if info.get("sanitize"):
        return "sanitizer build"
    build_type = info.get("build_type", "")
    if build_type not in ("Release", "RelWithDebInfo", "MinSizeRel"):
        return f"build type {build_type or '(none)'} is not optimized"
    if not info.get("ndebug"):
        return "assertions enabled (NDEBUG unset)"
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def stamp(info):
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "compiler": info.get("compiler", "unknown"),
            "build_type": info.get("build_type", "unknown"),
            "commit": git_commit()}


def run_program(args, work_dir, spans_out):
    cmd = [str(PROGRAM), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    if args.size:
        cmd += ["--size", args.size]
    if args.breakage:
        cmd += ["--break", args.breakage]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("tiny",),
                        help="self-test input sizes")
    parser.add_argument("--break", dest="breakage",
                        choices=("report-byte", "lock-count", "last-round"),
                        help="self-test: corrupt one input on purpose")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    build()
    info = json.loads(subprocess.run([str(PROGRAM), "--build-info"],
                                     capture_output=True, text=True,
                                     check=True).stdout)
    print("stamp " + json.dumps(stamp(info), sort_keys=True))
    reason = refusal_reason(info)
    if reason:
        print(f"perfbench: refusing to time a {reason}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        sys.exit(1)

    work_dir = ROOT / ".bench_build" / "work" / f"{args.workload}-{os.getpid()}"
    spans_out = None
    if args.trace:
        spans_dir = ROOT / ".bench_build" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_out = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
    try:
        code, out = run_program(args, work_dir, spans_out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except ValueError:
        sys.stdout.write(out)
        fail(f"{args.workload} printed no result (exit {code})")
    print("\n".join(lines))
    sys.exit(code)


if __name__ == "__main__":
    main()
