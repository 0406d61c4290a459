#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; runs in well under a minute.

    python3 perfbench/selftest.py

Proves that
  * every workload prints every metric of BENCHMARK.json by name, with its
    unit, traced and untraced, and passes its correctness checks;
  * each correctness check fires on a deliberately broken input: a flipped
    byte in the live-ldap reference report, a record-taskq lock count off
    by one, and a truncated last live-ldap round;
  * a Debug or sanitizer build is refused;
  * in a directory holding only BENCHMARK.json and the benchmark, the
    benchmark exits non-zero without printing a result.
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, extra=(), cwd=ROOT, run_py=RUN):
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(proc):
    try:
        return json.loads(proc.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        for trace in (0, 1):
            proc = run(workload, trace)
            result = result_of(proc)
            label = f"{workload} --trace {trace}"
            check(proc.returncode == 0 and result is not None,
                  f"{label}: exits 0 with a result line")
            if result is None:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                continue
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label}: correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[trace], f"{label}: every metric by name and unit")
            check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                      for v in result["metrics"].values()),
                  f"{label}: every value is a finite number")
            stamp = [l for l in proc.stdout.split("\n") if l.startswith("stamp ")]
            check(len(stamp) == 1 and set(json.loads(stamp[0][6:])) ==
                  {"nproc", "cpu", "compiler", "build_type", "commit"},
                  f"{label}: stamped with machine, compiler, build type, commit")

    for workload, breakage in (("live-ldap", "report-byte"),
                               ("record-taskq", "lock-count"),
                               ("live-ldap", "last-round")):
        result = result_of(run(workload, 0, ["--break", breakage]))
        check(result is not None and result["correct"] is False
              and result["failed"] >= 1,
              f"{workload} --break {breakage}: the check fires")

    spec_run = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run_module = importlib.util.module_from_spec(spec_run)
    spec_run.loader.exec_module(run_module)
    refuse = run_module.refusal_reason
    check(refuse({"build_type": "Release", "sanitize": False, "ndebug": True}) is None,
          "a Release build is timed")
    check(refuse({"build_type": "Debug", "sanitize": False, "ndebug": False}) is not None,
          "a Debug build is refused")
    check(refuse({"build_type": "Release", "sanitize": True, "ndebug": True}) is not None,
          "a sanitizer build is refused")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name)
    proc = run("live-ldap", 0, cwd=bare, run_py=bare / BENCH_DIR.name / "run.py")
    check(proc.returncode != 0 and result_of(proc) is None,
          "without the CLA sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
