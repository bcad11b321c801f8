#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload, and
checks the result line against `BENCHMARK.json`: with `--trace 0` the
metrics must be exactly its `end_to_end` list, with `--trace 1` its
`per_layer` list, each with its unit.  The result line is printed last
only when it passes; the exit code is the benchmark's (non-zero on any
wrong output), or non-zero when the build, the run or the check fails.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def check_result(line, kind):
    """Return an error message, or None when `line` is a valid result."""
    try:
        res = json.loads(line)
    except ValueError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys must be exactly correct, attempted, failed, metrics"
    if not isinstance(res["correct"], bool):
        return "correct must be a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool) or res[key] < 0:
            return f"{key} must be a non-negative whole number"
    if res["attempted"] < 1:
        return "attempted must be at least 1"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = res["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"{kind} metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            return f"metric {name} must be {{value, unit: {want[name]}}}, got {m}"
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            return f"metric {name} value is not a number"
    return None


def main():
    args = sys.argv[1:]
    trace = None
    for i, a in enumerate(args[:-1]):
        if a == "--trace":
            trace = args[i + 1]
    if trace not in ("0", "1"):
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1", 2)

    cargo = shutil.which("cargo") or os.path.expanduser("~/.cargo/bin/cargo")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            [cargo, "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=880,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 2)
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}", 2)

    binary = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    kind = "per_layer" if trace == "1" else "end_to_end"
    err = check_result(lines[-1], kind)
    if err:
        print(lines[-1], file=sys.stderr)
        fail(err, 4)
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
