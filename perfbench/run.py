#!/usr/bin/env python3
"""The LyriC benchmark: build the harness, run one workload, report.

    python3 perfbench/run.py --workload paper_mix|scan|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds an
optimized (Release) harness in .bench_build/ (or $CARGO_TARGET_DIR); later
runs reuse it. The harness measures for --seconds seconds and checks every
answer; this script adds provenance, prints every metric with its unit,
keeps the full record under .bench_out/, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). It exits non-zero on a wrong answer, a failed build,
or when the LyriC sources are missing. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the Release harness; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=subprocess.STDOUT, check=False)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        done = subprocess.run(
            ["cmake", "--build", out, "--target", "lyric_perfbench", "-j", jobs],
            stdout=log, stderr=subprocess.STDOUT, check=False)
    binary = os.path.join(out, "lyric_perfbench")
    if done.returncode != 0 or not os.path.exists(binary):
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        fail(f"build failed (log: {log_path})")
    return binary


def provenance(info, seed):
    commit = "unknown (not a git checkout)"
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if got.returncode == 0:
            commit = got.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "optimized": info.get("optimized"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        # serve is closed loop; its load is set by its write interval.
        "serve_write_interval_ms": info.get("write_interval_ms"),
    }


def p99_limit_us(workload):
    """The p99 latency limit a workload's `why` in BENCHMARK.json states
    ("p99 limit N ms"), in microseconds; None when it states none."""
    got = re.search(r"p99 limit (\d+(?:\.\d+)?) ms", workload["why"])
    return float(got.group(1)) * 1000 if got else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: not a LyriC checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workload = next(
        (w for w in spec["workloads"] if w["name"] == args.workload), None)
    if workload is None:
        fail(f"unknown workload {args.workload!r}")

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    # Nothing left to the environment: LYRIC_* variables would change
    # threads, cache capacity, admission limits or logging.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LYRIC_")}
    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", os.path.relpath(out_dir, ROOT)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"harness printed nothing (exit {run.returncode})")
    record = json.loads(lines[-1])
    record["provenance"] = provenance(record["info"], args.seed)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    stray = sorted(set(record["metrics"]) - known)
    if stray:
        fail(f"harness metrics missing from BENCHMARK.json: {stray}")
    metrics, idle = {}, []
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} not measured")
            # Not exercised, or not observable from outside, here.
            got = {"value": 0, "unit": m["unit"]}
            idle.append(m["name"])
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    limit = p99_limit_us(workload)
    p99 = record["metrics"].get("query_p99_us")
    if limit is not None and p99 is not None:
        record["p99_limit_us"] = limit
        record["p99_within_limit"] = p99["value"] <= limit

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    prov = record["provenance"]
    if prov["optimized"] is not True:
        print("WARNING: the harness build is not optimized; "
              "timings are not comparable")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("provenance " + json.dumps(prov))
    for key in sorted(record["metrics"]):
        m = record["metrics"][key]
        print(f"  {key:52s} {m['value']:16.6g} {m['unit']}")
    if "p99_within_limit" in record:
        verdict = ("within" if record["p99_within_limit"]
                   else "OVER LIMIT: exceeds")
        print(f"  query_p99_us {p99['value']:.6g} us {verdict} the p99 limit "
              f"of {limit:g} us")
    if idle:
        print("  not measured on this workload (reported as 0): " +
              ", ".join(idle))
    attempted, failed = record["attempted"], record["failed"]
    print(f"  attempted {attempted}  failed {failed}  wrong {record['wrong']}"
          f"  failed_ratio {failed / max(1, attempted):.6f}")
    for example in record["wrong_examples"]:
        print(f"  WRONG: {example}")
    print(f"  record: {os.path.join('.bench_out', name)}")
    correct = record["wrong"] == 0 and run.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
