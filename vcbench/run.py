#!/usr/bin/env python3
"""View-collection benchmark of the Graphsurge reproduction.

Usage, from the repository root:

    python3 vcbench/run.py --workload small-delta --seed 1 --seconds 10 --trace 0

Workloads (see vcbench/README.md for why each was chosen):
  small-delta        explicit-diff collection, BF + PR in diff-only mode
  citation-adaptive  GVDL C_sl collection, WCC + PR + SCC in adaptive mode
  community-252      252-view community-removal collection, creation only

The first call builds the library and the harness (vcbench/build.py) into
$CARGO_TARGET_DIR/vcbench (default .bench_build/vcbench). Each run checks
every result against the library's reference implementations, prints its
metrics with units, writes a JSON report under <work>/results, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. The exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

sys.dont_write_bytecode = True

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import build  # noqa: E402
import derive  # noqa: E402

WORKLOADS = ("small-delta", "citation-adaptive", "community-252")
RUN_LIMIT_S = 170
PREFIX = "@vcbench "

# Spark 4 on Java 17 needs these packages opened (as spark-submit does).
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def machine():
    mem_kb = 0
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": os.cpu_count(), "mem_total_mb": mem_kb // 1024,
            "platform": platform.platform(), "git_sha": sha}


def run_jvm(classes, work, args, deadline):
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    cp = os.pathsep.join([str(classes), str(build.spark_jars() / "*")])
    # Fixed heap, stop-the-world GC and two JIT threads: fewer threads
    # competing with Spark's tasks on a small machine, steadier timings.
    cmd = [build.java(), "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-XX:CICompilerCount=2",
           "-XX:-UsePerfData", f"-Djava.io.tmpdir={work / 'tmp'}",
           f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}", *JVM_OPENS,
           "-cp", cp, "repro.vcbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", str(work)]
    env = {k: v for k, v in os.environ.items() if k not in ("SPARK_LOCAL_DIRS", "SPARK_CONF_DIR")}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=work,
                          timeout=max(10.0, deadline - time.monotonic()))
    records = [json.loads(line[len(PREFIX):]) for line in proc.stdout.splitlines()
               if line.startswith(PREFIX)]
    return proc.returncode, records


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    work = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve() / "vcbench"
    try:
        classes, source_digest = build.ensure_built(ROOT, work)
        # A first build may take long; the run itself still gets its limit.
        deadline = max(deadline, time.monotonic() + RUN_LIMIT_S - 30)
        code, records = run_jvm(classes, work, args, deadline)
    except build.BuildError as e:
        sys.exit(f"vcbench: {e}")
    except subprocess.TimeoutExpired:
        sys.exit("vcbench: the benchmark JVM did not finish in time")

    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r)
    if "end" not in by_kind or "setup" not in by_kind:
        sys.exit(f"vcbench: the benchmark JVM failed (exit {code}) before reporting")
    end = by_kind["end"][0]
    env = by_kind["env"][0]
    passes = by_kind.get("pass", [])
    attempted, failed = end["attempted"], end["failed"]
    for f in end["failures"]:
        print(f"vcbench: FAILED {f}", file=sys.stderr)
    if failed or not any(not p["warmup"] for p in passes):
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": max(1, failed), "metrics": {}}))
        sys.exit(1)

    metrics, info = derive.summarize(by_kind["setup"][0]["seconds"], passes,
                                     bool(args.trace), env["default_parallelism"])
    units = derive.PER_LAYER if args.trace else derive.END_TO_END
    info["failed_share"] = failed / attempted

    print(f"vcbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={info['passes_timed']}+{info['passes_traced']} traced")
    for k, v in metrics.items():
        print(f"  {k:28s} {v:14.6g} {units[k]}")
    for k, unit in derive.REPORTED_ONLY.items():
        print(f"  {k:28s} {info[k]:14.6g} {unit}")
    print(f"  warm-up/timed {info['steady.warmup_ratio']:.3f}  "
          f"drift {info['steady.drift_share']:+.3f}  checks {attempted - failed}/{attempted}")

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "source_digest": source_digest,
              "env": env, "setup": by_kind["setup"][0], "passes": passes,
              "metrics": metrics, "info": info, "attempted": attempted, "failed": failed}
    out = work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))

    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


if __name__ == "__main__":
    main()
