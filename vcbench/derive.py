"""Metric derivations for the view-collection benchmark.

The benchmark JVM reports raw measurements per pass (call wall-clock, the
library's per-view `ViewStat`s, `Cct`, Spark listener totals). Everything
derived from them is computed here, so it can be unit-tested
(`python3 -m unittest discover -s vcbench`).
"""

import math
import statistics

# name -> unit, in report order
END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "cop_diffs": "count",
    "retained_mb": "MB",
}

# Printed with the end-to-end metrics but not part of the result record.
# cct_s equals total_s on community-252 and is a sub-second build on
# small-delta whose run-to-run spread (about 30%) exceeds any bound; the
# per-layer views.* metrics split it. analytics_s is 0 on a workload
# without analytics, failed_share is 0 whenever the results are correct.
REPORTED_ONLY = {"cct_s": "s", "analytics_s": "s", "failed_share": "share"}

PER_LAYER = {
    "gvdl.parse_s": "s",
    "views.ebm_s": "s",
    "views.order_s": "s",
    "views.diffstream_s": "s",
    "views.ebm_rows": "count",
    "ordering.hamming_s": "s",
    "ordering.tsp_s": "s",
    "ordering.random_diffs": "count",
    "ordering.diffs_ratio": "ratio",
    "diff.analytics_s": "s",
    "diff.upkeep_s": "s",
    "diff.upkeep_share": "share",
    "diff.engine_diff_s": "s",
    "diff.engine_scratch_s": "s",
    "diff.view_s.p50": "s",
    "diff.view_s.p90": "s",
    "diff.view_s.n": "count",
    "diff.views_diff": "count",
    "diff.views_scratch": "count",
    "diff.iters_diff": "count",
    "diff.iters_scratch": "count",
    "diff.s_per_iter_diff": "s",
    "diff.s_per_iter_scratch": "s",
    "diff.work_rows_diff": "count",
    "diff.work_rows_scratch": "count",
    "algorithms.scc_s": "s",
    "spark.jobs": "count",
    "spark.jobs_upkeep": "count",
    "spark.jobs_per_iter": "jobs/iter",
    "spark.jobs_per_iter_diff": "jobs/iter",
    "spark.jobs_per_iter_scratch": "jobs/iter",
    "spark.stages": "count",
    "spark.tasks": "count",
    "spark.job_s": "s",
    "spark.driver_s": "s",
    "spark.task_s": "s",
    "spark.cpu_util": "share",
    "spark.shuffle_mb": "MB",
    "trace.overhead_share": "share",
    "steady.warmup_ratio": "ratio",
    "steady.drift_share": "share",
}

MB = float(1 << 20)


def percentile(xs, p):
    """Nearest-rank p-th percentile and the sample count it rests on."""
    n = len(xs)
    if n == 0:
        return 0.0, 0
    s = sorted(xs)
    rank = max(1, math.ceil(p / 100.0 * n))
    return s[rank - 1], n


def interval_union(intervals):
    """Total length covered by possibly overlapping [start, end] intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def upkeep_s(wall_s, view_ms):
    """Time a collection call spent outside the engine: wall − Σ ViewStat.millis."""
    return wall_s - sum(view_ms) / 1000.0


def jobs_per_iter(jobs, iters):
    return jobs / iters if iters else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def median(xs):
    return statistics.median(xs) if xs else 0.0


def pass_end_to_end(p):
    analytics = sum(c["wall_s"] for c in p["calls"])
    return {
        "cct_s": p["cct_s"],
        "analytics_s": analytics,
        "total_s": p["cct_s"] + analytics,
        "cop_diffs": p["cop_diffs"],
        "retained_mb": p["retained_bytes"] / MB,
    }


def _views(p, scc):
    return [v for c in p["calls"] if (c["program"] == "SCC") == scc for v in c["views"]]


def pass_layers(p, cores):
    """Per-layer metrics of one traced pass (percentiles are pooled later)."""
    e2e = pass_end_to_end(p)
    programs = _views(p, scc=False)
    diff = [v for v in programs if v["diff"]]
    scratch = [v for v in programs if not v["diff"]]
    iters_diff = sum(v["iters"] for v in diff)
    iters_scratch = sum(v["iters"] for v in scratch)
    upkeep = sum(upkeep_s(c["wall_s"], [v["ms"] for v in c["views"]]) for c in p["calls"])

    spark = p["spark"]
    jobs = spark["jobs"]
    by_layer = {}
    for _, _, layer in jobs:
        by_layer[layer] = by_layer.get(layer, 0) + 1
    job_s = interval_union([(s, e) for s, e, _ in jobs]) / 1000.0
    task_s = spark["task_ms"] / 1000.0

    layers = p["layers"]
    m = {
        "gvdl.parse_s": layers.get("gvdl.parse_s", 0.0),
        "views.ebm_s": p["cct_ms"]["ebm"] / 1000.0,
        "views.order_s": p["cct_ms"]["order"] / 1000.0,
        "views.diffstream_s": p["cct_ms"]["diff"] / 1000.0,
        "views.ebm_rows": layers.get("views.ebm_rows", 0.0),
        "ordering.hamming_s": layers.get("ordering.hamming_s", 0.0),
        "ordering.tsp_s": layers.get("ordering.tsp_s", 0.0),
        "ordering.random_diffs": layers.get("ordering.random_diffs", 0.0),
        "ordering.diffs_ratio": ratio(layers.get("ordering.random_diffs", 0.0), p["cop_diffs"]),
        "diff.analytics_s": e2e["analytics_s"],
        "diff.upkeep_s": upkeep,
        "diff.upkeep_share": ratio(upkeep, e2e["analytics_s"]),
        "diff.engine_diff_s": sum(v["ms"] for v in diff) / 1000.0,
        "diff.engine_scratch_s": sum(v["ms"] for v in scratch) / 1000.0,
        "diff.views_diff": len(diff),
        "diff.views_scratch": len(scratch),
        "diff.iters_diff": iters_diff,
        "diff.iters_scratch": iters_scratch,
        "diff.s_per_iter_diff": ratio(sum(v["ms"] for v in diff) / 1000.0, iters_diff),
        "diff.s_per_iter_scratch": ratio(sum(v["ms"] for v in scratch) / 1000.0, iters_scratch),
        "diff.work_rows_diff": sum(v["work_rows"] for v in diff),
        "diff.work_rows_scratch": sum(v["work_rows"] for v in scratch),
        "algorithms.scc_s": sum(c["wall_s"] for c in p["calls"] if c["program"] == "SCC"),
        "spark.jobs": len(jobs),
        "spark.jobs_upkeep": by_layer.get("upkeep", 0),
        "spark.jobs_per_iter": jobs_per_iter(
            by_layer.get("diff", 0) + by_layer.get("scratch", 0), iters_diff + iters_scratch),
        "spark.jobs_per_iter_diff": jobs_per_iter(by_layer.get("diff", 0), iters_diff),
        "spark.jobs_per_iter_scratch": jobs_per_iter(by_layer.get("scratch", 0), iters_scratch),
        "spark.stages": spark["stages"],
        "spark.tasks": spark["tasks"],
        "spark.job_s": job_s,
        "spark.driver_s": e2e["total_s"] - job_s,
        "spark.task_s": task_s,
        "spark.cpu_util": ratio(task_s, e2e["total_s"] * cores),
        "spark.shuffle_mb": spark["shuffle_bytes"] / MB,
    }
    return m


def summarize(setup_s, passes, traced, cores):
    """Metrics of one run: medians over its timed passes.

    End-to-end metrics come from untraced passes, per-layer metrics from
    traced ones. Returns (metrics, info) where info holds the reported-only
    numbers and the steadiness diagnostics.
    """
    warm = [p for p in passes if p["warmup"]]
    timed = [p for p in passes if not p["warmup"]]
    plain = [pass_end_to_end(p) for p in timed if not p["traced"]]
    plain_total = [x["total_s"] for x in plain]
    info = {
        "cct_s": median([x["cct_s"] for x in plain]),
        "analytics_s": median([x["analytics_s"] for x in plain]),
        "passes_timed": len(plain),
        "passes_traced": sum(1 for p in timed if p["traced"]),
        # JIT warm-up: the checked first pass against the timed ones.
        "steady.warmup_ratio": ratio(pass_end_to_end(warm[0])["total_s"], median(plain_total))
        if warm else 0.0,
        # State built up inside one JVM: last timed pass against the first.
        "steady.drift_share": ratio(plain_total[-1], plain_total[0]) - 1.0
        if len(plain_total) > 1 else 0.0,
    }
    if not traced:
        metrics = {k: median([x[k] for x in plain]) for k in END_TO_END if k != "setup_s"}
        metrics["setup_s"] = median(setup_s)
        return metrics, info

    tp = [p for p in timed if p["traced"]]
    per = [pass_layers(p, cores) for p in tp]
    metrics = {k: median([x[k] for x in per]) for k in PER_LAYER if k in per[0]}
    view_s = [v["ms"] / 1000.0 for p in tp for c in p["calls"] for v in c["views"]]
    metrics["diff.view_s.p50"], n = percentile(view_s, 50)
    metrics["diff.view_s.p90"], _ = percentile(view_s, 90)
    metrics["diff.view_s.n"] = n
    traced_total = median([pass_end_to_end(p)["total_s"] for p in tp])
    metrics["trace.overhead_share"] = ratio(traced_total, median(plain_total)) - 1.0 \
        if plain_total else 0.0
    metrics["steady.warmup_ratio"] = info["steady.warmup_ratio"]
    metrics["steady.drift_share"] = info["steady.drift_share"]
    return metrics, info
