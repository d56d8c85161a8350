"""End-to-end benchmark of the planner: one command, two workloads.

Run from the repository root::

    python3 e2ebench/run.py --workload cold --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
repeats the same workload with every ``repro`` layer wrapped and reports the
per-layer metrics instead (see ``tracing.py``).  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the run's record (versions, machine, mix, determinism
counters).  Both are also written under ``e2ebench/results/``, with the
spans of a traced run.

A run sets up, issues requests in a closed loop for ``--seconds`` and at
least until the workload's deterministic prefix (whole request rounds) has
completed, checks every output outside the timed phase, then sets up twice
more; ``setup_s`` is the import time plus the median of the three set-ups.
Counters and plan costs are taken over the prefix, so they repeat exactly
for a seed; timings cover the whole timed phase.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Set-ups per untraced run; ``setup_s`` is the import time plus their
#: median.  The first precedes the timed phase, the others follow the checks.
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("cold", "sql-hot")
RUNGS = ("MPDP", "MPDP:Tree", "IDP2", "LinDP", "GOO")
BACKENDS = ("scalar", "vectorized", "multicore")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _percentile(sorted_values, fraction):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def _median(values):
    return statistics.median(values) if values else 0.0


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def _git_revision():
    """HEAD of the checkout, or None when it is not its own git work tree."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _stop_children():
    """Stop the kernel pools and the shared-memory tracker; reap leftovers."""
    from multiprocessing import resource_tracker
    from repro.exec.multicore import shutdown_worker_pools

    shutdown_worker_pools()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _timed_phase(workload, env, seconds, prefix, tracer):
    """Closed loop: one request at a time, for ``seconds`` and >= ``prefix``."""
    from repro.exec.multicore import POOL_REGISTRY

    counters = {"before": (workload.cache_info(env), POOL_REGISTRY.info())}
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while index < prefix or time.perf_counter() < deadline:
        request = workload.prepare(env, index)
        if tracer is not None:
            tracer.request_id = index
        began = time.perf_counter()
        try:
            output, error = workload.issue(env, request), None
        except Exception:  # a failed request is counted, not fatal
            output, error = None, traceback.format_exc()
        latency = time.perf_counter() - began
        if tracer is not None:
            tracer.request_id = None
        # Keep no query object past its request: checks rebuild it from
        # the seed, so the benchmark's bookkeeping stays out of peak RSS.
        records.append([request._replace(payload=None), output, latency, error])
        del request
        index += 1
        if index == prefix:
            counters["prefix"] = (workload.cache_info(env), POOL_REGISTRY.info())
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, wall, peak_rss_mb, counters


def _counter_deltas(counters):
    (cache0, pool0), (cache1, pool1) = counters["before"], counters["prefix"]

    def pool_total(info, key):
        return sum(pool[key] for pool in info["pools"].values())

    return {
        "cache.hits": cache1["hits"] - cache0["hits"],
        "cache.misses": cache1["misses"] - cache0["misses"],
        "exec.pool.levels_dispatched": (pool_total(pool1, "levels_dispatched")
                                        - pool_total(pool0, "levels_dispatched")),
        "exec.pool.tasks_dispatched": (pool_total(pool1, "tasks_dispatched")
                                       - pool_total(pool0, "tasks_dispatched")),
        "exec.pool.pools_rebuilt": pool1["pools_rebuilt"] - pool0["pools_rebuilt"],
    }


def _determinism(workload, records, prefix, deltas):
    """Counters that must repeat bit for bit for a seed (prefix only)."""
    done = [(record[0], record[1]) for record in records[:prefix]
            if record[3] is None]
    outcomes = [workload.outcome(output) for _, output in done]
    counts = {
        "plan_cost_geomean": _geomean([o.cost for o in outcomes]).hex(),
        "plan_cost_vs_greedy": _geomean([record[4] for record in records[:prefix]
                                      if record[3] is None]).hex(),
        "failed": prefix - len(done),
        "rungs": dict(sorted(Counter(o.decision.algorithm for o in outcomes).items())),
        "evaluated_pairs": sum(o.stats.evaluated_pairs for o in outcomes),
        "ccp_pairs": sum(o.stats.ccp_pairs for o in outcomes),
        "cache_hits": deltas["cache.hits"],
        "cache_misses": deltas["cache.misses"],
        "executed_rows": sum(workload.executed_rows(output) for _, output in done),
    }
    digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode())
    counts["digest"] = digest.hexdigest()[:16]
    return counts


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(records, wall, peak_rss_mb, setup_s, prefix):
    latencies = sorted(record[2] * 1e3 for record in records if record[3] is None)
    failed = sum(1 for record in records if record[3] is not None)
    ratios = [record[4] for record in records[:prefix] if record[3] is None]
    return {
        "latency_p50_ms": _metric(_percentile(latencies, 0.5), "ms"),
        "throughput_qps": _metric(len(records) / wall, "1/s"),
        "plan_cost_vs_greedy": _metric(_geomean(ratios), "ratio"),
        "success_rate": _metric(1.0 - failed / len(records), "ratio"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }


def _per_layer(tracer, records, wall, prefix, deltas):
    """Per-layer metrics from the spans of the prefix requests."""
    spans = [span for span in tracer.spans
             if span[2] is not None and span[2] < prefix]
    by_id = {span[0]: span for span in spans}
    groups = {}
    for span in spans:
        groups.setdefault(span[3], []).append(span)

    def durations(name, scale):
        return [(span[5] - span[4]) * scale for span in groups.get(name, [])]

    def self_times(name, scale=1.0):
        return [span[6] * scale for span in groups.get(name, [])]

    def extras(name, key):
        return [span[7][key] for span in groups.get(name, [])]

    def parent_name(span):
        parent = by_id.get(span[1])
        return parent[3] if parent is not None else None

    request_seconds = sum(record[2] for record in records[:prefix])
    top_level = sum(span[5] - span[4] for span in spans if span[1] is None)
    evaluated = sum(extras("optimizer", "evaluated_pairs"))
    ccp = sum(extras("optimizer", "ccp_pairs"))
    lookups = deltas["cache.hits"] + deltas["cache.misses"]
    rungs = Counter(extras("planner", "algorithm"))
    metrics = {
        "sql.parse.calls": _metric(len(groups.get("sql.parse", [])), "count"),
        "sql.parse.ms_p50": _metric(_median(durations("sql.parse", 1e3)), "ms"),
        "sql.parse.share": _metric(sum(durations("sql.parse", 1.0)) / request_seconds,
                                   "ratio"),
        "server.queue.ms_p50": _metric(
            _median([q * 1e3 for q in extras("server", "queue_s")]), "ms"),
        "server.self.ms_p50": _metric(_median(self_times("server", 1e3)), "ms"),
        "server.not_ok": _metric(
            sum(1 for status in extras("server", "status") if status != "ok"),
            "count"),
        "planner.self.ms_p50": _metric(_median(self_times("planner", 1e3)), "ms"),
    }
    for rung in RUNGS:
        metrics[f"planner.rung.{rung.replace(':', '-')}"] = _metric(rungs[rung], "count")
    metrics.update({
        "planner.fallbacks": _metric(sum(extras("planner", "fallbacks")), "count"),
        "classifier.classify.ms_p50": _metric(
            _median(durations("classifier.classify", 1e3)), "ms"),
        "classifier.signature.ms_p50": _metric(
            _median(durations("classifier.signature", 1e3)), "ms"),
        "cache.hits": _metric(deltas["cache.hits"], "count"),
        "cache.misses": _metric(deltas["cache.misses"], "count"),
        "cache.hit_rate": _metric(deltas["cache.hits"] / lookups if lookups else 0.0,
                                  "ratio"),
        "cache.get.us_p50": _metric(_median(durations("cache.get", 1e6)), "us"),
        "cache.put.us_p50": _metric(_median(durations("cache.put", 1e6)), "us"),
        "optimizer.self_s": _metric(sum(self_times("optimizer")), "s"),
        "optimizer.evaluated_pairs": _metric(evaluated, "count"),
        "optimizer.ccp_pairs": _metric(ccp, "count"),
        "optimizer.ccp_ratio": _metric(ccp / evaluated if evaluated else 0.0, "ratio"),
        "heuristics.self_s": _metric(sum(self_times("heuristics")), "s"),
        "heuristics.fragments": _metric(len(groups.get("heuristics.fragment", [])),
                                        "count"),
        "heuristics.fragment.ms_p50": _metric(
            _median(durations("heuristics.fragment", 1e3)), "ms"),
        "heuristics.evaluated_pairs": _metric(
            sum(span[7]["evaluated_pairs"] for span in groups.get("heuristics", [])
                if parent_name(span) == "planner"), "count"),
    })
    # A backend that runs a level on another backend's kernel (multicore
    # below its break-even, vectorized's scalar fallback) opens a nested
    # level span; count and time such a level under the outermost one.
    levels = Counter()
    level_seconds = Counter()
    for span in spans:
        if not span[3].startswith("exec.level."):
            continue
        outermost, parent = span, by_id.get(span[1])
        while parent is not None:
            if parent[3].startswith("exec.level."):
                outermost = parent
            parent = by_id.get(parent[1])
        backend = outermost[3][len("exec.level."):]
        levels[backend] += outermost is span
        level_seconds[backend] += span[6]
    for backend in BACKENDS:
        metrics[f"exec.levels.{backend}"] = _metric(levels[backend], "count")
    for backend in BACKENDS:
        metrics[f"exec.level.self_s.{backend}"] = _metric(level_seconds[backend], "s")
    metrics.update({
        "exec.lindp_merge.self_s": _metric(sum(self_times("exec.lindp_merge")), "s"),
        "exec.pool.levels_dispatched": _metric(deltas["exec.pool.levels_dispatched"],
                                               "count"),
        "exec.pool.tasks_dispatched": _metric(deltas["exec.pool.tasks_dispatched"],
                                              "count"),
        "exec.pool.pools_rebuilt": _metric(deltas["exec.pool.pools_rebuilt"], "count"),
        "cost.batch.calls": _metric(len(groups.get("cost.batch", [])), "count"),
        "cost.batch.pairs": _metric(sum(extras("cost.batch", "pairs")), "count"),
        "cost.batch.self_s": _metric(sum(self_times("cost.batch")), "s"),
        "execution.execute.ms_p50": _metric(
            _median(durations("execution.execute", 1e3)), "ms"),
        "execution.intermediate_rows": _metric(
            sum(extras("execution.execute", "intermediate_rows")), "rows"),
        "execution.dataset.build_s": _metric(
            sum(span[5] - span[4] for span in tracer.spans
                if span[3] == "execution.dataset" and span[2] is None), "s"),
        "trace.coverage": _metric(top_level / request_seconds, "ratio"),
        "trace.throughput_qps": _metric(len(records) / wall, "1/s"),
    })
    return metrics


def _record(args, records, prefix, determinism, per_layer, builds, import_s,
            wall, failures):
    import numpy
    from repro.exec.multicore import _start_method, available_workers

    latencies = sorted(r[2] * 1e3 for r in records if r[3] is None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": _git_revision(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "usable_cpus": available_workers(),
        "start_method": _start_method(),
        "timed_requests": len(records),
        # The 90th percentile stays out of the end-to-end metrics: on a
        # shared 2-CPU machine slow bursts move it on ``cold`` by more than
        # the widest bound a metric may have.
        "latency_p90_ms": _percentile(latencies, 0.9),
        "latency_samples": len(latencies),
        "timed_wall_s": wall,
        "prefix_requests": prefix,
        "mix": dict(sorted(Counter(r[0].cell for r in records[:prefix]).items())),
        "import_s": import_s,
        "setup_builds_s": builds,
        "determinism": determinism,
        "failures": failures[:5],
        "latencies_ms": [[r[0].cell, round(r[2] * 1e3, 3)] for r in records],
    }
    if per_layer is not None:
        record["backends_ran"] = [b for b in BACKENDS
                                  if per_layer[f"exec.levels.{b}"]["value"]]
        untraced = RESULTS / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["metrics"]["throughput_qps"]["value"]
            traced = per_layer["trace.throughput_qps"]["value"]
            record["trace_overhead"] = 1.0 - traced / base
    return record


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        import repro  # noqa: F401
        from tracing import Tracer, install_layer_wrappers
        from workloads import WORKLOADS
        if Path(repro.__file__).resolve().parent != SRC / "repro":
            print(f"e2ebench: imported repro from {repro.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        import_s = time.perf_counter() - _PROCESS_START

        workload = WORKLOADS[args.workload]
        prefix = workload.prefix
        tracer = None
        if args.trace:
            tracer = Tracer()
            install_layer_wrappers(tracer)
        env = None
        builds = []
        try:
            began = time.perf_counter()
            env = workload.setup(args.seed)
            builds.append(time.perf_counter() - began)
            records, wall, peak_rss_mb, counters = _timed_phase(
                workload, env, args.seconds, prefix, tracer)
            for record in records:
                if record[3] is None:
                    request = workload.prepare(env, record[0].index)
                    record[3] = workload.check(env, request, record[1])
                    if record[3] is None and record[0].index < prefix:
                        record.append(workload.outcome(record[1]).cost
                                      / workload.reference_cost(env, request))
            # Further set-ups after the timed phase, not back to back with
            # the first, make the median robust to the machine's speed drift.
            for _ in range(SETUP_REPEATS - 1 if tracer is None else 0):
                workload.close(env)
                env = None
                _stop_children()
                began = time.perf_counter()
                env = workload.setup(args.seed)
                builds.append(time.perf_counter() - began)
            setup_s = import_s + statistics.median(builds)
        finally:
            if env is not None:
                workload.close(env)
            _stop_children()
    except KeyboardInterrupt:
        return 130

    failures = [f"request {r[0].index} ({r[0].cell}): {r[3]}"
                for r in records if r[3] is not None]
    deltas = _counter_deltas(counters)
    determinism = _determinism(workload, records, prefix, deltas)
    per_layer = (_per_layer(tracer, records, wall, prefix, deltas)
                 if tracer is not None else None)
    metrics = per_layer if per_layer is not None else _end_to_end(
        records, wall, peak_rss_mb, setup_s, prefix)
    record = _record(args, records, prefix, determinism, per_layer, builds,
                     import_s, wall, failures)
    result = {"correct": not failures, "attempted": len(records),
              "failed": len(failures), "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({"record": record, **result}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(str(RESULTS / f"{stem}.spans.jsonl"))
    print(json.dumps({"record": {key: value for key, value in record.items()
                                 if key != "latencies_ms"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
