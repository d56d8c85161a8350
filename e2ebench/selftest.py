"""Self-tests of the end-to-end benchmark.

Not collected by a bare ``pytest`` run; name the file explicitly from the
repository root::

    python3 -m pytest e2ebench/selftest.py -q

They run the benchmark as a subprocess with ``--seconds 0.1``, so each run
issues exactly its workload's deterministic prefix, the requests whose
counters a real run reports (about five minutes in total).  They check that
every run exits cleanly (no child process and no shared-memory segment
survives, also when the run is interrupted), two runs with one seed agree on
every deterministic counter, traced or not, another seed keeps the mix but
changes the queries, the plan verifier rejects corrupted plans and the
reference plan is a valid greedy left-deep plan.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402


def _survivors(token: str):
    """Pids of live processes whose environment carries ``token``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            environ = Path(f"/proc/{entry}/environ").read_bytes()
        except OSError:
            continue
        if token.encode() in environ:
            found.append(int(entry))
    return found


def _segments(pid: int):
    shm = Path("/dev/shm")
    return sorted(shm.glob(f"repro_mc_{pid:x}_*")) if shm.is_dir() else []


def _start(args, cwd=ROOT):
    token = uuid.uuid4().hex
    env = dict(os.environ, E2EBENCH_SELFTEST_TOKEN=token)
    process = subprocess.Popen([sys.executable, str(HERE / "run.py"), *args],
                               cwd=cwd, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    return process, token


def _assert_clean(process, token):
    assert _survivors(token) == [], "a process started by the run survived it"
    assert _segments(process.pid) == [], "a shared-memory segment survived the run"


def _run(workload, seed, trace=0, cwd=ROOT):
    process, token = _start(["--workload", workload, "--seed", str(seed),
                             "--seconds", "0.1", "--trace", str(trace)], cwd)
    stdout, stderr = process.communicate(timeout=300)
    _assert_clean(process, token)
    assert process.returncode == 0, stderr
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_repeats_and_another_seed_keeps_the_mix(workload):
    first_record, first = _run(workload, 5)
    second_record, second = _run(workload, 5)
    other_record, other = _run(workload, 6)
    for result in (first, second, other):
        assert result["correct"] and result["failed"] == 0
        assert result["metrics"]["success_rate"]["value"] == 1.0
    assert first_record["determinism"] == second_record["determinism"]
    assert (first["metrics"]["plan_cost_vs_greedy"]
            == second["metrics"]["plan_cost_vs_greedy"])
    assert other_record["mix"] == first_record["mix"]
    if workload != "sql-hot":  # templates fix sql-hot's plans; literals vary
        assert other_record["determinism"]["digest"] != first_record["determinism"]["digest"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(first["metrics"]) == [metric["name"] for metric in declared]
    assert first_record["latency_samples"] == first["attempted"]
    assert first_record["latency_p90_ms"] >= first["metrics"]["latency_p50_ms"]["value"]


def test_traced_run_reports_the_declared_per_layer_metrics():
    record, result = _run("sql-hot", 5, trace=1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["cache.hits"]["value"] == WORKLOADS["sql-hot"].prefix
    assert record["backends_ran"] == []  # every request is a cache hit


def test_traced_cold_run_repeats_the_untraced_counters():
    untraced_record, _ = _run("cold", 7)
    record, result = _run("cold", 7, trace=1)
    assert record["determinism"] == untraced_record["determinism"]
    metrics = result["metrics"]
    assert metrics["cache.misses"]["value"] == WORKLOADS["cold"].prefix
    assert record["backends_ran"] == ["scalar", "vectorized", "multicore"]
    for backend in record["backends_ran"]:
        assert metrics[f"exec.level.self_s.{backend}"]["value"] > 0


def test_interrupted_run_leaves_nothing_behind():
    process, token = _start(["--workload", "cold", "--seed", "1",
                             "--seconds", "60", "--trace", "1"])
    time.sleep(8)  # past set-up: the multicore pool is running
    process.send_signal(signal.SIGTERM)
    stdout, _ = process.communicate(timeout=60)
    assert process.returncode != 0
    assert '"correct"' not in stdout
    _assert_clean(process, token)


def test_refuses_to_run_without_the_sources():
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run([sys.executable, f"{HERE.name}/run.py",
                               "--workload", "sql-hot", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_verify_plan_rejects_corrupted_plans():
    from dataclasses import replace

    from checks import verify_plan
    from repro.planner import AdaptivePlanner
    from repro.workloads import chain_query

    query = chain_query(6, seed=3)
    plan = AdaptivePlanner().plan(query).plan
    assert verify_plan(query, plan) is None
    nudged = replace(plan, cost=plan.cost * (1 + 2 ** -40))
    assert "re-costs" in verify_plan(query, nudged)
    twice = replace(plan, right=plan.left)
    assert verify_plan(query, twice) is not None
    leaf = query.leaf_plan
    cross = query.cost_model.join(leaf(0), leaf(5), query.rows(0b100001))
    assert "cross product" in verify_plan(chain_query(6, seed=3), cross)


def test_reference_plan_is_a_valid_greedy_left_deep_plan():
    from checks import reference_plan, verify_plan
    from repro.planner import AdaptivePlanner
    from repro.workloads import snowflake_query

    query = snowflake_query(9, seed=4)
    plan = reference_plan(query)
    assert verify_plan(query, plan) is None
    assert plan.is_left_deep()
    order = plan.leaf_order()
    assert query.rows(1 << order[0]) == min(
        query.rows(1 << vertex) for vertex in range(query.n_relations))
    for index, vertex in enumerate(order[1:], start=1):
        assert any(query.graph.has_edge(vertex, earlier) for earlier in order[:index])
    assert AdaptivePlanner().plan(query).cost <= plan.cost
