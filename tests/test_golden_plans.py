"""Golden-plan snapshots: pinned plans/costs for the paper's workloads.

The equivalence suites (``test_exec_backends``, ``test_multicore_backend``,
the differential fuzzer) are *self*-consistency checks — every backend
against the scalar reference of the same commit.  They cannot catch a
refactor that changes what the scalar reference itself produces.  This
suite pins the fig04/06-09 workloads' optimal plans to files committed
under ``tests/golden/``: canonical plan strings, exact costs (both repr and
IEEE-754 hex, so "looks equal" never masks a last-bit drift), and the
EvaluatedCounter / CCP-Counter pair the figures are computed from.

After an *intentional* plan-affecting change (new cost model defaults, new
workload statistics), regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden_plans.py --update-golden

and review the diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.heuristics import GOO, IDP1, IDP2, IKKBZ, AdaptiveLinDP, UnionDP
from repro.optimizers import MPDP
from repro.workloads import (
    chain_query,
    clique_query,
    cycle_query,
    musicbrainz_query,
    scaled_musicbrainz_query,
    snowflake_query,
    star_query,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

WORKLOAD_FACTORIES = {
    "fig04_star_n10_seed1": lambda: star_query(10, seed=1),
    "fig06_star_n10_seed0": lambda: star_query(10, seed=0),
    "fig07_snowflake_n12_seed0": lambda: snowflake_query(12, seed=0),
    "fig08_clique_n9_seed0": lambda: clique_query(9, seed=0),
    "fig09_musicbrainz_n13_seed0": lambda: musicbrainz_query(13, seed=0),
    # Wide (> 62-relation) workloads: masks span multiple uint64 words on
    # the kernel backends, so these pin the reference plans the multi-word
    # columns must keep reproducing.  Exact MPDP stays on chains (O(n^2)
    # connected intervals; cycles blow up exponentially under the block
    # enumeration), with n = 65 sitting right past the one-lane boundary;
    # the snowflake is pinned under the IDP2 fragment ladder the
    # large-query band runs.
    "wide_chain_n65_seed1": lambda: chain_query(65, seed=1),
    "wide_chain_n100_seed1": lambda: chain_query(100, seed=1),
    "wide_snowflake_n100_seed1": lambda: snowflake_query(100, seed=1),
    # The other two fragment drivers: UnionDP's partition-and-recurse and
    # IDP1's materialise-and-repeat each build their inner MPDP and hand
    # it fragments their own way.
    "uniondp_snowflake_n100_seed1": lambda: snowflake_query(100, seed=1),
    "uniondp_musicbrainz_n50_seed1":
        lambda: scaled_musicbrainz_query(50, seed=1),
    "idp1_musicbrainz_n40_seed1": lambda: scaled_musicbrainz_query(40, seed=1),
    # GOO, the planner's last rung and IDP2's seed, on the four shapes
    # whose candidate estimates differ most: a hub whose neighbourhood
    # spans the whole query, a snowflake, the MusicBrainz random walk and
    # a clique (every pair an edge).
    "goo_star_n130_seed1": lambda: star_query(130, seed=1),
    "goo_snowflake_n200_seed1": lambda: snowflake_query(200, seed=1),
    "goo_musicbrainz_n200_seed1":
        lambda: scaled_musicbrainz_query(200, seed=1),
    "goo_clique_n40_seed1": lambda: clique_query(40, seed=1),
    # IKKBZ's best linear order over every root, and the planner's LinDP
    # rung built on it: IDP2 over LinearizedDP past 100 relations (the
    # scaled MusicBrainz walk) and LinearizedDP over a cyclic graph's
    # spanning tree.
    "ikkbz_snowflake_n130_seed1": lambda: snowflake_query(130, seed=1),
    "lindp_musicbrainz_n101_seed1":
        lambda: scaled_musicbrainz_query(101, seed=1),
    "lindp_cycle_n60_seed1": lambda: cycle_query(60, seed=1),
}

#: Per-workload optimizer override (default: exact MPDP on the scalar
#: reference backend).  The wide snowflake would be intractable for exact
#: DP, so it pins the scalar IDP2 ladder instead; the ``uniondp_``,
#: ``idp1_``, ``goo_`` and ``ikkbz_`` workloads pin those drivers, and the
#: ``lindp_`` ones pin AdaptiveLinDP as the planner's LinDP rung builds it.
DRIVER_FACTORIES = {
    "wide_snowflake_n100_seed1": lambda: IDP2(k=8, backend="scalar"),
    "uniondp_snowflake_n100_seed1": lambda: UnionDP(k=8, backend="scalar"),
    "uniondp_musicbrainz_n50_seed1": lambda: UnionDP(k=8, backend="scalar"),
    "idp1_musicbrainz_n40_seed1": lambda: IDP1(k=6, backend="scalar"),
    "goo_star_n130_seed1": lambda: GOO(backend="scalar"),
    "goo_snowflake_n200_seed1": lambda: GOO(backend="scalar"),
    "goo_musicbrainz_n200_seed1": lambda: GOO(backend="scalar"),
    "goo_clique_n40_seed1": lambda: GOO(backend="scalar"),
    "ikkbz_snowflake_n130_seed1": lambda: IKKBZ(),
    "lindp_musicbrainz_n101_seed1":
        lambda: AdaptiveLinDP(exact_threshold=0, backend="scalar"),
    "lindp_cycle_n60_seed1":
        lambda: AdaptiveLinDP(exact_threshold=0, backend="scalar"),
}


def snapshot_of(workload: str, make_driver=None) -> dict:
    """The canonical snapshot record for one workload."""
    query = WORKLOAD_FACTORIES[workload]()
    if make_driver is None:
        make_driver = DRIVER_FACTORIES.get(
            workload, lambda: MPDP(backend="scalar"))
    result = make_driver().optimize(query)
    result.plan.validate()
    return {
        "workload": workload,
        "algorithm": result.stats.algorithm,
        "n_relations": query.n_relations,
        "cost_model": query.cost_model.name,
        "cost": repr(result.cost),
        "cost_hex": float(result.cost).hex(),
        "rows": repr(result.plan.rows),
        "evaluated_pairs": result.stats.evaluated_pairs,
        "ccp_pairs": result.stats.ccp_pairs,
        "memo_entries": result.stats.memo_entries,
        "plan": result.plan.to_string(query.graph.relation_names),
    }


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


@pytest.fixture
def update_golden(request) -> bool:
    return bool(request.config.getoption("--update-golden"))


@pytest.mark.parametrize("workload", sorted(WORKLOAD_FACTORIES))
def test_golden_plan(workload, update_golden):
    snapshot = snapshot_of(workload)
    path = golden_path(workload)
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2) + "\n")
        return
    assert path.exists(), (
        f"missing golden file {path}; generate it with "
        "pytest tests/test_golden_plans.py --update-golden")
    pinned = json.loads(path.read_text())
    assert snapshot == pinned, (
        f"{workload}: current optimizer output diverges from the pinned "
        f"golden plan; if the change is intentional, regenerate with "
        "--update-golden and review the diff")


@pytest.mark.parametrize(
    "workload", sorted(w for w in WORKLOAD_FACTORIES if w.startswith("goo_")))
def test_goo_golden_plan_batched(workload):
    """GOO's batched candidate estimates reproduce the scalar goldens."""
    pinned = json.loads(golden_path(workload).read_text())
    assert snapshot_of(workload, lambda: GOO(backend="vectorized")) == pinned


@pytest.mark.parametrize(
    "workload", sorted(w for w in WORKLOAD_FACTORIES if w.startswith("lindp_")))
def test_lindp_golden_plan_vectorized(workload):
    """LinearizedDP's batched interval merge reproduces the scalar goldens."""
    pinned = json.loads(golden_path(workload).read_text())
    assert snapshot_of(workload, lambda: AdaptiveLinDP(
        exact_threshold=0, backend="vectorized")) == pinned


# --------------------------------------------------------------------- #
# Golden *execution* snapshots: pinned runtime row counts
# --------------------------------------------------------------------- #
#: The figure workloads small enough to execute (the wide_* graphs would
#: need thousands of joined tables); datasets are scaled to stay fast.
EXEC_WORKLOADS = (
    "fig04_star_n10_seed1",
    "fig06_star_n10_seed0",
    "fig07_snowflake_n12_seed0",
    "fig08_clique_n9_seed0",
    "fig09_musicbrainz_n13_seed0",
)

#: Tables are pinned to one equal width (``min_rows == max_rows``): with
#: mixed widths a tiny scaled primary-key table under a large foreign-key
#: table fans probes out multiplicatively, and the fig07 snowflake then
#: materializes a ~7e7-row result (a minute of runtime in a tier-1 test).
#: Equal widths keep PK-FK joins flat at the table width; EXEC_SCALE
#: still sizes the shared domains of non-PK-FK edges.  The clique's width
#: is smaller because every pair is a weak edge.
EXEC_SCALE = 1e-4
EXEC_ROWS = 200
EXEC_CLIQUE_ROWS = 25
EXEC_DATASET_SEED = 0


def exec_snapshot_of(workload: str) -> dict:
    """Pinned row counts from actually running the workload's optimal plan.

    The plan-shape snapshot above pins what the optimizer *says*; this pins
    what the executor *does* — the final result cardinality and every
    join node's output rows on the deterministic synthetic dataset.  A
    drift here without a plan drift means the execution engine (or the
    dataset generator) changed behaviour.
    """
    from repro.execution import InMemoryExecutor, SyntheticDataset

    query = WORKLOAD_FACTORIES[workload]()
    plan = MPDP(backend="scalar").optimize(query).plan
    rows = EXEC_CLIQUE_ROWS if "clique" in workload else EXEC_ROWS
    dataset = SyntheticDataset(query, scale=EXEC_SCALE, max_rows=rows,
                               min_rows=rows, seed=EXEC_DATASET_SEED)
    result = InMemoryExecutor(dataset).execute(plan)
    join_rows = {
        format(node.relations, "b"): node.rows
        for node in result.stats.iter_nodes()
        if node.children
    }
    return {
        "workload": workload,
        "scale": EXEC_SCALE,
        "rows_per_table": rows,
        "dataset_seed": EXEC_DATASET_SEED,
        "table_rows": [len(next(iter(dataset.columns[rel].values())))
                       for rel in range(query.n_relations)],
        "result_rows": result.rows,
        "join_rows": join_rows,
    }


def exec_golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"exec_{workload}.json"


@pytest.mark.parametrize("workload", EXEC_WORKLOADS)
def test_golden_execution(workload, update_golden):
    snapshot = exec_snapshot_of(workload)
    path = exec_golden_path(workload)
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2) + "\n")
        return
    assert path.exists(), (
        f"missing golden file {path}; generate it with "
        "pytest tests/test_golden_plans.py --update-golden")
    pinned = json.loads(path.read_text())
    assert snapshot == pinned, (
        f"{workload}: executed row counts diverge from the pinned golden "
        f"execution snapshot; if the change is intentional, regenerate "
        "with --update-golden and review the diff")


def test_no_stale_golden_files():
    """Every committed golden file corresponds to a current workload."""
    if not GOLDEN_DIR.exists():
        pytest.skip("golden directory not generated yet")
    expected = set(WORKLOAD_FACTORIES) | {
        f"exec_{workload}" for workload in EXEC_WORKLOADS}
    stale = {p.stem for p in GOLDEN_DIR.glob("*.json")} - expected
    assert not stale, f"golden files without a workload: {sorted(stale)}"
