"""The benchmark's two workloads: request streams, set-up and output checks.

Every workload is a closed loop with one client.  The client prepares
request ``i`` from the run seed alone (untimed), issues it through the public
API (timed) and waits for the reply before preparing the next one.

* ``cold`` builds a fresh query for every request, exact-sized (8-16
  relations) or heuristic-sized (25-130), and plans it once with one
  ``AdaptivePlanner`` (the caller embeds the
  planner, like a database session does).  Re-planning the same query object
  would hit the per-graph enumeration memo and run faster than a real first
  request, so no query object is ever planned twice.
* ``sql-hot`` sends parameterised SQL through ``parse_join_query``,
  ``PlannerService`` (the ``repro-plan serve`` path; every reply is a cache
  hit because filter selectivity ignores the literal) and
  ``InMemoryExecutor`` over seeded synthetic tables built during set-up.

Requests are drawn in rounds: each round issues every cell (or template)
once, in a seeded order.  A run therefore always has the same shape and size
mix, a second seed changes only the queries, and the first ``prefix``
requests (whole rounds) are identical work on every run with that seed.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

import repro.sql.parser as parser_module
from repro import workloads as generators
from repro.exec.multicore import available_workers
from repro.execution import InMemoryExecutor, ReferenceExecutor, SyntheticDataset
from repro.planner import AdaptivePlanner, PlannerService

from checks import reference_plan, verify_plan
from sql_templates import CATALOG_SCALES, TEMPLATES

__all__ = ["WORKLOADS", "MAX_TABLE_ROWS", "INTERMEDIATE_LIMIT"]

#: Synthetic base tables are capped at this many rows (after scaling).
MAX_TABLE_ROWS = 40_000
#: No connected sub-join of any template may have a larger expected size on
#: the data it runs on; set-up refuses the dataset otherwise.
INTERMEDIATE_LIMIT = 100_000


class Request(NamedTuple):
    index: int
    cell: str
    payload: Any


def _round_order(seed: int, round_index: int, n_items: int) -> List[int]:
    return random.Random(f"{seed}:{round_index}").sample(range(n_items), n_items)


# --------------------------------------------------------------------------- #
# Cold planning workload
# --------------------------------------------------------------------------- #
Cell = Tuple[str, Callable[[int], Any]]


def _cells(spec: List[Tuple[str, Callable[..., Any], Tuple[int, ...]]]) -> List[Cell]:
    return [(f"{shape}-{n}", (lambda seed, g=generator, n=n: g(n, seed=seed)))
            for shape, generator, sizes in spec for n in sizes]


#: One round plans each of these 26 cells once: 14 exact cells of 8-16
#: relations and 12 heuristic cells of 25-130.  ``auto`` runs the exact ones
#: on the scalar (<12 relations), vectorized (12-13) and multicore (>=14,
#: >=2 CPUs) kernels; cycle-13 is the cyclic query on the vectorized block
#: kernel and JOB-14 the one whose block levels go to the worker pool.  The
#: heuristic ones route to IDP2 (<=100 relations) and LinDP (101-300); GOO-only
#: sizes (>300) are left out, one 500-relation snowflake takes seconds.
#:
#: A cell's cost is tens to a few hundred milliseconds on a 2-CPU machine,
#: and the cells are arranged so that each percentile lands inside cells of
#: about the same cost that hardly depends on the seed, never in a gap: ten
#: cheap cells (the random-walk families at sizes whose slowest instances stay
#: cheap), six around the median (star-12, star-25, scaled-MusicBrainz-25,
#: snowflake-15, snowflake-40, clique-9), snowflake-101, and nine around the
#: 90th percentile (snowflake-16, star-13, JOB-14, star-40, star-101,
#: snowflake-60, snowflake-130, scaled-MusicBrainz-40 and -101).
COLD_CELLS = _cells([
    ("cycle", generators.cycle_query, (13, 100)),
    ("random", generators.random_connected_query, (9,)),
    ("musicbrainz", generators.musicbrainz_query, (11,)),
    ("job", generators.job_query, (10, 14)),
    ("clique", generators.clique_query, (8, 9)),
    ("star", generators.star_query, (11, 12, 13, 25, 40, 101)),
    ("snowflake", generators.snowflake_query, (13, 14, 15, 16, 40, 60, 101, 130)),
    ("scaled_musicbrainz", generators.scaled_musicbrainz_query, (25, 40, 101)),
    ("chain", generators.chain_query, (80,)),
])


class ColdPlanning:
    """Plan a fresh query per request with one default ``AdaptivePlanner``."""

    def __init__(self, cells: List[Cell], rounds: int,
                 warmup: List[Callable[[], Any]]):
        self.cells = cells
        self.round_size = len(cells)
        self.prefix = rounds * self.round_size
        self.warmup = warmup

    def setup(self, seed: int) -> Dict[str, Any]:
        # The warm-up planner is separate, so its plans never sit in the
        # timed planner's cache; it forks the multicore pool when a rung
        # needs it.
        warm = AdaptivePlanner()
        for make in self.warmup:
            warm.plan(make())
        return {"seed": seed, "planner": AdaptivePlanner()}

    def prepare(self, env: Dict[str, Any], index: int) -> Request:
        n = self.round_size
        cell, make = self.cells[_round_order(env["seed"], index // n, n)[index % n]]
        return Request(index, cell, make(env["seed"] * 1_000_003 + index))

    def issue(self, env: Dict[str, Any], request: Request):
        return env["planner"].plan(request.payload)

    def cache_info(self, env: Dict[str, Any]) -> Dict[str, float]:
        return env["planner"].cache_info()

    def check(self, env: Dict[str, Any], request: Request, outcome) -> Optional[str]:
        return verify_plan(request.payload, outcome.plan)

    def outcome(self, output):
        return output

    def reference_cost(self, env: Dict[str, Any], request: Request) -> float:
        return reference_plan(request.payload).cost

    def executed_rows(self, output) -> int:
        return 0

    def close(self, env: Dict[str, Any]) -> None:
        pass


# --------------------------------------------------------------------------- #
# SQL serving workload
# --------------------------------------------------------------------------- #
def _catalogs() -> Dict[str, Any]:
    return {"imdb": generators.build_imdb_catalog(),
            "tpch": generators.build_tpch_catalog(scale_factor=5.0),
            "musicbrainz": generators.build_musicbrainz_catalog()}


def _literals(rng: random.Random) -> Dict[str, Any]:
    def word() -> str:
        return "".join(rng.choice("bcdfghklmnprstvz") for _ in range(6))
    return {"y": rng.randint(1950, 2020), "n": rng.randint(1, 50),
            "s": word(), "t": word()}


def max_expected_subjoin(dataset: SyntheticDataset) -> float:
    """Largest expected size of any connected sub-join of the dataset's query.

    The join graph must be a tree, so every join node of every
    cross-product-free plan joins on exactly one edge and produces one of
    these sub-joins (no residual filter ever runs on a larger input).  Each
    edge's match probability is measured on the generated columns; a
    sub-join's expected size is the product of its tables' rows and its
    edges' match probabilities.
    """
    graph = dataset.query.graph
    n = graph.n_relations
    if len(graph.edges) != n - 1:
        raise ValueError(f"{dataset.query.name}: template join graph is not a tree")
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    log_size = bits @ np.log([float(dataset.rows(r)) for r in range(n)])
    edges_within = np.zeros(1 << n, dtype=np.int64)
    for index, edge in enumerate(graph.edges):
        left = dataset.table(edge.left)[f"j{index}"]
        right = dataset.table(edge.right)[f"j{index}"]
        width = int(max(left.max(), right.max())) + 1
        matches = float(np.dot(np.bincount(left, minlength=width).astype(float),
                               np.bincount(right, minlength=width)))
        both = bits[:, edge.left] & bits[:, edge.right]
        edges_within += both
        log_size += both * math.log(max(matches, 1.0) / (len(left) * len(right)))
    connected = edges_within == bits.sum(axis=1) - 1
    return float(np.exp(log_size[connected & (bits.sum(axis=1) >= 2)].max()))


class SqlHot:
    """Parse -> serve from a warm plan cache -> execute on synthetic tables."""

    def __init__(self, rounds: int):
        self.round_size = len(TEMPLATES)
        self.prefix = rounds * self.round_size

    def setup(self, seed: int) -> Dict[str, Any]:
        catalogs = _catalogs()
        service = PlannerService(AdaptivePlanner(), workers=available_workers())
        #: served: plan-cache signature -> template index; executors: one
        #: per template, over that template's synthetic tables.
        env: Dict[str, Any] = {"seed": seed, "catalogs": catalogs,
                               "service": service, "served": {},
                               "executors": []}
        try:
            warm_rng = random.Random(f"{seed}:warm")
            for index, template in enumerate(TEMPLATES):
                sql = template.sql.format(**_literals(warm_rng))
                parsed = parser_module.parse_join_query(sql, catalogs[template.catalog])
                reply = service.plan(parsed.query)
                if reply.status != "ok":
                    raise RuntimeError(f"{template.name}: warm-up reply {reply.status}")
                dataset = SyntheticDataset(
                    parsed.query, scale=CATALOG_SCALES[template.catalog],
                    max_rows=MAX_TABLE_ROWS, seed=seed * 1_000 + index)
                bound = max_expected_subjoin(dataset)
                if bound > INTERMEDIATE_LIMIT:
                    raise RuntimeError(
                        f"{template.name}: a sub-join expects {bound:.0f} rows "
                        f"(limit {INTERMEDIATE_LIMIT})")
                executor = InMemoryExecutor(dataset)
                executor.execute(reply.outcome.plan)
                env["served"][reply.outcome.decision.signature] = index
                env["executors"].append(executor)
        except BaseException:
            service.close()
            raise
        return env

    def prepare(self, env: Dict[str, Any], index: int) -> Request:
        n = self.round_size
        template_index = _round_order(env["seed"], index // n, n)[index % n]
        template = TEMPLATES[template_index]
        rng = random.Random(f"{env['seed']}:{index}")
        sql = template.sql.format(**_literals(rng))
        return Request(index, template.name,
                       (template_index, env["catalogs"][template.catalog], sql))

    def issue(self, env: Dict[str, Any], request: Request):
        _, catalog, sql = request.payload
        parsed = parser_module.parse_join_query(sql, catalog)
        reply = env["service"].plan(parsed.query)
        if reply.status != "ok":
            return reply, None, None
        served_index = env["served"][reply.outcome.decision.signature]
        executor = env["executors"][served_index]
        return reply, served_index, executor.execute(reply.outcome.plan).rows

    def cache_info(self, env: Dict[str, Any]) -> Dict[str, float]:
        return env["service"].planner.cache_info()

    def check(self, env: Dict[str, Any], request: Request, output) -> Optional[str]:
        reply, served_index, rows = output
        template_index = request.payload[0]
        if reply.status != "ok":
            return f"service replied {reply.status}: {reply.error}"
        if served_index != template_index:
            return (f"served the plan of {TEMPLATES[served_index].name} for "
                    f"{TEMPLATES[template_index].name}")
        executor = env["executors"][template_index]
        plan = reply.outcome.plan
        verified = env.setdefault("verified", {})
        if id(plan) not in verified:
            verified[id(plan)] = verify_plan(executor.query, plan)
        if verified[id(plan)] is not None:
            return verified[id(plan)]
        # The result size does not depend on the join order, so one
        # reference execution per template serves every request.
        oracle = env.setdefault("oracle", {})
        if template_index not in oracle:
            oracle[template_index] = ReferenceExecutor(executor.dataset).execute(plan).rows
        if rows != oracle[template_index]:
            return (f"executed {rows} rows, the reference executor gives "
                    f"{oracle[template_index]}")
        return None

    def outcome(self, output):
        return output[0].outcome

    def reference_cost(self, env: Dict[str, Any], request: Request) -> float:
        template_index = request.payload[0]
        costs = env.setdefault("reference_cost", {})
        if template_index not in costs:
            query = env["executors"][template_index].query
            costs[template_index] = reference_plan(query).cost
        return costs[template_index]

    def executed_rows(self, output) -> int:
        return output[2]

    def close(self, env: Dict[str, Any]) -> None:
        env["service"].close()


#: Warm-up queries: one per rung and backend each workload uses, drawn
#: outside the timed queries' seed space.
_COLD_WARMUP = [
    lambda: generators.clique_query(7, seed=-1),           # MPDP, scalar
    lambda: generators.chain_query(10, seed=-1),           # MPDP:Tree, scalar
    lambda: generators.cycle_query(12, seed=-1),           # MPDP, vectorized
    lambda: generators.star_query(12, seed=-1),            # MPDP:Tree, vectorized
    lambda: generators.snowflake_query(15, seed=-1),       # MPDP:Tree, multicore
    lambda: generators.job_query(14, seed=-1),             # MPDP, multicore pool
    lambda: generators.snowflake_query(30, seed=-1),       # IDP2
    lambda: generators.chain_query(110, seed=-1),          # LinDP
]

WORKLOADS = {
    "cold": ColdPlanning(COLD_CELLS, rounds=8, warmup=_COLD_WARMUP),
    "sql-hot": SqlHot(rounds=27),
}
