"""Property-based differential fuzzing of the whole optimizer stack.

PostBOUND-style differential validation: seeded random join graphs (every
shape in the taxonomy x 2-12 relations x both cost models x random
selectivities) are planned by every exact optimizer and the results
cross-checked three ways —

1. **cross-optimizer**: every exact algorithm (MPDP, MPDP:Tree, DPsub,
   DPsize, PDP, DPccp, DPE) finds the same optimal cost on the same query;
2. **cross-backend**: the kernel-pipeline optimizers are bit-identical
   (plans, costs, counters) across ``scalar`` / ``vectorized`` /
   ``multicore``, with the multicore worker count rotating through
   {1, 2, 4} and the break-even gate dropped so the worker IPC path really
   executes;
3. **heuristic sanity**: every heuristic's plan cost is >= the exact
   optimum (they search a subset of the same space under the same cost
   arithmetic, so this holds exactly, not approximately).

Everything is seeded — the 200-case corpus is a pure function of the case
index — so a failure reproduces by running its single parametrized id.
The exponential algorithms (DPsub/DPsize/PDP/DPE/DPccp full cross-check)
only run on cases small enough to stay interactive; MPDP and the backend
matrix run on every case.
"""

from __future__ import annotations

import random

import pytest

import repro.exec.multicore as mc
from repro.cost.cout import CoutCostModel
from repro.cost.postgres import PostgresCostModel
from repro.optimizers import DPE, DPCcp, DPSize, DPSub, MPDP, PDP
from repro.optimizers.mpdp import MPDPTree
from repro.planner import DEFAULT_REGISTRY
from repro.workloads import (
    chain_query,
    clique_query,
    cycle_query,
    random_connected_query,
    snowflake_query,
    star_query,
)

N_CASES = 200

#: Exhaustive cross-optimizer checks only below this size (DPsub/DPsize
#: walk exponential pair spaces in pure Python).
FULL_LINEUP_MAX_RELATIONS = 8

WORKER_ROTATION = (1, 2, 4)

COUNTER_FIELDS = ("evaluated_pairs", "ccp_pairs", "level_pairs", "level_ccp",
                  "connected_sets", "memo_entries")

#: Heuristics rotated through the corpus (two per case).  LinDP runs with
#: ``exact_threshold=0`` so it exercises the linearized path instead of
#: re-running an exact DP (which would trivially equal the optimum).
HEURISTIC_FACTORIES = (
    ("GOO", lambda: DEFAULT_REGISTRY.create("GOO")),
    ("IKKBZ", lambda: DEFAULT_REGISTRY.create("IKKBZ")),
    ("LinDP", lambda: DEFAULT_REGISTRY.create("LinDP", exact_threshold=0)),
    ("IDP2", lambda: DEFAULT_REGISTRY.create("IDP2", k=5)),
    ("UnionDP", lambda: DEFAULT_REGISTRY.create("UnionDP", k=5)),
    ("GE-QO", lambda: DEFAULT_REGISTRY.create("GE-QO", seed=0, generations=20,
                                              pool_size=50)),
)


def make_case(index: int):
    """Deterministic case description for one corpus index."""
    rng = random.Random(index * 9973 + 17)
    cost_model_factory = CoutCostModel if index % 2 else PostgresCostModel
    shapes = ["chain", "star"]
    n = rng.randint(2, 12)
    if n >= 3:
        shapes.append("cycle")
    if n >= 5:
        shapes.append("snowflake")
    if n <= 9:
        shapes += ["clique", "random_dense"]
    shapes.append("random_sparse")
    shape = rng.choice(shapes)
    seed = rng.randrange(1 << 20)

    def factory():
        model = cost_model_factory()
        if shape == "chain":
            return chain_query(n, seed=seed, cost_model=model)
        if shape == "star":
            return star_query(n, seed=seed, cost_model=model)
        if shape == "cycle":
            return cycle_query(n, seed=seed, cost_model=model)
        if shape == "snowflake":
            return snowflake_query(n, seed=seed, cost_model=model)
        if shape == "clique":
            return clique_query(n, seed=seed, cost_model=model)
        if shape == "random_dense":
            return random_connected_query(n, extra_edge_probability=0.5,
                                          seed=seed, cost_model=model)
        return random_connected_query(n, extra_edge_probability=0.15,
                                      seed=seed, cost_model=model)

    return factory, {"n": n, "shape": shape, "seed": seed, "index": index}


def assert_bit_identical(reference, other, context: str):
    assert other.cost == reference.cost, context
    assert other.plan == reference.plan, context
    for field in COUNTER_FIELDS:
        assert getattr(other.stats, field) == \
            getattr(reference.stats, field), f"{context}: {field}"
    assert [k for k, _ in other.memo.items()] == \
        [k for k, _ in reference.memo.items()], context


@pytest.fixture(scope="module", autouse=True)
def force_sharding():
    """Run the corpus with the multicore break-even gate dropped, so the
    worker IPC path executes even for fuzz-sized levels."""
    saved = (mc.MULTICORE_MIN_TARGETS, mc.MULTICORE_MIN_WORK)
    mc.MULTICORE_MIN_TARGETS, mc.MULTICORE_MIN_WORK = 1, 1
    yield
    mc.MULTICORE_MIN_TARGETS, mc.MULTICORE_MIN_WORK = saved


def _is_acyclic(query) -> bool:
    return query.graph.n_edges == query.n_relations - 1


@pytest.mark.multicore
@pytest.mark.parametrize("index", range(N_CASES))
def test_differential_case(index):
    factory, meta = make_case(index)
    context = f"case {meta}"
    workers = WORKER_ROTATION[index % len(WORKER_ROTATION)]

    # Reference: MPDP on the scalar backend (the specification semantics).
    reference = MPDP(backend="scalar").optimize(factory())
    optimum = reference.cost
    reference.plan.validate()  # raises on malformed plan trees

    # Cross-backend bit-identity for the kernel-pipeline optimizers.
    vectorized = MPDP(backend="vectorized").optimize(factory())
    assert_bit_identical(reference, vectorized, f"{context}: MPDP vectorized")
    multicore = MPDP(backend="multicore", workers=workers).optimize(factory())
    assert_bit_identical(reference, multicore,
                         f"{context}: MPDP multicore w={workers}")

    if _is_acyclic(factory()):
        tree_scalar = MPDPTree(backend="scalar").optimize(factory())
        assert tree_scalar.cost == optimum, context
        tree_multicore = MPDPTree(backend="multicore",
                                  workers=workers).optimize(factory())
        assert_bit_identical(tree_scalar, tree_multicore,
                             f"{context}: MPDP:Tree multicore")

    # Cross-optimizer optimality (full line-up on small cases only).
    if meta["n"] <= FULL_LINEUP_MAX_RELATIONS:
        dpsub_scalar = DPSub(backend="scalar").optimize(factory())
        assert dpsub_scalar.cost == optimum, f"{context}: DPsub"
        dpsub_multicore = DPSub(backend="multicore",
                                workers=workers).optimize(factory())
        assert_bit_identical(dpsub_scalar, dpsub_multicore,
                             f"{context}: DPsub multicore")
        for optimizer in (DPSize(backend="vectorized"), PDP(), DPCcp(), DPE()):
            result = optimizer.optimize(factory())
            assert result.cost == optimum, f"{context}: {optimizer.name}"

    # Heuristics never beat the exact optimum (same cost arithmetic).
    if meta["n"] >= 4:
        picks = (HEURISTIC_FACTORIES[index % len(HEURISTIC_FACTORIES)],
                 HEURISTIC_FACTORIES[(index + 3) % len(HEURISTIC_FACTORIES)])
        for name, make_heuristic in picks:
            heuristic = make_heuristic().optimize(factory())
            assert heuristic.cost >= optimum, f"{context}: {name}"


# --------------------------------------------------------------------- #
# Heuristic band: the kernelized ladder is bit-identical across backends
# --------------------------------------------------------------------- #
N_HEURISTIC_CASES = 16

#: The kernelized ladder drivers: every one must produce bit-identical
#: plans across scalar / vectorized / multicore.
BAND_FACTORIES = (
    ("GOO", lambda backend, workers: DEFAULT_REGISTRY.create(
        "GOO", backend=backend, workers=workers)),
    ("IDP2", lambda backend, workers: DEFAULT_REGISTRY.create(
        "IDP2", k=6, backend=backend, workers=workers)),
    ("UnionDP", lambda backend, workers: DEFAULT_REGISTRY.create(
        "UnionDP", k=6, backend=backend, workers=workers)),
    ("LinDP", lambda backend, workers: DEFAULT_REGISTRY.create(
        "LinDP", exact_threshold=0, backend=backend, workers=workers)),
)


def make_heuristic_case(index: int):
    """Seeded 10-60-relation case: 20-60 for the large band, plus a few
    exact-checkable sizes (<= 14) so the optimum bound stays exercised."""
    rng = random.Random(index * 7919 + 101)
    n = rng.choice((10, 12, 14)) if index % 4 == 0 else rng.randint(20, 60)
    shape = rng.choice(["chain", "star", "snowflake", "cycle", "random_sparse"])
    seed = rng.randrange(1 << 20)
    cost_model_factory = CoutCostModel if index % 2 else PostgresCostModel

    def factory():
        model = cost_model_factory()
        if shape == "chain":
            return chain_query(n, seed=seed, cost_model=model)
        if shape == "star":
            return star_query(n, seed=seed, cost_model=model)
        if shape == "snowflake":
            return snowflake_query(n, seed=seed, cost_model=model)
        if shape == "cycle":
            return cycle_query(n, seed=seed, cost_model=model)
        return random_connected_query(n, extra_edge_probability=0.1,
                                      seed=seed, cost_model=model)

    return factory, {"n": n, "shape": shape, "seed": seed, "index": index}


@pytest.mark.multicore
@pytest.mark.parametrize("index", range(N_HEURISTIC_CASES))
def test_heuristic_band_case(index):
    factory, meta = make_heuristic_case(index)
    context = f"heuristic band case {meta}"
    workers = WORKER_ROTATION[index % len(WORKER_ROTATION)]

    optimum = None
    if meta["n"] <= 14:
        optimum = MPDP(backend="scalar").optimize(factory()).cost

    for name, make in BAND_FACTORIES:
        reference = make("scalar", None).optimize(factory())
        reference.plan.validate()
        for backend in ("vectorized", "multicore"):
            other = make(backend, workers if backend == "multicore"
                         else None).optimize(factory())
            assert_bit_identical(
                reference, other,
                f"{context}: {name} {backend} w={workers}")
        if optimum is not None:
            assert reference.cost >= optimum, f"{context}: {name} vs optimum"


# --------------------------------------------------------------------- #
# Wide band: multi-word kernel columns beyond the old 62-relation ceiling
# --------------------------------------------------------------------- #
N_WIDE_CASES = 8

#: Boundary widths around the one- and two-word lane edges (62 was the old
#: signed-int64 ceiling; 64/65 and 128/129 are the word roll-overs).
BOUNDARY_WIDTHS = (62, 63, 64, 65, 128, 129)


def make_wide_case(index: int):
    """Seeded 63-130-relation case for the multi-word kernel band.

    Exact MPDP runs on chains only (connected intervals keep the pair
    space quadratic at these widths; every other shape blows up), so the
    heuristic ladder carries the structural variety: stars, snowflakes
    and sparse random graphs whose masks span 2-3 uint64 words.
    """
    rng = random.Random(index * 6151 + 23)
    n = rng.randint(63, 130)
    shape = rng.choice(["star", "snowflake", "random_sparse"])
    seed = rng.randrange(1 << 20)
    cost_model_factory = CoutCostModel if index % 2 else PostgresCostModel

    def factory():
        model = cost_model_factory()
        if shape == "star":
            return star_query(n, seed=seed, cost_model=model)
        if shape == "snowflake":
            return snowflake_query(n, seed=seed, cost_model=model)
        return random_connected_query(n, extra_edge_probability=0.02,
                                      seed=seed, cost_model=model)

    def chain_factory():
        return chain_query(n, seed=seed,
                           cost_model=cost_model_factory())

    return factory, chain_factory, {"n": n, "shape": shape, "seed": seed,
                                    "index": index}


@pytest.mark.multicore
@pytest.mark.parametrize("index", range(N_WIDE_CASES))
def test_wide_band_case(index):
    factory, chain_factory, meta = make_wide_case(index)
    context = f"wide band case {meta}"
    workers = WORKER_ROTATION[index % len(WORKER_ROTATION)]

    # Exact MPDP on the same-width chain: scalar vs both kernel backends.
    reference = MPDP(backend="scalar").optimize(chain_factory())
    reference.plan.validate()
    vectorized = MPDP(backend="vectorized").optimize(chain_factory())
    assert_bit_identical(reference, vectorized,
                         f"{context}: wide chain MPDP vectorized")
    multicore = MPDP(backend="multicore",
                     workers=workers).optimize(chain_factory())
    assert_bit_identical(reference, multicore,
                         f"{context}: wide chain MPDP multicore w={workers}")

    # The heuristic ladder on the structurally varied wide graph (two
    # drivers per case, rotating, like the main corpus — every driver
    # appears across the band at a fraction of the scalar-reference cost).
    picks = (BAND_FACTORIES[index % len(BAND_FACTORIES)],
             BAND_FACTORIES[(index + 1) % len(BAND_FACTORIES)])
    for name, make in picks:
        heuristic_reference = make("scalar", None).optimize(factory())
        heuristic_reference.plan.validate()
        for backend in ("vectorized", "multicore"):
            other = make(backend, workers if backend == "multicore"
                         else None).optimize(factory())
            assert_bit_identical(
                heuristic_reference, other,
                f"{context}: {name} {backend} w={workers}")


# --------------------------------------------------------------------- #
# Execution band: the vectorized executor vs the tuple-at-a-time oracle
# --------------------------------------------------------------------- #
N_EXEC_CASES = 50

#: Executable dataset sizing.  Every table is pinned to one equal width
#: (``min_rows == max_rows``): mixed widths let a tiny primary-key table
#: (2 scaled rows) under a large foreign-key table fan every probe out
#: ``fk_rows / pk_rows``-fold, and on an adversarial seed those factors
#: compound into multi-million-row intermediates the tuple-at-a-time
#: oracle cannot execute interactively.  Equal widths keep PK-FK joins
#: flat while non-PK-FK edges (cycle closers, clique/random extras,
#: domain >= 2 under EXEC_SCALE) still produce duplicates, fan-out and
#: residual filtering — bounded by rows**2 / 2 per weak join.  Cliques
#: get a smaller width because every pair is a weak edge.
EXEC_SCALE = 1e-4
EXEC_ROWS = 60
EXEC_CLIQUE_ROWS = 25

#: The planner ladder rungs whose plans the executors must agree on.
#: Exact MPDP is gated to n <= 10 (exponential); the heuristics run on
#: every case.  LinDP pins exact_threshold=0 (the linearized path), IDP2
#: k=4, exactly as the AdaptivePlanner configures its fallback rungs.
EXEC_RUNGS = (
    ("exact", 10, lambda backend: MPDP(backend=backend)),
    ("IDP2", None, lambda backend: DEFAULT_REGISTRY.create(
        "IDP2", k=4, backend=backend)),
    ("LinDP", None, lambda backend: DEFAULT_REGISTRY.create(
        "LinDP", exact_threshold=0, backend=backend)),
    ("GOO", None, lambda backend: DEFAULT_REGISTRY.create(
        "GOO", backend=backend)),
)


def make_exec_case(index: int):
    """Seeded 4-14-relation executable case (pure function of the index)."""
    rng = random.Random(index * 6151 + 29)
    n = rng.randint(4, 14)
    shapes = ["chain", "star", "cycle"]
    if n >= 5:
        shapes.append("snowflake")
    if n <= 8:
        shapes.append("clique")
    shapes.append("random_sparse")
    shape = rng.choice(shapes)
    seed = rng.randrange(1 << 20)
    cost_model_factory = CoutCostModel if index % 2 else PostgresCostModel

    def factory():
        model = cost_model_factory()
        if shape == "chain":
            return chain_query(n, seed=seed, cost_model=model)
        if shape == "star":
            return star_query(n, seed=seed, cost_model=model)
        if shape == "cycle":
            return cycle_query(n, seed=seed, cost_model=model)
        if shape == "snowflake":
            return snowflake_query(n, seed=seed, cost_model=model)
        if shape == "clique":
            return clique_query(n, seed=seed, cost_model=model)
        return random_connected_query(n, extra_edge_probability=0.15,
                                      seed=seed, cost_model=model)

    return factory, {"n": n, "shape": shape, "seed": seed, "index": index}


@pytest.mark.parametrize("index", range(N_EXEC_CASES))
def test_differential_execution_case(index):
    """Every rung's plan executes identically on both executors.

    The vectorized :class:`InMemoryExecutor` (argsort + searchsorted /
    bincount run expansion) and the tuple-at-a-time
    :class:`ReferenceExecutor` (Python dict probe) share no join-kernel
    code; identical final *and per-node* row counts on plans from every
    ladder rung is the differential correctness signal.  Plans themselves
    are additionally pinned bit-identical across the scalar and vectorized
    planning backends before executing.
    """
    from repro.execution import (InMemoryExecutor, ReferenceExecutor,
                                 SyntheticDataset)

    factory, meta = make_exec_case(index)
    context = f"exec case {meta}"
    query = factory()
    rows = EXEC_CLIQUE_ROWS if meta["shape"] == "clique" else EXEC_ROWS
    dataset = SyntheticDataset(query, scale=EXEC_SCALE,
                               max_rows=rows, min_rows=rows, seed=index)
    vectorized_executor = InMemoryExecutor(dataset)
    reference_executor = ReferenceExecutor(dataset)

    final_rows = set()
    for rung, max_n, make in EXEC_RUNGS:
        if max_n is not None and meta["n"] > max_n:
            continue
        planned = make("scalar").optimize(factory())
        planned.plan.validate()
        kernel = make("vectorized").optimize(factory())
        assert kernel.cost == planned.cost, f"{context}: {rung}"
        assert kernel.plan.structure() == planned.plan.structure(), \
            f"{context}: {rung}"

        vec = vectorized_executor.execute(planned.plan)
        ref = reference_executor.execute(planned.plan)
        assert vec.rows == ref.rows, f"{context}: {rung} final rows"
        assert vec.node_rows() == ref.node_rows(), \
            f"{context}: {rung} per-node rows"
        final_rows.add(vec.rows)
    # Join order never changes the result cardinality.
    assert len(final_rows) == 1, f"{context}: result size varied across rungs"


@pytest.mark.multicore
@pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
def test_word_boundary_width(n):
    """Chain MPDP at the exact lane-boundary widths, all three backends.

    62 is the retired signed-int64 kernel ceiling, 63/64 fill the first
    word, 65 is the first two-word mask and 128/129 the two/three-word
    edge — the widths where a packing off-by-one would first corrupt a
    mask."""
    context = f"boundary n={n}"

    def factory():
        return chain_query(n, seed=7, cost_model=CoutCostModel())

    reference = MPDP(backend="scalar").optimize(factory())
    reference.plan.validate()
    for backend, workers in (("vectorized", None),
                             ("multicore", 2 + 2 * (n % 2))):
        other = MPDP(backend=backend, workers=workers).optimize(factory())
        assert_bit_identical(reference, other,
                             f"{context}: {backend} w={workers}")
