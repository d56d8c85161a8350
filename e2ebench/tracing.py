"""Outside-in layer tracing for the end-to-end benchmark.

The benchmark does not edit ``src/``: it wraps each ``repro`` layer's public
entry points from here, records one span per call and turns the spans into
the per-layer metrics of a ``--trace 1`` run.

A span records its layer name, start, end, parent span and request id.
Spans are kept in memory and written out once, when the run ends.  A span's
self time is its duration minus the time its direct children cover.

The load is a closed loop with one client, so at most one request is in
flight.  ``PlannerService`` plans on one of its worker threads while the
client thread waits for the reply, so the spans of one request still nest
strictly in time; one shared span stack (not one per thread) therefore gives
every span its true parent, including the planner span under the service
span.  Clocks stay at layer boundaries and never inside a kernel's own
loops; the one boundary crossed from inside a kernel is the cost layer's
``cost_batch``, which the kernels call once per chunk of candidate pairs.
Calls made inside the multicore worker processes (forked after the wrappers
are installed) pass straight through without recording.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Tracer", "install_layer_wrappers"]


class Tracer:
    """In-memory span recorder with a single strictly nested span stack."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: [span id, parent id, request id, name, start, end, self seconds,
        #: extra counters or None]
        self.spans: List[List[Any]] = []
        #: Open spans: [span id, start, seconds covered by direct children].
        self._stack: List[List[Any]] = []
        self._next_id = 0
        self.request_id: Optional[int] = None

    def wrap(self, owner: Any, attr: str, name: Optional[str] = None,
             name_of: Optional[Callable[..., str]] = None,
             extra_of: Optional[Callable[..., Optional[Dict[str, Any]]]] = None
             ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is the span name; ``name_of(args)`` computes it per call
        instead (e.g. the backend class of an exec level).  ``extra_of(args,
        result)`` extracts counters after the span has closed, so their
        extraction is not charged to the span.
        """
        function = getattr(owner, attr)
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return function(*args, **kwargs)
            span_name = name_of(args) if name_of is not None else name
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                tracer.spans.append([span_id, parent, tracer.request_id,
                                     span_name, frame[1], end,
                                     duration - frame[2], None])
            if extra_of is not None:
                tracer.spans[-1][7] = extra_of(args, result)
            return result

        setattr(owner, attr, wrapper)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "request", "name", "start", "end", "self_s",
                "extra")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _stats_extra(args, result) -> Dict[str, Any]:
    return {"evaluated_pairs": result.stats.evaluated_pairs,
            "ccp_pairs": result.stats.ccp_pairs}


def _optimizer_layer(args) -> str:
    module = type(args[0]).__module__
    return "heuristics" if module.startswith("repro.heuristics") else "optimizer"


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of every ``repro`` layer.

    Span names are the metric prefixes of ``BENCHMARK.json``'s per-layer
    metrics; each wraps the named object where its caller resolves it.
    """
    import repro.exec as exec_package
    import repro.heuristics.idp as idp_module
    import repro.planner.service as service_module
    import repro.sql.parser as parser_module
    from repro.cost.base import CostModel
    from repro.cost.cout import CoutCostModel
    from repro.exec.backend import ScalarBackend
    from repro.exec.multicore import MulticoreBackend
    from repro.exec.vectorized import VectorizedBackend
    from repro.execution.engine import InMemoryExecutor, SyntheticDataset
    from repro.optimizers.base import JoinOrderOptimizer
    from repro.planner.cache import PlanCache
    from repro.planner.classifier import QueryClassifier
    from repro.planner.server import PlannerService
    from repro.planner.service import AdaptivePlanner

    wrap = tracer.wrap
    wrap(parser_module, "parse_join_query", "sql.parse")
    wrap(PlannerService, "plan", "server",
         extra_of=lambda args, reply: {"status": reply.status,
                                       "queue_s": reply.queue_seconds})
    wrap(AdaptivePlanner, "plan", "planner",
         extra_of=lambda args, outcome: {
             "algorithm": outcome.decision.algorithm,
             "fallbacks": len(outcome.decision.fallbacks)})
    wrap(QueryClassifier, "classify", "classifier.classify")
    wrap(service_module, "structural_signature", "classifier.signature")
    wrap(PlanCache, "get", "cache.get")
    wrap(PlanCache, "put", "cache.put")
    wrap(JoinOrderOptimizer, "optimize", name_of=_optimizer_layer,
         extra_of=_stats_extra)
    wrap(idp_module, "optimize_fragment", "heuristics.fragment")
    for backend in (ScalarBackend, VectorizedBackend, MulticoreBackend):
        for level in ("run_subset_level", "run_block_level",
                      "run_tree_level", "run_size_level"):
            wrap(backend, level, f"exec.level.{backend.name}")
    wrap(exec_package, "lindp_merge", "exec.lindp_merge")
    wrap(exec_package, "greedy_union_partition", "exec.greedy_union_partition")
    for model in (CostModel, CoutCostModel):
        wrap(model, "cost_batch", "cost.batch",
             extra_of=lambda args, costs: {"pairs": len(costs)})
    wrap(InMemoryExecutor, "execute", "execution.execute",
         extra_of=lambda args, result: {"intermediate_rows": sum(
             node.rows for node in result.stats.iter_nodes() if node.children)})
    wrap(SyntheticDataset, "__init__", "execution.dataset")
