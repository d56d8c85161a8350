"""Plan cache: striped, signature-keyed memoization of planning outcomes.

The cache is the serving layer's answer to repeated workloads: web-style
traffic re-issues the same parameterised query shapes over and over, and a
join order computed once stays valid until the statistics behind it change.
Entries are keyed on the canonical structural signature
(:func:`~repro.planner.classifier.structural_signature`), which covers the
cost model, cardinalities and selectivities — so any statistics change
produces a different key, and explicit invalidation is only needed to *free*
entries whose statistics will never recur (or on cost-model code changes).

Concurrency design (the service layer hammers this from many threads):

* **Striping.** Entries are spread across ``stripes`` independent shards by
  signature hash; every shard has its own lock, LRU order and counters, so
  two threads touching different signatures almost never contend (the old
  single-lock design serialised even pure cache hits).
* **Lock-free read fast path.** Each stripe publishes an immutable snapshot
  mapping (rebuilt under the stripe lock on every structural write) that
  :meth:`get` reads *without taking any lock* — a CPython dict read is
  atomic, and the mapping object itself is never mutated after publication,
  only replaced wholesale.  A hit therefore costs one dict lookup plus one
  atomic list append.
* **Pending-hit journal.** Hits record themselves by appending the key to a
  per-stripe journal (``list.append`` is atomic in CPython).  The journal is
  drained *under the stripe lock* by the next writer or stats reader, which
  applies the batched hit counts and LRU touches before acting — so
  ``hits``/``misses``/``hit_rate``/``cache_info`` snapshots are consistent
  per stripe (no read-modify races), and eviction always sees up-to-date
  recency.  A hitting thread self-drains past ``_JOURNAL_LIMIT`` so the
  journal stays bounded on hit-only workloads.

Per-stripe LRU means capacity is enforced per shard (``max_entries`` split
evenly across stripes); the signature hash spreads keys uniformly, so the
aggregate behaves like a global LRU up to shard-imbalance noise.  Small
caches (``max_entries < 64 * stripes``) collapse to a single stripe, where
the LRU is exact.

Cached :class:`~repro.planner.service.PlanningOutcome` objects are shared,
not copied — treat plans from the cache as immutable.  :meth:`save` /
:meth:`restore` serialize the cache contents for warm starts across service
restarts (see :class:`~repro.planner.server.PlannerService`).
"""

from __future__ import annotations

import os
import pickle
import threading
import zlib
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["PlanCache"]

#: Self-drain threshold for a stripe's pending-hit journal.
_JOURNAL_LIMIT = 512

#: Default upper bound on the stripe count (capacity permitting).
_DEFAULT_STRIPES = 16

#: Persistence format marker (bump on incompatible entry layout changes).
_PERSIST_MAGIC = "repro-plan-cache"
_PERSIST_VERSION = 1


class _Stripe:
    """One shard: its own lock, LRU map, published snapshot and counters."""

    __slots__ = ("lock", "entries", "snapshot", "journal", "capacity",
                 "hits", "misses", "evictions", "invalidations")

    def __init__(self, capacity: int):
        self.lock = threading.Lock()
        self.entries: "OrderedDict[str, object]" = OrderedDict()  # guarded-by: lock
        #: Immutable published mapping for the lock-free read path.  Never
        #: mutated in place: writers build a fresh dict and swap the
        #: reference (atomic under the GIL); the swap itself happens under
        #: the stripe lock.
        self.snapshot: Dict[str, object] = {}  # guarded-by: lock
        #: Pending-hit journal: keys appended lock-free by readers, drained
        #: under ``lock`` before any count/evict/stat operation.
        #: Deliberately NOT guarded-by the lock — ``list.append`` is atomic
        #: in CPython and the lock-free hit path is the point of the design.
        self.journal: List[str] = []
        self.capacity = capacity
        self.hits = 0  # guarded-by: lock
        self.misses = 0  # guarded-by: lock
        self.evictions = 0  # guarded-by: lock
        self.invalidations = 0  # guarded-by: lock

    # -- all methods below assume ``self.lock`` is HELD ------------------- #
    def drain(self) -> None:  # lock-held: lock
        """Apply journaled hits: counters once, LRU recency in hit order."""
        n = len(self.journal)
        if not n:
            return
        batch = self.journal[:n]
        del self.journal[:n]  # concurrent appends land past index n: safe
        self.hits += n
        entries = self.entries
        for key in batch:
            if key in entries:
                entries.move_to_end(key)

    def publish(self) -> None:  # lock-held: lock
        self.snapshot = dict(self.entries)

    def evict_over_capacity(self) -> None:  # lock-held: lock
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> Tuple[int, int, int, int, int]:  # lock-held: lock
        """(entries, hits, misses, evictions, invalidations), post-drain."""
        self.drain()
        return (len(self.entries), self.hits, self.misses,
                self.evictions, self.invalidations)


class PlanCache:
    """Bounded, striped, thread-safe LRU cache keyed by query signature.

    Args:
        max_entries: aggregate capacity across all stripes.
        stripes: shard count.  ``None`` picks ``min(16, max_entries // 64)``
            (at least 1), so small caches keep an exact single-shard LRU and
            large ones spread lock traffic.  An explicit count is clamped to
            ``max_entries`` so no stripe has zero capacity.
    """

    def __init__(self, max_entries: int = 4096,
                 stripes: Optional[int] = None):
        if max_entries <= 0:
            raise ValueError("PlanCache needs max_entries >= 1")
        if stripes is None:
            stripes = min(_DEFAULT_STRIPES, max(1, max_entries // 64))
        if stripes <= 0:
            raise ValueError("PlanCache needs stripes >= 1")
        stripes = min(stripes, max_entries)
        self.max_entries = max_entries
        base, remainder = divmod(max_entries, stripes)
        self._stripes: List[_Stripe] = [
            _Stripe(base + (1 if index < remainder else 0))
            for index in range(stripes)
        ]

    @property
    def stripe_count(self) -> int:
        return len(self._stripes)

    def _stripe(self, signature: str) -> _Stripe:
        if len(self._stripes) == 1:
            return self._stripes[0]
        # zlib.crc32 is stable across processes (unlike hash(str) under
        # PYTHONHASHSEED), so persisted caches re-stripe deterministically.
        return self._stripes[zlib.crc32(signature.encode()) % len(self._stripes)]

    # ------------------------------------------------------------------ #
    def get(self, signature: str) -> Optional[object]:
        """The cached outcome for ``signature``, or None (counts hit/miss).

        Hits take no lock: the entry comes from the stripe's published
        immutable snapshot, and the hit is journaled with one atomic
        append (drained to counters/LRU by the next writer or stat read).
        """
        stripe = self._stripe(signature)
        entry = stripe.snapshot.get(signature)
        if entry is not None:
            stripe.journal.append(signature)  # atomic; lock-free hit path
            if len(stripe.journal) >= _JOURNAL_LIMIT:
                with stripe.lock:
                    stripe.drain()
            return entry
        with stripe.lock:
            stripe.drain()
            # Re-check under the lock: a writer may have inserted between
            # our snapshot read and here.
            entry = stripe.entries.get(signature)
            if entry is None:
                stripe.misses += 1
                return None
            stripe.entries.move_to_end(signature)
            stripe.hits += 1
            return entry

    def peek(self, signature: str) -> Optional[object]:
        """Lock-free lookup with **no** stat or recency side effects.

        Used by the planner's singleflight re-check so a coalesced waiter
        does not double-count the lookup its admission ``get`` already
        recorded.
        """
        return self._stripe(signature).snapshot.get(signature)

    def put(self, signature: str, outcome: object) -> None:
        """Store ``outcome`` under ``signature``, evicting LRU entries."""
        stripe = self._stripe(signature)
        with stripe.lock:
            stripe.drain()
            if signature in stripe.entries:
                stripe.entries.move_to_end(signature)
            stripe.entries[signature] = outcome
            stripe.evict_over_capacity()
            stripe.publish()

    def invalidate(self, signature: str) -> bool:
        """Drop one entry; True when it existed."""
        stripe = self._stripe(signature)
        with stripe.lock:
            stripe.drain()
            existed = stripe.entries.pop(signature, None) is not None
            if existed:
                stripe.invalidations += 1
                stripe.publish()
            return existed

    def invalidate_where(self, prefix: str) -> int:
        """Drop every entry whose signature starts with ``prefix``.

        Signatures lead with ``shape:n<relations>:``, so this supports bulk
        invalidation of e.g. every star-shaped plan after a policy change.
        Returns the number of entries dropped.
        """
        return self.invalidate_if(lambda key, _outcome: key.startswith(prefix))

    def invalidate_if(self, predicate: Callable[[str, object], bool]) -> int:
        """Drop every entry whose ``(key, outcome)`` satisfies ``predicate``.

        Used e.g. to evict plans produced under budget pressure once the
        pressure is lifted; the key is passed so planners sharing a cache
        can restrict eviction to their own (policy-tagged) entries.
        Returns the number of entries dropped.
        """
        dropped = 0
        for stripe in self._stripes:
            with stripe.lock:
                stripe.drain()
                stale = [key for key, outcome in stripe.entries.items()
                         if predicate(key, outcome)]
                for key in stale:
                    del stripe.entries[key]
                if stale:
                    stripe.invalidations += len(stale)
                    stripe.publish()
                dropped += len(stale)
        return dropped

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        for stripe in self._stripes:
            with stripe.lock:
                stripe.drain()
                stripe.invalidations += len(stripe.entries)
                stripe.entries.clear()
                stripe.publish()

    # ------------------------------------------------------------------ #
    # Warm-start persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> int:
        """Serialize every entry to ``path`` (pickle); returns the count.

        The snapshot is taken stripe by stripe (consistent per stripe, not
        globally atomic — concurrent writers may land in or miss the tail).
        Counters are not persisted: a restored cache starts cold on stats
        but warm on content.  The dump goes to a temporary file beside
        ``path`` that replaces it only once complete, so a failed save
        leaves the previous snapshot intact (on CPython <= 3.11, pickle
        already raises ``RecursionError`` on a plan some 400 joins deep).
        """
        items: List[Tuple[str, object]] = []
        for stripe in self._stripes:
            with stripe.lock:
                stripe.drain()
                items.extend(stripe.entries.items())  # LRU-first per stripe
        payload = {
            "magic": _PERSIST_MAGIC,
            "version": _PERSIST_VERSION,
            "entries": items,
        }
        temporary = f"{os.fspath(path)}.{os.getpid()}-{threading.get_ident()}.tmp"
        handle = open(temporary, "wb")
        try:
            with handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temporary, path)
        except BaseException:
            os.unlink(temporary)
            raise
        return len(items)

    def restore(self, path) -> int:
        """Load entries saved by :meth:`save` into this cache.

        Existing entries with the same key are overwritten; entries beyond
        a stripe's capacity evict LRU-first as usual (restoring into a
        smaller cache keeps the most-recently-used tail).  Returns the
        number of entries loaded.  Raises ``ValueError`` on files that are
        not plan-cache snapshots, ``FileNotFoundError`` when missing.
        """
        with open(path, "rb") as handle:
            try:
                payload = pickle.load(handle)
            except Exception as error:
                raise ValueError(f"{path}: not a plan-cache snapshot "
                                 f"({error})") from error
        if (not isinstance(payload, dict)
                or payload.get("magic") != _PERSIST_MAGIC):
            raise ValueError(f"{path}: not a plan-cache snapshot")
        if payload.get("version") != _PERSIST_VERSION:
            raise ValueError(
                f"{path}: plan-cache snapshot version "
                f"{payload.get('version')!r} != {_PERSIST_VERSION}")
        entries = payload["entries"]
        for signature, outcome in entries:
            self.put(signature, outcome)
        return len(entries)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._aggregate()[0]

    def __contains__(self, signature: str) -> bool:
        return self.peek(signature) is not None

    def signatures(self) -> List[str]:
        """Currently cached signatures, LRU-first within each stripe."""
        out: List[str] = []
        for stripe in self._stripes:
            with stripe.lock:
                stripe.drain()
                out.extend(stripe.entries)
        return out

    # Aggregated counters (drain journals so snapshots are consistent
    # per stripe; cross-stripe aggregation is a near-point-in-time sum).
    def _aggregate(self) -> Tuple[int, int, int, int, int]:
        totals = [0, 0, 0, 0, 0]
        for stripe in self._stripes:
            with stripe.lock:
                for index, value in enumerate(stripe.stats()):
                    totals[index] += value
        return tuple(totals)  # type: ignore[return-value]

    @property
    def hits(self) -> int:
        return self._aggregate()[1]

    @property
    def misses(self) -> int:
        return self._aggregate()[2]

    @property
    def evictions(self) -> int:
        return self._aggregate()[3]

    @property
    def invalidations(self) -> int:
        return self._aggregate()[4]

    @property
    def hit_rate(self) -> float:
        """Hits / lookups, 0.0 before the first lookup."""
        _, hits, misses, _, _ = self._aggregate()
        lookups = hits + misses
        return hits / lookups if lookups else 0.0

    def cache_info(self) -> Dict[str, float]:
        """Counters for benchmarks and diagnostics (one consistent sweep)."""
        entries, hits, misses, evictions, invalidations = self._aggregate()
        lookups = hits + misses
        return {
            "entries": entries,
            "max_entries": self.max_entries,
            "stripes": len(self._stripes),
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
            "evictions": evictions,
            "invalidations": invalidations,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanCache({self.cache_info()})"
