"""Unit tests for the multi-word bitset column layer.

:mod:`repro.core.widebitmap` is the width generalisation that dropped the
62-relation kernel lane ceiling: vertex-set batches as ``(m, k)`` uint64
matrices, with identity and bit-remap layouts.  The integration suites
(``test_exec_backends``, the differential fuzzer's wide band) prove the
backends agree end to end; this file pins the column algebra itself —
round-trips, layout specs, run decomposition, sort keys, popcounts — at
every interesting width, against arbitrary-precision int references.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.core.widebitmap as wb
import repro.exec.vectorized as vectorized
from repro.core.widebitmap import _remap_runs

#: Widths around every lane edge: sub-word, the retired 62 ceiling, the
#: one-word roll-over, and the two/three-word boundary.
BOUNDARY_WIDTHS = (1, 7, 62, 63, 64, 65, 127, 128, 129, 200)


def random_masks(n_bits: int, count: int, seed: int):
    rng = random.Random(seed)
    return [rng.getrandbits(n_bits) for _ in range(count)]


def random_spec(n_bits: int, size: int, seed: int):
    rng = random.Random(seed)
    return tuple(sorted(rng.sample(range(n_bits), size)))


# --------------------------------------------------------------------- #
# Width policy
# --------------------------------------------------------------------- #
def test_words_for_boundaries():
    assert wb.words_for(0) == 1
    assert wb.words_for(-3) == 1
    assert wb.words_for(1) == 1
    assert wb.words_for(64) == 1
    assert wb.words_for(65) == 2
    assert wb.words_for(128) == 2
    assert wb.words_for(129) == 3
    assert wb.words_for(1000) == 16


def test_view_for_identity_when_narrow():
    # One-word universes never remap: the identity layout is already minimal.
    assert wb.view_for(0b1010, 10) == 1
    assert wb.view_for((1 << 64) - 1, 64) == 1


def test_view_for_remap_only_when_it_saves_words():
    n = 200
    # A 16-relation fragment of a 200-relation graph: remap to one word.
    scope = sum(1 << p for p in range(100, 116))
    spec = wb.view_for(scope, n)
    assert spec == tuple(range(100, 116))
    # A scope spanning nearly everything saves nothing: identity.
    wide_scope = (1 << n) - 1
    assert wb.view_for(wide_scope, n) == wb.words_for(n)
    # Empty scope degenerates to one identity word.
    assert wb.view_for(0, n) == 1


def test_spec_words_and_bits():
    assert wb.spec_words(3) == 3
    spec = tuple(range(10, 80))
    assert wb.spec_words(spec) == 2


# --------------------------------------------------------------------- #
# compact / expand
# --------------------------------------------------------------------- #
def test_compact_expand_roundtrip_and_order():
    spec = random_spec(150, 40, seed=3)
    scope = sum(1 << p for p in spec)
    masks = [m & scope for m in random_masks(150, 50, seed=4)]
    compacts = [wb.compact(m, spec) for m in masks]
    assert [wb.expand(c, spec) for c in compacts] == masks
    # Ascending positions map to ascending packed values.
    assert sorted(compacts) == [wb.compact(m, spec) for m in sorted(masks)]


def test_compact_identity_spec_is_noop():
    assert wb.compact(0b1011, 4) == 0b1011
    assert wb.expand(0b1011, 4) == 0b1011


# --------------------------------------------------------------------- #
# _remap_runs
# --------------------------------------------------------------------- #
def test_remap_runs_contiguous_scope_collapses():
    # A contiguous in-word scope is a single shift-and-mask run.
    assert _remap_runs(tuple(range(100, 116))) == [(1, 36, 0, 0, 16)]


def test_remap_runs_split_at_word_boundaries():
    # Source bits 60..67 straddle words 0/1: the run must break at bit 64.
    runs = _remap_runs(tuple(range(60, 68)))
    assert runs == [(0, 60, 0, 0, 4), (1, 0, 0, 4, 4)]


def test_remap_runs_cover_every_bit_exactly_once():
    spec = random_spec(300, 90, seed=11)
    covered = []
    for source_word, source_offset, dest_word, dest_offset, length \
            in _remap_runs(spec):
        assert 0 < length <= wb.WORD_BITS
        assert source_offset + length <= wb.WORD_BITS
        assert dest_offset + length <= wb.WORD_BITS
        for i in range(length):
            covered.append((64 * source_word + source_offset + i,
                            64 * dest_word + dest_offset + i))
    assert [src for src, _ in covered] == list(spec)
    assert [dst for _, dst in covered] == list(range(len(spec)))


# --------------------------------------------------------------------- #
# pack / unpack round trips
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n_bits", BOUNDARY_WIDTHS)
def test_identity_pack_roundtrip(n_bits):
    masks = random_masks(n_bits, 64, seed=n_bits) + [0, (1 << n_bits) - 1]
    words = wb.words_for(n_bits)
    column = wb.pack(masks, words)
    assert column.shape == (len(masks), words)
    assert column.dtype == np.uint64
    assert wb.unpack(column) == masks
    # Word w is exactly mask >> (64 * w).
    for word in range(words):
        expected = [(mask >> (64 * word)) & wb.WORD_MASK for mask in masks]
        assert column[:, word].tolist() == expected


@pytest.mark.parametrize("n_bits", (65, 129, 200, 1000))
def test_remap_pack_roundtrip(n_bits):
    for seed in range(3):
        spec = random_spec(n_bits, min(50, n_bits // 2), seed=seed)
        scope = sum(1 << p for p in spec)
        masks = [m & scope for m in random_masks(n_bits, 40, seed=seed + 7)]
        column = wb.pack(masks, spec)
        assert column.shape == (len(masks), wb.words_for(len(spec)))
        assert wb.unpack(column, spec) == masks
        # Packed values equal the per-mask compact() reference.
        assert wb.unpack(column) == [wb.compact(m, spec) for m in masks]


def test_unpack_one_roundtrip():
    for n_bits in (30, 65, 129):
        mask = random_masks(n_bits, 1, seed=n_bits)[0]
        words = wb.words_for(n_bits)
        row = wb.pack([mask], words)[0]
        assert row.shape == (words,)
        assert wb.unpack_one(row) == mask
    spec = tuple(range(70, 100))
    mask = sum(1 << p for p in range(70, 100, 3))
    row = wb.pack([mask], spec)[0]
    assert wb.unpack_one(row, spec) == mask


def test_pack_empty_batch():
    assert wb.pack([], 2).shape == (0, 2)
    assert wb.unpack(wb.pack([], 2)) == []
    spec = tuple(range(10, 90))
    assert wb.pack([], spec).shape == (0, 2)
    assert wb.unpack(wb.pack([], spec), spec) == []


# --------------------------------------------------------------------- #
# bit columns
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n_bits", (40, 64, 65, 190))
def test_bit_columns_match_per_bit_reference(n_bits):
    masks = random_masks(n_bits, 60, seed=21) + [0, (1 << n_bits) - 1]
    words = wb.words_for(n_bits)
    bits = wb.bit_columns(wb.pack(masks, words))
    assert bits.dtype == bool
    assert bits.shape == (len(masks), 64 * words)
    assert bits.tolist() == [[bool(mask >> b & 1) for b in range(64 * words)]
                             for mask in masks]


# --------------------------------------------------------------------- #
# sort keys, popcounts, membership helpers
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n_bits", (40, 64, 65, 129, 200))
def test_sort_keys_order_equals_numeric_order(n_bits):
    masks = random_masks(n_bits, 100, seed=n_bits + 1)
    column = wb.pack(masks, wb.words_for(n_bits))
    keys = wb.sort_keys(column)
    order = np.argsort(keys, kind="stable")
    assert [masks[i] for i in order] == sorted(masks)
    # searchsorted probes agree with exact membership.
    sorted_keys = keys[order]
    probe = wb.sort_keys(wb.pack([masks[0], (1 << n_bits) - 1],
                                 wb.words_for(n_bits)))
    found = sorted_keys[np.minimum(np.searchsorted(sorted_keys, probe),
                                   len(masks) - 1)] == probe
    assert bool(found[0])


@pytest.mark.parametrize("n_bits", (40, 65, 129))
def test_popcount_rows(n_bits):
    masks = random_masks(n_bits, 80, seed=n_bits + 5) + [0, (1 << n_bits) - 1]
    column = wb.pack(masks, wb.words_for(n_bits))
    assert wb.popcount_rows(column).tolist() == \
        [mask.bit_count() for mask in masks]


def test_any_bits():
    column = wb.pack([0, 1, 1 << 100, 0], wb.words_for(128))
    assert wb.any_bits(column).tolist() == [False, True, True, False]


def test_bit_positions_wide():
    n_bits, k = 130, 4
    rng = random.Random(9)
    masks = [sum(1 << p for p in rng.sample(range(n_bits), k))
             for _ in range(30)]
    column = wb.pack(masks, wb.words_for(n_bits))
    positions = wb.bit_positions(column, k, n_bits)
    for row, mask in zip(positions.tolist(), masks):
        assert row == sorted(p for p in range(n_bits) if (mask >> p) & 1)


def test_one_hot_words():
    positions = np.array([0, 63, 64, 129])
    out = wb.one_hot_words(positions, 3)
    assert out.shape == (4, 3)
    values = [wb.unpack_one(row) for row in out]
    assert values == [1 << 0, 1 << 63, 1 << 64, 1 << 129]


# --------------------------------------------------------------------- #
# Snapshot / SnapshotBuilder on wide graphs
# --------------------------------------------------------------------- #
def test_builder_absorb_and_fallback():
    """absorb() hands packed winner columns to the next refresh; entries
    never absorbed (the leaves seeded by put) are packed from their ints."""
    from repro.core.arena import PlanArena
    from repro.cost.cout import CoutCostModel
    from repro.workloads import chain_query

    query = chain_query(70, seed=1, cost_model=CoutCostModel())
    builder = vectorized.SnapshotBuilder(query.graph)
    arena = PlanArena(query)
    for vertex in range(query.n_relations):
        arena.put(1 << vertex, query.leaf_plan(vertex))
    snapshot = builder.refresh(arena)
    assert wb.unpack(snapshot.masks) == sorted(1 << v
                                               for v in range(70))

    # A recorded level whose packed column was absorbed: no re-pack needed,
    # and the refreshed snapshot contains exactly the new masks.
    pairs = [(1 << v) | (1 << (v + 1)) for v in range(0, 60, 2)]
    column = wb.pack(pairs, builder.spec)
    arena.record_level(pairs,
                       [1.0] * len(pairs), [1.0] * len(pairs),
                       [1 << v for v in range(0, 60, 2)],
                       [1 << (v + 1) for v in range(0, 60, 2)], size=2)
    builder.absorb(column)
    snapshot = builder.refresh(arena)
    assert set(wb.unpack(snapshot.masks)) == \
        set(1 << v for v in range(70)) | set(pairs)
