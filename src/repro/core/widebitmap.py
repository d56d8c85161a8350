"""Multi-word bitset columns: vertex sets as ``(m, k)`` uint64 matrices.

The scalar optimizer paths represent a vertex set as one arbitrary-precision
Python ``int`` (:mod:`repro.core.bitmapset`), so they have no width limit.
The *kernel* paths (:mod:`repro.exec.vectorized`, :mod:`repro.exec.multicore`)
represent a whole batch of vertex sets as one numpy column — and a numpy lane
holds at most 64 bits.  Historically that column was a signed int64 vector,
which capped the kernels at 62 relations and forced every wider graph through
fragment extraction or back to the scalar loops.

This module is the width generalisation: a batch of ``m`` vertex sets over an
``n``-relation graph is an ``(m, k)`` **uint64 matrix** with
``k = words_for(n)`` lanes per set, word 0 holding bits 0-63 (little-endian
word order, exactly ``mask >> (64 * word)``).  All mask algebra stays
lane-wise and vectorized:

* AND / OR / XOR / ANDNOT — plain elementwise operators (numpy broadcasts
  the trailing word axis for free),
* emptiness / intersection tests — :func:`any_bits` (``.any`` over the word
  axis),
* subset / equality tests — ``.all`` reductions over the word axis,
* popcount — :func:`popcount_rows`,
* membership probes against a sorted table — :func:`sort_keys`, which maps
  each row to a key whose comparison order equals the numeric order of the
  underlying Python int (single-word columns compare as plain uint64;
  multi-word columns compare as big-endian byte strings via a void view),
  so ``searchsorted`` / ``unique`` / ``argsort`` work on sets of any width.

``words_for`` is *the* width policy helper: every "does this graph fit the
kernels?" decision routes through it (the answer is always "yes, with
``words_for(n)`` lanes" — there is no relation-count ceiling any more, only
an array-width parameter).

Everything here is pure and allocation-transparent so the multicore workers
can rebuild identical columns from shared-memory views.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .contracts import kernel

__all__ = [
    "WORD_BITS",
    "WORD_MASK",
    "words_for",
    "view_for",
    "spec_words",
    "compact",
    "expand",
    "pack",
    "unpack",
    "unpack_one",
    "sort_keys",
    "any_bits",
    "bit_columns",
    "popcount_rows",
    "bit_positions",
    "one_hot_words",
]

#: Bits per bitmap word (one uint64 numpy lane).
WORD_BITS = 64

#: All-ones mask of a single word.
WORD_MASK = (1 << WORD_BITS) - 1

def words_for(n_bits: int) -> int:
    """Number of uint64 words needed for an ``n_bits``-relation universe.

    The single width-policy helper: 1 word up to 64 relations, then one more
    word per 64.  Always at least 1 so degenerate (empty) universes still
    produce well-formed ``(m, 1)`` columns.
    """
    if n_bits <= 0:
        return 1
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def view_for(scope: int, n_bits: int):
    """The column *spec* for a run scoped to ``scope``: identity or remap.

    A spec describes how a packed column lays out the universe's bits.  A
    plain ``int`` is the identity layout — that many words, word ``w``
    holding ``mask >> (64 * w)``.  A tuple of ascending bit positions is a
    *remap* layout: packed bit ``i`` is full-mask bit ``spec[i]``, so the
    column carries only the scope's members, densely renumbered.  Every
    mask a scoped DP run touches is a subset of its scope, so a heuristic
    optimizing a 16-relation fragment of a 1000-relation graph can run its
    kernels on one uint64 lane with 16-bit dense matrices — the width of a
    renumbered 16-relation sub-query, without building one — while masks
    still unpack to full-width Python ints at the arena boundary.  Numeric
    sort order is preserved: ascending positions map to
    ascending packed positions, and dropped bits are zero in every mask of
    the scope.

    The remap is chosen only when it saves lanes (otherwise the identity
    layout's cheaper word-shift packing wins).
    """
    words = words_for(n_bits)
    if words == 1:
        return 1
    positions = []
    remaining = scope
    while remaining:
        low = remaining & -remaining
        positions.append(low.bit_length() - 1)
        remaining ^= low
    if not positions:
        return 1
    if words_for(len(positions)) < words:
        return tuple(positions)
    return words


def spec_words(spec) -> int:
    """Number of packed words a spec describes."""
    return spec if isinstance(spec, int) else words_for(len(spec))


def compact(mask: int, spec) -> int:
    """Remap one full-width Python int into packed space (identity: no-op).

    Out-of-spec bits are dropped — for masks inside the spec's scope the
    mapping is exact and order-preserving.
    """
    if isinstance(spec, int):
        return mask
    value = 0
    for index, position in enumerate(spec):
        value |= ((mask >> position) & 1) << index
    return value


def expand(value: int, spec) -> int:
    """Inverse of :func:`compact`: packed-space int back to full width."""
    if isinstance(spec, int):
        return value
    mask = 0
    while value:
        low = value & -value
        mask |= 1 << spec[low.bit_length() - 1]
        value ^= low
    return mask


def _remap_runs(positions):
    """Decompose a remap into maximal contiguous shift-and-mask runs.

    Returns ``(source_word, source_offset, dest_word, dest_offset, length)``
    tuples: ``length`` consecutive source bits starting at
    ``64 * source_word + source_offset`` land at packed offset
    ``64 * dest_word + dest_offset``.  Fragment scopes are usually runs of
    adjacent relations, so a 16-bit remap collapses to one or two runs —
    one vectorized shift-and-mask each instead of one gather per bit.
    """
    runs = []
    index = 0
    count = len(positions)
    while index < count:
        position = positions[index]
        source_word, source_offset = divmod(position, WORD_BITS)
        dest_word, dest_offset = divmod(index, WORD_BITS)
        length = 1
        while (index + length < count
               and positions[index + length] == position + length
               and source_offset + length < WORD_BITS
               and dest_offset + length < WORD_BITS):
            length += 1
        runs.append((source_word, source_offset, dest_word, dest_offset,
                     length))
        index += length
    return runs


def _pack_identity(masks: Sequence[int], words: int):
    # One little-endian byte string per mask: its words in order, so the
    # buffer reads back as the (m, words) uint64 matrix.
    width = 8 * words
    buffer = b"".join([mask.to_bytes(width, "little") for mask in masks])
    return np.frombuffer(buffer, dtype="<u8").reshape(len(masks), words) \
        .astype(np.uint64)


def pack(masks: Sequence[int], spec):
    """Pack Python-int vertex sets into an ``(m, words)`` uint64 matrix.

    ``spec`` is a word count (identity layout) or a bit-position remap from
    :func:`view_for`.  Remap packing stays vectorized: each *distinct source
    word* the spec touches is materialised once (a fragment's scope usually
    spans one or two of the graph's words), then the spec's contiguous runs
    (:func:`_remap_runs`) are moved with one shift-and-mask per run — no
    per-mask Python loop, and for run-shaped scopes barely more work than
    an identity pack.  Round-trips exactly for any mask inside the spec's
    scope.
    """
    if isinstance(spec, int):
        return _pack_identity(masks, spec)
    m = len(masks)
    column = np.zeros((m, words_for(len(spec))), dtype=np.uint64)
    source_lanes = {}
    for source_word, source_offset, dest_word, dest_offset, length \
            in _remap_runs(spec):
        lane = source_lanes.get(source_word)
        if lane is None:
            shift = WORD_BITS * source_word
            lane = np.fromiter(
                ((mask >> shift) & WORD_MASK for mask in masks),
                dtype=np.uint64, count=m)
            source_lanes[source_word] = lane
        run = (lane >> np.uint64(source_offset)) & np.uint64((1 << length) - 1)
        column[:, dest_word] |= run << np.uint64(dest_offset)
    return column


def _unpack_identity(column) -> List[int]:
    values = None
    for word in range(column.shape[1]):
        word_values = column[:, word].tolist()
        if values is None:
            values = word_values
        elif word:
            shift = WORD_BITS * word
            values = [low | (word_value << shift) if word_value else low
                      for low, word_value in zip(values, word_values)]
    return values if values is not None else []


def unpack(column, spec=None) -> List[int]:
    """Unpack an ``(m, words)`` uint64 matrix back into Python ints.

    ``spec`` defaults to the identity layout of the column's width; a remap
    spec expands packed bits back to their full-mask positions (vectorized:
    one shift-and-mask per contiguous spec run into per-source-word lanes —
    only the words the spec touches are materialised — then a word-shift
    merge).
    """
    if spec is None or isinstance(spec, int):
        return _unpack_identity(column)
    m = len(column)
    source_lanes = {}
    for source_word, source_offset, dest_word, dest_offset, length \
            in _remap_runs(spec):
        run = ((column[:, dest_word] >> np.uint64(dest_offset))
               & np.uint64((1 << length) - 1))
        lane = source_lanes.get(source_word)
        if lane is None:
            lane = np.zeros(m, dtype=np.uint64)
            source_lanes[source_word] = lane
        lane |= run << np.uint64(source_offset)
    values = [0] * m
    for word in sorted(source_lanes):
        shift = WORD_BITS * word
        if shift:
            values = [value | (word_value << shift) if word_value else value
                      for value, word_value
                      in zip(values, source_lanes[word].tolist())]
        else:
            values = source_lanes[word].tolist()
    return values


def unpack_one(row, spec=None) -> int:
    """Unpack one ``(words,)`` uint64 row into a Python int."""
    value = 0
    for word, word_value in enumerate(row.tolist()):
        value |= word_value << (WORD_BITS * word)
    if spec is None or isinstance(spec, int):
        return value
    return expand(value, spec)


@kernel
def sort_keys(column):
    """Comparison keys whose sort order equals the masks' numeric order.

    Single-word columns compare as plain uint64 (zero-copy view of the one
    lane).  Multi-word columns are reordered most-significant-word-first,
    byteswapped to big-endian and viewed as fixed-width byte strings
    (``V8k`` void scalars), whose memcmp order is exactly the numeric order
    of the underlying arbitrary-precision int.  numpy's ``sort`` /
    ``argsort`` / ``searchsorted`` / ``unique`` all accept both key kinds,
    which is what lets the kernel membership probes ("is this operand a
    memoised connected set?") stay one vectorized ``searchsorted`` at any
    graph width.
    """
    words = column.shape[1]
    if words == 1:
        return column[:, 0]
    big_endian = np.ascontiguousarray(column[:, ::-1]).astype(">u8")
    return big_endian.view(f"V{8 * words}").reshape(len(column))


@kernel
def any_bits(stack):
    """Per-set "is non-empty" over the trailing word axis (bool array).

    The lane-wise form of ``mask != 0`` — used for emptiness and
    intersection tests (``any_bits(a & b)`` == "a overlaps b").
    """
    return stack.any(axis=-1)


@kernel
def bit_columns(column):
    """``(m, 64 * words)`` bool: column ``b`` holds bit ``b`` of every row.

    The unpacked form of a packed column (numpy's ``unpackbits`` over the
    little-endian byte view): membership of any bit position in every set
    is one column gather, which is how the cardinality fold selects each
    term by its two endpoint bits.
    """
    little = np.ascontiguousarray(column, dtype="<u8").view(np.uint8)
    return np.unpackbits(little, axis=1, bitorder="little").view(bool)


@kernel
def popcount_rows(column):
    """Per-set popcount summed across the trailing word axis (int64)."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(column).sum(axis=-1, dtype=np.int64)
    # Fallback: byte-view + 256-entry lookup table (numpy 1.x).
    table = np.array([bin(value).count("1") for value in range(256)],
                     dtype=np.int64)
    bytes_view = column.view(np.uint8).reshape(column.shape[0], -1)
    return table[bytes_view].sum(axis=1)


@kernel
def bit_positions(column, k: int, n_bits: int):
    """``(m, k)`` matrix of each set's member positions, ascending per row.

    Every row of ``column`` must have exactly ``k`` set bits (one DP level's
    targets, or one block-size group) — the multi-word generalisation of the
    int64 membership-matrix trick: bit ``b`` of a set lives in word
    ``b // 64`` at offset ``b % 64``, so one gather per universe bit answers
    membership for the whole batch.
    """
    positions = np.arange(n_bits)
    word_index = positions // WORD_BITS
    offsets = (positions % WORD_BITS).astype(np.uint64)
    membership = (column[:, word_index] >> offsets[None, :]) & np.uint64(1)
    return np.nonzero(membership)[1].reshape(len(column), k)


@kernel
def one_hot_words(positions, words: int):
    """Per-position singleton masks: ``positions (...,)`` → ``(..., words)``.

    ``one_hot_words(p)[..., w]`` is ``1 << (p % 64)`` when ``w == p // 64``
    and 0 otherwise — the word-matrix weight rows the dense-deposit unrank
    multiplies against.
    """
    out = np.zeros(positions.shape + (words,), dtype=np.uint64)
    word_index = (positions // WORD_BITS)[..., None]
    values = (np.uint64(1) << (positions % WORD_BITS).astype(np.uint64))[..., None]
    np.put_along_axis(out, word_index, values, axis=-1)
    return out
