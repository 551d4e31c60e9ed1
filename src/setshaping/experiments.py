"""Exhaustive and sampled measurement of plain vs shaped compression cost.

Every reported quantity of a message depends only on its composition (its
type class), so a population is tallied as (counts vector, message count)
pairs, and each class is measured once.  The classes are measured
together in array passes over slices of the pairs: one pass gives every
class its Huffman code lengths (``coding._huffman_lengths``, the lengths
``build_code`` gives), and payload, scheme and framing bits are array
expressions over them.  Totals are exact: each figure is multiplied by its
class's message count in Python integers, bit counts and distinct-symbol
counts are integer sums, and weighted-entropy sums are kept as integer
coefficients of ln(v) terms (N*H0 = N*ln N - sum n*ln n, all
integer-weighted), evaluated to float once at the end in a fixed order.
Sampled runs split the samples into chunks (optionally over ``jobs``
processes, at most one per CPU) whose class counts add up exactly, so
results are bit-identical regardless of worker count or chunking.
Sample i draws the uniform stream of ``np.random.default_rng([seed, i])``,
computed for a block of indices at once in numpy integer arrays rather
than by one generator per sample; the symbols and counts of a block come
from whole-array operations too.  A sample is classified with no Sequence
and no full rank: its plain class is its counts vector, and where that
class maps inside one shaped class that is its shaped class.  Where the
class straddles shaped boundaries, the sequence at each boundary is read
only as deep as at least one report sample is expected to share its
prefix (given its counts, an i.i.d. sample is uniform over its type
class), and a block's samples of straddling classes are placed against
those prefixes by one searchsorted over fixed-width byte keys.  Only a
sample sharing a shortened prefix is ranked, and only as far as it takes
to tell which side of each boundary it lies on.

The tally reads those pairs a slice at a time and keeps no map of them:
an exhaustive run tallies the two ordering walks as they are yielded, so
it walks each ordering once per report and is bounded by the orderings'
class cap, not by its message count.  Every report's sub-alphabet census is counted by
one function as the walks pass: an exhaustive run counts it in its tally's
slices, and a sampled run (whose Counters hold only the sampled classes)
through ``type_class_census``, over the bare walks.

Every report (``CensusReport``, ``ExperimentReport``) is a ``_Report``,
which alone decides how a report is written as JSON or CSV.
"""
from __future__ import annotations

import json
import math
import os
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat

import numpy as np

from .coding import _framing_bits, _huffman_lengths, _scheme_bits, SchemeFormat
from .combinatorics import unrank_sequence
from .core import (
    _check_base,
    Alphabet,
    format_sequence,
    weighted_entropy,
)
from .errors import BadDistributionError
from .shaping import (
    ShapingParams,
    shared_ordering,
    transform,
)

__all__ = [
    "SourceSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "CensusReport",
    "TableRow",
    "source_entropy",
    "run_exhaustive",
    "run_sampled",
    "reproduce_table",
    "type_class_census",
    "table_to_csv",
]


@dataclass(frozen=True)
class SourceSpec:
    """An i.i.d. symbol source with a known distribution."""

    alphabet: Alphabet
    pmf: tuple[float, ...] | None = None  # None = uniform
    seed: int = 0

    def probabilities(self) -> tuple[float, ...]:
        if self.pmf is None:
            return tuple(1.0 / self.alphabet.size for _ in range(self.alphabet.size))
        return self.pmf

    def __post_init__(self):
        if self.seed < 0:
            raise BadDistributionError(f"seed must be non-negative, got {self.seed}")
        if self.pmf is None:
            return
        if len(self.pmf) != self.alphabet.size:
            raise BadDistributionError(
                f"{len(self.pmf)} probabilities for alphabet of size {self.alphabet.size}"
            )
        if any(p < 0 for p in self.pmf):
            raise BadDistributionError(f"negative probability in {self.pmf}")
        total = math.fsum(self.pmf)
        # a NaN probability makes the sum NaN, which only this form rejects
        if not abs(total - 1.0) <= 1e-12:
            raise BadDistributionError(f"probabilities sum to {total!r}, not 1")


def source_entropy(spec: SourceSpec, base: float = 2.0) -> float:
    """Entropy of the source distribution: -sum p log(p)."""
    _check_base(base)
    return -math.fsum(
        p * math.log(p, base) for p in spec.probabilities() if p > 0.0
    ) + 0.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by ``run_exhaustive`` and ``run_sampled`` (the seed
    is the ``SourceSpec``'s); ``base`` is the unit of reported entropies."""

    length: int
    alphabet_size: int
    extra_length: int = 1
    base: float = 2.0
    scheme_formats: tuple[SchemeFormat, ...] = (
        SchemeFormat.LENGTH_LIST,
        SchemeFormat.COUNT_TABLE,
    )
    sample_count: int = 100_000
    charge_framing: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        _check_base(self.base)

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.alphabet_size)

    @property
    def shaping(self) -> ShapingParams:
        return ShapingParams(
            length=self.length,
            alphabet=self.alphabet,
            extra_length=self.extra_length,
        )


class _LogSum:
    """Exact sum of integer-weighted ln(v) terms.

    add takes the terms v*ln(v) of many classes at once, each times its
    weight; mean() converts to float (in the requested log base) only once,
    iterating terms in sorted order.
    """

    __slots__ = ("coef",)

    def __init__(self):
        self.coef: Counter[int] = Counter()

    def add(self, values: np.ndarray, weights: np.ndarray) -> None:
        """Add weight * v*ln(v) for each value v > 1 of an int array and its
        weight in an object array of Python ints, the weights of each v
        summed first."""
        keep = values > 1
        values = values[keep]
        order = values.argsort()
        values = values[order]
        firsts = np.flatnonzero(np.diff(values, prepend=-1))
        sums = np.add.reduceat(weights[keep][order], firsts)
        for v, weight in zip(values[firsts].tolist(), sums.tolist()):
            self.coef[v] += v * weight

    def mean(self, base: float, count: int) -> float:
        """The sum divided by ``count``.  Coefficients and count past 2**1000
        are all divided by one power of two first (int true division, each
        correctly rounded), which cancels in the quotient and keeps every
        float finite; below that the division is by 1, an exact conversion."""
        coef = sorted(self.coef.items())
        top = max([count.bit_length()] + [abs(a).bit_length() for _, a in coef])
        scale = 1 << max(0, top - 1000)
        terms = [a / scale * math.log(v) for v, a in coef if a]
        return math.fsum(terms) / math.log(base) / (count / scale)


@dataclass
class _CensusCounts:
    """One side's census: its classes, and the classes and messages that use
    fewer than all |A| symbols (a zero count)."""

    classes: int = 0
    below_classes: int = 0
    below_messages: int = 0

    def count(self, rows: Iterable) -> None:
        """Add (counts vector, message count) rows, one class at a time."""
        classes = below = messages = 0
        for counts, n in rows:
            classes += 1
            if 0 in counts:
                below += 1
                messages += n
        self.classes += classes
        self.below_classes += below
        self.below_messages += messages


@dataclass
class _SideTally:
    """Exact totals over one side (plain or shaped) of a message population."""

    census: _CensusCounts = field(default_factory=_CensusCounts)
    entropy: _LogSum = field(default_factory=_LogSum)
    distinct: int = 0
    payload_bits: int = 0
    scheme_bits: Counter[SchemeFormat] = field(default_factory=Counter)
    framing_bits: Counter[SchemeFormat] = field(default_factory=Counter)


# classes measured per array pass, so that the pass's arrays do not grow
# with the population
_TALLY_ROWS = 1 << 16


def _dot(weights: list[int], values: np.ndarray) -> int:
    """sum(weight * value) in Python ints: exhaustive message counts pass
    2**63."""
    return sum(map(int.__mul__, weights, values.tolist()))


def _tally_classes(
    classes: Iterable[tuple[tuple[int, ...], int]], formats: tuple[SchemeFormat, ...]
) -> _SideTally:
    """Totals over a population given as (counts vector, message count)
    pairs, one per class, read ``_TALLY_ROWS`` at a time.

    Each class's Huffman lengths, payload, distinct symbols, scheme and
    framing bits come from array expressions over a slice of classes; each
    figure is then multiplied by its class's message count exactly.  The
    weighted entropy N*ln N - sum n*ln n keeps integer coefficients.  Each
    slice's rows are counted into the census as well.
    """
    tally = _SideTally()
    classes = iter(classes)
    while rows := list(islice(classes, _TALLY_ROWS)):
        tally.census.count(rows)
        vectors, w = zip(*rows)
        counts = np.array(vectors, np.int64)
        size = counts.shape[1]
        lengths = _huffman_lengths(counts)
        total = counts.sum(1)
        payload = (lengths * counts).sum(1)
        tally.distinct += _dot(w, (counts > 0).sum(1))
        tally.payload_bits += _dot(w, payload)
        for fmt in formats:
            scheme = _scheme_bits(fmt, size, lengths.max(1), total)
            tally.scheme_bits[fmt] += _dot(w, scheme)
            tally.framing_bits[fmt] += _dot(w, _framing_bits(scheme, payload))
        mass = np.array(w, dtype=object)  # Python ints, for exact sums
        tally.entropy.add(total, mass)
        tally.entropy.add(counts.ravel(), -mass.repeat(size))
    return tally


def _shaped_span(counts, plain_ordering, shaped_ordering):
    """Where the transform sends the plain class with this counts vector.

    The transform keeps ranks, so the class's ranks [start, start + size)
    land on the same range of the N+K order.  Returns the counts vectors of
    the shaped classes that range meets, in order, and the in-class ranks
    at which each of them but the first begins, followed by the class size.
    """
    start, size = plain_ordering.class_span(counts)
    shaped, included = zip(*shaped_ordering.spans(start, start + size))
    return shaped, list(accumulate(included))


def _bounds_below(symbols, counts, bounds) -> int:
    """How many of ``bounds`` are <= the in-class rank of ``symbols`` (its
    position in the lexicographic order of its counts' orderings).  The
    bounds ascend and end with the class size, which no rank reaches.

    The prefix-count method of ``_lex_rank``, stopped as soon as the prefix
    read puts the rank in a range [low, low + remaining) that no bound
    splits: few symbols are read, where a full rank reads them all.
    """
    counts = list(counts)
    total = len(symbols)
    low, remaining = 0, bounds[-1]
    k = 0  # bounds <= low
    for sym in symbols:
        if bounds[k] >= low + remaining:
            break
        if sym:
            low += remaining * sum(counts[:sym]) // total
        remaining = remaining * counts[sym] // total
        counts[sym] -= 1
        total -= 1
        while bounds[k] <= low:
            k += 1
    return k


def _boundary_prefix(counts, size: int, offset: int, log_each: float):
    """The first symbols of the sequence at in-class rank ``offset`` of the
    class with these counts (``size`` sequences), read as ``_lex_unrank``
    reads them, but only until fewer than one report sample is expected to
    share them: ``log_each`` is ln of the samples expected per sequence of
    the class, and the walk stops once that plus ln of the sequences
    sharing the prefix is below 0.  Returns the prefix and whether it is
    the whole sequence."""
    counts = list(counts)
    total = sum(counts)
    symbols = []
    while size > 1:
        if log_each + math.log(size) < 0:
            return symbols, False
        sym = 0
        here = size * counts[0] // total
        while offset >= here:
            offset -= here
            sym += 1
            here = size * counts[sym] // total
        symbols.append(sym)
        size = here
        counts[sym] -= 1
        total -= 1
    for sym, c in enumerate(counts):
        symbols.extend(repeat(sym, c))
    return symbols, True


def _key_dtype(top: int) -> np.dtype:
    """The narrowest big-endian unsigned integer holding 0..top."""
    return np.dtype(next(f">u{w}" for w in (1, 2, 4, 8) if top < 1 << 8 * w))


def _row_keys(tags, symbols, tag_dtype, symbol_dtype) -> np.ndarray:
    """One fixed-width byte string per row: its tag, then each symbol s as
    s + 1, all big-endian in the given widths.  Keys compare as memcmp, so
    their order is the order of (tag, symbols); 0 is left for the padding
    of a shorter key, which sorts before every row that extends it."""
    rows = len(tags)
    parts = [
        tags.astype(tag_dtype).view(np.uint8).reshape(rows, -1),
        (symbols + 1).astype(symbol_dtype).view(np.uint8).reshape(rows, -1),
    ]
    keys = np.concatenate(parts, axis=1)
    return keys.view(f"S{keys.shape[1]}").ravel()


def _span_entry(counts, orderings, log_samples: float, log_p, symbol_dtype):
    """What a report keeps of the plain class with these counts: its
    ``_shaped_span`` and, for a straddling class, the keys (past the class
    tag) that split its rows at the shaped boundaries.

    Each boundary's sequence is read by ``_boundary_prefix`` (the samples
    of a class are uniform over it).  Read in full, it gives one key: rows
    at or above it lie past the boundary.  Otherwise its prefix gives two,
    the prefix and the prefix followed by a code above every symbol, which
    bracket the rows sharing the prefix; boundaries with the same prefix
    share one bracket.  Each key comes with the number of bounds that rows
    from it up to the next key lie past, or -1 for a bracket, whose rows
    ``_bounds_below`` ranks."""
    shaped, bounds = _shaped_span(counts, *orderings)
    if len(shaped) == 1:
        return shaped, bounds, ()
    log_each = log_samples + sum(n * log_p[s] for s, n in enumerate(counts) if n)
    width = symbol_dtype.itemsize
    above = b"\xff" * width
    keys = []
    last = None
    for below, offset in enumerate(bounds[:-1], 1):
        prefix, whole = _boundary_prefix(counts, bounds[-1], offset, log_each)
        key = b"".join([(s + 1).to_bytes(width, "big") for s in prefix])
        if whole:
            keys.append((key, below))
        elif key == last:
            keys[-1] = (key + above, below)
        else:
            keys += [(key, -1), (key + above, below)]
        last = key
    return shaped, bounds, tuple(keys)


# Sample i's draws are np.random.default_rng([seed, i]).random(N): numpy's
# SeedSequence hashes the entropy words (the seed's uint32 words, then the
# index's) into a pool of four, PCG64 is seeded from four uint64 words of
# that pool, and each draw is one 128-bit LCG step, its XSL-RR output and
# (x >> 11) * 2**-53.  _uniform_block runs that chain over a block of
# indices at once, in uint32 and uint64 arrays; the constants are numpy's.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
# 32-bit limbs of the multiplier's low word: the high word of its product
# with the state's low word is built from them
_PCG_MULT_LIMBS = (np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32))
_SHIFT16, _SHIFT32 = np.uint32(16), np.uint64(32)
_LOW32 = np.uint64(_MASK32)
# uniform draws per block: bounds a block's floats and symbols at 8 MiB each
_BLOCK_DRAWS = 1 << 20


def _uint32_words(n: int) -> list[int]:
    """The uint32 words SeedSequence reads from a non-negative int, low first."""
    words = []
    while True:
        words.append(n & _MASK32)
        n >>= 32
        if not n:
            return words


def _hash_constants(calls: int, init: int, mult: int):
    """The (xor, multiplier) pair of each of ``calls`` successive SeedSequence
    hashes: the hash constant advances by a fixed product per call, so the
    pairs do not depend on the values hashed."""
    pairs = []
    for _ in range(calls):
        nxt = init * mult & _MASK32
        pairs.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return pairs


def _mul_high(a, limbs):
    """High 64 bits of the 128-bit products a * b, with b given by its
    32-bit limbs (low first)."""
    b0, b1 = limbs
    a0, a1 = a & _LOW32, a >> _SHIFT32
    low, cross0, cross1 = a0 * b0, a0 * b1, a1 * b0
    carry = (low >> _SHIFT32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    return a1 * b1 + (cross0 >> _SHIFT32) + (cross1 >> _SHIFT32) + (carry >> _SHIFT32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_step(state, inc):
    """state * multiplier + inc, mod 2**128, on (high, low) word arrays."""
    s_hi, s_lo = state
    high = _mul_high(s_lo, _PCG_MULT_LIMBS)
    high += s_hi * _PCG_MULT_LO + s_lo * _PCG_MULT_HI
    return _add128(high, s_lo * _PCG_MULT_LO, *inc)


def _pcg64_seeded(seed: int, lo: int, hi: int):
    """The PCG64 (state, inc) that ``np.random.default_rng([seed, i])``
    starts from, for i in lo..hi-1, each as (high, low) uint64 arrays."""
    count = hi - lo
    index = np.arange(lo, hi, dtype=np.uint64)
    entropy = [np.full(count, w, dtype=np.uint32) for w in _uint32_words(seed)]
    entropy.append((index & _LOW32).astype(np.uint32))
    if hi - 1 > _MASK32:
        entropy.append((index >> _SHIFT32).astype(np.uint32))
    # SeedSequence.mix_entropy: the pool starts as the first four words
    # (zeros past the end) hashed, mixes each word into the others, then
    # mixes in any words past the fourth
    tail = max(0, len(entropy) - _POOL_SIZE)
    hashes = iter(
        _hash_constants(_POOL_SIZE * (_POOL_SIZE + tail), _HASH_INIT_A, _HASH_MULT_A)
    )

    def hashmix(value):
        xor, mult = next(hashes)
        value = (value ^ xor) * mult
        return value ^ (value >> _SHIFT16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _SHIFT16)

    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight hashed uint32 words, paired low first
    state = []
    for k, (xor, mult) in enumerate(_hash_constants(8, _HASH_INIT_B, _HASH_MULT_B)):
        value = (pool[k % _POOL_SIZE] ^ xor) * mult
        state.append((value ^ (value >> _SHIFT16)).astype(np.uint64))
    words = [state[k] | (state[k + 1] << _SHIFT32) for k in range(0, 8, 2)]
    # PCG64 srandom_r: inc = seq << 1 | 1, then step, add the state, step
    inc = (
        (words[2] << np.uint64(1)) | (words[3] >> np.uint64(63)),
        (words[3] << np.uint64(1)) | np.uint64(1),
    )
    return _pcg64_step(_add128(*inc, words[0], words[1]), inc), inc


def _uniform_block(seed: int, lo: int, hi: int, length: int):
    """Row i - lo is ``np.random.default_rng([seed, i]).random(length)``,
    for i in lo..hi-1; every index of a block has the same number of uint32
    words (so none crosses 2**32), and all are below 2**64."""
    state, inc = _pcg64_seeded(seed, lo, hi)
    draws = np.empty((hi - lo, length))
    for k in range(length):
        state = _pcg64_step(state, inc)
        # XSL-RR: (high ^ low) rotated right by the state's top six bits
        s_hi, s_lo = state
        x, rot = s_hi ^ s_lo, s_hi >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        draws[:, k] = (x >> np.uint64(11)) * 2.0**-53
    return draws


def _blocks(lo: int, hi: int, length: int):
    """lo..hi-1 cut into ranges of at most _BLOCK_DRAWS draws (one sample at
    least), and cut at 2**32, where an index takes a second uint32 word."""
    step = max(1, _BLOCK_DRAWS // length)
    while lo < hi:
        end = min(lo + step, hi)
        if lo <= _MASK32 < end - 1:
            end = _MASK32 + 1
        yield lo, end
        lo = end


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array in lexicographic order, how often
    each occurs, and the row indices grouped by distinct row (in row order
    within a group): ``np.unique(rows, axis=0, return_counts=True)`` and a
    stable argsort of its inverse, from one lexsort."""
    # lexsort is stable and takes its last key as the primary one
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.empty(len(rows), bool)
    first[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    return ordered[starts], np.diff(starts, append=len(rows)), order


def _sampled_chunk(args, spans: dict | None = None) -> tuple[Counter, Counter]:
    """Plain and shaped type-class counts of samples lo..hi-1, keyed by
    counts vector.  Sample i's symbols come from the stream of
    ``np.random.default_rng([seed, i])``, so chunking cannot change what any
    sample draws; ``_uniform_block`` computes those streams a block of
    samples at a time.  A sample's plain class is its counts vector, and
    ``spans`` (counts vector -> ``_span_entry``, filled as classes are
    first seen; one report's chunks in a process may share it) gives the
    shaped class of every sample of a class inside one shaped class.

    The samples of straddling classes are classified together, once per
    block: each row becomes a ``_row_keys`` key (its class's tag in the
    block, then its symbols), and one searchsorted against the sorted
    table of the block's straddling classes (each class's bare tag, then
    its boundary keys) reads off how many bounds it lies past.  Only rows
    inside a bracket, whose prefix is that of a boundary read to less than
    full depth, are ranked, by ``_bounds_below``."""
    config, pmf, seed, lo, hi = args
    size, length = config.alphabet_size, config.length
    orderings = (
        shared_ordering(length, config.alphabet),
        shared_ordering(length + config.extra_length, config.alphabet),
    )
    p = np.asarray(pmf, dtype=np.float64)
    p = p / p.sum()
    log_samples = math.log(config.sample_count)
    log_p = [math.log(x) if x > 0 else -math.inf for x in p.tolist()]
    symbol_dtype = _key_dtype(size + 1)
    # Generator.choice(size, length, p=p) draws through this cdf: one
    # uniform per symbol, mapped by searchsorted(side="right")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    plain, shaped = Counter(), Counter()
    if spans is None:
        spans = {}
    for start, end in _blocks(lo, hi, length):
        symbols = cdf.searchsorted(_uniform_block(seed, start, end, length), side="right")
        top = symbols.max()
        if top >= size:
            raise ValueError(f"symbol {top} out of range for alphabet of size {size}")
        rows = end - start
        # every row's counts from one bincount over row * |A| + symbol
        counts = np.bincount(
            (symbols + size * np.arange(rows)[:, None]).ravel(), minlength=rows * size
        ).reshape(rows, size)
        classes, samples, order = _group_rows(counts)
        tags = np.full(len(classes), -1)  # straddling classes' tags in the block
        straddling = []  # per tag: counts, bounds, first label, boundary keys
        labels = []  # the straddling classes' shaped counts vectors, in turn
        for i, (class_counts, n) in enumerate(zip(classes.tolist(), samples.tolist())):
            class_counts = tuple(class_counts)
            plain[class_counts] += n
            span = spans.get(class_counts)
            if span is None:
                span = spans[class_counts] = _span_entry(
                    class_counts, orderings, log_samples, log_p, symbol_dtype
                )
            shaped_classes, bounds, keys = span
            if len(shaped_classes) == 1:
                shaped[shaped_classes[0]] += n
                continue
            tags[i] = len(straddling)
            straddling.append((class_counts, bounds, len(labels), keys))
            labels += shaped_classes
        if not straddling:
            continue
        # the table: each class's bare tag (no bound passed), then its keys
        tag_dtype = _key_dtype(len(straddling) - 1)
        table, passed = [], []
        for t, (_, _, first, keys) in enumerate(straddling):
            tag = t.to_bytes(tag_dtype.itemsize, "big")
            table.append(tag)
            passed.append(first)
            for key, below in keys:
                table.append(tag + key)
                passed.append(first + below if below >= 0 else -1)
        width = tag_dtype.itemsize + length * symbol_dtype.itemsize
        row_tags = np.repeat(tags, samples)  # in the order of `order`
        keep = row_tags >= 0
        strad_rows, row_tags = order[keep], row_tags[keep]
        row_keys = _row_keys(row_tags, symbols[strad_rows], tag_dtype, symbol_dtype)
        # a row key equal to a table key lies past it; of equal table keys
        # (an empty prefix and its bare tag) the later one holds
        at = np.array(table, f"S{width}").searchsorted(row_keys, side="right") - 1
        label = np.array(passed)[at]
        decided = label >= 0
        tally = np.bincount(label[decided], minlength=len(labels))
        for shaped_counts, n in zip(labels, tally.tolist()):
            if n:
                shaped[shaped_counts] += n
        for row, tag in zip(strad_rows[~decided].tolist(), row_tags[~decided].tolist()):
            class_counts, bounds, first, _ = straddling[tag]
            below = _bounds_below(symbols[row].tolist(), class_counts, bounds)
            shaped[labels[first + below]] += 1
    return plain, shaped


def _split_ranges(total: int, chunks: int):
    chunks = max(1, min(chunks, total))
    step = (total + chunks - 1) // chunks
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def run_exhaustive(config: ExperimentConfig) -> "ExperimentReport":
    """Measure every length-N message and its image, one type class at a time.

    The plain side holds every class of the length-N ordering in full; the
    shaped side holds the classes of the |A|**N lowest-ranked length-(N+K)
    sequences, the last of them possibly in part.  Both are tallied as the
    orderings walk them, each walked once and nothing kept, so cost and
    memory grow with the number of classes, not messages: an ordering over
    its class cap raises TooManyClassesError.  ``jobs`` does not apply.
    """
    return _build_report(config, *_population(config.shaping), None)


def run_sampled(config: ExperimentConfig, spec: SourceSpec) -> "ExperimentReport":
    """Draw sample_count i.i.d. messages from the source and measure them."""
    if spec.alphabet.size != config.alphabet_size:
        raise BadDistributionError(
            f"source alphabet {spec.alphabet.size} != config alphabet "
            f"{config.alphabet_size}"
        )
    if config.sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {config.sample_count}")
    config.shaping
    pmf = spec.probabilities()
    tasks = [
        (config, pmf, spec.seed, lo, hi)
        for lo, hi in _split_ranges(config.sample_count, config.jobs * 4)
    ]
    workers = min(config.jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        spans = {}  # shared by this report's chunks, and by no other report
        results = [_sampled_chunk(t, spans) for t in tasks]
    else:
        # imported here: it loads multiprocessing, which no other path uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sampled_chunk, tasks))
    plain, shaped = Counter(), Counter()
    for chunk_plain, chunk_shaped in results:
        plain.update(chunk_plain)
        shaped.update(chunk_shaped)
    return _build_report(config, plain.items(), shaped.items(), spec)


class _Report:
    """The one report format: JSON with sorted keys, or a ``metric,value``
    CSV whose rows follow the field order, with a nested report or dict as
    ``name.key`` rows in key order, None as ``not computable``, floats by
    repr and tuples joined by ``+``."""

    def to_dict(self) -> dict:
        d = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, _Report):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            d[name] = value
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["metric,value"]

        def emit(name, value):
            if isinstance(value, dict):
                for k in sorted(value):
                    emit(f"{name}.{k}", value[k])
            elif value is None:
                lines.append(f"{name},not computable")
            else:
                lines.append(f"{name},{value!r}" if isinstance(value, float) else f"{name},{value}")

        for name, value in self.to_dict().items():
            emit(name, "+".join(value) if isinstance(value, list) else value)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CensusReport(_Report):
    """How many type classes (and sequences) use fewer than |A| symbols,
    for the plain set of length-N sequences vs the shaped subset."""

    length: int
    alphabet_size: int
    extra_length: int
    plain_classes_total: int
    plain_classes_below_full: int
    plain_sequences_total: int
    plain_sequences_below_full: int
    shaped_classes_total: int
    shaped_classes_below_full: int
    shaped_sequences_total: int
    shaped_sequences_below_full: int

    @property
    def plain_sequence_fraction(self) -> float:
        return self.plain_sequences_below_full / self.plain_sequences_total

    @property
    def shaped_sequence_fraction(self) -> float:
        return self.shaped_sequences_below_full / self.shaped_sequences_total

    @classmethod
    def from_dict(cls, d: dict) -> "CensusReport":
        return cls(**d)


def _population(params: ShapingParams) -> tuple[Iterator, Iterator]:
    """Every length-N message and its image as walks of (counts vector,
    message count): each plain class in full, and the shaped subset's classes
    with the boundary class's included part.  Both orderings are built here."""
    target = shared_ordering(params.target_length, params.alphabet)
    plain = shared_ordering(params.length, params.alphabet)
    return plain.classes(), target.spans(0, params.subset_size)


def _census(
    params: ShapingParams, plain: _CensusCounts, shaped: _CensusCounts
) -> CensusReport:
    """The census report of a whole population's two sides' counts."""
    fields = {}
    for side, counts in (("plain", plain), ("shaped", shaped)):
        fields[f"{side}_classes_total"] = counts.classes
        fields[f"{side}_classes_below_full"] = counts.below_classes
        fields[f"{side}_sequences_total"] = params.subset_size
        fields[f"{side}_sequences_below_full"] = counts.below_messages
    return CensusReport(
        length=params.length,
        alphabet_size=params.alphabet.size,
        extra_length=params.extra_length,
        **fields,
    )


def type_class_census(n: int, alphabet: Alphabet, extra_length: int = 1) -> CensusReport:
    """Census of sub-alphabet type classes, plain set vs shaped subset; an
    ordering over its class cap raises TooManyClassesError."""
    params = ShapingParams(n, alphabet, extra_length)
    plain, shaped = _CensusCounts(), _CensusCounts()
    for counts, walk in zip((plain, shaped), _population(params)):
        counts.count(walk)
    return _census(params, plain, shaped)


@dataclass(frozen=True)
class TableRow:
    message: str
    weighted_entropy: float
    transformed: str
    transformed_weighted_entropy: float


def reproduce_table(base: float = 2.0) -> list[TableRow]:
    """The canonical worked example: all 27 ternary length-3 messages and
    their length-4 images, with weighted entropies, in entropy-rank order."""
    alphabet = Alphabet(3)
    params = ShapingParams(length=3, alphabet=alphabet, extra_length=1)
    ordering = shared_ordering(3, alphabet)
    rows = []
    for r in range(27):
        m = unrank_sequence(3, alphabet, r, ordering)
        fm = transform(m, params)
        rows.append(
            TableRow(
                message=format_sequence(m),
                weighted_entropy=weighted_entropy(m, base),
                transformed=format_sequence(fm),
                transformed_weighted_entropy=weighted_entropy(fm, base),
            )
        )
    return rows


def table_to_csv(rows: list[TableRow]) -> str:
    lines = ["message,weighted_entropy,transformed,transformed_weighted_entropy"]
    for row in rows:
        lines.append(
            f"{row.message},{row.weighted_entropy:.3f},"
            f"{row.transformed},{row.transformed_weighted_entropy:.3f}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentReport(_Report):
    """Aggregate averages for the plain and shaped message populations.

    Exact integer totals are kept alongside the derived float averages so
    rational quantities (distinct-symbol averages, bit counts) stay exact
    and serialization round-trips losslessly.
    """

    mode: str
    length: int
    extra_length: int
    alphabet_size: int
    base: float
    population: int
    seed: int | None
    sample_count: int | None
    charge_framing: bool
    scheme_formats: tuple[str, ...]

    distinct_total_plain: int
    distinct_total_shaped: int
    payload_bits_total_plain: int
    payload_bits_total_shaped: int
    scheme_bits_total_plain: dict[str, int]
    scheme_bits_total_shaped: dict[str, int]
    framing_bits_total_plain: dict[str, int]
    framing_bits_total_shaped: dict[str, int]

    avg_weighted_entropy_plain: float
    avg_weighted_entropy_shaped: float
    avg_distinct_symbols_plain: float
    avg_distinct_symbols_shaped: float
    avg_payload_bits_plain: float
    avg_payload_bits_shaped: float
    avg_scheme_bits_plain: dict[str, float]
    avg_scheme_bits_shaped: dict[str, float]
    avg_framing_bits_plain: dict[str, float]
    avg_framing_bits_shaped: dict[str, float]
    avg_total_bits_plain: dict[str, float]
    avg_total_bits_shaped: dict[str, float]
    total_bits_delta: dict[str, float]

    source_entropy_reference: float | None
    random_limit_symbols: float
    random_limit_bits: float
    below_random_limit: dict[str, bool]

    census: CensusReport

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        d = dict(d)
        d["census"] = CensusReport.from_dict(d["census"])
        d["scheme_formats"] = tuple(d["scheme_formats"])
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        return cls.from_dict(json.loads(text))


def _side_fields(
    side: str, tally: _SideTally, config: ExperimentConfig, pop: int
) -> dict:
    """One side's ten report fields from its tally, each name ending in
    the side ("plain" or "shaped"), as ``_census`` names its fields by side."""
    scheme = {f.value: tally.scheme_bits[f] for f in config.scheme_formats}
    framing = {f.value: tally.framing_bits[f] for f in config.scheme_formats}
    avg_scheme = {name: bits / pop for name, bits in scheme.items()}
    avg_payload = tally.payload_bits / pop
    avg_framing = {name: bits / pop for name, bits in framing.items()}
    # total built from the per-part floats so that
    # avg_total == avg_scheme + avg_payload holds exactly
    avg_total = {}
    for name in scheme:
        avg_total[name] = avg_scheme[name] + avg_payload
        if config.charge_framing:
            avg_total[name] += avg_framing[name]
    fields = {
        "distinct_total": tally.distinct,
        "payload_bits_total": tally.payload_bits,
        "scheme_bits_total": scheme,
        "framing_bits_total": framing,
        "avg_weighted_entropy": tally.entropy.mean(config.base, pop),
        "avg_distinct_symbols": tally.distinct / pop,
        "avg_payload_bits": avg_payload,
        "avg_scheme_bits": avg_scheme,
        "avg_framing_bits": avg_framing,
        "avg_total_bits": avg_total,
    }
    # interned, so that the report's constructor matches each keyword by
    # identity rather than comparing it with every field name
    return {sys.intern(f"{name}_{side}"): value for name, value in fields.items()}


def _build_report(
    config: ExperimentConfig,
    plain_classes: Iterable[tuple[tuple[int, ...], int]],
    shaped_classes: Iterable[tuple[tuple[int, ...], int]],
    source: SourceSpec | None,
) -> ExperimentReport:
    """The report of a population given as each side's (counts vector,
    message count) pairs: every message (source None), or a source's
    samples.  An exhaustive report's census is counted in its tallies; a
    sampled one, whose pairs hold only the sampled classes, takes it from
    ``type_class_census``."""
    sampled = source is not None
    pop = config.sample_count if sampled else config.shaping.subset_size
    sides = {}
    tallies = []
    for side, classes in (("plain", plain_classes), ("shaped", shaped_classes)):
        tallies.append(_tally_classes(classes, config.scheme_formats))
        sides.update(_side_fields(side, tallies[-1], config, pop))
    if sampled:
        census = type_class_census(config.length, config.alphabet, config.extra_length)
    else:
        census = _census(config.shaping, *(t.census for t in tallies))
    fmt_names = tuple(f.value for f in config.scheme_formats)
    total_plain = sides["avg_total_bits_plain"]
    total_shaped = sides["avg_total_bits_shaped"]
    random_limit_bits = config.length * math.log2(config.alphabet_size)

    return ExperimentReport(
        mode="sampled" if sampled else "exhaustive",
        length=config.length,
        extra_length=config.extra_length,
        alphabet_size=config.alphabet_size,
        base=config.base,
        population=pop,
        seed=source.seed if sampled else None,
        sample_count=config.sample_count if sampled else None,
        charge_framing=config.charge_framing,
        scheme_formats=fmt_names,
        **sides,
        total_bits_delta={
            name: total_shaped[name] - total_plain[name] for name in fmt_names
        },
        source_entropy_reference=(
            config.length * source_entropy(source, config.base) if sampled else None
        ),
        random_limit_symbols=float(config.length),
        random_limit_bits=random_limit_bits,
        below_random_limit={
            name: total_shaped[name] < random_limit_bits for name in fmt_names
        },
        census=census,
    )
