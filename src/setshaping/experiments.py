"""Exhaustive and sampled measurement of plain vs shaped compression cost.

Every reported quantity of a message depends only on its composition (its
type class), so a population is tallied as (counts vector, message count)
pairs, and each pair is measured once.  Both sides' pairs are read as one
stream, the plain side first, and measured together in array passes over
slices of it: one pass gives every class its Huffman code lengths
(``coding._huffman_lengths``, the lengths ``build_code`` gives), payload,
scheme and framing bits are array expressions over them, and each side
sums its own rows.  Totals are exact: each figure is multiplied by its
class's message count in Python integers, bit counts and distinct-symbol
counts are integer sums, and weighted-entropy sums are kept as integer
coefficients of ln(v) terms (N*H0 = N*ln N - sum n*ln n, all
integer-weighted), evaluated to float once at the end in a fixed order.
Sampled runs give each of ``jobs`` processes (at most one per CPU and
per sample) one chunk of samples, and their row counts add up exactly,
whatever the worker count.  Sample i's symbols are those of
``np.random.default_rng([seed, i]).choice``, a block at a time: each raw
PCG64 output is compared with integer cuts from the pmf's cdf, and the
same pass counts each sample's symbols, a byte per draw.

The tally reads those pairs a slice at a time and keeps no map of them.
Both reports make their pairs by one rule (``_row_key``): a class is
tallied in its count multiset's row, but for the multisets of more than
4 used symbols whose Huffman ties can split them (``_ties_split``), whose
classes are rows of their own.  An exhaustive run takes each multiset's
classes as its census counts them (``ClassOrdering.multiset_spans``), and
walks the split ones class by class (``_multiset_rows``).  A sampled run
keys both sides by ``_row_key``: a sample's plain row is that of its
counts vector, and its shaped row one of the rows that the transform
sends its plain class to (``_shaped_rows``); the sample is ranked in its
class only where there are several (``_sampled_chunk``).  Every report's
sub-alphabet census is ``type_class_census``'s.

Every report (``CensusReport``, ``ExperimentReport``) is a ``_Report``,
which alone decides how a report is written as JSON or CSV.
"""
from __future__ import annotations

import functools
import json
import math
import os
import sys
from bisect import bisect_right, insort
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice

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
class _SideTally:
    """Exact totals over one side (plain or shaped) of a message population."""

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
    sides: Iterable[Iterable[tuple[tuple[int, ...], int]]], formats: tuple[SchemeFormat, ...]
) -> list[_SideTally]:
    """Totals over each side's population, each given as (counts vector,
    message count) pairs, one per class or per set of classes that measure
    alike.  The sides are read as one stream of rows, side after side,
    ``_TALLY_ROWS`` rows per array pass.

    A pass gives each row its Huffman lengths, payload, distinct symbols,
    scheme and framing bits as array expressions over all its rows; each
    side then multiplies the figures of its own rows of the pass by their
    message counts exactly.  The weighted entropy N*ln N - sum n*ln n
    keeps integer coefficients.
    """
    streams = [iter(classes) for classes in sides]
    tallies = [_SideTally() for _ in streams]
    side = 0
    while True:
        # each part: a side's tally and its rows [start, stop) of the pass
        rows, parts = [], []
        while side < len(streams) and len(rows) < _TALLY_ROWS:
            start = len(rows)
            rows += islice(streams[side], _TALLY_ROWS - start)
            if len(rows) > start:
                parts.append((tallies[side], start, len(rows)))
            if len(rows) < _TALLY_ROWS:  # the side's stream is spent
                side += 1
        if not rows:
            return tallies
        vectors, w = zip(*rows)
        counts = np.array(vectors, np.int64)
        size = counts.shape[1]
        lengths = _huffman_lengths(counts)
        total = counts.sum(1)
        payload = (lengths * counts).sum(1)
        distinct = (counts > 0).sum(1)
        lmax = lengths.max(1)
        schemes = [(fmt, _scheme_bits(fmt, size, lmax, total)) for fmt in formats]
        framing = [_framing_bits(scheme, payload) for _, scheme in schemes]
        # each row's ln terms: +N*ln N, then -n*ln n for each count
        terms = np.concatenate([total[:, None], counts], axis=1)
        signs = np.array([1] + [-1] * size, dtype=object)
        mass = np.array(w, dtype=object)  # Python ints, for exact sums
        for tally, a, b in parts:
            weights = w[a:b]
            tally.distinct += _dot(weights, distinct[a:b])
            tally.payload_bits += _dot(weights, payload[a:b])
            for (fmt, scheme), frame in zip(schemes, framing):
                tally.scheme_bits[fmt] += _dot(weights, scheme[a:b])
                tally.framing_bits[fmt] += _dot(weights, frame[a:b])
            tally.entropy.add(terms[a:b].ravel(), np.multiply.outer(mass[a:b], signs).ravel())


# Sample i's draws are np.random.default_rng([seed, i]).choice(|A|, N, p):
# numpy's SeedSequence hashes the entropy words (the seed's uint32 words,
# then the index's) into a pool of four, PCG64 is seeded from four uint64
# words of that pool, and each draw is one 128-bit LCG step and its XSL-RR
# output.  _pcg64_outputs runs that chain over a block of indices at once,
# in uint32 and uint64 arrays; the constants are numpy's.
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
# a block's one-byte draws, a sample's generator state and counts taking
# about _ROW_DRAWS bytes more: about 4 MiB, however big a worker's chunk
_BLOCK_DRAWS, _ROW_DRAWS = 1 << 22, 128


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
    low, high = a & _LOW32, a >> _SHIFT32
    cross0, cross1 = low * b1, high * b0
    low *= b0
    high *= b1
    low >>= _SHIFT32
    for cross in (cross0, cross1):  # high halves on, low halves to the carry
        high += cross >> _SHIFT32
        cross &= _LOW32
        low += cross
    low >>= _SHIFT32
    high += low
    return high


def _add128(a_hi, a_lo, b_hi, b_lo):
    """a + b, mod 2**128, in place of a."""
    a_lo += b_lo
    a_hi += b_hi
    a_hi += a_lo < b_lo
    return a_hi, a_lo


def _pcg64_step(state, inc):
    """state * multiplier + inc, mod 2**128, on (high, low) word arrays."""
    s_hi, s_lo = state
    high = _mul_high(s_lo, _PCG_MULT_LIMBS)
    high += s_hi * _PCG_MULT_LO + s_lo * _PCG_MULT_HI
    return _add128(high, s_lo * _PCG_MULT_LO, *inc)


def _pcg64_seeded(seed: int, lo: int, hi: int):
    """The PCG64 (state, inc) that ``np.random.default_rng([seed, i])``
    starts from, for i in lo..hi-1, each as (high, low) uint64 arrays."""
    index = np.arange(lo, hi, dtype=np.uint64)
    # the seed's words, the same for every index, broadcast
    entropy = [np.full(1, w, dtype=np.uint32) for w in _uint32_words(seed)]
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

    pool = [hashmix(w) for w in (entropy + [np.zeros(1, np.uint32)] * _POOL_SIZE)[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight hashed uint32 words, paired low first
    words = []
    for k, (xor, mult) in enumerate(_hash_constants(8, _HASH_INIT_B, _HASH_MULT_B)):
        value = (pool[k % _POOL_SIZE] ^ xor) * mult
        value = (value ^ (value >> _SHIFT16)).astype(np.uint64)
        if k % 2:
            words[-1] |= value << _SHIFT32
        else:
            words.append(value)
    # PCG64 srandom_r: inc = seq << 1 | 1, then step, add the state, step
    inc = (
        (words[2] << np.uint64(1)) | (words[3] >> np.uint64(63)),
        (words[3] << np.uint64(1)) | np.uint64(1),
    )
    state = _add128(words[0], words[1], *inc)
    del words
    return _pcg64_step(state, inc), inc


def _pcg64_outputs(seed: int, lo: int, hi: int, length: int):
    """Each draw's raw outputs of ``default_rng([seed, i])``, i in lo..hi-1,
    as a uint64 array; no index crosses 2**32."""
    state, inc = _pcg64_seeded(seed, lo, hi)
    for _ in range(length):
        state = _pcg64_step(state, inc)
        # XSL-RR: (high ^ low) rotated right by the state's top six bits
        s_hi, s_lo = state
        x, rot = s_hi ^ s_lo, s_hi >> np.uint64(58)
        left = x << ((np.uint64(64) - rot) & np.uint64(63))
        x >>= rot
        x |= left
        yield x


def _symbol_block(seed: int, lo: int, hi: int, length: int, cuts: list, size: int):
    """Samples lo..hi-1's symbols (rows, in the narrowest dtype holding
    len(cuts)) and counts (columns): each cut an output reaches adds one to
    its symbol and to its sample's draws at or past that cut."""
    symbols = np.zeros((hi - lo, length), np.min_scalar_type(len(cuts)), order="F")
    reached = np.zeros((size + 1, hi - lo), np.min_scalar_type(length))
    reached[0] = length
    for column, x in zip(symbols.T, _pcg64_outputs(seed, lo, hi, length)):
        for j, cut in enumerate(cuts, 1):
            past = x >= cut
            column += past
            reached[j] += past
    return symbols, reached[:-1] - reached[1:]


def _blocks(lo: int, hi: int, length: int):
    """lo..hi-1 cut into blocks of at most _BLOCK_DRAWS bytes (one sample at
    least), and at 2**32, where an index takes a second uint32 word."""
    step = max(1, _BLOCK_DRAWS // (length + _ROW_DRAWS))
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


def _rank_row(symbols, counts: list[int], starts: list[int]) -> int:
    """The row of a sequence among its class's rows: how many of
    ``starts`` (each later row's first in-class rank, then the class size)
    lie at or below its in-class rank, ``bisect_right(starts,
    _lex_rank(symbols, counts, starts[-1]))``.  Consumes counts.

    The rank is read as ``_lex_rank`` reads it, but only until it is known
    to lie in one row: after each symbol it lies in [rank, rank +
    remaining), and once that range ends at or below the next start past
    ``rank``, the rest of the sequence cannot move it out of that row."""
    total = len(symbols)
    remaining = starts[-1]
    rank = row = 0
    for sym in symbols:
        if rank + remaining <= starts[row]:
            break
        if sym:
            rank += remaining * sum(counts[:sym]) // total
            row = bisect_right(starts, rank, row)
        remaining = remaining * counts[sym] // total
        counts[sym] -= 1
        total -= 1
    return row


def _sampled_chunk(args) -> tuple[Counter, Counter]:
    """Plain and shaped tally rows (``_row_key``) of samples lo..hi-1,
    with their sample counts, from ``_symbol_block`` a block at a time.

    A memo (plain counts vector -> ``_shaped_rows``, filled as classes are
    first seen) gives every sample of a plain class its shaped row where
    the class's ranks meet one row.  Where they meet several, each sample
    is ranked in its class only as far as it takes to tell which row holds
    the rank (``_rank_row``).  ``_ties_split`` is memoized for the chunk,
    as the shaped rows are."""
    config, pmf, seed, lo, hi = args
    size, length = config.alphabet_size, config.length
    orderings = (
        shared_ordering(length, config.alphabet),
        shared_ordering(length + config.extra_length, config.alphabet),
    )
    p = np.asarray(pmf, dtype=np.float64)
    p = p / p.sum()
    # choice(|A|, N, p=p) draws the number of cdf entries c <= its uniform
    # (x >> 11) * 2**-53, which holds exactly when the raw output x reaches
    # ceil(c * 2**53) << 11; no uniform reaches 1.0
    cdf = p.cumsum()
    cdf /= cdf[-1]
    cuts = [np.uint64(math.ceil(c * 2**53) << 11) for c in cdf.tolist() if c < 1.0]
    plain, shaped = Counter(), Counter()
    split = functools.cache(_ties_split)
    memo = {}
    for start, end in _blocks(lo, hi, length):
        symbols, counts = _symbol_block(seed, start, end, length, cuts, size)
        top = symbols.max()
        if top >= size:
            raise ValueError(f"symbol {top} out of range for alphabet of size {size}")
        classes, samples, order = _group_rows(counts.T)
        taken = 0  # samples of the classes before this one, in `order`
        for class_counts, n in zip(classes.tolist(), samples.tolist()):
            class_counts = tuple(class_counts)
            plain[_row_key(class_counts, split)] += n
            entry = memo.get(class_counts)
            if entry is None:
                entry = memo[class_counts] = _shaped_rows(class_counts, orderings, split)
            rows, starts = entry
            if len(rows) == 1:
                shaped[rows[0]] += n
            else:
                for seq in symbols[order[taken : taken + n]].tolist():
                    shaped[rows[_rank_row(seq, list(class_counts), starts)]] += 1
            taken += n
    return plain, shaped


def _split_ranges(total: int, chunks: int):
    """0..total-1 cut into ``chunks`` ranges whose sizes differ by at most
    one, none empty while chunks <= total."""
    return [(total * i // chunks, total * (i + 1) // chunks) for i in range(chunks)]


def _ties_split(first: tuple[int, ...]) -> bool:
    """Whether the tie-break can give the permutations of this count
    multiset different longest codewords.

    Huffman's merges are simulated on (count, height) nodes, the leaves at
    height 0.  Each merge takes the two least counts, so the counts taken,
    and with them the payload, are the same for every permutation; only
    which nodes of the larger count taken (the boundary count) it takes
    can differ.  The multiset is flagged when a merge must choose among
    more nodes of the boundary count than it takes, and their heights
    differ.  Otherwise every permutation goes through the same (count,
    height) nodes, to a root of the same height: the longest codeword."""
    nodes = sorted((c, 0) for c in first if c)
    while len(nodes) > 1:
        boundary = nodes[1][0]
        # nodes[lo:hi] hold the boundary count, by height
        lo = 0 if nodes[0][0] == boundary else 1
        hi = lo + 1
        while hi < len(nodes) and nodes[hi][0] == boundary:
            hi += 1
        if hi > 2 and nodes[lo][1] != nodes[hi - 1][1]:
            return True
        (c1, h1), (c2, h2) = nodes[:2]
        del nodes[:2]
        insort(nodes, (c1 + c2, max(h1, h2) + 1))
    return False


def _tells_apart(first: tuple[int, ...], split=_ties_split) -> bool:
    """Whether the tally tells the classes of a count multiset (``first``,
    ascending) apart.  Its figures depend on the multiset alone, but for
    the longest codeword's bit length, which Huffman's tie-break can move.
    At most 4 used symbols (a fifth largest count ``first[-5]`` of 0) fix
    it (Huffman gives 1; 1,1; 1,2,2; 2,2,2,2 or 1,2,3,3 bits), and so does
    a multiset whose merges never choose among tied nodes of unequal
    height (``split``, ``_ties_split`` or a memo of it)."""
    return len(first) > 4 and first[-5] > 0 and split(first)


def _row_key(counts, split=_ties_split) -> tuple[int, ...]:
    """The tally row of the class with this counts vector: its multiset in
    ascending order, or the class itself where the tally tells the
    multiset's classes apart (``_tells_apart``)."""
    first = tuple(sorted(counts))
    return tuple(counts) if _tells_apart(first, split) else first


def _shaped_rows(counts, orderings, split=_ties_split):
    """Where the transform sends the plain class with this counts vector,
    as tally rows.

    The transform keeps ranks, so the class's ranks [start, start + size)
    of the N order land on the same range of the N+K order.  Returns the
    ``_row_key`` of each shaped class that range meets, in order, with
    neighbouring classes that share a key merged into one row, and the
    in-class ranks at which each row but the first begins, followed by the
    class size."""
    plain_ordering, shaped_ordering = orderings
    start, size = plain_ordering.class_span(counts)
    rows, starts = [], []
    rank = 0
    for shaped_counts, met in shaped_ordering.spans(start, start + size):
        key = _row_key(shaped_counts, split)
        if not rows or key != rows[-1]:
            rows.append(key)
            starts.append(rank)
        rank += met
    return rows, starts[1:] + [size]


def _multiset_rows(ordering, hi: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The ranks [0, hi) of an ordering as (counts vector, message count)
    rows, one per count multiset (``multiset_spans``'s first class and
    ranks), but for a multiset met in several classes that the tally tells
    apart (``_tells_apart``), which is walked class by class."""
    lo = 0
    for first, met, ranks in ordering.multiset_spans(hi):
        if met > 1 and _tells_apart(first):
            yield from ordering.spans(lo, lo + ranks)
        else:
            yield first, ranks
        lo += ranks


def run_exhaustive(config: ExperimentConfig) -> "ExperimentReport":
    """Measure every length-N message and its image by count multiset.

    The plain side holds every class of the length-N ordering in full; the
    shaped side holds the classes of the |A|**N lowest-ranked length-(N+K)
    sequences, the last of them possibly in part.  Both orderings are built
    first, the plain one first; each side is tallied as its rows are
    yielded, nothing kept, so cost and memory grow with the number of
    multisets, not messages.  An ordering over its class cap raises
    TooManyClassesError.  ``jobs`` does not apply.
    """
    params = config.shaping
    orderings = [shared_ordering(n, params.alphabet) for n in (params.length, params.target_length)]
    return _build_report(config, *(_multiset_rows(o, params.subset_size) for o in orderings), None)


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
    # one chunk per worker, and at most one worker per sample and per CPU
    workers = min(config.jobs, config.sample_count, os.cpu_count() or 1)
    tasks = [
        (config, pmf, spec.seed, lo, hi)
        for lo, hi in _split_ranges(config.sample_count, workers)
    ]
    if workers == 1:
        results = [_sampled_chunk(tasks[0])]
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


def type_class_census(n: int, alphabet: Alphabet, extra_length: int = 1) -> CensusReport:
    """Census of sub-alphabet type classes, plain set vs shaped subset.

    Whether a class uses fewer than |A| symbols depends only on its count
    multiset, so each side is counted one multiset at a time over the ranks
    [0, |A|**N) of its ordering (``ClassOrdering.multiset_spans``), the plain
    ordering first; an ordering over its class cap raises
    TooManyClassesError."""
    params = ShapingParams(n, alphabet, extra_length)
    fields = {}
    for side, length in (("plain", n), ("shaped", params.target_length)):
        classes = below_classes = below_messages = 0
        ordering = shared_ordering(length, alphabet)
        for first, met, ranks in ordering.multiset_spans(params.subset_size):
            classes += met
            if 0 in first:  # fewer than |A| symbols
                below_classes += met
                below_messages += ranks
        fields[f"{side}_classes_total"] = classes
        fields[f"{side}_classes_below_full"] = below_classes
        fields[f"{side}_sequences_total"] = params.subset_size
        fields[f"{side}_sequences_below_full"] = below_messages
    return CensusReport(
        length=n, alphabet_size=alphabet.size, extra_length=extra_length, **fields
    )


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
    the side ("plain" or "shaped")."""
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
    samples.  The census, of every message whatever the population, is
    ``type_class_census``'s."""
    sampled = source is not None
    pop = config.sample_count if sampled else config.shaping.subset_size
    sides = {}
    tallies = _tally_classes((plain_classes, shaped_classes), config.scheme_formats)
    for side, tally in zip(("plain", "shaped"), tallies):
        sides.update(_side_fields(side, tally, config, pop))
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
        census=type_class_census(config.length, config.alphabet, config.extra_length),
    )
