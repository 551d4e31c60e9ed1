"""Independent brute-force oracles shared by the test modules.

Everything here recomputes expected values from first principles
(enumeration, direct formulas) without touching the library's code paths,
so the tests check implementations against genuinely separate arithmetic.
Two exceptions keep earlier library code as references:
``reference_sampled_classes`` is the sampler's per-sample path, built on the
library's rank and class lookup, the reference for the sampler that
classifies draws by counts vector; ``reference_lex_rank`` and
``reference_lex_unrank`` are the prefix-count loops with one term per
smaller symbol, the reference for the loops that sum them first;
``reference_tally_classes`` is the per-class tally built on ``build_code``,
the reference for the tally that measures a slice of classes in one array
pass.
"""
import functools
import itertools
import math
import re
from collections import Counter

import numpy as np

from setshaping import (
    Alphabet,
    Composition,
    Sequence,
    build_code,
    rank_sequence,
    shared_ordering,
)
from setshaping.coding import _framing_bits, payload_bit_count, scheme_bit_count
from setshaping.experiments import _SideTally


def brute_entropy(symbols, base=2.0):
    """Direct -sum (c/n) log(c/n) over a Counter; independent of core.py."""
    n = len(symbols)
    freq = Counter(symbols)
    return -math.fsum((c / n) * math.log(c / n, base) for c in freq.values())


def brute_entropy_of_counts(counts, base=2.0):
    n = sum(counts)
    return -math.fsum((c / n) * math.log(c / n, base) for c in counts if c)


def all_tuples(n, size):
    """Every length-n symbol tuple over 0..size-1, lexicographic."""
    return itertools.product(range(size), repeat=n)


def counts_of(symbols, size):
    counts = [0] * size
    for s in symbols:
        counts[s] += 1
    return tuple(counts)


def multiset_permutations(counts):
    """All distinct sequences with the given counts, sorted lexicographically."""
    pool = []
    for sym, c in enumerate(counts):
        pool.extend([sym] * c)
    return sorted(set(itertools.permutations(pool)))


def entropy_sorted_tuples(n, size):
    """All length-n tuples in (entropy asc, counts lex asc, tuple lex asc)
    order: the exhaustive ordering oracle.

    Float entropies are safe as sort keys at these sizes: distinct count
    multisets either have exactly equal entropy (both sides then reduce to
    sums of dyadic terms or the key falls through to the counts vector) or
    differ by far more than float rounding.
    """
    def key(t):
        c = counts_of(t, size)
        return (brute_entropy_of_counts(c), c, t)

    return sorted(all_tuples(n, size), key=key)


def compositions(n, size):
    """Every counts vector of `size` parts summing to n, lexicographic."""
    if size == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, size - 1):
            yield (first,) + rest


def reference_class_order(n, size):
    """The class order sorted directly: every counts vector keyed by
    (-prod c**c, counts), i.e. entropy ascending with exact ties broken
    lexicographically, and the cumulative class sizes in that order."""
    classes = sorted(
        compositions(n, size), key=lambda c: (-math.prod(x**x for x in c), c)
    )
    sizes = (
        math.factorial(n) // math.prod(math.factorial(x) for x in c) for c in classes
    )
    return classes, list(itertools.accumulate(sizes))


@functools.lru_cache(maxsize=8)
def _cached_class_order(n, size):
    classes, cumulative = reference_class_order(n, size)
    return tuple(classes), (0, *cumulative)


def reference_spans(n, size, lo, hi):
    """The classes of the reference class order that meet ranks [lo, hi),
    in order, each with how many of its sequences lie in the range."""
    classes, bounds = _cached_class_order(n, size)
    spans = []
    for counts, first, end in zip(classes, bounds, bounds[1:]):
        included = min(end, hi) - max(first, lo)
        if included > 0:
            spans.append((counts, included))
    return spans


def best_prefix_payload(counts):
    """Minimum sum(len * count) over all binary prefix codes for the used
    symbols, by exhaustive search over Kraft-feasible length vectors."""
    used = [c for c in counts if c]
    k = len(used)
    assert k >= 2, "optimality oracle needs at least two used symbols"
    best = None
    max_len = k  # optimal codes never need more than k-1; one slack level
    for lengths in itertools.product(range(1, max_len + 1), repeat=k):
        scale = max(lengths)
        if sum(1 << (scale - l) for l in lengths) > 1 << scale:
            continue
        cost = sum(l * c for l, c in zip(lengths, used))
        if best is None or cost < best:
            best = cost
    return best


def reference_encode(symbols, lengths, codewords):
    """Payload (data, bit_length) by the quadratic accumulate loop: shift the
    whole payload left by each codeword's length, then pad to whole bytes."""
    acc = bit_length = 0
    for s in symbols:
        acc = (acc << lengths[s]) | codewords[s]
        bit_length += lengths[s]
    pad = -bit_length % 8
    return (acc << pad).to_bytes((bit_length + pad) // 8, "big"), bit_length


def reference_decode(data, bit_length, lengths, codewords, n):
    """The per-bit canonical decoder: grow a key (a leading 1, then the bits
    read) one bit at a time until it names a codeword.  Returns the symbol
    tuple, or raises ValueError naming the failure as decode does:
    "exhausted" with the symbols read, "no codeword" with the max-length
    pattern, or the count of "unread bits"."""
    symbol_of = {
        (1 << l) | c: s for s, (l, c) in enumerate(zip(lengths, codewords)) if l
    }
    limit = 1 << max(lengths, default=0)
    pos = 0
    out = []
    for _ in range(n):
        key = 1
        while True:
            if pos == bit_length:
                raise ValueError(
                    f"bit stream exhausted after {len(out)} of {n} symbols "
                    f"({bit_length} payload bits)"
                )
            key = (key << 1) | ((data[pos >> 3] >> (7 - (pos & 7))) & 1)
            pos += 1
            if key in symbol_of:
                out.append(symbol_of[key])
                break
            if key >= limit:
                pattern = format(key, "b")[1:]
                raise ValueError(f"bit pattern {pattern} matches no codeword")
    if pos != bit_length:
        raise ValueError(f"{bit_length - pos} unread bits after decoding {n} symbols")
    return tuple(out)


_SEPARATORS = re.compile(r"[,\s]+")


def reference_parse_sequence(text, size):
    """The regex tokenizer: split the stripped text at runs of commas and
    whitespace, drop empty tokens, read each one with int, then check the
    range.  Returns the zero-based symbol tuple, or raises ValueError with
    the message parse_sequence gives."""
    symbols = []
    for token in _SEPARATORS.split(text.strip()):
        if not token:
            continue
        try:
            symbols.append(int(token) - 1)
        except ValueError:
            raise ValueError(f"not an integer symbol: {token!r}") from None
    for s in symbols:
        if not 0 <= s < size:
            raise ValueError(f"symbol {s + 1} outside 1..{size}")
    return tuple(symbols)


def reference_lex_rank(symbols, counts, remaining):
    """Position of `symbols` among the `remaining` distinct orderings of its
    multiset (counts[s] copies of symbol s): at each position, one term per
    smaller symbol still present.  Consumes counts."""
    total = len(symbols)
    rank = 0
    for sym in symbols:
        if remaining == 1:
            break
        for smaller in range(sym):
            if counts[smaller]:
                rank += remaining * counts[smaller] // total
        remaining = remaining * counts[sym] // total
        counts[sym] -= 1
        total -= 1
    return rank


def reference_lex_unrank(counts, remaining, r):
    """Inverse of reference_lex_rank: the r-th of the `remaining` orderings,
    trying each symbol in turn at each position."""
    size = len(counts)
    counts = list(counts)
    total = sum(counts)
    symbols = []
    while remaining > 1:
        for sym in range(size):
            c = counts[sym]
            if c:
                here = remaining * c // total
                if r < here:
                    break
                r -= here
        symbols.append(sym)
        remaining = here
        counts[sym] = c - 1
        total -= 1
    for sym, c in enumerate(counts):
        symbols.extend([sym] * c)
    return symbols


def reference_sampled_classes(config, pmf, seed, lo, hi):
    """Plain and shaped {counts vector: samples} of samples lo..hi-1, one
    sample at a time: draw it with Generator.choice from the generator
    keyed by (seed, index), rank it in the N order, and read the class
    holding that rank in the N and the N+K orders."""
    alphabet = Alphabet(config.alphabet_size)
    plain_ordering = shared_ordering(config.length, alphabet)
    shaped_ordering = shared_ordering(config.length + config.extra_length, alphabet)
    p = np.asarray(pmf, dtype=np.float64)
    p = p / p.sum()
    plain, shaped = Counter(), Counter()
    for i in range(lo, hi):
        rng = np.random.default_rng([seed, i])
        symbols = tuple(int(s) for s in rng.choice(alphabet.size, size=config.length, p=p))
        r = rank_sequence(Sequence(alphabet, symbols), plain_ordering)
        plain[plain_ordering.locate(r)[0]] += 1
        shaped[shaped_ordering.locate(r)[0]] += 1
    return plain, shaped


def reference_tally_classes(classes, formats):
    """Totals over {counts vector: message count}, one class at a time:
    build_code per class, then payload, scheme and framing bits, distinct
    symbols and the entropy's integer coefficients times its count."""
    tally = _SideTally()
    for counts, weight in classes.items():
        comp = Composition(counts)
        if comp.total > 1:
            tally.entropy.coef[comp.total] += weight * comp.total
        for c in counts:
            if c > 1:
                tally.entropy.coef[c] -= weight * c
        tally.distinct += weight * sum(1 for c in counts if c)
        table = build_code(comp)
        payload = payload_bit_count(comp, table)
        tally.payload_bits += weight * payload
        for fmt in formats:
            scheme = scheme_bit_count(comp, fmt, table)
            tally.scheme_bits[fmt] += weight * scheme
            tally.framing_bits[fmt] += weight * _framing_bits(scheme, payload)
    return tally
