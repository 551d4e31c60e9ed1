"""Exhaustive and sampled measurement of plain vs shaped compression cost.

Every reported quantity of a message depends only on its composition (its
type class), so a population is tallied as a map from counts vector to
message count, and each class is measured once.  Totals are exact: bit
counts and distinct-symbol counts are integer sums, and weighted-entropy
sums are kept as integer coefficients of ln(v) terms (N*H0 = N*ln N -
sum n*ln n, all integer-weighted), evaluated to float once at the end in a
fixed order.  Sampled runs split the samples into chunks (optionally over
``jobs`` processes) whose class counts add up exactly, so results are
bit-identical regardless of worker count or chunking.

Every report's sub-alphabet census is read off the exhaustive class-weight
maps: the ones an exhaustive run tallies, or for a sampled run (whose maps
hold only the sampled classes) the ones ``type_class_census`` builds.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .coding import (
    _framing_bits,
    SchemeFormat,
    build_code,
    payload_bit_count,
    scheme_bit_count,
)
from .combinatorics import (
    DEFAULT_CLASS_CAP,
    composition_count,
    enumerate_compositions,
    multinomial,
    rank_sequence,
    unrank_sequence,
)
from .core import (
    _check_base,
    Alphabet,
    Composition,
    Sequence,
    composition_of,
    format_sequence,
    weighted_entropy,
)
from .errors import BadDistributionError, TooLargeError
from .shaping import (
    ShapingParams,
    shaped_subset_stats,
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

DEFAULT_EXHAUSTIVE_CAP = 10_000_000


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
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP
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

    add_weighted_entropy accumulates N*ln N - sum n_i*ln n_i for one
    composition, times a message count; value() converts to float (in the
    requested log base) only once, iterating terms in sorted order.
    """

    __slots__ = ("coef",)

    def __init__(self):
        self.coef: Counter[int] = Counter()

    def add_weighted_entropy(self, counts, total: int, weight: int) -> None:
        if total > 1:
            self.coef[total] += weight * total
        for c in counts:
            if c > 1:
                self.coef[c] -= weight * c

    def value(self, base: float) -> float:
        terms = [a * math.log(v) for v, a in sorted(self.coef.items()) if a]
        return math.fsum(terms) / math.log(base)


@dataclass
class _SideTally:
    """Exact totals over one side (plain or shaped) of a message population."""

    entropy: _LogSum = field(default_factory=_LogSum)
    distinct: int = 0
    payload_bits: int = 0
    scheme_bits: Counter[SchemeFormat] = field(default_factory=Counter)
    framing_bits: Counter[SchemeFormat] = field(default_factory=Counter)


def _tally_classes(
    classes: Counter[tuple[int, ...]], formats: tuple[SchemeFormat, ...]
) -> _SideTally:
    """Totals over a population given as {counts vector: message count}:
    each class is measured once and its figures multiplied by its count."""
    tally = _SideTally()
    for counts, weight in classes.items():
        comp = Composition(counts)
        tally.entropy.add_weighted_entropy(counts, comp.total, weight)
        tally.distinct += weight * sum(1 for c in counts if c)
        table = build_code(comp)
        payload = payload_bit_count(comp, table)
        tally.payload_bits += weight * payload
        for fmt in formats:
            scheme = scheme_bit_count(comp, fmt, table)
            tally.scheme_bits[fmt] += weight * scheme
            tally.framing_bits[fmt] += weight * _framing_bits(scheme, payload)
    return tally


def _sampled_chunk(args) -> tuple[Counter, Counter]:
    """Plain and shaped type-class counts of samples lo..hi-1."""
    config, pmf, seed, lo, hi = args
    alphabet = config.alphabet
    plain_ordering = shared_ordering(config.length, alphabet)
    shaped_ordering = shared_ordering(config.length + config.extra_length, alphabet)
    p = np.asarray(pmf, dtype=np.float64)
    p = p / p.sum()
    plain, shaped = Counter(), Counter()
    for i in range(lo, hi):
        # one generator per sample keyed by (seed, index): chunking cannot
        # change the stream any sample sees
        rng = np.random.default_rng([seed, i])
        symbols = tuple(int(s) for s in rng.choice(alphabet.size, size=config.length, p=p))
        plain_seq = Sequence(alphabet, symbols)
        r = rank_sequence(plain_seq, plain_ordering)
        plain[composition_of(plain_seq).counts] += 1
        # the image has rank r too, so its class is the one holding rank r
        j = shaped_ordering.class_of_rank(r)
        shaped[shaped_ordering.compositions[j]] += 1
    return plain, shaped


def _split_ranges(total: int, chunks: int):
    chunks = max(1, min(chunks, total))
    step = (total + chunks - 1) // chunks
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def run_exhaustive(config: ExperimentConfig) -> "ExperimentReport":
    """Measure every length-N message and its image, one type class at a time.

    The plain side holds every class in full (multinomial(c) messages); the
    shaped side holds the classes of the |A|**N lowest-ranked length-(N+K)
    sequences, the last of them possibly in part.  Cost grows with the
    number of classes, not messages; ``jobs`` does not apply.
    """
    params = config.shaping  # validate alphabet/length/extra_length up front
    population = config.alphabet_size**config.length
    if population > config.exhaustive_cap:
        raise TooLargeError(
            f"{population} messages exceed the exhaustive cap of "
            f"{config.exhaustive_cap}; use sampled mode"
        )
    plain, shaped = _population(params)
    census = _census(params, plain, shaped)
    return _build_report(config, plain, shaped, None, census)


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
    if config.jobs <= 1 or len(tasks) <= 1:
        results = [_sampled_chunk(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(tasks))) as pool:
            results = list(pool.map(_sampled_chunk, tasks))
    plain, shaped = Counter(), Counter()
    for chunk_plain, chunk_shaped in results:
        plain.update(chunk_plain)
        shaped.update(chunk_shaped)
    census = type_class_census(config.length, config.alphabet, config.extra_length)
    return _build_report(config, plain, shaped, spec, census)


@dataclass(frozen=True)
class CensusReport:
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

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "CensusReport":
        return cls(**d)


def _population(params: ShapingParams) -> tuple[Counter, Counter]:
    """Every length-N message and its image as {counts vector: message count}:
    each plain class in full, and the shaped subset's classes with the
    included part of the boundary class."""
    census = shaped_subset_stats(params).class_census
    shaped = Counter({comp.counts: included for comp, included in census})
    comps = enumerate_compositions(params.length, params.alphabet)
    plain = Counter({c.counts: multinomial(c) for c in comps})
    return plain, shaped


def _census(params: ShapingParams, plain: Counter, shaped: Counter) -> CensusReport:
    """Census read off the two class-weight maps of a whole population."""
    plain_below = [count for counts, count in plain.items() if 0 in counts]
    shaped_below = [count for counts, count in shaped.items() if 0 in counts]
    return CensusReport(
        length=params.length,
        alphabet_size=params.alphabet.size,
        extra_length=params.extra_length,
        plain_classes_total=len(plain),
        plain_classes_below_full=len(plain_below),
        plain_sequences_total=params.subset_size,
        plain_sequences_below_full=sum(plain_below),
        shaped_classes_total=len(shaped),
        shaped_classes_below_full=len(shaped_below),
        shaped_sequences_total=params.subset_size,
        shaped_sequences_below_full=sum(shaped_below),
    )


def type_class_census(n: int, alphabet: Alphabet, extra_length: int = 1) -> CensusReport:
    """Census of sub-alphabet type classes, plain set vs shaped subset."""
    params = ShapingParams(n, alphabet, extra_length)
    if composition_count(n, alphabet) > DEFAULT_CLASS_CAP:
        raise TooLargeError(
            f"composition census for length {n} exceeds cap {DEFAULT_CLASS_CAP}"
        )
    return _census(params, *_population(params))


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
class ExperimentReport:
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

    census: CensusReport | None

    def to_dict(self) -> dict:
        d = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, CensusReport):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            d[name] = value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        d = dict(d)
        if d.get("census") is not None:
            d["census"] = CensusReport.from_dict(d["census"])
        d["scheme_formats"] = tuple(d["scheme_formats"])
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        return cls.from_dict(json.loads(text))

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

        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, CensusReport):
                emit("census", value.to_dict())
            elif isinstance(value, tuple):
                emit(name, "+".join(value))
            else:
                emit(name, value)
        return "\n".join(lines) + "\n"


def _build_report(
    config: ExperimentConfig,
    plain_classes: Counter,
    shaped_classes: Counter,
    source: SourceSpec | None,
    census: CensusReport,
) -> ExperimentReport:
    sampled = source is not None
    pop = sum(plain_classes.values())
    plain = _tally_classes(plain_classes, config.scheme_formats)
    shaped = _tally_classes(shaped_classes, config.scheme_formats)
    fmt_names = tuple(f.value for f in config.scheme_formats)

    def per_fmt(d: dict[SchemeFormat, int]) -> dict[str, int]:
        return {f.value: d[f] for f in config.scheme_formats}

    scheme_plain = per_fmt(plain.scheme_bits)
    scheme_shaped = per_fmt(shaped.scheme_bits)
    framing_plain = per_fmt(plain.framing_bits)
    framing_shaped = per_fmt(shaped.framing_bits)

    def averages(scheme: dict[str, int], payload: int, framing: dict[str, int]):
        avg_scheme = {name: scheme[name] / pop for name in fmt_names}
        avg_payload = payload / pop
        avg_framing = {name: framing[name] / pop for name in fmt_names}
        # total built from the per-part floats so that
        # avg_total == avg_scheme + avg_payload holds exactly
        avg_total = {}
        for name in fmt_names:
            avg_total[name] = avg_scheme[name] + avg_payload
            if config.charge_framing:
                avg_total[name] += avg_framing[name]
        return avg_scheme, avg_payload, avg_framing, avg_total

    (
        avg_scheme_plain,
        avg_payload_plain,
        avg_framing_plain,
        avg_total_plain,
    ) = averages(scheme_plain, plain.payload_bits, framing_plain)
    (
        avg_scheme_shaped,
        avg_payload_shaped,
        avg_framing_shaped,
        avg_total_shaped,
    ) = averages(scheme_shaped, shaped.payload_bits, framing_shaped)

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
        distinct_total_plain=plain.distinct,
        distinct_total_shaped=shaped.distinct,
        payload_bits_total_plain=plain.payload_bits,
        payload_bits_total_shaped=shaped.payload_bits,
        scheme_bits_total_plain=scheme_plain,
        scheme_bits_total_shaped=scheme_shaped,
        framing_bits_total_plain=framing_plain,
        framing_bits_total_shaped=framing_shaped,
        avg_weighted_entropy_plain=plain.entropy.value(config.base) / pop,
        avg_weighted_entropy_shaped=shaped.entropy.value(config.base) / pop,
        avg_distinct_symbols_plain=plain.distinct / pop,
        avg_distinct_symbols_shaped=shaped.distinct / pop,
        avg_payload_bits_plain=avg_payload_plain,
        avg_payload_bits_shaped=avg_payload_shaped,
        avg_scheme_bits_plain=avg_scheme_plain,
        avg_scheme_bits_shaped=avg_scheme_shaped,
        avg_framing_bits_plain=avg_framing_plain,
        avg_framing_bits_shaped=avg_framing_shaped,
        avg_total_bits_plain=avg_total_plain,
        avg_total_bits_shaped=avg_total_shaped,
        total_bits_delta={
            name: avg_total_shaped[name] - avg_total_plain[name] for name in fmt_names
        },
        source_entropy_reference=(
            config.length * source_entropy(source, config.base) if sampled else None
        ),
        random_limit_symbols=float(config.length),
        random_limit_bits=random_limit_bits,
        below_random_limit={
            name: avg_total_shaped[name] < random_limit_bits for name in fmt_names
        },
        census=census,
    )
