import functools
import math
import tracemalloc
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, islice, permutations, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setshaping import (
    Alphabet,
    Composition,
    Container,
    ExperimentConfig,
    SchemeFormat,
    Sequence,
    ShapingParams,
    SourceSpec,
    build_code,
    encode_message,
    multinomial,
    pack_container,
    reproduce_table,
    run_exhaustive,
    run_sampled,
    shaped_subset_stats,
    shared_ordering,
    source_entropy,
    table_to_csv,
    total_compressed_length,
    transform,
    type_class_census,
)
from setshaping import combinatorics, experiments
from setshaping.experiments import ExperimentReport
from setshaping.errors import BadDistributionError, TooManyClassesError

import oracles
from oracles import (
    all_tuples,
    brute_entropy,
    compositions,
    counts_of,
    entropy_sorted_tuples,
    multiset_permutations,
    reference_class_order,
    reference_sampled_classes,
    reference_tally_classes,
)

A3 = Alphabet(3)
FORMATS = (SchemeFormat.LENGTH_LIST, SchemeFormat.COUNT_TABLE)


def _no_walk(*args):
    raise AssertionError("a count multiset's classes walked one by one")


def tally_one(classes, formats):
    """The merged pass's tally of a single side."""
    (tally,) = experiments._tally_classes([classes], formats)
    return tally


def class_walks(params):
    """Each side of the exhaustive population class by class, as {counts
    vector: message count}: every plain class in full, and the shaped
    subset's classes with the boundary class's included part."""
    plain = shared_ordering(params.length, params.alphabet)
    target = shared_ordering(params.target_length, params.alphabet)
    return dict(plain.spans(0, plain.sequence_count)), dict(target.spans(0, params.subset_size))


def per_message_totals(sequences, fmt):
    """Scheme, payload, framing and distinct-symbol totals, summed one
    message at a time; framing is read off the packed container's size."""
    scheme = payload = framing = distinct = 0
    for seq in sequences:
        r = total_compressed_length(seq, fmt)
        message = encode_message(seq, fmt)
        box = pack_container(
            Container(fmt, seq.alphabet.size, seq.length, message.scheme, message.payload)
        )
        scheme += r.scheme_bits
        payload += r.payload_bits
        framing += 8 * len(box) - r.scheme_bits - r.payload_bits
        distinct += len(set(seq.symbols))
    return scheme, payload, framing, distinct


def assert_side_totals(report, side, sequences):
    for fmt in FORMATS:
        scheme, payload, framing, distinct = per_message_totals(sequences, fmt)
        assert getattr(report, f"scheme_bits_total_{side}")[fmt.value] == scheme
        assert getattr(report, f"payload_bits_total_{side}") == payload
        assert getattr(report, f"framing_bits_total_{side}")[fmt.value] == framing
        assert getattr(report, f"distinct_total_{side}") == distinct
    expected = math.fsum(
        brute_entropy(s.symbols) * s.length for s in sequences
    ) / len(sequences)
    assert getattr(report, f"avg_weighted_entropy_{side}") == pytest.approx(
        expected, abs=1e-9
    )


@pytest.fixture(scope="module")
def report():
    return run_exhaustive(ExperimentConfig(length=3, alphabet_size=3))


@pytest.fixture(scope="module")
def rows():
    return reproduce_table()


class TestSourceEntropy:
    def test_uniform_base_matches_alphabet(self):
        assert source_entropy(SourceSpec(A3), base=3.0) == pytest.approx(1.0)

    def test_uniform_base2(self):
        assert source_entropy(SourceSpec(A3)) == pytest.approx(math.log2(3))

    def test_certainty_is_zero(self):
        assert source_entropy(SourceSpec(A3, (1.0, 0.0, 0.0))) == 0.0

    @pytest.mark.parametrize("pmf", [(math.nan, 0.5, 0.5), (math.inf, 0.0, 0.0)])
    def test_non_finite_probability_rejected(self, pmf):
        with pytest.raises(BadDistributionError):
            SourceSpec(A3, pmf)

    def test_base_must_be_finite_above_one(self):
        for base in (math.nan, math.inf, 1.0, 0.5):
            with pytest.raises(ValueError):
                ExperimentConfig(length=3, alphabet_size=3, base=base)
            with pytest.raises(ValueError):
                source_entropy(SourceSpec(A3), base)

    def test_bad_distributions(self):
        with pytest.raises(BadDistributionError):
            SourceSpec(A3, (0.5, 0.5))
        with pytest.raises(BadDistributionError):
            SourceSpec(A3, (0.7, 0.4, -0.1))
        with pytest.raises(BadDistributionError):
            SourceSpec(A3, (0.5, 0.4, 0.2))
        with pytest.raises(BadDistributionError):
            SourceSpec(A3, seed=-1)


class TestExhaustive:
    def test_population(self, report):
        assert report.population == 27
        assert report.mode == "exhaustive"

    def test_weighted_entropy_averages(self, report):
        assert report.avg_weighted_entropy_plain == pytest.approx(2.893, abs=1e-3)
        assert report.avg_weighted_entropy_shaped == pytest.approx(2.884, abs=1e-3)

    def test_weighted_entropy_against_brute_force(self, report):
        expected = math.fsum(brute_entropy(t) * 3 for t in all_tuples(3, 3)) / 27
        assert report.avg_weighted_entropy_plain == pytest.approx(expected, abs=1e-9)

    def test_distinct_symbol_averages_exact(self, report):
        assert Fraction(report.distinct_total_plain, report.population) == Fraction(
            57, 27
        )
        assert Fraction(report.distinct_total_shaped, report.population) == Fraction(
            51, 27
        )

    def test_total_is_scheme_plus_payload_exactly(self, report):
        for name in report.scheme_formats:
            assert (
                report.avg_total_bits_plain[name]
                == report.avg_scheme_bits_plain[name] + report.avg_payload_bits_plain
            )
            assert (
                report.avg_total_bits_shaped[name]
                == report.avg_scheme_bits_shaped[name] + report.avg_payload_bits_shaped
            )

    @pytest.mark.parametrize(
        "n,size,k", [(3, 3, 1), (4, 3, 2), (6, 3, 1), (4, 4, 1), (3, 5, 1)]
    )
    def test_totals_match_per_sequence_sums(self, n, size, k):
        # independent accumulation straight from total_compressed_length,
        # one message at a time, on both sides of the transform
        report = run_exhaustive(
            ExperimentConfig(length=n, alphabet_size=size, extra_length=k)
        )
        alphabet = Alphabet(size)
        for fmt in FORMATS:
            scheme = payload = 0
            for t in all_tuples(n, size):
                r = total_compressed_length(Sequence(alphabet, t), fmt)
                scheme += r.scheme_bits
                payload += r.payload_bits
            assert report.scheme_bits_total_plain[fmt.value] == scheme
            assert report.payload_bits_total_plain == payload
        plain = [Sequence(alphabet, t) for t in all_tuples(n, size)]
        assert_side_totals(report, "plain", plain)
        shaped = entropy_sorted_tuples(n + k, size)[: size**n]
        assert_side_totals(report, "shaped", [Sequence(alphabet, t) for t in shaped])

    def test_delta_signs_recorded(self, report):
        for name in report.scheme_formats:
            assert report.total_bits_delta[name] == pytest.approx(
                report.avg_total_bits_shaped[name]
                - report.avg_total_bits_plain[name]
            )

    def test_random_limit_reference(self, report):
        assert report.random_limit_symbols == 3.0
        assert report.random_limit_bits == pytest.approx(3 * math.log2(3))
        assert set(report.below_random_limit) == set(report.scheme_formats)

    def test_source_reference_not_computable(self, report):
        assert report.source_entropy_reference is None
        assert "not computable" in report.to_csv()

    def test_census_attached(self, report):
        assert report.census is not None
        assert report.census.plain_sequences_below_full == 21
        assert report.census.shaped_sequences_below_full == 27

    def test_cap(self):
        # the orderings' class cap bounds a run, raised before |A|**N is
        # built, for the plain ordering, which is built first
        with pytest.raises(TooManyClassesError, match="length 1000000 exceed"):
            run_exhaustive(ExperimentConfig(length=10**6, alphabet_size=3))
        # no message cap: 3**15 is 14,348,907 messages in 136 plain classes
        report = run_exhaustive(ExperimentConfig(length=15, alphabet_size=3))
        assert report.population == 3**15 > 10**7
        assert report.census == type_class_census(15, A3, 1)

    def test_over_cap_ordering_raises_before_any_tally(self, monkeypatch):
        # both orderings are built, the plain one first, before either side
        # is tallied
        with pytest.raises(TooManyClassesError, match="length 1000 exceed"):
            run_exhaustive(ExperimentConfig(length=1000, alphabet_size=4))
        built = []

        def ordering(n, alphabet):
            built.append(n)
            if n == 7:
                raise TooManyClassesError("the shaped ordering")
            return shared_ordering(n, alphabet)

        def tally(*args):
            raise AssertionError("a side tallied before both orderings were built")

        monkeypatch.setattr(experiments, "shared_ordering", ordering)
        monkeypatch.setattr(experiments, "_tally_classes", tally)
        with pytest.raises(TooManyClassesError, match="the shaped ordering"):
            run_exhaustive(ExperimentConfig(length=6, alphabet_size=3))
        assert built == [6, 7]

    def test_jobs_do_not_change_results(self, report):
        parallel = run_exhaustive(
            ExperimentConfig(length=3, alphabet_size=3, jobs=2)
        )
        assert parallel == report

    def test_charge_framing(self):
        config = ExperimentConfig(length=3, alphabet_size=3, charge_framing=True)
        charged = run_exhaustive(config)
        for name in charged.scheme_formats:
            assert (
                charged.avg_total_bits_plain[name]
                == charged.avg_scheme_bits_plain[name]
                + charged.avg_payload_bits_plain
                + charged.avg_framing_bits_plain[name]
            )


class TestSampled:
    def test_deterministic(self):
        config = ExperimentConfig(
            length=4, alphabet_size=3, sample_count=500
        )
        spec = SourceSpec(A3, seed=11)
        assert run_sampled(config, spec) == run_sampled(config, spec)

    def test_jobs_do_not_change_results(self):
        config = ExperimentConfig(
            length=4, alphabet_size=3, sample_count=500
        )
        spec = SourceSpec(A3, seed=11)
        serial = run_sampled(config, spec)
        parallel = run_sampled(
            ExperimentConfig(
                length=4, alphabet_size=3, sample_count=500, jobs=3
            ),
            spec,
        )
        assert serial == parallel

    def test_pool_capped_at_chunk_count(self, monkeypatch):
        # an in-process stand-in records the pool size; nothing is forked
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # run_sampled imports the pool class only when it starts workers
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        spec = SourceSpec(A3, seed=4)
        config = ExperimentConfig(length=3, alphabet_size=3, sample_count=2)
        report = run_sampled(replace(config, jobs=3), spec)
        assert sizes == [2]
        assert report == run_sampled(config, spec)

    @pytest.mark.parametrize("cpus, sizes", [(2, [2]), (1, []), (None, [])])
    def test_pool_capped_at_cpu_count(self, monkeypatch, cpus, sizes):
        # --jobs 500 gets one worker per CPU (none past one CPU, or when the
        # count is unknown); an in-process stand-in records the pool size
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # run_sampled imports the pool class only when it starts workers
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        spec = SourceSpec(A3, seed=4)
        config = ExperimentConfig(length=3, alphabet_size=3, sample_count=40)
        report = run_sampled(replace(config, jobs=500), spec)
        assert seen == sizes
        assert report == run_sampled(config, spec)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_totals_match_per_sample_sums(self, jobs):
        pmf = (0.55, 0.25, 0.15, 0.05)
        alphabet = Alphabet(4)
        config = ExperimentConfig(
            length=6, alphabet_size=4, sample_count=500, jobs=jobs
        )
        report = run_sampled(config, SourceSpec(alphabet, pmf, seed=3))
        # redraw the same per-sample streams and measure each sample alone
        p = np.asarray(pmf, dtype=np.float64)
        p = p / p.sum()
        params = ShapingParams(6, alphabet)
        plain = []
        for i in range(config.sample_count):
            rng = np.random.default_rng([3, i])
            symbols = rng.choice(4, size=6, p=p)
            plain.append(Sequence(alphabet, tuple(int(s) for s in symbols)))
        shaped = [transform(seq, params) for seq in plain]
        assert report.population == config.sample_count
        assert_side_totals(report, "plain", plain)
        assert_side_totals(report, "shaped", shaped)

    def test_uniform_converges_to_exhaustive(self):
        exhaustive = run_exhaustive(ExperimentConfig(length=3, alphabet_size=3))
        config = ExperimentConfig(
            length=3, alphabet_size=3, sample_count=10_000
        )
        sampled = run_sampled(config, SourceSpec(A3, seed=5))
        # sigma of N*H0 under the uniform source is about 1.31 -> 3 sigma
        sigma = 1.309 / math.sqrt(config.sample_count)
        assert abs(
            sampled.avg_weighted_entropy_plain - exhaustive.avg_weighted_entropy_plain
        ) < 3 * sigma

    def test_source_reference(self):
        config = ExperimentConfig(
            length=3, alphabet_size=3, sample_count=10
        )
        report = run_sampled(config, SourceSpec(A3, seed=0))
        assert report.mode == "sampled"
        assert report.source_entropy_reference == pytest.approx(3 * math.log2(3))
        assert report.seed == 0
        assert report.sample_count == 10

    def test_degenerate_source(self):
        config = ExperimentConfig(
            length=5, alphabet_size=3, sample_count=200
        )
        report = run_sampled(config, SourceSpec(A3, (0.0, 1.0, 0.0), seed=1))
        assert report.avg_weighted_entropy_plain == 0.0
        assert report.distinct_total_plain == report.population

    def test_alphabet_mismatch(self):
        config = ExperimentConfig(length=3, alphabet_size=3)
        with pytest.raises(BadDistributionError):
            run_sampled(config, SourceSpec(Alphabet(4), seed=0))


SAMPLED_SHAPES = [(6, 4, 1), (6, 4, 2), (4, 3, 3), (8, 5, 1)]
PMF_KINDS = ["uniform", "skewed", "zero first", "zero middle", "zero last"]


def grid_pmf(size, kind):
    weights = [1] * size if kind == "uniform" else [2 ** (size - s) for s in range(size)]
    zero = {"zero first": 0, "zero middle": size // 2, "zero last": size - 1}.get(kind)
    if zero is not None:
        weights[zero] = 0
    return tuple(w / sum(weights) for w in weights)


class _FixedDraws(np.random.Generator):
    """A generator whose every uniform draw is u; Generator.choice draws
    through random(), so it sees the same u."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, size=None, dtype=np.float64, out=None):
        return np.full(size, self.u)


def _fixed_outputs(x):
    """A stand-in for experiments._pcg64_outputs whose every raw output is x."""
    return lambda seed, lo, hi, length: repeat(np.full(hi - lo, x, np.uint64), length)


def by_row(classes):
    """A {counts vector: samples} Counter with each class's samples moved
    to its tally row (``_row_key``)."""
    rows = Counter()
    for counts, n in classes.items():
        rows[experiments._row_key(counts)] += n
    return rows


def reference_rows(*args):
    """``reference_sampled_classes``'s plain and shaped Counters by tally
    row, as ``_sampled_chunk`` keys them."""
    return tuple(by_row(side) for side in reference_sampled_classes(*args))


def merged_rows(classes):
    """The tally rows of (counts vector, ranks) pairs in order, neighbours
    that share a ``_row_key`` merged: each row's key and ranks."""
    rows = []
    for counts, ranks in classes:
        key = experiments._row_key(counts)
        if rows and rows[-1][0] == key:
            rows[-1][1] += ranks
        else:
            rows.append([key, ranks])
    return rows


class TestSampledClasses:
    """The chunk loop's row maps against the per-sample reference path:
    draw with Generator.choice, rank, look the rank up in both orders, and
    map each class to its tally row."""

    @pytest.mark.parametrize("kind", PMF_KINDS)
    @pytest.mark.parametrize("n, size, k", SAMPLED_SHAPES)
    def test_chunk_matches_reference(self, n, size, k, kind):
        config = ExperimentConfig(length=n, alphabet_size=size, extra_length=k)
        args = (config, grid_pmf(size, kind), 17, 100, 900)
        assert experiments._sampled_chunk(args) == reference_rows(*args)

    @pytest.mark.parametrize("n, size, k", SAMPLED_SHAPES)
    def test_grid_reaches_both_branches(self, n, size, k):
        # the uniform samples fall in classes inside one shaped class and in
        # ones that meet several.  Where some class meets several rows, some
        # samples land past their class's first row: a memo that gives such
        # a class one row fails test_chunk_matches_reference.  At (4,3,3)
        # every class's shaped classes merge into one row
        config = ExperimentConfig(length=n, alphabet_size=size, extra_length=k)
        plain, shaped = reference_sampled_classes(
            config, grid_pmf(size, "uniform"), 17, 100, 900
        )
        alphabet = Alphabet(size)
        orderings = (shared_ordering(n, alphabet), shared_ordering(n + k, alphabet))
        met = {}
        for counts in plain:
            start, class_size = orderings[0].class_span(counts)
            met[counts] = len(list(orderings[1].spans(start, start + class_size)))
        assert {m > 1 for m in met.values()} == {False, True}
        rows = {c: experiments._shaped_rows(c, orderings)[0] for c in plain}
        first_only = Counter()
        for counts, samples in plain.items():
            first_only[rows[counts][0]] += samples
        several = any(len(r) > 1 for r in rows.values())
        assert (first_only != by_row(shaped)) == several
        assert several == ((n, size, k) != (4, 3, 3))

    @pytest.mark.parametrize(
        "n, size, k, inside, straddling", [(6, 4, 1, 79, 5), (5, 3, 2, 19, 2)]
    )
    def test_rows_match_sorted_classes(self, n, size, k, inside, straddling):
        # each plain class's rank range against the shaped classes sorted
        # directly: the rows of the ones it meets, and where each row
        # begins inside it
        plain_classes, plain_ends = reference_class_order(n, size)
        shaped_classes, shaped_ends = reference_class_order(n + k, size)
        shaped_starts = [0] + shaped_ends[:-1]
        alphabet = Alphabet(size)
        orderings = (shared_ordering(n, alphabet), shared_ordering(n + k, alphabet))
        kinds = Counter()
        start = 0
        for counts, end in zip(plain_classes, plain_ends):
            met = [
                (shaped_classes[j], min(hi, end) - max(lo, start))
                for j, (lo, hi) in enumerate(zip(shaped_starts, shaped_ends))
                if lo < end and hi > start
            ]
            want = merged_rows(met)
            starts = list(accumulate(ranks for _, ranks in want))
            rows, got_starts = experiments._shaped_rows(counts, orderings)
            assert rows == [key for key, _ in want]
            assert got_starts == starts[:-1] + [end - start]
            kinds[len(rows) > 1] += 1
            start = end
        assert kinds == Counter({False: inside, True: straddling})

    @pytest.mark.parametrize("n, size, k", [(6, 4, 1), (5, 3, 2), (9, 4, 1), (10, 6, 1)])
    def test_memo_rows_merge_spans_by_row_key(self, n, size, k):
        # every plain class's memo entry against the shaped ordering's own
        # walk of its ranks mapped through _row_key; (9,4,1) meets the
        # exact tie of (1,1,2,6) and (3,0,3,4), whose classes interleave,
        # and (10,6,1) meets multisets whose ties split them
        alphabet = Alphabet(size)
        orderings = (shared_ordering(n, alphabet), shared_ordering(n + k, alphabet))
        kinds = Counter()
        for counts in compositions(n, size):
            start, class_size = orderings[0].class_span(counts)
            want = merged_rows(orderings[1].spans(start, start + class_size))
            rows, starts = experiments._shaped_rows(counts, orderings)
            assert rows == [key for key, _ in want]
            assert starts == list(accumulate(ranks for _, ranks in want))[:-1] + [
                class_size
            ]
            for key in rows:
                kinds["flagged" if key != tuple(sorted(key)) else "multiset"] += 1
            kinds["several rows"] += len(rows) > 1
        assert kinds["several rows"] > 0
        if size > 4:
            assert kinds["flagged"] > 0

    @pytest.mark.parametrize("n, size, k", [(6, 4, 1), (4, 3, 3), (5, 3, 2), (6, 5, 1)])
    def test_rank_row_matches_full_rank(self, n, size, k):
        # every sequence of every plain class, against bisecting its full
        # in-class rank into the memo's starts and into random starts
        rng = np.random.default_rng([n, size, k])
        alphabet = Alphabet(size)
        orderings = (shared_ordering(n, alphabet), shared_ordering(n + k, alphabet))
        for counts in compositions(n, size):
            seqs = multiset_permutations(counts)
            cuts = sorted(set(rng.integers(1, len(seqs), 3).tolist())) if len(seqs) > 1 else []
            for starts in (experiments._shaped_rows(counts, orderings)[1], cuts + [len(seqs)]):
                for rank, seq in enumerate(seqs):
                    got = experiments._rank_row(list(seq), list(counts), starts)
                    assert got == bisect_right(starts, rank)

    # the normalised pmf's cumsum ends an ulp below 1 for (5, 0, 17, 1, 2)
    @pytest.mark.parametrize(
        "weights", [(0, 2, 1, 1), (2, 0, 1, 1), (2, 1, 1, 0), (5, 0, 17, 1, 2)]
    )
    def test_draws_on_cdf_breakpoints_match_choice(self, monkeypatch, weights):
        # the raw outputs 0 and 2**64 - 1, and for each cdf value u below 1
        # the first output whose draw reaches u and the one before it: there
        # side="right", dividing the cdf by its end and the cuts decide the
        # symbol
        pmf = tuple(w / sum(weights) for w in weights)
        p = np.asarray(pmf)
        cdf = (p / p.sum()).cumsum()
        cdf /= cdf[-1]
        config = ExperimentConfig(length=3, alphabet_size=len(weights))
        args = (config, pmf, 0, 0, 2)
        cuts = [math.ceil(u * 2**53) << 11 for u in cdf[cdf < 1.0].tolist()]
        for x in {0, 2**64 - 1, *cuts, *(c - 1 for c in cuts if c)}:
            u = (x >> 11) * 2.0**-53
            monkeypatch.setattr(np.random, "default_rng", lambda seed, u=u: _FixedDraws(u))
            monkeypatch.setattr(experiments, "_pcg64_outputs", _fixed_outputs(x))
            assert experiments._sampled_chunk(args) == reference_rows(*args)

    def test_symbol_outside_alphabet_raises(self, monkeypatch):
        # no output reaches the cdf's last entry, 1.0, so only a pmf longer
        # than the alphabet maps the top output past the last symbol, and
        # only a draw of 1.0, which no generator makes, maps choice's draw
        # there; either must fail rather than be counted
        monkeypatch.setattr(experiments, "_pcg64_outputs", _fixed_outputs(2**64 - 1))
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedDraws(1.0))
        config = ExperimentConfig(length=4, alphabet_size=3)
        with pytest.raises(ValueError, match="out of range"):
            experiments._sampled_chunk((config, (0.4, 0.2, 0.2, 0.2), 0, 0, 1))
        with pytest.raises(ValueError, match="out of range"):
            reference_sampled_classes(config, (0.5, 0.25, 0.25), 0, 0, 1)


def straddling(config, plain):
    """Of a {counts vector: samples} Counter of plain classes, the samples
    of the classes whose ranks meet several shaped classes, and of those
    whose ranks meet several shaped rows (each such sample is ranked), from
    the orderings the sampler uses."""
    orderings = (
        experiments.shared_ordering(config.length, config.alphabet),
        experiments.shared_ordering(config.length + config.extra_length, config.alphabet),
    )
    classes = rows = 0
    for counts, n in plain.items():
        start, size = orderings[0].class_span(counts)
        if next(orderings[1].spans(start, start + size))[1] < size:
            classes += n
        if len(experiments._shaped_rows(counts, orderings)[0]) > 1:
            rows += n
    return classes, rows


class TestStraddlingKeys:
    """Samples of plain classes whose ranks meet several shaped classes,
    merged into rows by ``_row_key`` and ranked where they meet several
    rows, against the per-sample reference path."""

    @pytest.mark.parametrize(
        "n, size, k, pmf, samples, ranked",
        [
            (20, 4, 1, (0.6, 0.2, 0.1, 0.1), 20000, True),
            (10, 4, 2, (0, 0.5, 0.25, 0.25), 5000, True),
            # no class without the last symbol meets two shaped rows
            (10, 4, 2, (0.5, 0.25, 0.25, 0), 5000, False),
            (12, 3, 3, (1 / 3, 1 / 3, 1 / 3), 5000, True),
            (8, 5, 3, (0.4, 0.3, 0, 0.2, 0.1), 5000, True),
        ],
    )
    def test_skewed_and_zero_probability_sources(self, n, size, k, pmf, samples, ranked):
        # skewed pmfs, zero probabilities and K = 3, over 1,000 samples
        config = ExperimentConfig(
            length=n, alphabet_size=size, extra_length=k, sample_count=samples
        )
        args = (config, pmf, 17, 0, 1000)
        plain, shaped = reference_sampled_classes(*args)
        assert experiments._sampled_chunk(args) == (by_row(plain), by_row(shaped))
        classes, rows = straddling(config, plain)
        assert classes > 0
        assert (rows > 0) == ranked

    def test_few_classes_many_samples(self):
        # few classes and many samples: many samples share each class
        config = ExperimentConfig(length=6, alphabet_size=3, extra_length=2, sample_count=50000)
        args = (config, grid_pmf(3, "uniform"), 17, 0, 1000)
        plain, shaped = reference_sampled_classes(*args)
        assert experiments._sampled_chunk(args) == (by_row(plain), by_row(shaped))
        assert straddling(config, plain)[1] > 0

    def test_more_than_256_straddling_classes_in_one_block(self):
        config = ExperimentConfig(length=100, alphabet_size=4, sample_count=20000)
        args = (config, grid_pmf(4, "uniform"), 17, 0, 600)
        plain, shaped = reference_sampled_classes(*args)
        assert experiments._sampled_chunk(args) == (by_row(plain), by_row(shaped))
        alphabet = Alphabet(4)
        orderings = (shared_ordering(100, alphabet), shared_ordering(101, alphabet))
        rows = [experiments._shaped_rows(counts, orderings)[0] for counts in plain]
        classes = 0
        for counts in plain:
            start, size = orderings[0].class_span(counts)
            classes += next(orderings[1].spans(start, start + size))[1] < size
        assert classes > 256
        assert 0 < sum(len(r) > 1 for r in rows) < classes

    def test_boundaries_sharing_a_prefix(self):
        # rows that start inside the ranks of one first symbol, so that a
        # sample must be read past its first symbol to tell its row
        config = ExperimentConfig(length=12, alphabet_size=3, extra_length=2, sample_count=400)
        args = (config, grid_pmf(3, "uniform"), 17, 0, 400)
        plain, shaped = reference_sampled_classes(*args)
        assert experiments._sampled_chunk(args) == (by_row(plain), by_row(shaped))
        orderings = (shared_ordering(12, A3), shared_ordering(14, A3))
        shared = 0
        for counts in plain:
            _, starts = experiments._shaped_rows(counts, orderings)
            for b in starts[:-1]:
                before, at = (
                    combinatorics._lex_unrank(counts, starts[-1], r)[0] for r in (b - 1, b)
                )
                shared += before == at
        assert shared > 0

    def test_flagged_multisets_sampled(self):
        # at |A| = 6 samples fall in multisets whose Huffman ties split
        # them, on both sides, and each such class is a row of its own
        config = ExperimentConfig(length=20, alphabet_size=6, sample_count=5000)
        args = (config, grid_pmf(6, "uniform"), 17, 0, 1000)
        plain, shaped = reference_sampled_classes(*args)
        got = experiments._sampled_chunk(args)
        assert got == (by_row(plain), by_row(shaped))
        for side in got:
            assert any(key != tuple(sorted(key)) for key in side)
        assert straddling(config, plain)[1] > 0

    @pytest.mark.parametrize("n", [9, 10])
    def test_rows_across_an_exact_tie(self, n):
        # (1,1,2,6) and (3,0,3,4) tie exactly at N = 10, |A| = 4, and
        # their classes interleave in the order: the plain side holds the
        # tie at N = 10, the shaped side at N = 9, where plain classes meet
        # rows of both multisets in turn
        config = ExperimentConfig(length=n, alphabet_size=4, sample_count=5000)
        args = (config, grid_pmf(4, "uniform"), 17, 0, 1000)
        plain, shaped = reference_sampled_classes(*args)
        got = experiments._sampled_chunk(args)
        assert got == (by_row(plain), by_row(shaped))
        tie = {(1, 1, 2, 6), (0, 3, 3, 4)}
        side = got[0] if n == 10 else got[1]
        assert tie <= set(side)
        if n == 9:
            orderings = (shared_ordering(9, Alphabet(4)), shared_ordering(10, Alphabet(4)))
            rows = [experiments._shaped_rows(counts, orderings)[0] for counts in plain]
            assert any(len(tie & set(r)) == 2 for r in rows)

    def test_memo_lives_for_one_report(self, monkeypatch):
        # a chunk asks for each class's shaped rows once, however many of its
        # blocks see the class; each chunk has its own memo (the third
        # report's two chunks, run by an in-process pool stand-in, both ask
        # for the classes they share), and no report reuses another's (the
        # first report, run again, asks for every class again)
        calls = []
        shaped_rows = experiments._shaped_rows

        def recording(counts, *rest):
            calls.append(counts)
            return shaped_rows(counts, *rest)

        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "_shaped_rows", recording)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(experiments, "_BLOCK_DRAWS", 8 * 50)
        monkeypatch.setattr(experiments, "_ROW_DRAWS", 0)
        first = (
            ExperimentConfig(length=8, alphabet_size=4, sample_count=900),
            (0.6, 0.2, 0.1, 0.1),
        )
        cases = [
            first,
            (ExperimentConfig(length=8, alphabet_size=4, sample_count=400), (0.1, 0.2, 0.3, 0.4)),
            (
                ExperimentConfig(
                    length=8, alphabet_size=4, extra_length=2, sample_count=400, jobs=2
                ),
                (0.1, 0.2, 0.3, 0.4),
            ),
            first,
        ]
        for config, pmf in cases:
            spec = SourceSpec(Alphabet(4), pmf, seed=5)
            chunks = [
                reference_sampled_classes(config, pmf, 5, lo, hi)
                for lo, hi in experiments._split_ranges(config.sample_count, config.jobs)
            ]
            plain, shaped = reference_sampled_classes(config, pmf, 5, 0, config.sample_count)
            expected = experiments._build_report(config, plain.items(), shaped.items(), spec)
            calls.clear()
            assert run_sampled(config, spec) == expected
            assert sorted(calls) == sorted(c for chunk_plain, _ in chunks for c in chunk_plain)
            if config.jobs > 1:
                assert len(calls) > len(plain)


class TestGroupRows:
    """experiments._group_rows against np.unique(axis=0) and a stable
    argsort of its inverse."""

    @pytest.mark.parametrize(
        "length, size, rows",
        [
            (20, 4, 5000),
            (20, 4, 1),
            (3, 4, 2),
            (100, 16, 5000),
            (3, 16, 300),
            (5, 1, 40),
        ],
    )
    def test_matches_unique(self, length, size, rows):
        rng = np.random.default_rng([length, size, rows])
        pmf = rng.dirichlet(np.ones(size))
        counts = rng.multinomial(length, pmf, size=rows)
        classes, samples, by_class = experiments._group_rows(counts)
        want, inverse, want_samples = np.unique(
            counts, axis=0, return_inverse=True, return_counts=True
        )
        assert classes.tolist() == want.tolist()
        assert samples.tolist() == want_samples.tolist()
        want_order = np.argsort(inverse.reshape(-1), kind="stable")
        assert by_class.tolist() == want_order.tolist()


def default_rng_rows(seed, lo, hi, length, pmf):
    """Samples lo..hi-1's raw outputs and symbols from numpy's own
    generator, as the reference draws them."""
    p = np.asarray(pmf) / sum(pmf)
    raw, symbols = [], []
    for i in range(lo, hi):
        raw.append(np.random.default_rng([seed, i]).bit_generator.random_raw(length))
        symbols.append(np.random.default_rng([seed, i]).choice(len(pmf), length, p=p))
    return np.array(raw), np.array(symbols)


def blocks(lo, hi, length):
    """experiments._blocks(lo, hi, length), stopped where one block per
    sample is passed: a split that makes no progress fails, not hangs."""
    return list(islice(experiments._blocks(lo, hi, length), hi - lo + 1))


def block_rows(seed, lo, hi, length, pmf):
    """The same outputs and symbols as the sampler computes them, block by
    block; each block's counts are checked against its symbols."""
    cdf = (np.asarray(pmf) / sum(pmf)).cumsum()
    cuts = [np.uint64(math.ceil(u * 2**53) << 11) for u in cdf / cdf[-1] if u < 1.0]
    raw, symbols = [], []
    for start, end in blocks(lo, hi, length):
        raw.append(np.array(list(experiments._pcg64_outputs(seed, start, end, length))).T)
        block, counts = experiments._symbol_block(seed, start, end, length, cuts, len(pmf))
        want = [np.bincount(row, minlength=len(pmf)).tolist() for row in block]
        assert counts.T.tolist() == want
        symbols.append(block)
    return np.concatenate(raw), np.concatenate(symbols)


def assert_rows_match(seed, lo, hi, length):
    for pmf in STREAM_PMFS:
        got = block_rows(seed, lo, hi, length, pmf)
        want = default_rng_rows(seed, lo, hi, length, pmf)
        assert all(map(np.array_equal, got, want)), pmf


# one to five uint32 words; with the index word, the last two seeds give
# five and six entropy words, past SeedSequence's pool of four
STREAM_SEEDS = [0, 2**32 - 1, 2**32, 2**70 + 3, 2**100 + 17, 2**128 + 1]
# skewed with a zero inside and one at the end, and (1, 0, 0), whose cdf is
# all 1.0 and leaves no cut
STREAM_PMFS = [(0.5, 0.2, 0, 0.25, 0.05, 0), (1, 0, 0)]


class TestUniformStream:
    """The block generator against np.random.default_rng([seed, i]) itself,
    its raw outputs and the symbols choice(|A|, N, p=pmf) maps them to: a
    numpy release that changed the stream fails here."""

    @pytest.mark.parametrize("length", [1, 20, 101])
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_matches_default_rng(self, seed, length):
        assert_rows_match(seed, 0, 30, length)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_index_crossing_2_pow_32(self, seed):
        # index 2**32 is the first with two uint32 words
        lo, hi = 2**32 - 3, 2**32 + 3
        assert blocks(lo, hi, 20) == [(lo, 2**32), (2**32, hi)]
        assert_rows_match(seed, lo, hi, 20)

    @pytest.mark.parametrize("length, count", [(20, 5), (101, 9)])
    def test_crossing_block_edges(self, monkeypatch, length, count):
        # two samples of 20 draws per block, and one sample of 101 draws
        monkeypatch.setattr(experiments, "_BLOCK_DRAWS", 50)
        monkeypatch.setattr(experiments, "_ROW_DRAWS", 0)
        spans = blocks(3, 12, length)
        assert len(spans) == count
        assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]]
        assert (spans[0][0], spans[-1][1]) == (3, 12)
        assert_rows_match(7, 3, 12, length)

    def test_block_draws_bounded(self):
        assert blocks(0, 3, 2**23) == [(0, 1), (1, 2), (2, 3)]
        step = experiments._BLOCK_DRAWS // (1000 + experiments._ROW_DRAWS)
        assert blocks(0, 2 * step + 1, 1000) == [
            (0, step), (step, 2 * step), (2 * step, 2 * step + 1)
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**160),
        lo=st.integers(0, 2**33),
        count=st.integers(1, 4),
        length=st.sampled_from([1, 20, 101]),
    )
    def test_hypothesis_seeds_and_indices(self, seed, lo, count, length):
        assert_rows_match(seed, lo, lo + count, length)

    @pytest.mark.parametrize("seed", [9, 2**100 + 17])
    def test_chunk_crossing_2_pow_32_matches_reference(self, seed):
        config = ExperimentConfig(length=6, alphabet_size=4)
        args = (config, grid_pmf(4, "skewed"), seed, 2**32 - 3, 2**32 + 3)
        assert experiments._sampled_chunk(args) == reference_rows(*args)

    @pytest.mark.parametrize("n, size, k", SAMPLED_SHAPES)
    def test_chunk_over_small_blocks_matches_reference(self, monkeypatch, n, size, k):
        # classes seen again in later blocks, straddling ones included
        monkeypatch.setattr(experiments, "_BLOCK_DRAWS", 7 * n)
        monkeypatch.setattr(experiments, "_ROW_DRAWS", 0)
        config = ExperimentConfig(length=n, alphabet_size=size, extra_length=k)
        args = (config, grid_pmf(size, "uniform"), 17, 100, 300)
        assert experiments._sampled_chunk(args) == reference_rows(*args)

    def test_two_byte_symbols_match_reference(self, monkeypatch):
        # |A| = 300: symbols past 255 take two bytes in the block, and the
        # block must hold choice's symbols.  The (3, 300) ordering holds 3
        # groups, but the class cap counts its 4,545,100 classes times 300.
        ordering = functools.lru_cache(maxsize=None)(
            lambda n, alphabet: combinatorics.class_ordering(n, alphabet, max_classes=10**9)
        )
        monkeypatch.setattr(experiments, "shared_ordering", ordering)
        monkeypatch.setattr(oracles, "shared_ordering", ordering)
        config = ExperimentConfig(length=2, alphabet_size=300, sample_count=400)
        top = 0
        for kind in ("uniform", "zero last"):
            pmf = grid_pmf(300, kind)
            args = (config, pmf, 17, 0, 400)
            assert experiments._sampled_chunk(args) == reference_rows(*args)
            got, want = block_rows(17, 0, 400, 2, pmf), default_rng_rows(17, 0, 400, 2, pmf)
            assert all(map(np.array_equal, got, want))
            top = max(top, want[1].max())
        assert top > 255


@st.composite
def sampled_cases(draw):
    """A small (N, |A|, K) run with a random pmf, some entries forced to 0."""
    size = draw(st.integers(3, 5))
    zeros = draw(st.sets(st.integers(0, size - 1), max_size=size - 1))
    weights = [0 if s in zeros else draw(st.integers(1, 20)) for s in range(size)]
    pmf = tuple(w / sum(weights) for w in weights)
    config = ExperimentConfig(
        length=draw(st.integers(2, 7)),
        alphabet_size=size,
        extra_length=draw(st.integers(1, 3)),
        sample_count=draw(st.integers(50, 150)),
        jobs=draw(st.integers(1, 2)),
    )
    return config, SourceSpec(Alphabet(size), pmf, seed=draw(st.integers(0, 2**32)))


@settings(max_examples=40, deadline=5000)
@given(sampled_cases())
def test_sampled_report_matches_reference_classes(case):
    config, spec = case
    plain, shaped = reference_sampled_classes(
        config, spec.pmf, spec.seed, 0, config.sample_count
    )
    expected = experiments._build_report(config, plain.items(), shaped.items(), spec)
    assert run_sampled(config, spec) == expected


def assert_same_tally(got, want):
    def nonzero(coef):
        return {v: a for v, a in coef.items() if a}

    assert nonzero(got.entropy.coef) == nonzero(want.entropy.coef)
    assert (got.distinct, got.payload_bits) == (want.distinct, want.payload_bits)
    assert got.scheme_bits == want.scheme_bits
    assert got.framing_bits == want.framing_bits


TALLY_SHAPES = [
    (1, 3, 1),
    (3, 3, 1),
    (4, 3, 2),
    (5, 3, 1),
    (3, 4, 1),
    (3, 5, 1),
    (8, 5, 1),
    (9, 4, 1),
    (10, 4, 1),
    (6, 3, 2),
    (6, 3, 3),
    (40, 4, 1),
]


class TestTallyClasses:
    """The array-pass tally against the per-class reference on build_code."""

    @pytest.mark.parametrize("n, size, k", TALLY_SHAPES)
    def test_exhaustive_populations(self, n, size, k):
        for side in class_walks(ShapingParams(n, Alphabet(size), k)):
            for formats in (FORMATS, FORMATS[1:]):
                assert_same_tally(
                    tally_one(side.items(), formats),
                    reference_tally_classes(side, formats),
                )

    @pytest.mark.parametrize(
        "n, size, k, pmf, samples",
        [
            (20, 4, 1, (0.6, 0.2, 0.1, 0.1), 3000),
            (100, 4, 1, None, 400),
            (12, 6, 2, (0.5, 0.2, 0.0, 0.1, 0.1, 0.1), 2000),
        ],
    )
    def test_sampled_counters(self, n, size, k, pmf, samples):
        config = ExperimentConfig(length=n, alphabet_size=size, extra_length=k)
        pmf = pmf or (1 / size,) * size
        for side in experiments._sampled_chunk((config, pmf, 5, 0, samples)):
            assert_same_tally(
                tally_one(side.items(), FORMATS),
                reference_tally_classes(side, FORMATS),
            )

    def test_weights_above_2_pow_63(self):
        for side in class_walks(ShapingParams(60, Alphabet(4), 1)):
            assert max(side.values()) > 2**63
            assert_same_tally(
                tally_one(side.items(), FORMATS),
                reference_tally_classes(side, FORMATS),
            )

    @pytest.mark.parametrize("classes", [Counter({(0, 5, 0): 1}), Counter({(7,): 3})])
    def test_one_class_one_symbol(self, classes):
        tally = tally_one(classes.items(), FORMATS)
        assert_same_tally(tally, reference_tally_classes(classes, FORMATS))
        # a 1-bit codeword per symbol
        (counts, weight), = classes.items()
        assert tally.payload_bits == weight * sum(counts)

    def test_slices_of_three_rows(self, monkeypatch):
        # every slice edge of a (6,3,2) population, both sides in one
        # stream, 28 plain classes then 24 shaped ones, so that one pass
        # holds the last plain class and the first two shaped ones; and
        # every slice's lengths against build_code
        sliced = []

        def lengths(counts):
            assert len(counts) <= 3
            sliced.extend(map(tuple, counts.tolist()))
            got = huffman_lengths(counts)
            assert list(map(tuple, got.tolist())) == [
                build_code(Composition(tuple(c))).lengths for c in counts.tolist()
            ]
            return got

        huffman_lengths = experiments._huffman_lengths
        monkeypatch.setattr(experiments, "_TALLY_ROWS", 3)
        monkeypatch.setattr(experiments, "_huffman_lengths", lengths)
        sides = class_walks(ShapingParams(6, Alphabet(3), 2))
        assert [len(side) for side in sides] == [28, 24]
        tallies = experiments._tally_classes([side.items() for side in sides], FORMATS)
        for tally, side in zip(tallies, sides):
            assert_same_tally(tally, reference_tally_classes(side, FORMATS))
        assert sliced == [*sides[0], *sides[1]]

    @pytest.mark.parametrize("rows", [3, 1 << 16])
    @pytest.mark.parametrize("plain, shaped", [
        ("long", "short"), ("short", "long"), ("empty", "long"), ("long", "empty"),
        ("empty", "empty"),
    ])
    def test_both_sides_in_one_stream(self, monkeypatch, rows, plain, shaped):
        # sides of uneven length, or one of them empty, read as one stream
        # of rows: each side's tally matches the reference over that side
        # alone, and the passes are as many as the rows of both sides need
        sides = {
            "long": class_walks(ShapingParams(10, Alphabet(4), 1))[0],
            "short": class_walks(ShapingParams(3, Alphabet(4), 1))[1],
            "empty": {},
        }
        passes = []

        def lengths(counts):
            passes.append(len(counts))
            return huffman_lengths(counts)

        huffman_lengths = experiments._huffman_lengths
        monkeypatch.setattr(experiments, "_TALLY_ROWS", rows)
        monkeypatch.setattr(experiments, "_huffman_lengths", lengths)
        plain, shaped = sides[plain], sides[shaped]
        got = experiments._tally_classes([plain.items(), shaped.items()], FORMATS)
        for tally, side in zip(got, (plain, shaped)):
            assert_same_tally(tally, reference_tally_classes(side, FORMATS))
        assert sum(passes) == len(plain) + len(shaped)
        assert len(passes) == -(-(len(plain) + len(shaped)) // rows)

    @pytest.mark.parametrize("run", ["exhaustive", "sampled"])
    def test_report_tallies_both_sides_in_one_pass(self, monkeypatch, run):
        # a (10,3,1) report's 27 or so rows: one tally of both sides, one
        # array pass
        calls = []

        def lengths(counts):
            calls.append(len(counts))
            return huffman_lengths(counts)

        huffman_lengths = experiments._huffman_lengths
        monkeypatch.setattr(experiments, "_huffman_lengths", lengths)
        config = ExperimentConfig(length=10, alphabet_size=3, sample_count=500)
        if run == "exhaustive":
            run_exhaustive(config)
        else:
            run_sampled(config, SourceSpec(A3, seed=2))
        assert len(calls) == 1 and calls[0] > 20

    def test_report_holds_no_population(self, monkeypatch):
        # the (40,4,1) report tallies 12,341 plain and 12,673 shaped classes
        # a count multiset at a time, 256 rows at a time: with both
        # orderings built, it holds one slice and its totals, no map of the
        # classes
        shared_ordering(40, Alphabet(4))
        shared_ordering(41, Alphabet(4))
        monkeypatch.setattr(experiments, "_TALLY_ROWS", 256)
        tracemalloc.start()
        try:
            report = run_exhaustive(ExperimentConfig(length=40, alphabet_size=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.census.shaped_classes_total == 12673
        assert peak < 2**20


# |A| 3-8 and K 1-3, exact ties on the plain side at (8,5), (10,4) and
# (22,5) and in the shaped subset at (9,4,1) and (22,5,2); every shaped side
# ends in a cut group
MULTISET_SHAPES = [
    (10, 3, 1), (12, 3, 3), (9, 4, 1), (10, 4, 1), (40, 4, 2), (8, 5, 1), (22, 5, 2),
    (12, 6, 1), (10, 6, 2), (8, 7, 1), (6, 7, 3), (8, 8, 1), (5, 8, 2),
]


class TestMultisetRows:
    """The exhaustive tally, a count multiset at a time, against the
    per-class reference over each ordering's class walk."""

    @pytest.mark.parametrize("n, size, k", MULTISET_SHAPES)
    def test_tally_matches_class_walk(self, n, size, k):
        params = ShapingParams(n, Alphabet(size), k)
        hi = params.subset_size
        for length, side in zip((n, n + k), class_walks(params)):
            ordering = shared_ordering(length, params.alphabet)
            rows = list(experiments._multiset_rows(ordering, hi))
            assert len(rows) < len(side) and sum(ranks for _, ranks in rows) == hi
            # the rows past each multiset's first class are walked class by
            # class, and they are exactly those of the multisets met in
            # several classes, of more than 4 used symbols, whose ties split
            spans = list(ordering.multiset_spans(hi))
            firsts = {first for first, _, _ in spans}
            walked = {tuple(sorted(c)) for c, _ in rows if c not in firsts}
            assert walked == {
                tuple(sorted(first))
                for first, met, _ in spans
                if met > 1 and len(first) - first.count(0) > 4 and experiments._ties_split(first)
            }
            for formats in (FORMATS, FORMATS[1:]):
                assert_same_tally(
                    tally_one(rows, formats),
                    reference_tally_classes(side, formats),
                )

    def test_four_used_symbols_fix_the_longest_codeword_bits(self):
        # every composition with at most 4 nonzero counts: its longest
        # codeword has the bit length of its multiset ascending
        def bits(counts):
            return max(build_code(Composition(counts)).lengths).bit_length()

        checked = 0
        for size in range(1, 9):
            for n in range(1, 13):
                for counts in compositions(n, size):
                    if len(counts) - counts.count(0) <= 4:
                        assert bits(counts) == bits(tuple(sorted(counts)))
                        checked += 1
        assert checked > 10**4

    def test_grid_walks_and_skips_multisets_of_five_symbols(self):
        # the shapes above reach both branches: multisets of more than 4
        # used symbols met in several classes, walked and not
        flags = Counter()
        for n, size, k in MULTISET_SHAPES:
            for length in (n, n + k):
                ordering = shared_ordering(length, Alphabet(size))
                for first, met, _ in ordering.multiset_spans(size**n):
                    if met > 1 and len(first) - first.count(0) > 4:
                        flags[experiments._ties_split(first)] += 1
        assert flags[True] > 50 and flags[False] > 100

    def test_ties_split_flags_every_multiset_whose_longest_codeword_varies(self):
        # every count multiset of more than 4 used symbols, N <= 12 and
        # |A| 5-8: where build_code's longest codeword has bit lengths that
        # differ between the multiset's permutations, it is flagged
        def bits(counts):
            return max(build_code(Composition(counts)).lengths).bit_length()

        checked = varying = flagged = 0
        for size in range(5, 9):
            for n in range(5, 13):
                for counts in compositions(n, size):
                    if len(counts) - counts.count(0) <= 4 or list(counts) != sorted(counts):
                        continue
                    split = experiments._ties_split(counts)
                    if len({bits(p) for p in set(permutations(counts))}) > 1:
                        assert split, counts
                        varying += 1
                    checked += 1
                    flagged += split
        assert (checked, varying) == (308, 107)
        assert flagged < checked

    @pytest.mark.parametrize("n, size, k", [(100, 4, 1), (40, 4, 2)])
    def test_walks_no_class_at_four_symbols(self, n, size, k, monkeypatch):
        # with both orderings built, no class of a count multiset is walked
        # one by one
        config = ExperimentConfig(length=n, alphabet_size=size, extra_length=k)
        want = run_exhaustive(config)
        monkeypatch.setattr(combinatorics._Permutations, "walk", _no_walk)
        assert run_exhaustive(config) == want


class TestLogSum:
    """Weighted-entropy means whose coefficients and count overflow a float."""

    def test_mean_against_fractions(self):
        total = experiments._LogSum()
        total.coef.update({2: 3 * 2**1100 + 1, 5: -(2**1101) - 7, 9: 2**1150 + 11})
        count = 2**1140 + 3
        exact = sum(Fraction(a) * Fraction(math.log(v)) for v, a in total.coef.items())
        for base in (2.0, math.e, 3.0):
            want = exact / Fraction(math.log(base)) / count
            assert total.mean(base, count) == pytest.approx(float(want), rel=1e-13)

    def test_side_fields_past_2_pow_1024(self):
        # an exhaustive report over 3**647 messages or more has such weights
        classes = [((2, 1, 0), 2**1100), ((1, 1, 1), 2**1101)]
        config = ExperimentConfig(length=3, alphabet_size=3)
        tally = tally_one(classes, FORMATS)
        fields = experiments._side_fields("plain", tally, config, 3 * 2**1100)
        # N*H0 of each class, weighted 1:2 over 3 units: H0(2,1) + 2*H0(1,1,1)
        want = brute_entropy((0, 0, 1)) + 2 * brute_entropy((0, 1, 2))
        assert fields["avg_weighted_entropy_plain"] == pytest.approx(want, rel=1e-13)
        assert fields["avg_distinct_symbols_plain"] == 8 / 3


class TestReportSerialization:
    def test_json_round_trip(self, report):
        assert ExperimentReport.from_json(report.to_json()) == report

    def test_json_stable(self, report):
        assert report.to_json() == report.to_json()

    def test_csv_one_row_per_metric(self, report):
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "metric,value"
        metrics = {line.split(",", 1)[0] for line in lines[1:]}
        assert "avg_weighted_entropy_plain" in metrics
        assert "avg_total_bits_shaped.lengths" in metrics
        assert "census.plain_sequences_below_full" in metrics


class TestCensus:
    def test_worked_example_scale(self):
        census = type_class_census(3, A3, 1)
        assert census.plain_sequences_below_full == 21
        assert census.plain_sequences_total == 27
        assert census.shaped_sequences_below_full == 27
        assert census.plain_classes_below_full == 9
        assert census.plain_classes_total == 10
        assert census.shaped_classes_below_full == 9
        assert census.shaped_classes_total == 9
        assert census.plain_sequence_fraction == pytest.approx(21 / 27)
        assert census.shaped_sequence_fraction == 1.0

    def test_against_brute_force(self):
        census = type_class_census(3, A3, 1)
        plain_below = sum(1 for t in all_tuples(3, 3) if len(set(t)) < 3)
        assert census.plain_sequences_below_full == plain_below

    def test_length1(self):
        census = type_class_census(1, A3, 1)
        assert census.plain_classes_total == 3
        assert census.plain_classes_below_full == 3
        assert census.plain_sequences_below_full == 3

    @pytest.mark.parametrize(
        "n, size, k", [(1, 3, 1), (3, 3, 1), (4, 3, 2), (5, 3, 1), (3, 4, 1), (3, 5, 1)]
    )
    def test_matches_brute_force_census(self, n, size, k):
        plain = list(all_tuples(n, size))
        shaped = entropy_sorted_tuples(n + k, size)[: size**n]
        expected = {}
        for side, tuples in (("plain", plain), ("shaped", shaped)):
            below = [t for t in tuples if len(set(t)) < size]
            expected[f"{side}_classes_total"] = len({counts_of(t, size) for t in tuples})
            expected[f"{side}_classes_below_full"] = len(
                {counts_of(t, size) for t in below}
            )
            expected[f"{side}_sequences_total"] = len(tuples)
            expected[f"{side}_sequences_below_full"] = len(below)
        alphabet = Alphabet(size)
        config = ExperimentConfig(length=n, alphabet_size=size, extra_length=k)
        sampled = run_sampled(
            ExperimentConfig(
                length=n, alphabet_size=size, extra_length=k, sample_count=50
            ),
            SourceSpec(alphabet),
        )
        for census in (
            type_class_census(n, alphabet, k),
            run_exhaustive(config).census,
            sampled.census,
        ):
            assert (census.length, census.alphabet_size, census.extra_length) == (n, size, k)
            assert {key: getattr(census, key) for key in expected} == expected

    @pytest.mark.parametrize(
        "n, size, k", [(8, 5, 1), (10, 4, 1), (9, 4, 1), (6, 3, 2), (6, 3, 3), (40, 4, 1)]
    )
    def test_population_matches_composition_oracle(self, n, size, k):
        # exact-tie groups on the plain side at (8,5), (10,4) and (40,4), and
        # in the shaped subset at (9,4,1) and (40,4,1)
        params = ShapingParams(n, Alphabet(size), k)
        plain = {c: multinomial(Composition(c)) for c in compositions(n, size)}
        shaped = {}
        classes, ends = reference_class_order(n + k, size)
        start = 0
        for counts, end in zip(classes, ends):
            shaped[counts] = min(end, size**n) - start
            start = end
            if end >= size**n:
                break
        census = shaped_subset_stats(params).class_census
        assert {c.counts: included for c, included in census} == shaped
        assert class_walks(params) == (plain, shaped)

    def test_counts_without_holding_the_population(self):
        # the (40,4,1) census walks 12,341 plain and 12,673 shaped classes;
        # with both orderings built, it holds only its counters
        shared_ordering(40, Alphabet(4))
        shared_ordering(41, Alphabet(4))
        tracemalloc.start()
        try:
            census = type_class_census(40, Alphabet(4), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert census.shaped_classes_total == 12673
        assert peak < 64 * 2**10

    # the shaped side's census at three points, recorded when the census
    # still walked every class; the plain side is counted by
    # inclusion-exclusion in the test
    SHAPED_CENSUS = {
        (60, 5, 1): (665461, 189405, 26584558643963569224648465868910835005),
        (22, 5, 2): (15962, 11555, 1274271658852465),
        (100, 4, 1): (
            179895,
            20404,
            6184530248784135957225726354448702454464851799504,
        ),
    }

    @pytest.mark.parametrize("n, size, k", list(SHAPED_CENSUS))
    def test_walks_no_class_outside_an_exact_tie(self, n, size, k, monkeypatch):
        # with both orderings built, a multiset's classes are counted in one
        # step: walking any of them one by one fails the census
        alphabet = Alphabet(size)
        shared_ordering(n, alphabet)
        shared_ordering(n + k, alphabet)
        monkeypatch.setattr(combinatorics._Permutations, "walk", _no_walk)
        census = type_class_census(n, alphabet, k)
        full = sum((-1) ** j * math.comb(size, j) * (size - j) ** n for j in range(size + 1))
        assert census.plain_classes_total == math.comb(n + size - 1, size - 1)
        assert census.plain_classes_below_full == (
            math.comb(n + size - 1, size - 1) - math.comb(n - 1, size - 1)
        )
        assert census.plain_sequences_below_full == size**n - full
        assert (
            census.shaped_classes_total,
            census.shaped_classes_below_full,
            census.shaped_sequences_below_full,
        ) == self.SHAPED_CENSUS[n, size, k]
        assert census.plain_sequences_total == census.shaped_sequences_total == size**n

    def test_sampled_report_census_walks_no_class(self, monkeypatch):
        config = ExperimentConfig(length=20, alphabet_size=4, sample_count=3000)
        spec = SourceSpec(Alphabet(4), (0.6, 0.2, 0.1, 0.1), seed=3)
        plain, shaped = experiments._sampled_chunk((config, spec.pmf, spec.seed, 0, 3000))
        want = run_sampled(config, spec)
        monkeypatch.setattr(combinatorics._Permutations, "walk", _no_walk)
        got = experiments._build_report(config, plain.items(), shaped.items(), spec)
        assert got == want
        assert got.census == type_class_census(20, Alphabet(4), 1)

    def test_round_trip(self):
        census = type_class_census(4, A3, 1)
        from setshaping.experiments import CensusReport

        assert CensusReport.from_dict(census.to_dict()) == census


class TestReproduceTable:
    def test_row_count(self, rows):
        assert len(rows) == 27

    def test_entropy_column_multisets(self, rows):
        plain = Counter(round(r.weighted_entropy, 3) for r in rows)
        shaped = Counter(round(r.transformed_weighted_entropy, 3) for r in rows)
        assert plain == {0.0: 3, 2.755: 18, 4.755: 6}
        assert shaped == {0.0: 3, 3.245: 24}

    def test_constant_rows_exact(self, rows):
        by_message = {r.message: r for r in rows}
        for sym in "123":
            row = by_message[f"{sym} {sym} {sym}"]
            assert row.transformed == f"{sym} {sym} {sym} {sym}"
            assert row.weighted_entropy == 0.0
            assert row.transformed_weighted_entropy == 0.0

    def test_bijection_within_table(self, rows):
        assert len({r.message for r in rows}) == 27
        assert len({r.transformed for r in rows}) == 27

    def test_csv_shape(self, rows):
        lines = table_to_csv(rows).strip().splitlines()
        assert lines[0] == (
            "message,weighted_entropy,transformed,transformed_weighted_entropy"
        )
        assert len(lines) == 28
        assert lines[1].count(",") == 3
