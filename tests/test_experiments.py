import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import islice

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
from setshaping import experiments
from setshaping.experiments import ExperimentReport
from setshaping.errors import BadDistributionError, TooManyClassesError

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
        # the orderings' class cap bounds a run, raised before |A|**N is built
        with pytest.raises(TooManyClassesError, match="length 1000001 exceed"):
            run_exhaustive(ExperimentConfig(length=10**6, alphabet_size=3))
        # no message cap: 3**15 is 14,348,907 messages in 136 plain classes
        report = run_exhaustive(ExperimentConfig(length=15, alphabet_size=3))
        assert report.population == 3**15 > 10**7
        assert report.census == type_class_census(15, A3, 1)

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


def _fixed_block(u):
    """A stand-in for experiments._uniform_block whose every draw is u."""
    return lambda seed, lo, hi, length: np.full((hi - lo, length), u)


class TestSampledClasses:
    """The chunk loop's class maps against the per-sample reference path:
    draw with Generator.choice, rank, look the rank up in both orders."""

    @pytest.mark.parametrize("kind", PMF_KINDS)
    @pytest.mark.parametrize("n, size, k", SAMPLED_SHAPES)
    def test_chunk_matches_reference(self, n, size, k, kind):
        config = ExperimentConfig(length=n, alphabet_size=size, extra_length=k)
        args = (config, grid_pmf(size, kind), 17, 100, 900)
        assert experiments._sampled_chunk(args) == reference_sampled_classes(*args)

    @pytest.mark.parametrize("n, size, k", SAMPLED_SHAPES)
    def test_grid_reaches_both_branches(self, n, size, k):
        # the uniform samples fall in classes inside one shaped class and in
        # straddling ones, and some land past their class's first shaped
        # class: a memo that gives a straddling class one label fails
        # test_chunk_matches_reference
        config = ExperimentConfig(length=n, alphabet_size=size, extra_length=k)
        plain, shaped = reference_sampled_classes(
            config, grid_pmf(size, "uniform"), 17, 100, 900
        )
        alphabet = Alphabet(size)
        plain_ordering = shared_ordering(n, alphabet)
        shaped_ordering = shared_ordering(n + k, alphabet)
        spans = {
            c: experiments._shaped_span(c, plain_ordering, shaped_ordering)[0]
            for c in plain
        }
        assert {len(classes) > 1 for classes in spans.values()} == {False, True}
        first_only = Counter()
        for counts, samples in plain.items():
            first_only[spans[counts][0]] += samples
        assert first_only != shaped

    @pytest.mark.parametrize(
        "n, size, k, inside, straddling", [(6, 4, 1, 22, 62), (4, 3, 3, 9, 6)]
    )
    def test_span_matches_sorted_classes(self, n, size, k, inside, straddling):
        # each plain class's rank range against the shaped classes sorted
        # directly: which ones it meets, and where each begins inside it
        plain_classes, plain_ends = reference_class_order(n, size)
        shaped_classes, shaped_ends = reference_class_order(n + k, size)
        shaped_starts = [0] + shaped_ends[:-1]
        alphabet = Alphabet(size)
        plain_ordering = shared_ordering(n, alphabet)
        shaped_ordering = shared_ordering(n + k, alphabet)
        kinds = Counter()
        start = 0
        for counts, end in zip(plain_classes, plain_ends):
            met = [
                j
                for j, (lo, hi) in enumerate(zip(shaped_starts, shaped_ends))
                if lo < end and hi > start
            ]
            bounds = [shaped_starts[j] - start for j in met[1:]]
            classes, got_bounds = experiments._shaped_span(
                counts, plain_ordering, shaped_ordering
            )
            assert list(classes) == [shaped_classes[j] for j in met]
            assert got_bounds == bounds + [end - start]
            kinds[len(met) > 1] += 1
            start = end
        assert kinds == Counter({False: inside, True: straddling})

    @pytest.mark.parametrize("n, size, k", [(6, 4, 1), (4, 3, 3), (5, 3, 2)])
    def test_bounds_below_counts_bounds_at_or_below_rank(self, n, size, k):
        # every sequence of every class, those that sit exactly on a shaped
        # class's first rank included
        alphabet = Alphabet(size)
        plain_ordering = shared_ordering(n, alphabet)
        shaped_ordering = shared_ordering(n + k, alphabet)
        for counts in compositions(n, size):
            classes, bounds = experiments._shaped_span(
                counts, plain_ordering, shaped_ordering
            )
            for rank, seq in enumerate(multiset_permutations(counts)):
                below = sum(1 for b in bounds if b <= rank)
                assert experiments._bounds_below(list(seq), counts, bounds) == below

    # the normalised pmf's cumsum ends an ulp below 1 for (5, 0, 17, 1, 2)
    @pytest.mark.parametrize(
        "weights", [(0, 2, 1, 1), (2, 0, 1, 1), (2, 1, 1, 0), (5, 0, 17, 1, 2)]
    )
    def test_draws_on_cdf_breakpoints_match_choice(self, monkeypatch, weights):
        # a draw of 0, of a cdf value or just below 1 is where side="right"
        # and dividing the cdf by its end decide the symbol
        pmf = tuple(w / sum(weights) for w in weights)
        p = np.asarray(pmf)
        cdf = (p / p.sum()).cumsum()
        cdf /= cdf[-1]
        config = ExperimentConfig(length=3, alphabet_size=len(weights))
        args = (config, pmf, 0, 0, 2)
        for u in {0.0, np.nextafter(1.0, 0.0), *cdf[cdf < 1.0]}:
            monkeypatch.setattr(np.random, "default_rng", lambda seed, u=u: _FixedDraws(u))
            monkeypatch.setattr(experiments, "_uniform_block", _fixed_block(u))
            assert experiments._sampled_chunk(args) == reference_sampled_classes(*args)

    def test_symbol_outside_alphabet_raises(self, monkeypatch):
        # no generator draws 1.0; a draw that did would map past the last
        # symbol, and must fail rather than be counted
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedDraws(1.0))
        monkeypatch.setattr(experiments, "_uniform_block", _fixed_block(1.0))
        args = (ExperimentConfig(length=4, alphabet_size=3), (0.5, 0.25, 0.25), 0, 0, 1)
        with pytest.raises(ValueError, match="out of range"):
            experiments._sampled_chunk(args)
        with pytest.raises(ValueError, match="out of range"):
            reference_sampled_classes(*args)


class _CountingBoundsBelow:
    """Stands in for experiments._bounds_below and counts its calls: the
    rows that fell inside a boundary bracket."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self._inner = experiments._bounds_below
        monkeypatch.setattr(experiments, "_bounds_below", self)

    def __call__(self, *args):
        self.calls += 1
        return self._inner(*args)


def straddling_rows(plain, spans):
    """Samples of the plain classes that straddle a shaped boundary."""
    return sum(n for counts, n in plain.items() if len(spans[counts][0]) > 1)


class TestStraddlingKeys:
    """Straddling rows classified by one searchsorted against the boundary
    keys, with rows inside a bracket ranked by _bounds_below, against the
    per-sample reference path."""

    @pytest.mark.parametrize(
        "n, size, k, pmf, samples",
        [
            (20, 4, 1, (0.6, 0.2, 0.1, 0.1), 20000),
            (10, 4, 2, (0, 0.5, 0.25, 0.25), 5000),
            (10, 4, 2, (0.5, 0.25, 0.25, 0), 5000),
            (12, 3, 3, (1 / 3, 1 / 3, 1 / 3), 5000),
            (8, 5, 3, (0.4, 0.3, 0, 0.2, 0.1), 5000),
        ],
    )
    def test_keys_and_fallback_both_classify(self, monkeypatch, n, size, k, pmf, samples):
        # the prefix depth follows the report's sample count, not the chunk's
        counter = _CountingBoundsBelow(monkeypatch)
        config = ExperimentConfig(
            length=n, alphabet_size=size, extra_length=k, sample_count=samples
        )
        args = (config, pmf, 17, 0, 1000)
        spans = {}
        got = experiments._sampled_chunk(args, spans)
        assert got == reference_sampled_classes(*args)
        assert 0 < counter.calls < straddling_rows(got[0], spans)

    def test_full_depth_keys_need_no_ranking(self, monkeypatch):
        # few classes and many samples: every boundary is read in full
        counter = _CountingBoundsBelow(monkeypatch)
        config = ExperimentConfig(length=6, alphabet_size=3, extra_length=2, sample_count=50000)
        args = (config, grid_pmf(3, "uniform"), 17, 0, 1000)
        spans = {}
        got = experiments._sampled_chunk(args, spans)
        assert got == reference_sampled_classes(*args)
        assert counter.calls == 0 and straddling_rows(got[0], spans) > 0
        for _, bounds, keys in spans.values():
            assert len(keys) == len(bounds) - 1
            assert all(len(key) == 6 and below > 0 for key, below in keys)

    def test_more_than_256_straddling_classes_in_one_block(self, monkeypatch):
        # two-byte tags, among them 256, which ends in a zero byte
        counter = _CountingBoundsBelow(monkeypatch)
        config = ExperimentConfig(length=100, alphabet_size=4, sample_count=20000)
        args = (config, grid_pmf(4, "uniform"), 17, 0, 600)
        spans = {}
        got = experiments._sampled_chunk(args, spans)
        assert got == reference_sampled_classes(*args)
        straddling = sum(1 for shaped, _, _ in spans.values() if len(shaped) > 1)
        assert straddling > 256
        assert 0 < counter.calls < straddling_rows(got[0], spans)

    def test_boundaries_sharing_a_prefix(self):
        # a bracket past which a row lies beyond two bounds at once
        config = ExperimentConfig(length=12, alphabet_size=3, extra_length=2, sample_count=400)
        args = (config, grid_pmf(3, "uniform"), 17, 0, 400)
        spans = {}
        got = experiments._sampled_chunk(args, spans)
        assert got == reference_sampled_classes(*args)
        shared = 0
        for _, _, keys in spans.values():
            passed = [(key, below) for key, below in keys if below >= 0]
            for (_, before), (key, below) in zip([(b"", 0)] + passed, passed):
                shared += below - before > 1 and len(key.rstrip(b"\xff")) > 0
        assert shared > 0

    @pytest.mark.parametrize("size, tags", [(4, 300), (3, 5), (300, 70000)])
    def test_row_keys_sort_like_tuples(self, size, tags):
        # one- and two-byte symbols, one-, two- and four-byte tags
        rng = np.random.default_rng([size, tags])
        symbols = rng.integers(0, size, (2000, 5))
        symbols[:500] = symbols[500:1000]  # equal rows under other tags
        symbols[:, 4][rng.random(2000) < 0.3] = size - 1
        tag = rng.integers(0, tags, 2000)
        tag[:3] = [0, tags - 1, 256 % tags]
        tag_dtype = experiments._key_dtype(tags - 1)
        symbol_dtype = experiments._key_dtype(size + 1)
        assert symbol_dtype.itemsize == (1 if size < 255 else 2)
        keys = experiments._row_keys(tag, symbols, tag_dtype, symbol_dtype)
        assert keys.dtype.itemsize == tag_dtype.itemsize + 5 * symbol_dtype.itemsize
        want = sorted(range(2000), key=lambda i: (tag[i], tuple(symbols[i])))
        assert np.argsort(keys, kind="stable").tolist() == want
        # a row lies in the bracket of each of its prefixes: at or above the
        # prefix (zero-padded), below the prefix followed by an all-ones code
        above = np.full((2000, 1), (1 << 8 * symbol_dtype.itemsize) - 2)
        for depth in (0, 2, 4):
            low = experiments._row_keys(tag, symbols[:, :depth], tag_dtype, symbol_dtype)
            high = experiments._row_keys(
                tag, np.hstack([symbols[:, :depth], above]), tag_dtype, symbol_dtype
            )
            assert (low.astype(keys.dtype) <= keys).all()
            assert (keys < high.astype(keys.dtype)).all()

    def test_memo_lives_for_one_report(self, monkeypatch):
        # the in-process chunks of one report share a memo; the next report
        # (other pmf, sample count and K) starts a new one
        memos = []
        chunk = experiments._sampled_chunk

        def recording(args, spans=None):
            memos.append(spans)
            return chunk(args, spans)

        monkeypatch.setattr(experiments, "_sampled_chunk", recording)
        cases = [
            (ExperimentConfig(length=8, alphabet_size=4, sample_count=900), (0.6, 0.2, 0.1, 0.1)),
            (ExperimentConfig(length=8, alphabet_size=4, sample_count=400), (0.1, 0.2, 0.3, 0.4)),
            (
                ExperimentConfig(length=8, alphabet_size=4, extra_length=2, sample_count=400),
                (0.1, 0.2, 0.3, 0.4),
            ),
        ]
        for config, pmf in cases:
            spec = SourceSpec(Alphabet(4), pmf, seed=5)
            plain, shaped = reference_sampled_classes(config, pmf, 5, 0, config.sample_count)
            expected = experiments._build_report(config, plain.items(), shaped.items(), spec)
            assert run_sampled(config, spec) == expected
        assert len(memos) == 12
        reports = [memos[i : i + 4] for i in range(0, 12, 4)]
        assert all(all(m is memo[0] for m in memo) for memo in reports)
        assert len({id(memo[0]) for memo in reports}) == 3


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


def default_rng_rows(seed, lo, hi, length):
    """Samples lo..hi-1's uniform draws from numpy's own generator."""
    return np.array(
        [np.random.default_rng([seed, i]).random(length) for i in range(lo, hi)]
    )


def blocks(lo, hi, length):
    """experiments._blocks(lo, hi, length), stopped where one block per
    sample is passed: a split that makes no progress fails, not hangs."""
    return list(islice(experiments._blocks(lo, hi, length), hi - lo + 1))


def block_rows(seed, lo, hi, length):
    """The same draws as the sampler computes them, block by block."""
    return np.concatenate(
        [
            experiments._uniform_block(seed, start, end, length)
            for start, end in blocks(lo, hi, length)
        ]
    )


# one to five uint32 words; with the index word, the last two seeds give
# five and six entropy words, past SeedSequence's pool of four
STREAM_SEEDS = [0, 2**32 - 1, 2**32, 2**70 + 3, 2**100 + 17, 2**128 + 1]


class TestUniformStream:
    """The block generator against np.random.default_rng([seed, i]) itself:
    a numpy release that changed the stream fails here."""

    @pytest.mark.parametrize("length", [1, 20, 101])
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_matches_default_rng(self, seed, length):
        assert np.array_equal(
            block_rows(seed, 0, 30, length), default_rng_rows(seed, 0, 30, length)
        )

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_index_crossing_2_pow_32(self, seed):
        # index 2**32 is the first with two uint32 words
        lo, hi = 2**32 - 3, 2**32 + 3
        assert blocks(lo, hi, 20) == [(lo, 2**32), (2**32, hi)]
        assert np.array_equal(block_rows(seed, lo, hi, 20), default_rng_rows(seed, lo, hi, 20))

    @pytest.mark.parametrize("length, count", [(20, 5), (101, 9)])
    def test_crossing_block_edges(self, monkeypatch, length, count):
        # two samples of 20 draws per block, and one sample of 101 draws
        monkeypatch.setattr(experiments, "_BLOCK_DRAWS", 50)
        spans = blocks(3, 12, length)
        assert len(spans) == count
        assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]]
        assert (spans[0][0], spans[-1][1]) == (3, 12)
        assert np.array_equal(block_rows(7, 3, 12, length), default_rng_rows(7, 3, 12, length))

    def test_block_draws_bounded(self):
        assert blocks(0, 3, 2**21) == [(0, 1), (1, 2), (2, 3)]
        step = experiments._BLOCK_DRAWS // 1000
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
        hi = lo + count
        assert np.array_equal(
            block_rows(seed, lo, hi, length), default_rng_rows(seed, lo, hi, length)
        )

    @pytest.mark.parametrize("seed", [9, 2**100 + 17])
    def test_chunk_crossing_2_pow_32_matches_reference(self, seed):
        config = ExperimentConfig(length=6, alphabet_size=4)
        args = (config, grid_pmf(4, "skewed"), seed, 2**32 - 3, 2**32 + 3)
        assert experiments._sampled_chunk(args) == reference_sampled_classes(*args)

    @pytest.mark.parametrize("n, size, k", SAMPLED_SHAPES)
    def test_chunk_over_small_blocks_matches_reference(self, monkeypatch, n, size, k):
        # classes seen again in later blocks, straddling ones included
        monkeypatch.setattr(experiments, "_BLOCK_DRAWS", 7 * n)
        config = ExperimentConfig(length=n, alphabet_size=size, extra_length=k)
        args = (config, grid_pmf(size, "uniform"), 17, 100, 300)
        assert experiments._sampled_chunk(args) == reference_sampled_classes(*args)


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
        for side in map(dict, experiments._population(ShapingParams(n, Alphabet(size), k))):
            for formats in (FORMATS, FORMATS[1:]):
                assert_same_tally(
                    experiments._tally_classes(side.items(), formats),
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
                experiments._tally_classes(side.items(), FORMATS),
                reference_tally_classes(side, FORMATS),
            )

    def test_weights_above_2_pow_63(self):
        for side in map(dict, experiments._population(ShapingParams(60, Alphabet(4), 1))):
            assert max(side.values()) > 2**63
            assert_same_tally(
                experiments._tally_classes(side.items(), FORMATS),
                reference_tally_classes(side, FORMATS),
            )

    @pytest.mark.parametrize("classes", [Counter({(0, 5, 0): 1}), Counter({(7,): 3})])
    def test_one_class_one_symbol(self, classes):
        tally = experiments._tally_classes(classes.items(), FORMATS)
        assert_same_tally(tally, reference_tally_classes(classes, FORMATS))
        # a 1-bit codeword per symbol
        (counts, weight), = classes.items()
        assert tally.payload_bits == weight * sum(counts)

    def test_slices_of_three_rows(self, monkeypatch):
        # every slice edge of a (6,3,2) population, both sides, and every
        # slice's lengths against build_code
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
        for side in map(dict, experiments._population(ShapingParams(6, Alphabet(3), 2))):
            del sliced[:]
            assert_same_tally(
                experiments._tally_classes(side.items(), FORMATS),
                reference_tally_classes(side, FORMATS),
            )
            assert sliced == list(side)

    def test_report_holds_no_population(self, monkeypatch):
        # the (40,4,1) report tallies 12,341 plain and 12,673 shaped classes
        # as the orderings walk them, 256 at a time: with both orderings
        # built, it holds one slice and its totals, no map of the classes
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
        tally = experiments._tally_classes(classes, FORMATS)
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
        assert tuple(map(dict, experiments._population(params))) == (plain, shaped)

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

    def test_over_cap_population_raises_at_the_call(self):
        # the walks are lazy, the orderings behind them are not
        with pytest.raises(TooManyClassesError):
            experiments._population(ShapingParams(1000, Alphabet(4), 1))

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
