import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from setshaping import (
    Alphabet,
    Container,
    ExperimentConfig,
    SchemeFormat,
    Sequence,
    ShapingParams,
    SourceSpec,
    encode_message,
    pack_container,
    reproduce_table,
    run_exhaustive,
    run_sampled,
    source_entropy,
    table_to_csv,
    total_compressed_length,
    transform,
    type_class_census,
)
from setshaping import experiments
from setshaping.experiments import ExperimentReport
from setshaping.errors import BadDistributionError, TooLargeError

from oracles import all_tuples, brute_entropy, counts_of, entropy_sorted_tuples

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
        with pytest.raises(TooLargeError):
            run_exhaustive(
                ExperimentConfig(length=30, alphabet_size=3, exhaustive_cap=1000)
            )

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

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        spec = SourceSpec(A3, seed=4)
        config = ExperimentConfig(length=3, alphabet_size=3, sample_count=2)
        report = run_sampled(replace(config, jobs=3), spec)
        assert sizes == [2]
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
