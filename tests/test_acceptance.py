"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

`pytest tests/test_acceptance.py -v` shows the per-criterion lines, the
headline measurement table, and the census records.
"""
import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from setshaping import (
    Alphabet,
    Composition,
    ExperimentConfig,
    SchemeFormat,
    Sequence,
    build_code,
    class_ordering,
    composition_of,
    empirical_entropy,
    inverse_transform,
    parse_sequence,
    rank_sequence,
    reproduce_table,
    run_exhaustive,
    transform,
    type_class_census,
    unrank_sequence,
)
from setshaping.cli import compress_sequence, main, restore_sequence
from setshaping.coding import payload_bit_count
from setshaping.shaping import ShapingParams

from oracles import all_tuples, best_prefix_payload, compositions

A3 = Alphabet(3)
BOTH_FORMATS = (SchemeFormat.LENGTH_LIST, SchemeFormat.COUNT_TABLE)


class _Criterion:
    """Print one pass/fail line per criterion, failing loudly via pytest.

    Lines are emitted outside pytest's capture so they are visible in a
    plain `pytest -v` run.
    """

    def __init__(self, capsys, num, description):
        self.capsys = capsys
        self.num = num
        self.description = description

    def say(self, text):
        with self.capsys.disabled():
            print(text, flush=True)

    def __call__(self, fn):
        def run():
            try:
                fn()
            except BaseException:
                self.say(f"ACCEPTANCE {self.num}: FAIL - {self.description}")
                raise
            self.say(f"ACCEPTANCE {self.num}: PASS - {self.description}")

        return run


def test_criterion_1_average_entropy_reproduction(capsys):
    @_Criterion(capsys, 1, "exhaustive N=3 |A|=3 K=1 averages 2.893 / 2.884 in < 1 s")
    def check():
        started = time.perf_counter()
        report = run_exhaustive(ExperimentConfig(length=3, alphabet_size=3))
        elapsed = time.perf_counter() - started
        assert report.avg_weighted_entropy_plain == pytest.approx(2.893, abs=1e-3)
        assert report.avg_weighted_entropy_shaped == pytest.approx(2.884, abs=1e-3)
        assert elapsed < 1.0, f"exhaustive run took {elapsed:.3f}s"

    check()


def test_criterion_2_distinct_symbol_averages_exact(capsys):
    @_Criterion(capsys, 2, "distinct-symbol averages exactly 57/27 and 51/27")
    def check():
        report = run_exhaustive(ExperimentConfig(length=3, alphabet_size=3))
        assert Fraction(report.distinct_total_plain, report.population) == (
            Fraction(57, 27)
        )
        assert Fraction(report.distinct_total_shaped, report.population) == (
            Fraction(51, 27)
        )
        assert report.avg_distinct_symbols_plain == pytest.approx(2.111, abs=1e-3)
        assert report.avg_distinct_symbols_shaped == pytest.approx(1.889, abs=1e-3)

    check()


def test_criterion_3_table_multisets_and_constant_rows(capsys):
    @_Criterion(capsys, 3, "table entropy-column multisets match; constant rows exact")
    def check():
        rows = reproduce_table()
        assert len(rows) == 27
        plain = Counter(round(r.weighted_entropy, 3) for r in rows)
        shaped = Counter(round(r.transformed_weighted_entropy, 3) for r in rows)
        assert plain == {0.0: 3, 2.755: 18, 4.755: 6}
        assert shaped == {0.0: 3, 3.245: 24}
        for r in rows:
            assert abs(r.weighted_entropy - round(r.weighted_entropy, 3)) < 1e-3
        by_message = {r.message: r for r in rows}
        for sym in "123":
            assert by_message[f"{sym} {sym} {sym}"].transformed == (
                f"{sym} {sym} {sym} {sym}"
            )

    check()


def test_criterion_4_bijectivity_suite(capsys):
    @_Criterion(capsys, 4, "transform bijective over A^N for the required grid in < 60 s")
    def check():
        started = time.perf_counter()
        grid = [(n, 3, k) for n in range(2, 9) for k in (1, 2)]
        grid += [(n, 4, 1) for n in range(2, 6)]
        for n, size, k in grid:
            alphabet = Alphabet(size)
            params = ShapingParams(length=n, alphabet=alphabet, extra_length=k)
            images = set()
            for t in all_tuples(n, size):
                s = Sequence(alphabet, t)
                image = transform(s, params)
                images.add(image.symbols)
                assert inverse_transform(image, params) == s
            assert len(images) == size**n, f"not injective at {(n, size, k)}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"bijectivity suite took {elapsed:.1f}s"

    check()


def test_criterion_5_rank_unrank_property(capsys):
    @_Criterion(capsys, 5, "unrank(rank(s)) = s for 1e4 random (N=50, |A|=4); monotone")
    def check():
        n, size = 50, 4
        alphabet = Alphabet(size)
        ordering = class_ordering(n, alphabet)
        rng = random.Random(50_4)
        ranks = []
        for _ in range(10_000):
            t = tuple(rng.randrange(size) for _ in range(n))
            s = Sequence(alphabet, t)
            r = rank_sequence(s, ordering)
            assert unrank_sequence(n, alphabet, r, ordering) == s
            ranks.append(r)
        ranks.sort()
        entropies = [
            empirical_entropy(
                unrank_sequence(n, alphabet, r, ordering)
            ).bits_per_symbol
            for r in ranks
        ]
        for a, b in zip(entropies, entropies[1:]):
            assert a <= b + 1e-9

    check()


def test_criterion_6_coding_correctness(capsys):
    @_Criterion(capsys, 6, "1e4 container round trips; Kraft equality; Huffman optimal")
    def check():
        rng = random.Random(6_6_6)
        # shaping at (N~200, |A|>=5) would exceed the composition cap, so
        # shaped round trips draw from cap-compatible size pairs while the
        # unshaped path spans the full N <= 200, |A| <= 6 range
        shaped_pool = [(200, 3), (100, 3), (60, 4), (50, 4), (30, 5), (20, 6)]

        def check_kraft(table):
            if sum(1 for l in table.lengths if l) >= 2:
                num, denom = table.kraft_sum_num_denom()
                assert num == denom

        for i in range(10_000):
            shaped = bool(i % 2)
            fmt = BOTH_FORMATS[(i // 2) % 2]
            if shaped:
                n, size = shaped_pool[i % len(shaped_pool)]
            else:
                size = rng.randint(1, 6)
                n = rng.randint(1, 200)
            alphabet = Alphabet(size)
            t = tuple(rng.randrange(size) for _ in range(n))
            seq = Sequence(alphabet, t)
            check_kraft(build_code(composition_of(seq)))
            data = compress_sequence(seq, fmt, shaped=shaped, extra_length=1)
            assert restore_sequence(data) == seq

        # Huffman payload optimality against the brute-force prefix-code
        # oracle, every composition with N <= 8 and |A| <= 4
        for size in range(1, 5):
            alphabet = Alphabet(size)
            for n in range(1, 9):
                for counts in compositions(n, size):
                    comp = Composition(counts)
                    if comp.total == 0:
                        continue
                    table = build_code(comp)
                    check_kraft(table)
                    payload = payload_bit_count(comp, table)
                    if sum(1 for c in comp.counts if c) >= 2:
                        assert payload == best_prefix_payload(comp.counts)
                    else:
                        assert payload == comp.total  # 1-bit convention

    check()


def test_criterion_7_headline_measurement(capsys):
    criterion = _Criterion(
        capsys, 7, "signed shaped-vs-plain total-bit deltas for N=3..8, |A|=3"
    )

    @criterion
    def check():
        lines = [
            "headline measurement (shaped avg total bits - plain avg total bits):"
        ]
        for n in range(3, 9):
            report = run_exhaustive(ExperimentConfig(length=n, alphabet_size=3))
            assert report.random_limit_symbols == float(n)
            assert report.random_limit_bits == pytest.approx(n * math.log2(3))
            for name in report.scheme_formats:
                delta = report.total_bits_delta[name]
                assert delta == pytest.approx(
                    report.avg_total_bits_shaped[name]
                    - report.avg_total_bits_plain[name]
                )
                flag = report.below_random_limit[name]
                assert flag == (
                    report.avg_total_bits_shaped[name] < report.random_limit_bits
                )
                note = "  [below uniform-source limit]" if flag else ""
                lines.append(
                    f"  N={n} scheme={name:7s} plain={report.avg_total_bits_plain[name]:8.4f}"
                    f" shaped={report.avg_total_bits_shaped[name]:8.4f}"
                    f" delta={delta:+8.4f} reference N={report.random_limit_symbols:.0f}"
                    f" ({report.random_limit_bits:.3f} bits){note}"
                )
        criterion.say("\n" + "\n".join(lines))

    check()


def test_criterion_8_census_claim(capsys):
    criterion = _Criterion(
        capsys, 8, "shaped subset census: 27/27 vs 21/27 at (3,3,1); N<=6 recorded"
    )

    @criterion
    def check():
        census = type_class_census(3, A3, 1)
        assert census.shaped_sequences_below_full == census.shaped_sequences_total
        assert census.plain_sequences_below_full == 21
        assert census.plain_sequences_total == 27
        recorded = []
        for n in range(1, 7):
            c = type_class_census(n, A3, 1)
            assert c.shaped_sequence_fraction >= c.plain_sequence_fraction
            recorded.append(
                f"  N={n}: plain {c.plain_sequences_below_full}/{c.plain_sequences_total}"
                f" shaped {c.shaped_sequences_below_full}/{c.shaped_sequences_total}"
                f" (classes {c.plain_classes_below_full}/{c.plain_classes_total}"
                f" vs {c.shaped_classes_below_full}/{c.shaped_classes_total})"
            )
        criterion.say("\ncensus of sequences with < |A| distinct symbols, |A|=3, K=1:")
        criterion.say("\n".join(recorded))

    check()


def test_criterion_9_determinism(tmp_path, capsys):
    @_Criterion(capsys, 9, "byte-identical outputs across repeats and --jobs values")
    def check():
        def run_to_file(name, argv):
            out = tmp_path / name
            assert main(argv + ["-o", str(out)]) == 0
            return out.read_bytes()

        exhaustive = ["exhaustive", "-n", "4", "-a", "3", "-k", "1"]
        assert (
            run_to_file("e1", exhaustive)
            == run_to_file("e2", exhaustive)
            == run_to_file("e3", exhaustive + ["--jobs", "2"])
            == run_to_file("e4", exhaustive + ["--jobs", "3"])
        )

        sample = ["sample", "-n", "5", "-a", "3", "--samples", "300", "--seed", "77"]
        assert (
            run_to_file("s1", sample)
            == run_to_file("s2", sample)
            == run_to_file("s3", sample + ["--jobs", "2"])
        )

        src = tmp_path / "in.txt"
        src.write_text("2 1 1 3\n")
        encode = ["encode", str(src), "-a", "3", "--scheme", "counts", "--shape"]
        assert run_to_file("c1.sstc", encode) == run_to_file("c2.sstc", encode)

        assert run_to_file("t1.csv", ["table"]) == run_to_file("t2.csv", ["table"])
        census = ["census", "-n", "4", "-a", "3"]
        assert run_to_file("n1.json", census) == run_to_file("n2.json", census)

    check()
