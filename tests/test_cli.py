import io
import json

import pytest

from setshaping import (
    Alphabet,
    ExperimentConfig,
    SchemeFormat,
    Sequence,
    parse_sequence,
    reproduce_table,
    run_exhaustive,
    table_to_csv,
    total_compressed_length,
    unpack_container,
)
from setshaping.cli import main

from oracles import all_tuples

A3 = Alphabet(3)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_json(err):
    lines = [line for line in err.strip().splitlines() if line]
    assert len(lines) == 1
    return json.loads(lines[0])


class TestTransformCommands:
    def test_transform_files(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text("1 1 1\n")
        code, out, err = run_cli(
            ["transform", str(src), "-a", "3", "-k", "1", "-o", str(dst)], capsys
        )
        assert (code, out, err) == (0, "", "")
        assert dst.read_text() == "1 1 1 1\n"

    def test_transform_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 2 1"))
        code, out, err = run_cli(["transform", "-a", "3"], capsys)
        assert code == 0
        assert err == ""
        assert out.strip().count(" ") == 3  # a length-4 sequence

    def test_untransform_round_trip(self, tmp_path):
        src = tmp_path / "in.txt"
        mid = tmp_path / "mid.txt"
        out = tmp_path / "out.txt"
        src.write_text("3 1 2\n")
        assert main(["transform", str(src), "-a", "3", "-o", str(mid)]) == 0
        assert main(["untransform", str(mid), "-a", "3", "-o", str(out)]) == 0
        assert out.read_text() == "3 1 2\n"

    def test_alphabet_too_small(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 1"))
        code, out, err = run_cli(["transform", "-a", "2"], capsys)
        assert code == 3
        assert stderr_json(err)["error"] == "AlphabetTooSmall"

    def test_parse_failure(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 zebra 1"))
        code, out, err = run_cli(["transform", "-a", "3"], capsys)
        assert code == 3
        assert stderr_json(err)["error"] == "ParseError"

    @pytest.mark.parametrize(
        "argv", [["transform", "-a", "1200"], ["exhaustive", "-n", "1", "-a", "1200"]]
    )
    def test_ordering_too_large(self, argv, capsys, monkeypatch):
        # the length-2 ordering has 720,600 classes of 1,200 counts
        monkeypatch.setattr("sys.stdin", io.StringIO("7"))
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert stderr_json(err)["error"] == "TooManyClasses"

    def test_not_in_subset(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3 1"))
        code, out, err = run_cli(["untransform", "-a", "3"], capsys)
        assert code == 3
        assert stderr_json(err)["error"] == "NotInShapedSubset"

    def test_missing_alphabet_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 1 1"))
        with pytest.raises(SystemExit) as exc:
            main(["transform"])
        assert exc.value.code == 2
        assert stderr_json(capsys.readouterr().err)["error"] == "Usage"

    def test_bad_choice_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "-a", "3", "--scheme", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "-a", "3", "--base", "2"],
            ["encode", "-a", "3", "--base", "2"],
            ["sample", "-n", "3", "-a", "3", "--cap", "5"],
        ],
        ids=["transform-base", "encode-base", "sample-cap"],
    )
    def test_removed_flag_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert stderr_json(captured.err)["error"] == "Usage"


class TestEncodeDecode:
    @pytest.mark.parametrize("scheme", ["lengths", "counts"])
    @pytest.mark.parametrize("shape", [False, True])
    def test_round_trip_all_27(self, tmp_path, scheme, shape):
        for i, t in enumerate(all_tuples(3, 3)):
            text = " ".join(str(s + 1) for s in t)
            src = tmp_path / f"in{i}.txt"
            box = tmp_path / f"c{i}.sstc"
            out = tmp_path / f"out{i}.txt"
            src.write_text(text + "\n")
            argv = ["encode", str(src), "-a", "3", "--scheme", scheme, "-o", str(box)]
            if shape:
                argv.append("--shape")
            assert main(argv) == 0
            assert main(["decode", str(box), "-o", str(out)]) == 0
            assert out.read_text().strip() == text

    def test_container_matches_library_accounting(self, tmp_path):
        src = tmp_path / "in.txt"
        box = tmp_path / "c.sstc"
        src.write_text("2 1 1\n")
        assert main(
            ["encode", str(src), "-a", "3", "--scheme", "counts", "-o", str(box)]
        ) == 0
        container = unpack_container(box.read_bytes())
        expected = total_compressed_length(
            parse_sequence("2 1 1", A3), SchemeFormat.COUNT_TABLE
        )
        assert container.scheme.bit_length == expected.scheme_bits
        assert container.payload.bit_length == expected.payload_bits

    def test_decode_truncated(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        box = tmp_path / "c.sstc"
        src.write_text("2 1 1\n")
        assert main(["encode", str(src), "-a", "3", "-o", str(box)]) == 0
        box.write_bytes(box.read_bytes()[:-1])
        code, out, err = run_cli(["decode", str(box)], capsys)
        assert code == 3
        assert stderr_json(err)["error"] == "MalformedPayload"

    def test_shaped_k_beyond_container_byte(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3"))
        code, out, err = run_cli(["encode", "-a", "3", "--shape", "-k", "256"], capsys)
        assert (code, out) == (3, "")
        assert stderr_json(err)["error"] == "BadLength"
        # transform writes no container, so the same K still works there
        monkeypatch.setattr("sys.stdin", io.StringIO("1"))
        code, out, err = run_cli(["transform", "-a", "3", "-k", "256"], capsys)
        assert (code, err) == (0, "")
        assert out.split() == ["1"] * 257

    def test_alphabet_beyond_container_field(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 70000"))
        code, out, err = run_cli(["encode", "-a", "70000"], capsys)
        assert (code, out) == (3, "")
        assert stderr_json(err)["error"] == "TooLarge"

    def test_decode_missing_file(self, tmp_path, capsys):
        code, out, err = run_cli(["decode", str(tmp_path / "nope.sstc")], capsys)
        assert code == 4
        assert stderr_json(err)["error"] == "IOError"

    def test_empty_input_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("\n")
        code, out, err = run_cli(["encode", str(src), "-a", "3"], capsys)
        assert code == 3
        assert stderr_json(err)["error"] == "EmptySequence"


class TestReports:
    def test_table_matches_library(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "-o", str(out)]) == 0
        assert out.read_text() == table_to_csv(reproduce_table())

    def test_exhaustive_json(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(
            ["exhaustive", "-n", "3", "-a", "3", "-k", "1", "-o", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        assert data["avg_weighted_entropy_plain"] == pytest.approx(2.893, abs=1e-3)
        assert data["avg_weighted_entropy_shaped"] == pytest.approx(2.884, abs=1e-3)
        # thin wrapper: byte-identical to the library report
        expected = run_exhaustive(ExperimentConfig(length=3, alphabet_size=3))
        assert out.read_text() == expected.to_json()

    def test_exhaustive_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(
            ["exhaustive", "-n", "3", "-a", "3", "--format", "csv", "-o", str(out)]
        ) == 0
        assert out.read_text().startswith("metric,value\n")

    def test_exhaustive_cap_guidance(self, capsys):
        code, out, err = run_cli(
            ["exhaustive", "-n", "40", "-a", "3", "--cap", "100"], capsys
        )
        assert code == 3
        payload = stderr_json(err)
        assert payload["error"] == "TooLarge"
        assert "sampled" in payload["detail"]

    def test_charge_framing_toggle(self, tmp_path):
        plain = tmp_path / "a.json"
        charged = tmp_path / "b.json"
        assert main(["exhaustive", "-n", "3", "-a", "3", "-o", str(plain)]) == 0
        assert main(
            ["exhaustive", "-n", "3", "-a", "3", "--charge-framing", "-o", str(charged)]
        ) == 0
        a = json.loads(plain.read_text())
        b = json.loads(charged.read_text())
        assert b["charge_framing"] is True
        for name in a["avg_total_bits_plain"]:
            assert b["avg_total_bits_plain"][name] > a["avg_total_bits_plain"][name]

    def test_sample_deterministic_bytes(self, tmp_path):
        outs = []
        for name, jobs in [("s1.json", "1"), ("s2.json", "1"), ("s3.json", "2")]:
            out = tmp_path / name
            assert main(
                [
                    "sample", "-n", "3", "-a", "3", "--samples", "400",
                    "--seed", "21", "--jobs", jobs, "-o", str(out),
                ]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_sample_pmf(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(
            [
                "sample", "-n", "3", "-a", "3", "--samples", "50",
                "--seed", "3", "--pmf", "1,0,0", "-o", str(out),
            ]
        ) == 0
        data = json.loads(out.read_text())
        assert data["avg_weighted_entropy_plain"] == 0.0
        assert data["source_entropy_reference"] == 0.0

    def test_sample_bad_pmf(self, capsys):
        code, out, err = run_cli(
            ["sample", "-n", "3", "-a", "3", "--pmf", "0.9,0.2,0.1"], capsys
        )
        assert code == 3
        assert stderr_json(err)["error"] == "BadDistribution"

    def test_census(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["census", "-n", "3", "-a", "3", "-k", "1", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["plain_sequences_below_full"] == 21
        assert data["shaped_sequences_below_full"] == 27

    def test_census_csv(self, capsys):
        code, out, err = run_cli(["census", "-n", "3", "-a", "3", "--format", "csv"], capsys)
        assert code == 0
        assert "plain_classes_total,10" in out


class TestConfigFile:
    def test_values_from_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alphabet = 3\nk = 1  # worked example\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("1 1 1"))
        code, out, err = run_cli(["transform", "--config", str(cfg)], capsys)
        assert code == 0
        assert out == "1 1 1 1\n"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\nalphabet = 3\ncharge-framing = false\n")
        out = tmp_path / "r.json"
        assert main(
            ["exhaustive", "--config", str(cfg), "--charge-framing", "-o", str(out)]
        ) == 0
        assert json.loads(out.read_text())["charge_framing"] is True

    @pytest.mark.parametrize(
        "command, line",
        [
            ("exhaustive", "scheme = foo"),
            ("encode", "scheme = foo"),
            ("exhaustive", "jobs = two"),
            ("exhaustive", "format = xml"),
            ("exhaustive", "charge-framing = maybe"),
        ],
    )
    def test_bad_config_value_is_usage_error(
        self, tmp_path, capsys, monkeypatch, command, line
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 3\nalphabet = 3\n{line}\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3"))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert stderr_json(captured.err)["error"] == "Usage"

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\nalphabet = 3\nchrage-framing = true\n")
        with pytest.raises(SystemExit) as exc:
            main(["exhaustive", "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "chrage" in stderr_json(captured.err)["detail"]

    @pytest.mark.parametrize("command", ["exhaustive", "sample"])
    def test_config_shared_across_commands(self, tmp_path, command):
        # keys another subcommand owns are accepted and ignored
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "n = 3\nalphabet = 3\nbase = 2\nsamples = 40\nseed = 4\n"
            "pmf = 0.5,0.25,0.25\ncap = 1000\n"
        )
        out = tmp_path / "r.json"
        assert main([command, "--config", str(cfg), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["mode"] == ("exhaustive" if command == "exhaustive" else "sampled")
        assert data["population"] == (27 if command == "exhaustive" else 40)

    def test_exhaustive_fully_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\nalphabet = 3\nk = 1\nformat = json\n")
        out = tmp_path / "r.json"
        assert main(["exhaustive", "--config", str(cfg), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["population"] == 27
