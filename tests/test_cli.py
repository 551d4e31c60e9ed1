import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

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
from setshaping import cli
from setshaping.cli import build_parser, main

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
        "argv",
        [
            ["transform", "-a", "1200"],
            ["exhaustive", "-n", "1", "-a", "1200"],
            ["census", "-n", "1000", "-a", "4"],
        ],
    )
    def test_ordering_too_large(self, argv, capsys, monkeypatch):
        # the length-2 ordering has 720,600 classes of 1,200 counts; the
        # length-1001 ordering has 168,171,004 classes of 4 counts
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
        assert main(["transform"]) == 2
        assert stderr_json(capsys.readouterr().err)["error"] == "Usage"

    def test_bad_choice_is_usage_error(self, capsys):
        assert main(["encode", "-a", "3", "--scheme", "bogus"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "-a", "3", "--base", "2"],
            ["encode", "-a", "3", "--base", "2"],
            ["sample", "-n", "3", "-a", "3", "--cap", "5"],
            ["exhaustive", "-n", "3", "-a", "3", "--cap", "5"],
        ],
        ids=["transform-base", "encode-base", "sample-cap", "exhaustive-cap"],
    )
    def test_removed_flag_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert stderr_json(captured.err)["error"] == "Usage"


class TestUsageErrors:
    """Every usage error, whether argparse, a flag's type, the config file
    or the library finds it, takes one path: main returns 2 and prints one
    JSON Usage line."""

    SOURCES = {
        "bad-choice": (["encode", "-a", "3", "--scheme", "bogus"], None),
        "unknown-flag": (["exhaustive", "-n", "3", "-a", "3", "--bogus"], None),
        "missing-alphabet": (["exhaustive", "-n", "3"], None),
        "k-0": (["transform", "-a", "3", "-k", "0"], None),
        "seed-negative": (["sample", "-n", "3", "-a", "3", "--seed", "-1"], None),
        "pmf-unparsable": (["sample", "-n", "3", "-a", "3", "--pmf", "a,b"], None),
        "cap-0": (["exhaustive", "-n", "3", "-a", "3", "--cap", "0"], None),
        "config-no-equals": (["exhaustive", "-n", "3", "-a", "3"], "k 2\n"),
        "config-unknown-key": (["exhaustive", "-n", "3", "-a", "3"], "kk = 2\n"),
        "config-cap": (["exhaustive", "-n", "3", "-a", "3"], "cap = 1000\n"),
        "base-1": (["exhaustive", "-n", "3", "-a", "3", "--base", "1"], None),
    }

    @pytest.mark.parametrize("name", list(SOURCES))
    def test_returns_2_with_one_usage_line(self, tmp_path, capsys, monkeypatch, name):
        argv, config = self.SOURCES[name]
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3"))
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert stderr_json(err)["error"] == "Usage"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exhaustive", "--help"])
        assert exc.value.code == 0
        assert "--charge-framing" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, stdin, code",
        [
            (["transform", "-a", "3"], "1 2 3", 0),
            (["exhaustive", "-n", "3"], "", 2),
            (["transform", "-a", "2"], "1 1", 3),
            (["decode", "no-such-file.sstc"], "", 4),
        ],
        ids=["ok", "usage", "domain", "io"],
    )
    def test_module_exit_codes(self, tmp_path, argv, stdin, code):
        # python -m setshaping hands main's return value to sys.exit
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "setshaping", *argv],
            input=stdin,
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=60,
        )
        assert result.returncode == code, result.stderr
        if code:
            assert result.stdout == ""
            assert len(result.stderr.splitlines()) == 1
            json.loads(result.stderr)


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

    def test_exhaustive_cap_huge_length(self, capsys):
        # the class cap stops the run before any ordering, or 3**100000, is built
        code, out, err = run_cli(["exhaustive", "-n", "100000", "-a", "3"], capsys)
        assert (code, out) == (3, "")
        payload = stderr_json(err)
        assert payload["error"] == "TooManyClasses"
        assert "length 100001" in payload["detail"]

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

    # first 16 hex digits of sha256(stdout), recorded before the reports
    # shared one serializer
    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("exhaustive -n 3 -a 3", "d89b503a5a9856de"),
            ("exhaustive -n 3 -a 3 --format csv", "eab71e8696ae1b09"),
            ("census -n 4 -a 3 -k 2", "f874f3bbda64bb07"),
            ("census -n 4 -a 3 -k 2 --format csv", "ff387c30cb7dd3dc"),
            (
                "sample -n 4 -a 3 --samples 200 --seed 3 --format csv",
                "949d5e4c718d0006",
            ),
        ],
    )
    def test_report_bytes(self, capsys, argv, digest):
        code, out, err = run_cli(argv.split(), capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_census_csv_rows_in_field_order(self, capsys):
        code, out, err = run_cli(
            ["census", "-n", "4", "-a", "3", "-k", "2", "--format", "csv"], capsys
        )
        assert code == 0
        assert out == (
            "metric,value\n"
            "length,4\n"
            "alphabet_size,3\n"
            "extra_length,2\n"
            "plain_classes_total,15\n"
            "plain_classes_below_full,12\n"
            "plain_sequences_total,81\n"
            "plain_sequences_below_full,45\n"
            "shaped_classes_total,12\n"
            "shaped_classes_below_full,12\n"
            "shaped_sequences_total,81\n"
            "shaped_sequences_below_full,81\n"
        )

    @pytest.mark.parametrize("base", ["nan", "inf", "1"])
    @pytest.mark.parametrize(
        "command",
        [["table"], ["exhaustive", "-n", "3", "-a", "3"]],
        ids=["table", "exhaustive"],
    )
    def test_base_must_be_finite_above_one(self, capsys, command, base):
        code, out, err = run_cli(command + ["--base", base], capsys)
        assert (code, out) == (2, "")
        assert stderr_json(err)["error"] == "Usage"

    def test_sample_nan_pmf(self, capsys):
        code, out, err = run_cli(
            ["sample", "-n", "3", "-a", "3", "--pmf", "nan,0.5,0.5"], capsys
        )
        assert code == 3
        assert stderr_json(err)["error"] == "BadDistribution"


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
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert stderr_json(captured.err)["error"] == "Usage"

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\nalphabet = 3\nchrage-framing = true\n")
        assert main(["exhaustive", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "chrage" in stderr_json(captured.err)["detail"]

    @pytest.mark.parametrize(
        "line, detail",
        [
            ("k = 0", "config k: must be >= 1, got 0"),
            ("pmf = a,b", "config pmf: cannot parse 'a,b'"),
        ],
    )
    def test_config_range_error_keeps_the_flag_types_message(
        self, tmp_path, capsys, line, detail
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 3\nalphabet = 3\n{line}\n")
        code, out, err = run_cli(["sample", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert stderr_json(err)["detail"] == detail

    @pytest.mark.parametrize("command", ["exhaustive", "sample"])
    def test_config_shared_across_commands(self, tmp_path, command):
        # keys another subcommand owns are accepted and ignored
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "n = 3\nalphabet = 3\nbase = 2\nsamples = 40\nseed = 4\n"
            "pmf = 0.5,0.25,0.25\n"
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

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["exhaustive", "-n", "3", "-a", "3", "--config", str(tmp_path / "no.cfg")],
            capsys,
        )
        assert (code, out) == (4, "")
        assert stderr_json(err)["error"] == "IOError"

    def test_undecodable_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"n = 3\n\xff\xfe alphabet = 3\n")
        code, out, err = run_cli(["exhaustive", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert stderr_json(err)["error"] == "Usage"

    @pytest.mark.parametrize(
        "command, line, flag",
        [
            ("exhaustive", "jobs = two", ["--jobs", "1"]),
            ("exhaustive", "k = 0", ["-k", "1"]),
            ("sample", "seed = -4", ["--seed", "1"]),
            ("sample", "pmf = a,b", ["--pmf", "0.5,0.3,0.2"]),
            ("sample", "samples = 0", ["--samples", "5"]),
            ("sample", "jobs = 0", ["--jobs", "1"]),
        ],
        ids=["jobs = two", "k = 0", "seed = -4", "pmf = a,b", "samples = 0", "jobs = 0"],
    )
    def test_bad_config_value_rejected_even_when_flag_given(
        self, tmp_path, capsys, command, line, flag
    ):
        # the whole file is checked, as README states, before flags apply:
        # a flag's type checks its range, so a file value gets it too
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 3\nalphabet = 3\n{line}\n")
        assert main([command, "--config", str(cfg), *flag]) == 2
        key = line.split(" =")[0]
        assert key in stderr_json(capsys.readouterr().err)["detail"]

    # (command, input text or None, settings); every setting is given once as
    # flags and once from a file: input, output and switches included
    CONFIG_CASES = [
        ("transform", "2 1 3", {"alphabet": "3", "k": "2"}),
        ("untransform", "1 1 1 1 1", {"alphabet": "3", "k": "2"}),
        ("encode", "2 1 3 3", {"alphabet": "3", "k": "2", "scheme": "counts", "shape": ""}),
        ("decode", None, {}),
        ("table", None, {"base": "3"}),
        (
            "exhaustive",
            None,
            {
                "n": "4", "alphabet": "3", "k": "2", "base": "3", "scheme": "lengths",
                "format": "csv", "jobs": "1", "charge-framing": "",
            },
        ),
        (
            "sample",
            None,
            {
                "n": "4", "alphabet": "3", "k": "2", "base": "3", "scheme": "counts",
                "format": "csv", "samples": "30", "seed": "5", "pmf": "0.5,0.3,0.2",
                "charge-framing": "",
            },
        ),
        ("census", None, {"n": "4", "alphabet": "3", "k": "2", "format": "csv"}),
    ]

    @pytest.mark.parametrize(
        "command, text, settings", CONFIG_CASES, ids=[c[0] for c in CONFIG_CASES]
    )
    def test_config_matches_flags(self, tmp_path, capsys, command, text, settings):
        src = tmp_path / "in"
        if command == "decode":
            msg = tmp_path / "msg.txt"
            msg.write_text("3 1 2 2 1\n")
            assert main(["encode", str(msg), "-a", "3", "--shape", "-o", str(src)]) == 0
        elif text is not None:
            src.write_text(text + "\n")
        takes_input = command in ("transform", "untransform", "encode", "decode")
        flags = [str(src)] if takes_input else []
        lines = [f"input = {src}"] if takes_input else []
        for key, value in settings.items():
            flags += ["-n" if key == "n" else f"--{key}"] + ([value] if value else [])
            # a switch is on when its flag is given; in a file it takes a word
            lines.append(f"{key} = {value or ('yes' if key == 'shape' else 'true')}")
        by_flags, by_file = tmp_path / "flags.out", tmp_path / "file.out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines + [f"output = {by_file}"]) + "\n")
        assert main([command, *flags, "-o", str(by_flags)]) == 0
        assert main([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr() == ("", "")
        assert by_file.read_bytes() == by_flags.read_bytes()

    def test_config_does_not_carry_into_next_run(self, tmp_path, capsys):
        argv = ["exhaustive", "-n", "3", "-a", "3"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2\nbase = 3\nformat = csv\ncharge-framing = on\n")
        assert main(argv) == 0
        before = capsys.readouterr().out
        assert main(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out != before
        assert main(argv) == 0
        after = capsys.readouterr().out
        assert after == before
        data = json.loads(after)
        assert (data["base"], data["extra_length"], data["charge_framing"]) == (
            2.0, 1, False
        )

    def test_configs_do_not_carry_between_runs(self, tmp_path, capsys, monkeypatch):
        # the parser of runs without --config is built once and shared; a
        # config run builds its own, so neither file reaches another run
        argv = ["exhaustive", "-n", "3", "-a", "3"]
        first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
        first.write_text("k = 2\nbase = 3\ncharge-framing = on\n")
        second.write_text("scheme = counts\n")
        assert main(argv) == 0
        plain = capsys.readouterr().out
        built = []
        monkeypatch.setattr(
            cli, "build_parser", lambda: built.append(1) or build_parser()
        )
        fields = ("base", "extra_length", "charge_framing", "scheme_formats")
        seen = []
        for extra in (["--config", str(first)], [], ["--config", str(second)], []):
            assert main(argv + extra) == 0
            out = capsys.readouterr().out
            seen.append(tuple(json.loads(out)[f] for f in fields))
            if not extra:
                assert out == plain
        assert seen == [
            (3.0, 2, True, ["lengths", "counts"]),
            (2.0, 1, False, ["lengths", "counts"]),
            (2.0, 1, False, ["counts"]),
            (2.0, 1, False, ["lengths", "counts"]),
        ]
        assert len(built) == 2
