"""Command-line interface: transform, untransform, encode, decode, table,
exhaustive, sample, census.

Each option's default and value check are declared once, on its flag: the
flag's ``type`` converts and range-checks a value whether it comes from
the command line or from a ``--config`` file.  A file's values replace the
defaults, so flags given on the command line still win, but every value in
the file is checked, even one a flag overrides.

Failures print exactly one JSON line on stderr ({"error": code, "detail":
...}) so scripts can parse them.  Exit codes: 0 success, 2 usage error,
3 domain error, 4 I/O error.  ``main`` returns the code for every failure
in process too; only ``--help`` exits, with status 0, from inside argparse.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .coding import (
    _MAX_EXTRA_LENGTH,
    Container,
    SchemeFormat,
    decode,
    deserialize_scheme,
    encode_message,
    pack_container,
    unpack_container,
)
from .core import Alphabet, Sequence, format_sequence, parse_sequence
from .errors import BadLengthError, MalformedPayloadError, SetShapingError
from .experiments import (
    ExperimentConfig,
    SourceSpec,
    reproduce_table,
    run_exhaustive,
    run_sampled,
    table_to_csv,
    type_class_census,
)
from .shaping import ShapingParams, inverse_transform, transform

__all__ = ["main", "compress_sequence", "restore_sequence"]


def compress_sequence(
    seq: Sequence,
    fmt: SchemeFormat,
    shaped: bool = False,
    extra_length: int = 1,
) -> bytes:
    """Encode a sequence into a container, optionally shaping it first."""
    if shaped:
        if extra_length > _MAX_EXTRA_LENGTH:
            raise BadLengthError(
                f"extra length {extra_length} does not fit the container's "
                f"one-byte K field (at most {_MAX_EXTRA_LENGTH})"
            )
        params = ShapingParams(seq.length, seq.alphabet, extra_length)
        encoded_seq = transform(seq, params)
    else:
        encoded_seq = seq
    message = encode_message(encoded_seq, fmt)
    return pack_container(
        Container(
            scheme_format=fmt,
            alphabet_size=seq.alphabet.size,
            sequence_length=encoded_seq.length,
            scheme=message.scheme,
            payload=message.payload,
            shaped=shaped,
            extra_length=extra_length if shaped else 0,
        )
    )


def restore_sequence(data: bytes) -> Sequence:
    """Decode a container back to the original sequence, inverting the
    shaping transform when the container flags it."""
    container = unpack_container(data)
    alphabet = Alphabet(container.alphabet_size)
    table = deserialize_scheme(
        container.scheme, container.scheme_format, alphabet, container.sequence_length
    )
    seq = decode(container.payload, table, container.sequence_length)
    if container.shaped:
        if container.sequence_length <= container.extra_length:
            raise MalformedPayloadError(
                f"shaped length {container.sequence_length} not longer than "
                f"extra length {container.extra_length}"
            )
        params = ShapingParams(
            length=container.sequence_length - container.extra_length,
            alphabet=alphabet,
            extra_length=container.extra_length,
        )
        seq = inverse_transform(seq, params)
    return seq


# ---------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # main reports every usage error, from argparse or not, as exit 2
        raise ValueError(message)


def _count(minimum: int):
    """A flag type for whole numbers of at least ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return count


def _pmf(text: str) -> tuple[float, ...] | None:
    """A flag type for comma-separated probabilities; empty means uniform."""
    try:
        return tuple(float(p) for p in text.split(",")) if text else None
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from None


def _load_config(path: str) -> dict[str, str]:
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            values[key.strip().replace("-", "_")] = raw.strip()
    return values


_SWITCH_WORDS = {
    "true": True, "yes": True, "on": True,
    "false": False, "no": False, "off": False,
}


def _config_value(action: argparse.Action, raw: str):
    """Convert a config value as its own flag's value would be: the flag's
    type and choices, or only true/false words for an on/off switch.  A
    range the type rejects is reported in the type's words, as for the flag."""
    try:
        if action.nargs == 0:
            return _SWITCH_WORDS[raw.lower()]
        value = action.type(raw) if action.type else raw
        if action.choices is None or value in action.choices:
            return value
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"config {action.dest}: {exc}") from None
    except (KeyError, ValueError):
        pass
    raise ValueError(f"config {action.dest}: invalid value {raw!r}")


def _config_defaults(args: argparse.Namespace) -> dict:
    """The --config file's values for the chosen subcommand, converted by
    its flags.  A key that no subcommand has as an option is a typo; one
    that another subcommand owns is ignored, so a file can serve several
    commands."""
    config = _load_config(args.config)
    unknown = sorted(set(config) - args.config_keys)
    if unknown:
        raise ValueError(f"config: unknown key {unknown[0]!r}")
    return {
        action.dest: _config_value(action, config[action.dest])
        for action in args.parser._actions
        if action.dest in config
    }


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _write_bytes(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as handle:
            handle.write(data)


def _check_required(args: argparse.Namespace) -> None:
    """-n and -a have no default, and a --config file may supply them, so
    their presence is checked once flags and file are both read."""
    for action in args.parser._actions:
        if action.dest in ("n", "alphabet") and getattr(args, action.dest) is None:
            raise ValueError(f"{'/'.join(action.option_strings)} is required")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_transform(args, invert: bool) -> int:
    alphabet = Alphabet(args.alphabet)
    seq = parse_sequence(_read_text(args.input), alphabet)
    if invert and seq.length <= args.k:
        raise BadLengthError(
            f"cannot invert a length-{seq.length} sequence with k={args.k}"
        )
    params = ShapingParams(
        length=seq.length - args.k if invert else seq.length,
        alphabet=alphabet,
        extra_length=args.k,
    )
    result = inverse_transform(seq, params) if invert else transform(seq, params)
    _write_text(args.output, format_sequence(result) + "\n")
    return 0


def _cmd_encode(args) -> int:
    seq = parse_sequence(_read_text(args.input), Alphabet(args.alphabet))
    data = compress_sequence(
        seq, SchemeFormat(args.scheme), shaped=args.shape, extra_length=args.k
    )
    _write_bytes(args.output, data)
    return 0


def _cmd_decode(args) -> int:
    seq = restore_sequence(_read_bytes(args.input))
    _write_text(args.output, format_sequence(seq) + "\n")
    return 0


def _cmd_table(args) -> int:
    _write_text(args.output, table_to_csv(reproduce_table(args.base)))
    return 0


def _experiment_config(args, **settings) -> ExperimentConfig:
    both = args.scheme == "both"
    return ExperimentConfig(
        length=args.n,
        alphabet_size=args.alphabet,
        extra_length=args.k,
        base=args.base,
        scheme_formats=tuple(SchemeFormat) if both else (SchemeFormat(args.scheme),),
        charge_framing=args.charge_framing,
        jobs=args.jobs,
        **settings,
    )


def _emit_report(report, args) -> int:
    text = report.to_json() if args.format == "json" else report.to_csv()
    _write_text(args.output, text)
    return 0


def _cmd_exhaustive(args) -> int:
    report = run_exhaustive(_experiment_config(args))
    return _emit_report(report, args)


def _cmd_sample(args) -> int:
    config = _experiment_config(args, sample_count=args.samples)
    spec = SourceSpec(Alphabet(args.alphabet), args.pmf, args.seed)
    return _emit_report(run_sampled(config, spec), args)


def _cmd_census(args) -> int:
    census = type_class_census(args.n, Alphabet(args.alphabet), args.k)
    return _emit_report(census, args)


# ---------------------------------------------------------------------------
# parser assembly

def _add_common(parser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument(
        "-o", "--output", default="-", help="output path (default stdout)"
    )


def _add_input(parser):
    parser.add_argument(
        "input", nargs="?", default="-", help="input path (default stdin)"
    )


def _add_sizes(parser, message_length: bool):
    if message_length:
        parser.add_argument("-n", type=_count(1), help="message length")
    parser.add_argument("-a", "--alphabet", type=_count(1), help="alphabet size")
    parser.add_argument(
        "-k", "--k", type=_count(1), default=1,
        help="length increase K (default %(default)s)",
    )


def _add_base(parser):
    parser.add_argument(
        "--base", type=float, default=2.0, help="entropy base (default %(default)s)"
    )


def _add_choice(parser, flag: str, choices: list[str], default: str):
    parser.add_argument(
        flag, choices=choices, default=default, help="(default %(default)s)"
    )


def _add_experiment_flags(parser):
    _add_sizes(parser, message_length=True)
    _add_base(parser)
    _add_choice(parser, "--scheme", ["lengths", "counts", "both"], "both")
    _add_choice(parser, "--format", ["json", "csv"], "json")
    parser.add_argument(
        "--jobs",
        type=_count(1),
        default=1,
        help="worker processes for sample, at most the CPU count "
        "(default %(default)s); exhaustive runs in one pass",
    )
    parser.add_argument(
        "--charge-framing",
        action="store_true",
        help="charge container framing bytes to the totals",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="setshaping", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("transform", help="shape a sequence to length N+K")
    _add_input(p)
    _add_sizes(p, message_length=False)
    _add_common(p)
    p.set_defaults(func=lambda a: _cmd_transform(a, invert=False))

    p = sub.add_parser("untransform", help="invert the shaping transform")
    _add_input(p)
    _add_sizes(p, message_length=False)
    _add_common(p)
    p.set_defaults(func=lambda a: _cmd_transform(a, invert=True))

    p = sub.add_parser("encode", help="entropy-code a sequence into a container")
    _add_input(p)
    _add_sizes(p, message_length=False)
    _add_choice(p, "--scheme", ["lengths", "counts"], "lengths")
    p.add_argument("--shape", action="store_true", help="apply the transform first")
    _add_common(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a container back to text")
    _add_input(p)
    _add_common(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("table", help="emit the canonical 27-row example table")
    _add_base(p)
    _add_common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("exhaustive", help="measure every length-N message")
    _add_experiment_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_exhaustive)

    p = sub.add_parser("sample", help="measure sampled messages from a source")
    _add_experiment_flags(p)
    p.add_argument(
        "--samples", type=_count(1), default=100_000,
        help="sample count (default %(default)s)",
    )
    p.add_argument(
        "--seed", type=_count(0), default=0, help="sampling seed (default %(default)s)"
    )
    p.add_argument(
        "--pmf", type=_pmf, help="comma-separated probabilities (default uniform)"
    )
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("census", help="sub-alphabet type-class census")
    _add_sizes(p, message_length=True)
    _add_choice(p, "--format", ["json", "csv"], "json")
    _add_common(p)
    p.set_defaults(func=_cmd_census)

    keys = {a.dest for p in sub.choices.values() for a in p._actions} - {"help", "config"}
    for p in sub.choices.values():
        # main converts a --config file by p's flags and checks it against all keys
        p.set_defaults(parser=p, config_keys=keys)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every call without --config, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        if args.config:
            # the file's values become defaults, so explicit flags still win;
            # set_defaults changes a parser, so they go on one of this call's own
            parser = build_parser()
            args = parser.parse_args(argv)
            args.parser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        _check_required(args)
        return args.func(args)
    except SetShapingError as exc:
        print(
            json.dumps({"error": exc.code, "detail": str(exc)}), file=sys.stderr
        )
        return 3
    except ValueError as exc:
        print(json.dumps({"error": "Usage", "detail": str(exc)}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(
            json.dumps({"error": "IOError", "detail": str(exc)}), file=sys.stderr
        )
        return 4


if __name__ == "__main__":
    sys.exit(main())
