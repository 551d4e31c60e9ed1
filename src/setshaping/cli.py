"""Command-line interface: transform, untransform, encode, decode, table,
exhaustive, sample, census.

Failures print exactly one JSON line on stderr ({"error": code, "detail":
...}) so scripts can parse them.  Exit codes: 0 success, 2 usage error,
3 domain error, 4 I/O error.
"""
from __future__ import annotations

import argparse
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
    DEFAULT_EXHAUSTIVE_CAP,
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
        print(json.dumps({"error": "Usage", "detail": message}), file=sys.stderr)
        raise SystemExit(2)


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(
                    _usage_error(f"{path}:{lineno}: expected key = value")
                )
            key, _, raw = line.partition("=")
            values[key.strip().replace("-", "_")] = raw.strip()
    return values


def _usage_error(detail: str) -> int:
    print(json.dumps({"error": "Usage", "detail": detail}), file=sys.stderr)
    return 2


_SWITCH_WORDS = {
    "true": True, "yes": True, "on": True,
    "false": False, "no": False, "off": False,
}


def _config_value(action: argparse.Action, key: str, raw: str):
    """Convert a config value as its own flag's value would be: the flag's
    type and choices, or only true/false words for an on/off switch."""
    try:
        if action.nargs == 0:
            return _SWITCH_WORDS[raw.lower()]
        value = action.type(raw) if action.type else raw
        if action.choices is None or value in action.choices:
            return value
    except (KeyError, ValueError):
        pass
    raise SystemExit(_usage_error(f"config {key}: invalid value {raw!r}"))


def _resolve(args: argparse.Namespace, defaults: dict) -> argparse.Namespace:
    """Fill unset options from --config values, then from defaults.  A key
    that no subcommand has as an option is a typo; one that another
    subcommand owns is ignored, so a file can serve several commands."""
    config = _load_config(getattr(args, "config", None))
    unknown = sorted(set(config) - args.config_keys)
    if unknown:
        raise SystemExit(_usage_error(f"config: unknown key {unknown[0]!r}"))
    actions = {action.dest: action for action in args.parser._actions}
    for key, fallback in defaults.items():
        if getattr(args, key, None) is None:
            raw = config.get(key)
            value = fallback if raw is None else _config_value(actions[key], key, raw)
            setattr(args, key, value)
    return args


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


def _check_positive(name: str, value, minimum: int = 1) -> None:
    if value is None:
        raise SystemExit(_usage_error(f"{name} is required"))
    if value < minimum:
        raise SystemExit(_usage_error(f"{name} must be >= {minimum}, got {value}"))


_SCHEMES = {"lengths": SchemeFormat.LENGTH_LIST, "counts": SchemeFormat.COUNT_TABLE}


def _scheme_formats(name: str) -> tuple[SchemeFormat, ...]:
    if name == "both":
        return (SchemeFormat.LENGTH_LIST, SchemeFormat.COUNT_TABLE)
    return (_SCHEMES[name],)


# ---------------------------------------------------------------------------
# subcommands

_TRANSFORM_DEFAULTS = {
    "alphabet": None,
    "k": 1,
    "output": "-",
    "input": "-",
}


def _cmd_transform(args, invert: bool) -> int:
    args = _resolve(args, _TRANSFORM_DEFAULTS)
    _check_positive("--alphabet", args.alphabet)
    _check_positive("--k", args.k)
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


_ENCODE_DEFAULTS = {
    "alphabet": None,
    "k": 1,
    "scheme": "lengths",
    "shape": False,
    "output": "-",
    "input": "-",
}


def _cmd_encode(args) -> int:
    args = _resolve(args, _ENCODE_DEFAULTS)
    _check_positive("--alphabet", args.alphabet)
    _check_positive("--k", args.k)
    seq = parse_sequence(_read_text(args.input), Alphabet(args.alphabet))
    data = compress_sequence(
        seq, _SCHEMES[args.scheme], shaped=args.shape, extra_length=args.k
    )
    _write_bytes(args.output, data)
    return 0


def _cmd_decode(args) -> int:
    args = _resolve(args, {"output": "-", "input": "-"})
    seq = restore_sequence(_read_bytes(args.input))
    _write_text(args.output, format_sequence(seq) + "\n")
    return 0


def _cmd_table(args) -> int:
    args = _resolve(args, {"base": 2.0, "output": "-"})
    _write_text(args.output, table_to_csv(reproduce_table(args.base)))
    return 0


_EXPERIMENT_DEFAULTS = {
    "n": None,
    "alphabet": None,
    "k": 1,
    "base": 2.0,
    "scheme": "both",
    "format": "json",
    "jobs": 1,
    "charge_framing": False,
    "output": "-",
}


def _experiment_config(args, **settings) -> ExperimentConfig:
    _check_positive("-n", args.n)
    _check_positive("--alphabet", args.alphabet)
    _check_positive("--k", args.k)
    _check_positive("--jobs", args.jobs)
    if args.base <= 1.0:
        raise SystemExit(_usage_error(f"--base must be > 1, got {args.base}"))
    return ExperimentConfig(
        length=args.n,
        alphabet_size=args.alphabet,
        extra_length=args.k,
        base=args.base,
        scheme_formats=_scheme_formats(args.scheme),
        charge_framing=args.charge_framing,
        jobs=args.jobs,
        **settings,
    )


def _emit_report(report, args) -> int:
    text = report.to_json() if args.format == "json" else report.to_csv()
    _write_text(args.output, text)
    return 0


def _cmd_exhaustive(args) -> int:
    args = _resolve(args, dict(_EXPERIMENT_DEFAULTS, cap=DEFAULT_EXHAUSTIVE_CAP))
    report = run_exhaustive(_experiment_config(args, exhaustive_cap=args.cap))
    return _emit_report(report, args)


def _cmd_sample(args) -> int:
    defaults = dict(_EXPERIMENT_DEFAULTS, samples=100_000, seed=0, pmf=None)
    args = _resolve(args, defaults)
    _check_positive("--samples", args.samples)
    if args.seed < 0:
        raise SystemExit(_usage_error(f"--seed must be >= 0, got {args.seed}"))
    config = _experiment_config(args, sample_count=args.samples)
    pmf = None
    if args.pmf:
        try:
            pmf = tuple(float(p) for p in str(args.pmf).split(","))
        except ValueError:
            raise SystemExit(_usage_error(f"cannot parse --pmf {args.pmf!r}"))
    spec = SourceSpec(Alphabet(args.alphabet), pmf, args.seed)
    report = run_sampled(config, spec)
    return _emit_report(report, args)


def _cmd_census(args) -> int:
    defaults = {
        "n": None,
        "alphabet": None,
        "k": 1,
        "format": "json",
        "output": "-",
    }
    args = _resolve(args, defaults)
    _check_positive("-n", args.n)
    _check_positive("--alphabet", args.alphabet)
    _check_positive("--k", args.k)
    census = type_class_census(args.n, Alphabet(args.alphabet), args.k)
    if args.format == "json":
        text = json.dumps(census.to_dict(), sort_keys=True, indent=2) + "\n"
    else:
        lines = ["metric,value"]
        lines += [f"{k},{v}" for k, v in census.to_dict().items()]
        text = "\n".join(lines) + "\n"
    _write_text(args.output, text)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _add_common(parser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("-o", "--output", help="output path (default stdout)")


def _add_sequence_io(parser):
    parser.add_argument(
        "input", nargs="?", help="input path (default stdin)", default=None
    )
    parser.add_argument("-a", "--alphabet", type=int, help="alphabet size")
    parser.add_argument("-k", "--k", type=int, help="length increase K (default 1)")


def _add_experiment_flags(parser):
    parser.add_argument("-n", type=int, help="message length")
    parser.add_argument("-a", "--alphabet", type=int, help="alphabet size")
    parser.add_argument("-k", "--k", type=int, help="length increase K (default 1)")
    parser.add_argument("--base", type=float, help="entropy base (default 2)")
    parser.add_argument("--scheme", choices=["lengths", "counts", "both"])
    parser.add_argument("--format", choices=["json", "csv"])
    parser.add_argument(
        "--jobs",
        type=int,
        help="worker processes for sample (default 1); exhaustive runs in one pass",
    )
    parser.add_argument(
        "--charge-framing",
        action="store_true",
        default=None,
        dest="charge_framing",
        help="charge container framing bytes to the totals",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="setshaping", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("transform", help="shape a sequence to length N+K")
    _add_sequence_io(p)
    _add_common(p)
    p.set_defaults(func=lambda a: _cmd_transform(a, invert=False))

    p = sub.add_parser("untransform", help="invert the shaping transform")
    _add_sequence_io(p)
    _add_common(p)
    p.set_defaults(func=lambda a: _cmd_transform(a, invert=True))

    p = sub.add_parser("encode", help="entropy-code a sequence into a container")
    _add_sequence_io(p)
    p.add_argument("--scheme", choices=["lengths", "counts"])
    p.add_argument(
        "--shape", action="store_true", default=None, help="apply the transform first"
    )
    _add_common(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a container back to text")
    p.add_argument("input", nargs="?", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("table", help="emit the canonical 27-row example table")
    p.add_argument("--base", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("exhaustive", help="measure every length-N message")
    _add_experiment_flags(p)
    p.add_argument("--cap", type=int, help="exhaustive population cap")
    _add_common(p)
    p.set_defaults(func=_cmd_exhaustive)

    p = sub.add_parser("sample", help="measure sampled messages from a source")
    _add_experiment_flags(p)
    p.add_argument("--samples", type=int, help="sample count (default 100000)")
    p.add_argument("--seed", type=int, help="sampling seed (default 0)")
    p.add_argument("--pmf", help="comma-separated probabilities (default uniform)")
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("census", help="sub-alphabet type-class census")
    p.add_argument("-n", type=int)
    p.add_argument("-a", "--alphabet", type=int)
    p.add_argument("-k", "--k", type=int)
    p.add_argument("--format", choices=["json", "csv"])
    _add_common(p)
    p.set_defaults(func=_cmd_census)

    keys = {a.dest for p in sub.choices.values() for a in p._actions} - {"help", "config"}
    for p in sub.choices.values():
        # _resolve converts config values by p's flags and checks keys against all
        p.set_defaults(parser=p, config_keys=keys)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except SetShapingError as exc:
        print(
            json.dumps({"error": exc.code, "detail": str(exc)}), file=sys.stderr
        )
        return 3
    except ValueError as exc:
        return _usage_error(str(exc))
    except OSError as exc:
        print(
            json.dumps({"error": "IOError", "detail": str(exc)}), file=sys.stderr
        )
        return 4


if __name__ == "__main__":
    sys.exit(main())
