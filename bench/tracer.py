"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` rebinds each function listed in `WRAPPED` at every module
attribute of the package that refers to it, so a caller that looks the
function up by name (``setshaping.experiments.build_code`` as well as
``setshaping.coding.build_code``) reaches the wrapper. Methods are rebound
on their class. Spans (name, start, end, parent) stay in memory; `metrics`
turns them into calls, self time and counters when the run is over.

Functions called once per bit or per symbol (``BitWriter.write``,
``rank_in_class``) are not wrapped: a span would cost more than the call.
The micro pass in worker.py times them instead.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# layer (module) -> public functions wrapped in it; "Class.method" for methods
WRAPPED = {
    "core": ["parse_sequence", "format_sequence"],
    "combinatorics": ["class_ordering", "rank_sequence", "unrank_sequence"],
    "shaping": [
        "shared_ordering",
        "transform",
        "inverse_transform",
        "shaped_subset_stats",
    ],
    "coding": [
        "build_code",
        "encode_message",
        "serialize_scheme",
        "encode",
        "decode",
        "deserialize_scheme",
        "pack_container",
        "unpack_container",
    ],
    "bitio": ["BitWriter.getvalue"],
    "experiments": [
        "run_exhaustive",
        "run_sampled",
        "type_class_census",
        "ExperimentReport.to_json",
    ],
    "cli": ["main", "build_parser", "compress_sequence", "restore_sequence"],
}

LAYERS = tuple(WRAPPED)


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []  # span name per function id
        self.fn_id: list[int] = []  # per span
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counters: Counter[str] = Counter()
        self.compositions: set[tuple[int, ...]] = set()

    def _wrap(self, name: str, fn, on_result=None):
        fid = len(self.span_names)
        self.span_names.append(name)
        fn_id, start, end, parent, stack = (
            self.fn_id,
            self.start,
            self.end,
            self.parent,
            self._stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            fn_id.append(fid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _hooks(self) -> dict:
        counters = self.counters

        def orderings(args, result):
            counters["combinatorics.class_ordering.classes"] += len(result.compositions)

        def codes(args, result):
            self.compositions.add(args[0].counts)

        def payload(args, result):
            counters["coding.payload_bits"] += result.bit_length

        def tallied(args, result):
            counters["experiments.messages_tallied"] += result.population

        return {
            "combinatorics.class_ordering": orderings,
            "coding.build_code": codes,
            "coding.encode": payload,
            "experiments.run_exhaustive": tallied,
            "experiments.run_sampled": tallied,
        }

    def install(self, package: str = "setshaping") -> None:
        """Rebind every listed function; call once, after the package import."""
        hooks = self._hooks()
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"{package}.{layer}"]
            for name in names:
                span = f"{layer}.{name.rsplit('.', 1)[-1]}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self._wrap(span, getattr(cls, meth), hooks.get(span)))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(span, original, hooks.get(span))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Calls and self time per span name and per layer, plus counters.

        Self time is a span's duration minus its direct children's; spans
        nest in one thread, so the children never overlap.
        """
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        for i in range(n):
            name = self.span_names[self.fn_id[i]]
            calls[name] += 1
            self_ns[name] += self.end[i] - self.start[i] - child[i]
        out: dict[str, float] = {}
        for name in self.span_names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_ns.items() if k.startswith(layer + ".")
            ) / 1e9
        out.update(self.counters)
        out.setdefault("combinatorics.class_ordering.classes", 0)
        out.setdefault("coding.payload_bits", 0)
        out.setdefault("experiments.messages_tallied", 0)
        classes = out["combinatorics.class_ordering.classes"]
        out["combinatorics.class_ordering.us_per_class"] = (
            out["combinatorics.class_ordering.self_s"] * 1e6 / classes if classes else 0.0
        )
        shared = out["shaping.shared_ordering.calls"]
        # hit_ratio = 1 - class_ordering.calls / shared_ordering.calls
        out["shaping.shared_ordering.hit_ratio"] = (
            1.0 - out["combinatorics.class_ordering.calls"] / shared if shared else 0.0
        )
        built = out["coding.build_code.calls"]
        # unique_ratio = distinct compositions / build_code.calls
        out["coding.build_code.unique_ratio"] = (
            len(self.compositions) / built if built else 0.0
        )
        covered = sum(self_ns.values()) / 1e9
        out["trace.spans"] = n
        out["trace.wall_s"] = wall_s
        out["trace.remainder_s"] = wall_s - covered
        return out
