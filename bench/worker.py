"""One benchmark workload in a fresh interpreter; started by run.py.

    python3 bench/worker.py MODE WORKLOAD SLOT SECONDS

MODE is one of
  run      set up, then run passes of the workload until SECONDS have passed
  fixed    set up, then run exactly one pass (the untraced twin of traced)
  traced   as fixed, with spans around the program's public functions
  digests  run one pass for each slot in 0..SLOT-1 and print the digests
  micro    time layer functions too small or too hot to wrap
  memory   retained memory of the workload's first class ordering, under
           tracemalloc

The program is imported only after the parent's spawn clock has started,
and "ready" is printed as soon as the orderings the workload needs exist,
so the parent reads set-up time as spawn-to-ready. The last line of stdout
is one JSON object. PYTHONPATH must name the checkout's src directory.
"""
import sys
import time

T0 = time.perf_counter()
MODE, WORKLOAD, SLOT, SECONDS = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])

import setshaping.cli  # noqa: E402  (imports every module of the package)
from setshaping import cli, core, shaping  # noqa: E402

if MODE == "traced":
    from tracer import Tracer  # noqa: E402

    TRACER = Tracer()
    TRACER.install()

ORDERINGS = {
    "exhaustive": ((10, 3), (11, 3)),
    "sample": ((20, 4), (21, 4)),
    "codec": ((100, 4), (101, 4)),
    "bulk": (),
}
if MODE in ("run", "fixed", "traced", "digests"):
    for n, size in ORDERINGS[WORKLOAD]:
        shaping.shared_ordering(n, core.Alphabet(size))
print("ready", flush=True)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

from setshaping import bitio, combinatorics  # noqa: E402
from setshaping.coding import SchemeFormat  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
PMF = (0.6, 0.2, 0.1, 0.1)
SCHEMES = (SchemeFormat.LENGTH_LIST, SchemeFormat.COUNT_TABLE)
CODEC_MESSAGES, CODEC_BLOCK, CODEC_LENGTH = 2000, 100, 100
BULK_MESSAGES, BULK_LENGTH = 8, 100_000
CALIBRATE_EVERY_S = 0.1


def skewed_text(rng: random.Random, length: int) -> str:
    return " ".join(rng.choices("1234", weights=PMF, k=length))


class Item:
    """Result of one pass item: the digest checked against the reference,
    and per-operation timings. An item is one report (exhaustive, sample),
    a block of CODEC_BLOCK round trips (codec) or one round trip (bulk)."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.ops = 0
        self.failed = 0
        self.msgs = 0
        self.op_s: list[float] = []
        self.encode_s: list[float] = []
        self.decode_s: list[float] = []


def run_command(argv: list[str], msgs: int) -> Item:
    item = Item()
    item.ops = 1
    buf = io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        code = repr(exc)
    item.op_s.append(clock() - t0)
    if code != 0:
        item.failed = 1
    else:
        item.msgs = msgs
    item.hash.update(buf.getvalue().encode())
    return item


def round_trips(texts: list[str], first: int, shaped: bool) -> Item:
    """parse -> compress_sequence -> restore_sequence -> format, per text;
    the scheme alternates by message index."""
    item = Item()
    alphabet = core.Alphabet(4)
    for j, text in enumerate(texts):
        item.ops += 1
        fmt = SCHEMES[(first + j) % 2]
        t0 = clock()
        try:
            data = cli.compress_sequence(
                core.parse_sequence(text, alphabet), fmt, shaped=shaped
            )
            t1 = clock()
            out = core.format_sequence(cli.restore_sequence(data))
            t2 = clock()
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            item.op_s.append(clock() - t0)
            item.failed += 1
            item.hash.update(repr(exc).encode())
            continue
        item.encode_s.append(t1 - t0)
        item.decode_s.append(t2 - t1)
        item.op_s.append(t2 - t0)
        item.hash.update(data)
        item.hash.update(out.encode())
        if out != text:
            item.failed += 1
        else:
            item.msgs += 1
    return item


def pass_items(workload: str, slot: int):
    """The items of one pass as zero-argument callables; inputs depend only
    on (workload, slot)."""
    if workload == "exhaustive":
        argv = ["exhaustive", "-n", "10", "-a", "3", "-k", "1", "--scheme", "both", "--jobs", "1"]
        return [lambda: run_command(argv, 3**10)]
    if workload == "sample":
        argv = [
            "sample", "-n", "20", "-a", "4", "--samples", "20000",
            "--pmf", ",".join(map(str, PMF)), "--seed", str(slot), "--jobs", "1",
        ]
        return [lambda: run_command(argv, 20000)]
    if workload == "codec":
        rng = random.Random(f"codec/{slot}")
        texts = [skewed_text(rng, CODEC_LENGTH) for _ in range(CODEC_MESSAGES)]
        return [
            lambda lo=lo: round_trips(texts[lo : lo + CODEC_BLOCK], lo, True)
            for lo in range(0, CODEC_MESSAGES, CODEC_BLOCK)
        ]
    if workload == "bulk":
        rng = random.Random(f"bulk/{slot}")
        texts = [skewed_text(rng, BULK_LENGTH) for _ in range(BULK_MESSAGES)]
        return [lambda i=i: round_trips([texts[i]], i, False) for i in range(BULK_MESSAGES)]
    raise SystemExit(f"unknown workload {workload!r}")


def reference(workload: str, slot: int) -> list[str]:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    digests = golden[workload][str(slot)]
    if os.environ.get("BENCH_CORRUPT_REFERENCE") == "1":
        digests = [("0" if d[0] != "0" else "1") + d[1:] for d in digests]
    return digests


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop that calls no program code."""
    t0 = time.perf_counter()
    table, s = {}, 0
    for i in range(20_000):
        s = (s * 31 + i) & 0xFFFFFFFF
        table[s & 4095] = i
    return time.perf_counter() - t0


class Calibration:
    """Samples of calibrate() taken every CALIBRATE_EVERY_S while measuring.

    On a host with shared vCPUs the speed per cycle switches between a fast
    and a slow state many times a second, and the share of slow time drifts
    over minutes, with no steal time to show for it. A timer signal runs
    calibrate() in the middle of whatever is running, so the samples share
    the operations' moments; run.py divides their mean out of the operation
    time. clock() is perf_counter less the time spent calibrating, so no
    operation time includes a sample."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent_s

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent_s += time.perf_counter() - t0

    def start(self) -> None:
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


CALIBRATION = Calibration()
clock = CALIBRATION.clock


def measure(workload: str, slot: int, seconds: float | None) -> dict:
    """Closed loop, one client: run pass items back to back. With seconds
    None run exactly one pass, else stop after the first item that ends
    SECONDS after the loop started, calibrating all along."""
    items = pass_items(workload, slot)
    expected = reference(workload, slot)
    totals = Item()
    if seconds is not None:
        CALIBRATION.start()
    start = time.perf_counter()
    i = 0
    while True:
        item = items[i % len(items)]()
        if item.hash.hexdigest() != expected[i % len(items)]:
            item.failed = item.ops
            item.msgs = 0
        totals.ops += item.ops
        totals.failed += item.failed
        totals.msgs += item.msgs
        totals.op_s += item.op_s
        totals.encode_s += item.encode_s
        totals.decode_s += item.decode_s
        i += 1
        if seconds is None:
            if i == len(items):
                break
        elif time.perf_counter() - start >= seconds:
            break
    end = time.perf_counter()
    CALIBRATION.stop()
    return {
        "attempted": totals.ops,
        "failed": totals.failed,
        "msgs": totals.msgs,
        "busy_s": sum(totals.op_s),
        "cal_s": CALIBRATION.samples,
        "loop_s": end - start,
        "wall_s": end - T0,
        "encode_s": totals.encode_s,
        "decode_s": totals.decode_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def digests(workload: str, slots: int) -> dict:
    out = {}
    for slot in range(slots if workload != "exhaustive" else 1):
        out[str(slot)] = [item().hash.hexdigest() for item in pass_items(workload, slot)]
    return out


def median_call_s(fn, args_list, budget_s: float) -> float:
    """Median seconds per call, cycling through args_list for budget_s."""
    times = []
    end = time.perf_counter() + budget_s
    i = 0
    while time.perf_counter() < end or len(times) < 5:
        args = args_list[i % len(args_list)]
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
        i += 1
    return statistics.median(times)


def micro() -> dict:
    rng = random.Random(7)
    out = {}
    alphabet = core.Alphabet(4)
    for n in (50, 200, 2000):
        seqs = [
            core.Sequence(alphabet, tuple(rng.choices(range(4), weights=PMF, k=n)))
            for _ in range(20)
        ]
        ranked = [(core.composition_of(s), combinatorics.rank_in_class(s)) for s in seqs]
        out[f"combinatorics.rank_in_class.us_N{n}"] = 1e6 * median_call_s(
            combinatorics.rank_in_class, [(s,) for s in seqs], 0.3
        )
        out[f"combinatorics.unrank_in_class.us_N{n}"] = 1e6 * median_call_s(
            combinatorics.unrank_in_class, ranked, 0.3
        )

    # codeword-like chunks of 1..3 bits, as the Huffman coder writes them
    widths = rng.choices((1, 2, 3), weights=(6, 2, 2), k=100_000)
    values = [rng.getrandbits(w) for w in widths]
    bits = sum(widths)
    write_ns, read_ns = [], []
    for _ in range(5):
        writer = bitio.BitWriter()
        t0 = time.perf_counter_ns()
        for v, w in zip(values, widths):
            writer.write(v, w)
        write_ns.append((time.perf_counter_ns() - t0) / bits)
        reader = bitio.BitReader(writer.getvalue())
        t0 = time.perf_counter_ns()
        for w in widths:
            reader.read(w)
        read_ns.append((time.perf_counter_ns() - t0) / bits)
    out["bitio.write_ns_per_bit"] = statistics.median(write_ns)
    out["bitio.read_ns_per_bit"] = statistics.median(read_ns)

    # getvalue on 2-bit chunks (a uniform 4-symbol Huffman payload)
    for kbits in (200, 800):
        writer = bitio.BitWriter()
        for _ in range(kbits * 500):
            writer.write(rng.getrandbits(2), 2)
        t0 = time.perf_counter()
        writer.getvalue()
        out[f"bitio.getvalue.ms_{kbits}k"] = 1e3 * (time.perf_counter() - t0)

    out["cli.build_parser.ms"] = 1e3 * median_call_s(cli.build_parser, [()], 0.3)
    return out


def memory() -> dict:
    """Retained memory of the workload's first ordering (its message length)."""
    import tracemalloc

    n, size = ORDERINGS[WORKLOAD][0]
    tracemalloc.start()
    ordering = combinatorics.class_ordering(n, core.Alphabet(size))
    retained, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del ordering
    return {"combinatorics.class_ordering.retained_mib": retained / 2**20}


def main() -> dict:
    if MODE == "run":
        return measure(WORKLOAD, SLOT, SECONDS)
    if MODE == "fixed":
        return measure(WORKLOAD, SLOT, None)
    if MODE == "traced":
        result = measure(WORKLOAD, SLOT, None)
        result["layers"] = TRACER.metrics(result["wall_s"])
        return result
    if MODE == "digests":
        return {"digests": digests(WORKLOAD, SLOT)}
    if MODE == "micro":
        return micro()
    if MODE == "memory":
        return memory()
    raise SystemExit(f"unknown mode {MODE!r}")


result = main()
result["program"] = os.path.dirname(setshaping.__file__)
print(json.dumps(result))
