"""Benchmark of the setshaping toolkit; run from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each exists: bench/NOTES.md):
  exhaustive  cli.main exhaustive -n 10 -a 3 -k 1 --scheme both: 59,049 messages
  sample      cli.main sample -n 20 -a 4 --samples 20000, skewed pmf, seeded
  codec       2,000 shaped round trips of seeded skewed N=100, |A|=4 messages
  bulk        8 plain round trips of seeded 100k-symbol |A|=4 messages
  all         every workload above, one after the other

Each workload runs in a fresh interpreter (bench/worker.py), one process,
--jobs 1, as a closed loop with one client. Every output is checked against
the reference digests in bench/golden.json; a failed or mismatching
operation counts in error_rate and makes the exit code 1.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, measured in
SETUPS fresh processes that each set up and then measure a share of
--seconds; set-up time is their median. --trace 1 prints the per-layer
metrics: one pass untraced, the same pass traced, then a micro pass (once
per invocation) and a memory pass, each in its own process. The last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"}; the
lines before it give every metric by name and unit, and the environment.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("exhaustive", "sample", "codec", "bulk")
SLOTS = 16  # input sets with reference digests; a seed picks seed % SLOTS
SETUPS = 3  # fresh measuring processes per untraced run
DEADLINE_S = 170.0  # one workload, every child included
MAX_RUN_SECONDS = 60
# msgs_per_ref_s scales each process's operation time by CAL_REF_S over the
# mean of its calibration samples (worker.Calibration): throughput on a host
# where one worker.calibrate() call takes CAL_REF_S, about the fast state of
# the 2-vCPU Xeon VM in NOTES.md. The host's drift between runs cancels out.
CAL_REF_S = 0.005


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, a child crashed)."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def spawn(mode: str, workload: str, slot: int, seconds: float, deadline: float,
          env: dict) -> tuple[float, dict | None]:
    """Run one worker; return (spawn-to-ready seconds, its JSON result)."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError(f"out of time before {mode} {workload}")
    cmd = [sys.executable, WORKER, mode, workload, str(slot), str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest, err = proc.communicate()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(
            f"worker {mode} {workload} exited with {proc.returncode}: {err.strip()[-2000:]}"
        )
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def untraced(workload: str, slot: int, seconds: float, deadline: float, env: dict) -> dict:
    """SETUPS fresh processes share the measuring time, so one run averages
    over several process layouts and set-ups. Each gets an equal share of
    what is left; each runs at least one item."""
    setup, runs = [], []
    measured = 0.0
    for k in range(SETUPS):
        share = max(0.0, seconds - measured) / (SETUPS - k)
        ready_s, res = spawn("run", workload, slot, share, deadline, env)
        setup.append(ready_s)
        runs.append(res)
        measured += res["loop_s"]
    joined = {key: [x for r in runs for x in r[key]] for key in ("encode_s", "decode_s")}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    msgs = sum(r["msgs"] for r in runs)
    shown = {
        "setup_s": (statistics.median(setup), "s"),
        "msgs_per_ref_s": (msgs / sum(r["busy_s"] * CAL_REF_S / statistics.mean(r["cal_s"])
                                      for r in runs), "1/s"),
        "msgs_per_s": (msgs / sum(r["busy_s"] for r in runs), "1/s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in runs), "MiB"),
        "error_rate": (failed / attempted, "ratio"),
    }
    for direction in ("encode", "decode"):
        times = joined[f"{direction}_s"]
        if times:
            shown[f"{direction}_p50_ms"] = (1e3 * statistics.median(times), "ms")
        if len(times) >= 1000:
            shown[f"{direction}_p99_ms"] = (1e3 * percentile(times, 99), "ms")
    notes = {"setup_runs_s": setup, "program": runs[0]["program"],
             "calibrate_mean_s": [statistics.mean(r["cal_s"]) for r in runs]}
    return {"attempted": attempted, "failed": failed, "shown": shown, "notes": notes}


# The micro pass does not depend on the workload, and the memory pass builds
# the workload's own first ordering. Each of their figures is reported only on
# workloads whose trace shows a call of what it times (one of these span
# counts > 0); elsewhere it reads 0, like the calls of an unused layer.
USED_IF = {
    "combinatorics.rank_in_class.us_N": ("combinatorics.rank_sequence.calls",),
    "combinatorics.unrank_in_class.us_N": ("combinatorics.unrank_sequence.calls",),
    "bitio.getvalue.ms_": ("bitio.getvalue.calls",),
    "bitio.write_ns_per_bit": ("bitio.getvalue.calls",),
    "bitio.read_ns_per_bit": ("coding.decode.calls", "coding.deserialize_scheme.calls"),
    "cli.build_parser.ms": ("cli.build_parser.calls",),
    "combinatorics.class_ordering.retained_mib": ("combinatorics.class_ordering.calls",),
}
MICRO: dict = {}  # the micro pass, run once per invocation


def traced(workload: str, slot: int, deadline: float, env: dict) -> dict:
    _, plain = spawn("fixed", workload, slot, 0, deadline, env)
    _, res = spawn("traced", workload, slot, 0, deadline, env)
    layers = dict(res["layers"])
    if not MICRO:
        MICRO.update(spawn("micro", workload, slot, 0, deadline, env)[1])
    extra = dict(MICRO, **{"combinatorics.class_ordering.retained_mib": 0.0})
    if layers["combinatorics.class_ordering.calls"]:
        extra.update(spawn("memory", workload, slot, 0, deadline, env)[1])
    del extra["program"]
    for name, value in extra.items():
        spans = next(v for k, v in USED_IF.items() if name.startswith(k))
        layers[name] = value if any(layers[s] for s in spans) else 0.0
    layers["trace.overhead_ratio"] = res["wall_s"] / plain["wall_s"]
    attempted = plain["attempted"] + res["attempted"]
    failed = plain["failed"] + res["failed"]
    notes = {"untraced_wall_s": plain["wall_s"], "program": res["program"]}
    return {"attempted": attempted, "failed": failed, "layers": layers, "notes": notes}


def git_commit(root: str) -> str | None:
    """HEAD of the checkout when it is a git work tree; git looks no higher."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def worker_env(src: str, corrupt_reference: bool = False) -> dict:
    """Environment of every worker: the program in SRC, fixed string hashing,
    no bytecode written into the checkout."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("BENCH_CORRUPT_REFERENCE", None)
    if corrupt_reference:
        env["BENCH_CORRUPT_REFERENCE"] = "1"
    return env


def source_digest(src: str) -> str:
    """sha256 over the program's source files, path and content, sorted."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def bench_one(workload: str, args, spec: dict, env: dict) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    slot = 0 if workload == "exhaustive" else args.seed % SLOTS
    if args.trace:
        res = traced(workload, slot, deadline, env)
        wanted = spec["per_layer"]
        values = res["layers"]
    else:
        res = untraced(workload, slot, args.seconds, deadline, env)
        wanted = spec["end_to_end"]
        values = {k: v for k, (v, _unit) in res["shown"].items()}
        for name, (value, unit) in res["shown"].items():
            print(f"{workload:<11} {name:<16} {value:>14.6g} {unit}")
    program = res["notes"]["program"]
    if os.path.realpath(program) != os.path.realpath(os.path.join("src", "setshaping")):
        raise BenchError(f"measured {program}, not the checkout's src/setshaping")
    res["notes"]["program"] = os.path.relpath(program)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name, entry in metrics.items():
            print(f"{workload:<11} {name:<50} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({"workload": workload, "slot": slot, "attempted": res["attempted"],
                      "failed": res["failed"], **res["notes"]}))
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-reference", action="store_true",
        help="alter every reference digest, to show that the check fails",
    )
    args = parser.parse_args()
    root = os.getcwd()
    src = os.path.join(root, "src")
    try:
        if not os.path.isfile(os.path.join(src, "setshaping", "__init__.py")):
            raise BenchError(f"no program at {os.path.join(src, 'setshaping')}")
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.seed < 0 or not 1 <= args.seconds <= MAX_RUN_SECONDS:
            parser.error(f"need --seed >= 0 and 1 <= --seconds <= {MAX_RUN_SECONDS}")
        env = worker_env(src, args.corrupt_reference)
        print(json.dumps({"env": {
            "commit": git_commit(root),
            "src_sha256": source_digest(src),
            "python": sys.version.split()[0],
            "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        }}))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: bench_one(w, args, spec, env) for w in workloads}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
