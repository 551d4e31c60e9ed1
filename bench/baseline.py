"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/baseline.py --workloads codec bulk --seeds 1 2 3 4 5 [--out FILE]

For each workload, runs ``bench/run.py --trace 0`` once per seed (fresh
processes each time), then ``--trace 1`` once with the first seed. Per
end-to-end metric it records the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
next to the benchmark's bound. Prints the summary as JSON and, with
--out, writes it to FILE as well.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=240)
    took = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    env = next(json.loads(l)["env"] for l in lines if l.startswith('{"env"'))
    return {"result": json.loads(lines[-1]), "env": env, "took_s": took}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run(workload, seed, spec["run_seconds"], 0) for seed in args.seeds]
        entry = {
            "env": runs[0]["env"],
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "run_s": [round(r["took_s"], 1) for r in runs],
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][name] = {
                "unit": runs[0]["result"]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
                "bound": bound,
                "values": values,
            }
        traced = run(workload, args.seeds[0], spec["run_seconds"], 1)
        entry["per_layer_seed"] = args.seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        summary["workloads"][workload] = entry
        print(workload, json.dumps({k: round(v["spread"], 4) for k, v in entry["end_to_end"].items()}),
              "run_s", entry["run_s"], file=sys.stderr, flush=True)
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(text)


if __name__ == "__main__":
    main()
