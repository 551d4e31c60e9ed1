"""Record the reference digests of every workload's outputs.

    python3 bench/golden.py        (from the root of a checkout)

Writes bench/golden.json: for each workload and input slot, the sha256 of
each pass item's outputs (report bytes for exhaustive and sample; container
bytes and decoded text for codec and bulk). Record only from a commit whose
outputs are the reference; run.py then counts any difference as a failure.
"""
import json
import os
import sys
import time

from run import HERE, SLOTS, WORKLOADS, spawn, worker_env

if __name__ == "__main__":
    env = worker_env(os.path.join(os.getcwd(), "src"))
    golden = {}
    for workload in WORKLOADS:
        _, res = spawn("digests", workload, SLOTS, 0, time.perf_counter() + 900, env)
        golden[workload] = res["digests"]
        print(workload, "recorded", file=sys.stderr)
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
