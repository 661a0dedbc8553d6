"""Child process of the benchmark: runs set-up calls or timed passes.

    worker.py setup  --workload W --seed N [--tiny] --result FILE
    worker.py passes --workload W --seed N --seconds S --trace 0|1 [--tiny]
                     --result FILE

Run from the directory the CLI calls should write into, with `src` on
PYTHONPATH. `setup` runs the workload's set-up calls once. `passes` repeats
the workload's pass while another pass should still end within S seconds
(at least once); with --trace 1 it alternates untraced and traced passes,
at least three of them. Every pass's artifacts are compared
byte for byte with the first pass's. The result goes to FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import_started = time.perf_counter()
import morphfit.cli  # noqa: E402  (timed as cli.import_s)
IMPORT_S = time.perf_counter() - import_started

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from metrics import HOOKS, layer_values  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def steal_s() -> float | None:
    """Hypervisor steal time of the whole machine so far, from /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def digest(directory: str) -> str:
    """One hash over every file below `directory`: relative names and bytes."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as handle:
                h.update(handle.read())
            h.update(b"\0")
    return h.hexdigest()


def run_call(call, sink) -> tuple[int, float]:
    """One CLI call; returns (exit code, wall seconds). Exceptions count as 1."""
    started = time.perf_counter()
    stdout = sys.stdout
    sys.stdout = sink
    try:
        code = morphfit.cli.cli(list(call.argv))
    except Exception:  # the pass loop must go on and count the failure
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout = stdout
    return code, time.perf_counter() - started


def setup(workload, seed: int, tiny: bool) -> dict:
    calls = []
    steal0 = steal_s()
    with open(os.devnull, "w") as sink:
        for call in workload.setup_calls(seed, tiny):
            code, wall = run_call(call, sink)
            calls.append({"out": call.out, "command": call.command,
                          "code": code, "s": wall,
                          "digest": digest(call.out) if code == 0 else None})
            if code != 0:
                break
    steal1 = steal_s()
    return {"calls": calls,
            "steal_s": None if steal0 is None else steal1 - steal0}


def one_pass(calls, sink, tracer=None) -> dict:
    for top in sorted({c.out.split("/")[0] for c in calls}):
        shutil.rmtree(top, ignore_errors=True)
    steal0 = steal_s()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with tracer or contextlib.nullcontext():
        results = [run_call(c, sink) for c in calls]
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    steal1 = steal_s()
    return {"wall_s": wall, "cpu_s": cpu,
            "steal_s": None if steal0 is None else steal1 - steal0,
            "calls": [{"out": c.out, "command": c.command, "code": code,
                       "s": s, "digest": digest(c.out) if code == 0 else None}
                      for c, (code, s) in zip(calls, results)]}


def passes(workload, seed: int, seconds: float, trace: bool,
           tiny: bool) -> dict:
    calls = workload.pass_calls(seed, tiny)
    done = []
    results = None
    started = time.perf_counter()
    with open(os.devnull, "w") as sink:
        while True:
            traced = trace and len(done) % 2 == 1
            tracer = Tracer(HOOKS) if traced else None
            record = one_pass(calls, sink, tracer)
            record["traced"] = traced
            first = done[0]["calls"] if done else record["calls"]
            for call, reference in zip(record["calls"], first):
                call["ok"] = (call["code"] == 0
                              and call["digest"] == reference["digest"])
            if not done and all(c["ok"] for c in record["calls"]):
                results = workload.results(".")
            if tracer is not None:
                record["layers"] = layer_values(tracer.summary(),
                                                tracer.counters)
            done.append(record)
            if len(done) == 1:
                # later passes add allocator fragmentation, not program memory
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # start another pass only if it should end within `seconds`
            typical = statistics.median(p["wall_s"] for p in done)
            if (len(done) >= (3 if trace else 1) and
                    time.perf_counter() - started + typical > seconds):
                break
    return {"passes": done, "results": results, "import_s": IMPORT_S,
            "peak_rss_mb": peak_rss_mb,
            "numpy": np.__version__, "blas": _blas()}


def _blas() -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "passes"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(workload, args.seed, args.tiny)
    else:
        result = passes(workload, args.seed, args.seconds, bool(args.trace),
                        args.tiny)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
