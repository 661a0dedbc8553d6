"""Benchmark of the morphfit CLI: three workloads, end-to-end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each in turn.
Run from anywhere; the program is imported from `src/` of the checkout that
holds this file, and all files are written under `.bench_work/` there.

One run:
  1. set-up, in fresh worker processes (at least three times with --trace 0,
     see SETUPS; once with --trace 1), each timed from process start to exit:
     interpreter start, `import morphfit.cli` and the input generation;
  2. passes, in one more fresh worker process, for S seconds. With --trace 0
     every pass runs the program alone; with --trace 1 untraced and traced
     passes alternate, so the tracing overhead is measured in the same run.

It prints a table per workload and a line of machine information, then as
its last line one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1). An operation is one
CLI call of a pass; it fails when it does not exit 0 or when its artifacts
differ from those of the run's first pass.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from metrics import COMPUTED, END_TO_END, EXACT, GUARDS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
# Set-up repeats: at least 3, then more until 5 s of set-up, at most 15.
# The cheap set-ups get more samples, so their median is steadier.
SETUPS = (3, 5.0, 15)
BUDGET_S = 170.0   # every run, set-up included, must end within this
# Steadiness: one BLAS/OpenMP thread, so idle BLAS threads do not spin and
# CPU time is not charged twice; a fixed hash seed for every child.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ, **CHILD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _worker(mode: str, cwd: str, deadline: float, *args: str) -> dict:
    """Run worker.py in a fresh process; returns its result plus `wall_s`."""
    result = os.path.join(cwd, f".{mode}.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode,
            "--result", result, *args]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(),
                            stdout=subprocess.DEVNULL)
    # A blocking wait returns as soon as the child exits. `wait(timeout)`
    # polls in steps of up to 50 ms, which would show in `setup_s`.
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:   # interrupted: do not leave the child behind
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - started
    if code < 0:
        raise BenchError(f"{mode} worker ran out of time or was killed")
    if code != 0:
        raise BenchError(f"{mode} worker exited {code}")
    with open(result) as handle:
        out = json.load(handle)
    os.remove(result)
    out["wall_s"] = wall
    return out


def _round(seconds):
    return None if seconds is None else round(seconds, 3)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _described(values: dict, specs) -> dict:
    """Values with their unit and direction, in the order of `specs`."""
    return {name: {"value": values[name], "unit": unit, "better": better}
            for name, unit, better in specs if name in values}


def _enough_setups(setups: list, trace: bool) -> bool:
    if trace:
        return len(setups) >= 1
    least, seconds, most = SETUPS
    return len(setups) >= most or (
        len(setups) >= least and sum(s["wall_s"] for s in setups) >= seconds)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool, deadline: float) -> dict:
    workload = WORKLOADS[name]
    work = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", name, "--seed", str(seed)] + (
        ["--tiny"] if tiny else [])
    try:
        setups = []
        while not _enough_setups(setups, trace):
            directory = os.path.join(work, f"setup{len(setups)}")
            os.makedirs(directory)
            setups.append(_worker("setup", directory, deadline, *common))
            if any(c["code"] != 0 for c in setups[-1]["calls"]):
                raise BenchError(f"set-up call failed: {setups[-1]['calls']}")
            if len(setups) > 1:
                shutil.rmtree(directory)
        pass_dir = os.path.join(work, "pass")
        os.makedirs(pass_dir)
        os.rename(os.path.join(work, "setup0"),
                  os.path.join(pass_dir, "inputs"))
        run = _worker("passes", pass_dir, deadline, *common,
                      "--seconds", str(seconds), "--trace", str(int(trace)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:   # another run is using it
            pass
    return summarize(workload, setups, run, trace)


def summarize(workload, setups: list, run: dict, trace: bool) -> dict:
    passes = run["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    calls = [c for p in passes for c in p["calls"]]
    failed = sum(not c["ok"] for c in calls)
    problems = [f"{failed} failed operations"] if failed else []
    digests = [[c["digest"] for c in s["calls"]] for s in setups]
    if any(d != digests[0] for d in digests):
        problems.append("set-up artifacts differ between set-ups")
    results = run["results"] or {}
    if not results:
        problems.append("no result guards: the first pass failed")
    for key, value in results.items():
        if not (math.isfinite(value) and value > 0
                and (key not in ("auc", "rank1") or value <= 1)):
            problems.append(f"result {key}={value} out of range")

    def command_s(command):
        return _median(sum(c["s"] for c in p["calls"]
                           if c["command"] == command) for p in plain)

    # Stage times and result guards: per-layer metrics in BENCHMARK.json,
    # because not every workload has them; with --trace 0 they are printed
    # in the table but left out of the JSON result.
    stages = {"cli.gen_data_s": command_s("gen-data"),
              "cli.fit_s": command_s("fit"),
              **{f"result.{key}": results.get(key, 0.0) for key in GUARDS}}
    if trace:
        metrics = {}
        for name, _unit, _better in PER_LAYER:
            values = [p["layers"][name] for p in traced if name in p["layers"]]
            if name in EXACT and len(set(values)) > 1:
                problems.append(f"{name} differs between traced passes: "
                                f"{values}")
            if values:
                metrics[name] = _median(values)
        metrics["cli.import_s"] = run["import_s"]
        # the first pass is untraced and pays the process's first calls
        metrics["trace.overhead_s"] = (
            _median(p["wall_s"] for p in traced)
            - _median(p["wall_s"] for p in plain[1:] or plain))
        metrics.update(stages)
        specs = PER_LAYER
    else:
        metrics = {
            "pass_s": _median(p["wall_s"] for p in plain),
            "cpu_s": _median(p["cpu_s"] for p in plain),
            "setup_s": _median(s["wall_s"] for s in setups),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        specs = END_TO_END
    return {
        "workload": workload.name,
        "correct": not problems, "problems": problems,
        "attempted": len(calls), "failed": failed,
        "passes": len(plain), "traced_passes": len(traced),
        "walls": [(p["wall_s"], p["traced"]) for p in passes],
        "results": results,
        "metrics": _described(metrics, specs),
        "stages": {} if trace else _described(
            {name: value for name, value in stages.items() if value},
            PER_LAYER),
        "setup_walls": [s["wall_s"] for s in setups],
        "steal_s": {"setup": [_round(s["steal_s"]) for s in setups],
                    "passes": [_round(p["steal_s"]) for p in passes]},
        "numpy": run["numpy"], "blas": run["blas"],
    }


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return ""


def machine_info(summary: dict) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        caches[f"L{level} {kind}"] = _read(os.path.join(index, "size"))
    return {"cpu": model, "cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "caches": caches, "python": platform.python_version(),
            "numpy": summary["numpy"], "blas": summary["blas"],
            "child_env": CHILD_ENV, "steal_s": summary["steal_s"]}


def report(summary: dict) -> None:
    print(f"# {summary['workload']}: passes={summary['passes']} "
          f"traced={summary['traced_passes']} "
          f"attempted={summary['attempted']} failed={summary['failed']} "
          f"correct={summary['correct']}")
    for problem in summary["problems"]:
        print(f"#   problem: {problem}")
    rows = [*summary["metrics"].items(), *summary["stages"].items()]
    for name, m in rows:
        note = ("; computed" if name in COMPUTED else
                "; this workload only" if name in summary["stages"] else "")
        print(f"{summary['workload']:16s} {name:44s} {m['value']:>16.6g} "
              f"{m['unit']:6s} ({m['better']} is better{note})")
    print("# set-up wall s: " + " ".join(
        f"{w:.3f}" for w in summary["setup_walls"]))
    print("# pass wall s: " + " ".join(
        f"{w:.3f}{'t' if traced else ''}" for w, traced in summary["walls"]))
    print("# results: " + json.dumps(summary["results"]))
    print("# machine: " + json.dumps(machine_info(summary)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every dataset (harness smoke test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "morphfit", "cli.py")):
        print(f"error: no morphfit sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        deadline = time.monotonic() + BUDGET_S
        try:
            summaries.append(run_workload(name, args.seed, args.seconds,
                                          bool(args.trace), args.tiny,
                                          deadline))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(summaries[-1])
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else f"{s['workload']}."
        for name, m in s["metrics"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": all(s["correct"] for s in summaries),
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": sum(s["failed"] for s in summaries),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
