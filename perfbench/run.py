"""The repository's benchmark: one workload per call, metrics as JSON.

    python3 perfbench/run.py --workload action-mini --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each call starts the workload in fresh
interpreters (``workloads.py``), each with its own empty aot artifact
cache, so nothing is carried over from an earlier run: set-up is a
cold start every time.  ``--trace 0`` sets the workload up several
times and times its untraced load once, then prints the end-to-end
metrics, with timings scaled to the reference speed (``reference.py``)
and the raw timings beside them.  ``--trace 1`` runs the workload with
wrappers around each layer instead and prints the per-layer metrics,
unscaled.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit.

The workloads, what each metric means on each of them, and which
end-to-end metric each per-layer metric should move are written down
in ``definition.json``; the unit tests of the benchmark's own
arithmetic run with ``python3 -m pytest perfbench``.

Exit status: 0 when every output matched the oracle, 1 when one did
not, 2 when the program sources are missing, 3 when a run stalled past
its cap (its stacks are printed to standard error) and 4 when a run
crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import percentile  # noqa: E402

WORKLOADS = ("action-mini", "shard-512", "serve-toy")

#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUPS = {"action-mini": 5, "shard-512": 3, "serve-toy": 5}

#: The whole call must end within this many seconds.
BUDGET_S = 170.0
SETUP_CAP_S = 40.0

#: Names the workload definition gives the generic latency metrics.
ALIASES = {
    "action-mini": {"latency_ms_p50": "action_ms_p50",
                    "latency_ms_p90": "action_ms_p90"},
    "shard-512": {"latency_ms_p50": "field_op_ms_p50",
                  "latency_ms_p90": "field_op_ms_p90"},
    "serve-toy": {"latency_ms_p50": "request_ms_p50",
                  "latency_ms_p90": "request_ms_p90"},
}


class RunFailed(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def spawn(args, scratch: Path, index: int, mode: str,
          deadline: float, cap: float) -> dict:
    """One workload process; returns its result with ``setup_s``."""
    cache = scratch / f"aot-{index}"
    cache.mkdir()
    out = scratch / f"result-{index}.json"
    err_path = scratch / f"stderr-{index}.txt"
    cap = min(cap, deadline - time.monotonic() - 5)
    if cap < 5:
        raise RunFailed(3, f"no time left for the {mode} run")
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--out", str(out), "--cap", f"{cap:.1f}",
    ]
    if mode == "trace":
        spans = ROOT / ".perfbench" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans / f"{args.workload}.jsonl.gz")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_AOT_CACHE=str(cache), PYTHONHASHSEED="0")
    with open(err_path, "wb") as err:
        started = time.monotonic()
        child = subprocess.Popen(command, cwd=ROOT, env=env,
                                 stdout=subprocess.DEVNULL, stderr=err,
                                 start_new_session=True)
        try:
            status = child.wait(timeout=cap + 5)
        except subprocess.TimeoutExpired:
            status = None
        finally:
            stop_group(child)
    stderr = err_path.read_text(errors="replace")
    if status is None or "Timeout (" in stderr:
        raise RunFailed(3, f"{args.workload} {mode} run stalled past "
                           f"{cap:.0f}s; its stacks:\n{stderr}")
    if status != 0:
        raise RunFailed(4, f"{args.workload} {mode} run exited with "
                           f"{status}:\n{stderr}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready"] - started
    return result


def stop_group(child: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group and wait."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    for _ in range(100):  # orphaned shard workers belong to init now
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def chunk_percentile(chunks, q: float, scaled: bool) -> float:
    """Median over the latency chunks of each chunk's *q*-th
    percentile in ms, scaled by the reference speed measured beside
    that chunk when *scaled*."""
    return statistics.median(
        1e3 * percentile(times, q) * (speed if scaled else 1.0)
        for times, speed in chunks)


def end_to_end(args, scratch: Path, deadline: float, units: dict):
    main = spawn(args, scratch, 0, "measure", deadline, BUDGET_S)
    setups = [main["setup_s"]]
    for index in range(1, SETUPS[args.workload]):
        setups.append(spawn(args, scratch, index, "setup", deadline,
                            SETUP_CAP_S)["setup_s"])
    setups.sort()
    chunks = main["latency_chunks"]
    raw = {
        "setup_s": setups[len(setups) // 2],
        "latency_ms_p50": chunk_percentile(chunks, 50, scaled=False),
        "latency_ms_p90": chunk_percentile(chunks, 90, scaled=False),
        "field_ops_per_s": main["field_ops_per_s"],
    }
    # timings at the reference speed (see reference.py), each scaled by
    # the speed measured while it was timed
    speed = main["speed"]
    metrics = {
        "setup_s": raw["setup_s"] * speed,
        "latency_ms_p50": chunk_percentile(chunks, 50, scaled=True),
        "latency_ms_p90": chunk_percentile(chunks, 90, scaled=True),
        "field_ops_per_s": raw["field_ops_per_s"] / speed,
        "sim_cycles_per_op": main["sim_cycles_per_op"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    extra = {f"raw.{name}": (value, units[name])
             for name, value in raw.items()}
    extra.update({
        "reference_speed": (speed, "x"),
        "samples": (sum(len(times) for times, _ in chunks), "count"),
        "setups": (len(setups), "count"),
        "failed_ratio": (main["failed"] / main["attempted"], "ratio"),
    })
    for name, alias in ALIASES[args.workload].items():
        extra[alias] = (metrics[name], units[name])
    if "exchanges_per_s" in main:
        extra["exchanges_per_s"] = (main["exchanges_per_s"] / speed,
                                    "ex/s")
        extra["admission_refusals"] = (main["refusals"], "count")
    return main, metrics, extra


def per_layer(args, scratch: Path, deadline: float, units: dict):
    main = spawn(args, scratch, 0, "trace", deadline, BUDGET_S)
    unknown = set(main["per_layer"]) - set(units)
    if unknown:
        raise RunFailed(4, f"measured {sorted(unknown)}, which "
                           f"BENCHMARK.json does not define")
    # a layer the workload never calls into reports 0
    metrics = {name: main["per_layer"].get(name, 0) for name in units}
    extra = {"failed_ratio": (main["failed"] / main["attempted"], "ratio")}
    return main, metrics, extra


def report(workload: str, main: dict, metrics: dict, extra: dict,
           units: dict) -> int:
    """Print the named metrics, then the result line; exit status."""
    print(f"{workload}  machine: nproc {os.cpu_count()}, "
          f"{platform.python_implementation()} "
          f"{platform.python_version()}")
    if set(metrics) != set(units):
        raise RunFailed(4, f"measured {sorted(metrics)}, but "
                           f"BENCHMARK.json defines {sorted(units)}")
    for name in units:
        print(f"{workload}  {name} = {metrics[name]:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"{workload}  {name} = {value:.6g} {unit}")
    correct = main["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run the "
              f"benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in definition[kind]}
    measure = per_layer if args.trace else end_to_end
    try:
        main_result, metrics, extra = measure(args, scratch, deadline,
                                              units)
        return report(args.workload, main_result, metrics, extra, units)
    except RunFailed as failure:
        kind = "stall" if failure.status == 3 else "crash"
        print(f"{args.workload}: run failed ({kind}): {failure}",
              file=sys.stderr)
        return failure.status
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
