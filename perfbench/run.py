"""The repository benchmark: one command, three workloads, checked answers.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload offline|read-mixed|churn \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that prints every per-layer
metric (0 for a layer the workload does not exercise; the layer map is
``perfbench/interaction_map.json``) and the tracing's own overhead.
Both check every answer the program gives. The report lines before the
last one name each metric the way a reader of the workload knows it,
with unit and sample count, followed by the run's provenance: seed,
SHA-256 of every generated input, the source identity and a machine
fingerprint. The last line is one JSON object for the harness.

The run fails (non-zero exit, no result) when the checkout holds no
program, and a watchdog bounds it even if a deployment wedges.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (BENCH_DIR, ROOT, SRC, Metric, child_env,  # noqa: E402
                    import_program, run_cleanups, work_path)

WORKLOADS = ("offline", "read-mixed", "churn")
WATCHDOG_S = 170


class Watchdog(Exception):
    pass


def _on_alarm(signum, frame):
    raise Watchdog(f"run exceeded {WATCHDOG_S} s")


def source_identity() -> dict:
    """The git commit when there is one, and always a digest of src/."""
    ident = {}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            ident["git_commit"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            ident["git_commit"] = None
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    ident["src_sha256"] = h.hexdigest()
    return ident


def cpu_times():
    """Aggregate CPU tick counters (``/proc/stat``), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to other guests meanwhile:
    a run that saw much of it measured a busier machine."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return round(100.0 * delta[7] / max(1, sum(delta)), 2)


def machine() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def _layer_map():
    with open(os.path.join(BENCH_DIR, "interaction_map.json")) as f:
        return json.load(f)["per_layer"]


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import_program()
    env = child_env()
    if name == "offline":
        import offline

        return offline.run(seed, seconds, trace, env)
    import serving

    fn = serving.read_mixed if name == "read-mixed" else serving.churn
    return asyncio.run(fn(seed, seconds, trace, env))


def _fmt(metric: Metric) -> str:
    note = f"  [{metric.note}]" if metric.note else ""
    return f"{metric.value:.6g} {metric.unit} (n={metric.samples}){note}"


def report(args, out, elapsed: float, steal) -> dict:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds}"
          f" trace={args.trace} wall={elapsed:.1f}s")
    for label, metric in out.report:
        print(f"  {label:<28} {_fmt(metric)}")
    if args.trace:
        layer_map = _layer_map()
        for name in layer_map:
            if name in out.layers:
                print(f"  layer {name:<34} {_fmt(out.layers[name])}")
        missing = [n for n in layer_map if n not in out.layers]
        if missing:
            print(f"  layers not exercised by {args.workload} (reported as 0):"
                  f" {', '.join(missing)}")
    for p in out.problems:
        print(f"  CHECK FAILED: {p}")
    for p in out.invalid:
        print(f"  INVALID: {p}")
    for n in out.notes:
        print(f"  NOTE: {n}")
    prov = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "inputs_sha256": out.digests, "source": source_identity(),
            "machine": dict(machine(), steal_pct=steal)}
    print("provenance " + json.dumps(prov, sort_keys=True))
    return prov


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)
    t0 = time.perf_counter()
    ticks = cpu_times()
    try:
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except Exception:  # any failure: no result, and nothing left running
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        run_cleanups()
    prov = report(args, out, time.perf_counter() - t0,
                  steal_pct(ticks, cpu_times()))
    if args.trace:
        metrics = {name: {"value": out.layers[name].value
                          if name in out.layers else 0.0,
                          "unit": spec["unit"]}
                   for name, spec in _layer_map().items()}
    else:
        metrics = {name: {"value": m.value, "unit": m.unit}
                   for name, m in out.e2e.items()}
    result = {"correct": not out.problems, "attempted": out.attempted,
              "failed": out.failed, "metrics": metrics}
    with open(work_path("results", f"{args.workload}-{args.seed}-"
                        f"trace{args.trace}.json"), "w") as f:
        json.dump({"result": result, "provenance": prov,
                   "report": {k: {"value": m.value, "unit": m.unit,
                                  "samples": m.samples}
                              for k, m in out.report}}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
