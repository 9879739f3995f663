"""The ``offline`` workload: cold pipeline calls in a single process.

For each seeded graph (random, power_law, grid, backbone D=16 and
backbone D=2048, all n=16384 with 2n non-tree edges) the job runner
calls ``verify_mst`` on the MST input, ``verify_mst`` on a perturbed
non-MST copy and ``mst_sensitivity`` — local engine, planner on, no
artifact store, a fresh runtime per call. Nothing in ``service`` runs.

The runner is a child process (this file run as a script) so its
start-up cost and peak memory are measured from outside: ``setup_s`` is
launch to the end of a small warm-up run. The parent checks every
verdict and sensitivity array against ``repro.baselines`` bit for bit.

With tracing on, the runner repeats the pass with every ``Stage.run``
wrapped by a timer, on a runtime it owns, and reads the runtime's
``wall_profile()``, the planner log and the ``CostReport``.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from typing import Dict, List

import numpy as np

from common import Metric, Outcome, median, on_cleanup

SHAPES = ("random", "power_law", "grid", "backbone16", "backbone2048")
N = 16384
WARMUP_N = 1024
SETUPS = 3
PRIMITIVES = ("sort", "scan", "lookup", "predecessor", "reduce", "filter",
              "scalar")
READY_TIMEOUT_S = 60.0
PASS_TIMEOUT_S = 120.0


# -- runner (child) ----------------------------------------------------------------


class StageTimer:
    """Wraps each stage instance's ``run`` to accumulate wall time."""

    def __init__(self, stages):
        self.wall: Dict[str, float] = {s.name: 0.0 for s in stages}
        self._stages = stages
        for stage in stages:
            stage.run = self._wrap(stage.name, stage.run)

    def _wrap(self, name, fn):
        def run(ctx):
            t = time.perf_counter()
            try:
                return fn(ctx)
            finally:
                self.wall[name] += time.perf_counter() - t
        return run

    def remove(self) -> None:
        for stage in self._stages:
            del stage.run


def _traced_call(fn, graph, acc: Dict) -> tuple:
    """One call on a runtime the benchmark owns, so its profile is readable."""
    from repro.mpc import make_runtime

    rt = make_runtime("local")
    t = time.perf_counter()
    result = fn(graph, runtime=rt)
    wall = time.perf_counter() - t
    for prim, calls, secs in rt.tracker.wall_profile():
        c, s = acc["prims"].get(prim, (0, 0.0))
        acc["prims"][prim] = (c + calls, s + secs)
    for counter, value in rt.planner.log.totals().items():
        acc["plan"][counter] = acc["plan"].get(counter, 0) + value
    acc["rounds"] += int(result.report.rounds_total)
    acc["peak_words"] = max(acc["peak_words"],
                            int(result.report.peak_global_words))
    return result, wall


def _run_pass(paths: List[str], out_dir: str, trace: bool) -> Dict:
    from repro import mst_sensitivity, verify_mst
    from repro.pipeline import SENSITIVITY_STAGES

    from inputs import load_graph

    calls = []
    acc = {"prims": {}, "plan": {}, "rounds": 0, "peak_words": 0}
    timer = StageTimer(SENSITIVITY_STAGES) if trace else None
    try:
        for i, path in enumerate(paths):
            graph = load_graph(path)
            with np.load(path) as z:
                broken = graph.with_weights(z["broken_w"])
            for kind, g, fn in (("verify", graph, verify_mst),
                                ("verify-broken", broken, verify_mst),
                                ("sensitivity", graph, mst_sensitivity)):
                if trace:
                    result, wall = _traced_call(fn, g, acc)
                else:
                    t = time.perf_counter()
                    result = fn(g)
                    wall = time.perf_counter() - t
                row = {"graph": i, "kind": kind, "wall_s": wall, "m": int(g.m)}
                if kind == "sensitivity":
                    row["sens"] = os.path.join(out_dir, f"sens-{i}.npy")
                    np.save(row["sens"], result.sensitivity)
                else:
                    row["is_mst"] = bool(result.is_mst)
                calls.append(row)
    finally:
        if timer is not None:
            timer.remove()
    out = {"calls": calls}
    if trace:
        out.update(stage_wall=timer.wall, prims=acc["prims"], plan=acc["plan"],
                   rounds=acc["rounds"], peak_words=acc["peak_words"])
    return out


def runner_main() -> int:
    from common import import_program

    import_program()
    from repro import mst_sensitivity, verify_mst
    from repro.graph.generators import known_mst_instance

    warm, _ = known_mst_instance("random", WARMUP_N, 2 * WARMUP_N, rng=0)
    verify_mst(warm)
    mst_sensitivity(warm)
    print(json.dumps({"event": "ready"}), flush=True)
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "exit":
            return 0
        reply = _run_pass(cmd["graphs"], cmd["out_dir"], cmd["trace"])
        print(json.dumps(reply), flush=True)
    return 0


# -- parent side ---------------------------------------------------------------------


class Runner:
    """The job-runner child: launched, timed to ready, fed passes."""

    def __init__(self, env):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        self.lines: "queue.Queue" = queue.Queue()

        def pump():
            for raw in self.proc.stdout:
                self.lines.put(raw)
            self.lines.put(None)

        threading.Thread(target=pump, daemon=True).start()
        on_cleanup(lambda: self.close(force=True))
        self._reply(READY_TIMEOUT_S)
        self.setup_s = time.perf_counter() - self.t0

    def _reply(self, timeout_s: float) -> Dict:
        try:
            raw = self.lines.get(timeout=timeout_s)
        except queue.Empty:
            self.close(force=True)
            raise RuntimeError("offline runner timed out")
        if raw is None:
            raise RuntimeError(f"offline runner exited ({self.proc.wait()})")
        return json.loads(raw)

    def run_pass(self, paths: List[str], out_dir: str, trace: bool) -> Dict:
        self.proc.stdin.write((json.dumps({"cmd": "run", "graphs": paths,
                                           "out_dir": out_dir,
                                           "trace": trace}) + "\n").encode())
        self.proc.stdin.flush()
        return self._reply(PASS_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def close(self, force: bool = False) -> None:
        if self.proc.poll() is None and not force:
            try:
                self.proc.stdin.write(b'{"cmd": "exit"}\n')
                self.proc.stdin.flush()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


def make_inputs(seed: int):
    """Graphs + perturbed weights, written for the runner; with digests."""
    from repro import perturb_break_mst

    from common import fresh_dir
    from inputs import graph_digest, make_graph, rng_for

    gdir = fresh_dir("offline")
    graphs, paths, digests = [], [], {}
    for i, shape in enumerate(SHAPES):
        rng = rng_for(seed, 0, i)
        g = make_graph(shape, N, rng)
        broken = perturb_break_mst(g, rng)
        path = os.path.join(gdir, f"{shape}.npz")
        np.savez(path, n=np.array([g.n]), u=g.u, v=g.v, w=g.w,
                 tree_mask=g.tree_mask, broken_w=broken.w)
        graphs.append((g, broken))
        paths.append(path)
        digests[f"offline/{shape}"] = graph_digest(g)
        digests[f"offline/{shape}-broken"] = graph_digest(broken)
    return graphs, paths, digests, gdir


def expected(graphs):
    """Sequential reference answers (``repro.baselines``)."""
    from repro.baselines.seq_sensitivity import sequential_sensitivity
    from repro.baselines.seq_verify import verify_by_pathmax

    return [(verify_by_pathmax(g), verify_by_pathmax(b),
             sequential_sensitivity(g).sensitivity) for g, b in graphs]


def check(reply: Dict, refs) -> List[str]:
    """Every call's answer against the baselines; returns mismatches."""
    bad = []
    for row in reply["calls"]:
        ok_mst, ok_broken, sens = refs[row["graph"]]
        if row["kind"] == "verify" and row["is_mst"] != ok_mst:
            bad.append(f"graph {row['graph']}: verify_mst says {row['is_mst']}")
        elif row["kind"] == "verify-broken" and row["is_mst"] != ok_broken:
            bad.append(f"graph {row['graph']}: perturbed copy verified as MST")
        elif row["kind"] == "sensitivity":
            got = np.load(row["sens"])
            if not np.array_equal(got, sens):
                bad.append(f"graph {row['graph']}: sensitivity differs in "
                           f"{int(np.sum(got != sens))} edges")
    return bad


def run(seed: int, seconds: float, trace: bool, env) -> Outcome:
    out = Outcome()
    graphs, paths, out.digests, gdir = make_inputs(seed)
    refs = expected(graphs)
    setups = []
    for _ in range(SETUPS):
        runner = Runner(env)
        setups.append(runner.setup_s)
        if len(setups) < SETUPS:
            runner.close()
    # whole passes only (every shape weighs the same), as many as fit
    # the measuring time best
    t0 = time.perf_counter()
    replies = [runner.run_pass(paths, gdir, trace=False)]
    passes = max(1, round(seconds / (time.perf_counter() - t0)))
    replies += [runner.run_pass(paths, gdir, trace=False)
                for _ in range(passes - 1)]
    traced = runner.run_pass(paths, gdir, trace=True) if trace else None
    rss = runner.peak_rss_mb()
    runner.close()

    calls = [row for reply in replies for row in reply["calls"]]
    for reply in replies + ([traced] if traced else []):
        out.problems.extend(check(reply, refs))
    out.attempted = len(calls)
    out.failed = min(len(out.problems), len(calls))
    ver = [r for r in calls if r["kind"] != "sensitivity"]
    sen = [r for r in calls if r["kind"] == "sensitivity"]

    def worst_shape_ms(rows):
        return max(median([r["wall_s"] for r in rows if r["graph"] == i])
                   for i in range(len(SHAPES))) * 1e3

    def edges_per_s(rows):
        return sum(r["m"] for r in rows) / sum(r["wall_s"] for r in rows)

    def mean_ms(rows):
        # a mean, not a median: the five shapes' calls form five clusters
        # and a median would report whichever one it happens to land in
        return 1e3 * sum(r["wall_s"] for r in rows) / len(rows)

    out.e2e = {
        "setup_s": Metric(median(setups), "s", len(setups)),
        "peak_rss_mb": Metric(rss, "MB", 1),
        "latency_ms": Metric(mean_ms(ver), "ms", len(ver)),
        "tail_ms": Metric(worst_shape_ms(ver), "ms", len(ver)),
        "side_latency_ms": Metric(mean_ms(sen), "ms", len(sen)),
        "side_tail_ms": Metric(worst_shape_ms(sen), "ms", len(sen)),
    }
    out.report = [
        ("setup_s", out.e2e["setup_s"]),
        ("peak_rss_mb", out.e2e["peak_rss_mb"]),
        ("failed_frac", Metric(out.failed / out.attempted, "ratio",
                               out.attempted)),
        ("verify_edges_per_s", Metric(edges_per_s(ver), "edges/s", len(ver))),
        ("sens_edges_per_s", Metric(edges_per_s(sen), "edges/s", len(sen))),
        ("verify_call_mean_ms", out.e2e["latency_ms"]),
        ("verify_worst_shape_ms", out.e2e["tail_ms"]),
        ("sens_call_mean_ms", out.e2e["side_latency_ms"]),
        ("sens_worst_shape_ms", out.e2e["side_tail_ms"]),
    ]
    if traced is not None:
        out.layers.update(trace_layers(traced, replies[0]))
    return out


def trace_layers(traced: Dict, plain: Dict) -> Dict[str, Metric]:
    """Per-layer numbers of the traced pass, and the trace's overhead."""
    layers = {}
    n_calls = len(traced["calls"])
    for stage, wall in traced["stage_wall"].items():
        layers[f"pipeline.{stage}.wall_s"] = Metric(wall, "s", n_calls)
    prim_wall = 0.0
    for prim in PRIMITIVES:
        calls, wall = traced["prims"].get(prim, (0, 0.0))
        prim_wall += wall
        layers[f"mpc.{prim}.calls"] = Metric(calls, "count", n_calls)
        layers[f"mpc.{prim}.wall_s"] = Metric(wall, "s", n_calls)
    layers["mpc.outside_primitives_s"] = Metric(
        sum(traced["stage_wall"].values()) - prim_wall, "s", n_calls)
    for counter in ("elided_sort", "fused_join", "reused"):
        layers[f"plan.{counter}"] = Metric(
            traced["plan"].get(counter, 0), "count", n_calls)
    layers["cost.rounds_total"] = Metric(traced["rounds"], "count", n_calls)
    layers["cost.peak_global_words"] = Metric(traced["peak_words"], "count",
                                              n_calls)
    t_traced = sum(r["wall_s"] for r in traced["calls"])
    t_plain = sum(r["wall_s"] for r in plain["calls"])
    layers["trace.overhead_pct"] = Metric(
        100.0 * (t_traced - t_plain) / t_plain, "%", n_calls)
    return layers


if __name__ == "__main__":
    sys.exit(runner_main())
