"""Bounded deployment lifecycle for the served workloads.

The parent side (:class:`Deployment`) launches the program in a child
process that leads a new process group, so the router, its forkserver
and every worker share one group the benchmark can signal as a whole.
The child receives the generated graphs as ``.npz`` files, times
``start()`` and each ``add_instance()`` and reports them as event
lines on stdout. Every phase has a deadline: the launch waits a
bounded time for ``ready``, and teardown escalates from the wire
``shutdown`` op to SIGTERM to SIGKILL of the group, each after a fixed
grace period. A forced kill is reported, never hidden.

Run as a script this module is the child::

    python3 perfbench/deploy.py SPEC.json

with ``mode`` ``fleet`` (a ``RouterTier`` over worker processes) or
``single`` (one ``SensitivityService`` process serving TCP).
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

EVENT = "@@perfbench "

LAUNCH_TIMEOUT_S = 90.0
SHUTDOWN_GRACE_S = 5.0
TERM_GRACE_S = 5.0
KILL_GRACE_S = 5.0

class DeployError(RuntimeError):
    pass


class Deployment:
    """One launched deployment: its process group, port and timings."""

    def __init__(self, mode: str, instances: Dict[str, str], spool: str,
                 log_path: str):
        self.mode = mode
        self.instances = instances
        self.spool = spool
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.events: "queue.Queue" = queue.Queue()
        self.host = "127.0.0.1"
        self.port: Optional[int] = None
        self.t_launch = 0.0
        self.spawn_s = 0.0
        self.add_s: Dict[str, float] = {}
        self.teardown_report: Dict = {}

    # -- launch ----------------------------------------------------------------

    def launch(self, env: Dict[str, str],
               timeout_s: float = LAUNCH_TIMEOUT_S) -> None:
        from common import on_cleanup, work_path

        spec = work_path("logs", f"{self.mode}-spec.json")
        with open(spec, "w") as f:
            json.dump({"mode": self.mode, "instances": self.instances,
                       "spool": self.spool}, f)
        log = open(self.log_path, "ab")
        self.t_launch = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), spec],
                stdout=subprocess.PIPE, stderr=log, stdin=subprocess.PIPE,
                env=env, start_new_session=True)
        finally:
            log.close()
        on_cleanup(self.kill_now)
        threading.Thread(target=self._pump, daemon=True).start()
        deadline = time.perf_counter() + timeout_s
        while True:
            ev = self._next_event(deadline)
            if ev["event"] == "started":
                self.spawn_s = ev["spawn_s"]
            elif ev["event"] == "added":
                self.add_s[ev["name"]] = ev["add_s"]
            elif ev["event"] == "ready":
                self.port = int(ev["port"])
                return

    def _pump(self) -> None:
        for raw in self.proc.stdout:
            line = raw.decode(errors="replace")
            if line.startswith(EVENT):
                self.events.put(json.loads(line[len(EVENT):]))
        self.events.put({"event": "exit"})

    def scrape(self, timeout_s: float = 10.0) -> Dict:
        """The ``metrics`` op's answer, dispatched inside the deployment.

        The launcher hands the request to the server's own request
        handler and prints the answer on its event stream, so counters
        can be read mid-phase without a third connection.
        """
        self.proc.stdin.write(b"metrics\n")
        self.proc.stdin.flush()
        ev = self._next_event(time.perf_counter() + timeout_s)
        if ev["event"] != "metrics":
            raise DeployError(f"unexpected event {ev['event']!r}")
        return ev["result"]

    def _next_event(self, deadline: float) -> Dict:
        try:
            ev = self.events.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            self.kill_now()
            raise DeployError(f"{self.mode} deployment not ready in time; "
                              f"log: {self.log_path}")
        if ev["event"] in ("exit", "error"):
            self.kill_now()
            raise DeployError(f"{self.mode} deployment failed to start "
                              f"({ev.get('error', 'exited')}); "
                              f"log: {self.log_path}")
        return ev

    # -- observation -----------------------------------------------------------

    def group_pids(self) -> List[int]:
        """Every live process of the deployment's group."""
        if self.proc is None:
            return []
        pids = []
        for name in os.listdir("/proc"):
            if not name.isdigit():
                continue
            try:
                with open(f"/proc/{name}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            # skip zombies: exited, merely not yet reaped
            if fields[0] != "Z" and int(fields[2]) == self.proc.pid:
                pids.append(int(name))
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of peak resident set sizes (VmHWM) over the group."""
        total_kb = 0
        for pid in self.group_pids():
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    # -- teardown --------------------------------------------------------------

    def teardown(self) -> Dict:
        """shutdown op -> SIGTERM -> SIGKILL, each after a grace period."""
        if self.proc is None or self.teardown_report:
            return self.teardown_report
        report = {"forced": None, "stop_s": None}
        t0 = time.perf_counter()
        if self.proc.poll() is None and self.port is not None:
            try:
                with socket.create_connection((self.host, self.port),
                                              timeout=5.0) as s:
                    s.sendall(b'{"op": "shutdown"}\n')
                    s.settimeout(5.0)
                    s.recv(4096)
            except OSError as exc:
                report["shutdown_error"] = str(exc)
        for sig, grace in ((None, SHUTDOWN_GRACE_S),
                           (signal.SIGTERM, TERM_GRACE_S),
                           (signal.SIGKILL, KILL_GRACE_S)):
            if sig is not None:
                report["forced"] = sig.name
                self._signal_group(sig)
            try:
                self.proc.wait(timeout=grace)
                break
            except subprocess.TimeoutExpired:
                continue
        # the router's own stop() reaps its workers; give stragglers (the
        # forkserver, the resource tracker) a moment before calling them
        # orphans
        _wait_gone(self, TERM_GRACE_S)
        leftovers = self.group_pids()
        if leftovers:
            report["forced"] = report["forced"] or "SIGKILL-orphans"
            report["orphans"] = len(leftovers)
            self._signal_group(signal.SIGKILL)
            _wait_gone(self, KILL_GRACE_S)
        report["stop_s"] = time.perf_counter() - t0
        report["exit_code"] = self.proc.returncode
        self.teardown_report = report
        return report

    def _signal_group(self, sig) -> None:
        try:
            os.killpg(self.proc.pid, sig)
        except ProcessLookupError:
            pass

    def kill_now(self) -> None:
        """SIGKILL the whole group (error and watchdog paths)."""
        if self.proc is None or self.teardown_report:
            return
        self._signal_group(signal.SIGKILL)
        try:
            self.proc.wait(timeout=KILL_GRACE_S)
        except subprocess.TimeoutExpired:
            pass
        _wait_gone(self, KILL_GRACE_S)
        self.teardown_report = {"forced": "SIGKILL", "stop_s": None}


def _wait_gone(dep: Deployment, budget_s: float) -> None:
    deadline = time.perf_counter() + budget_s
    while dep.group_pids() and time.perf_counter() < deadline:
        time.sleep(0.05)


# -- child side ------------------------------------------------------------------


def _plain(obj):
    """JSON fallback for numpy scalars inside the program's answers."""
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(**ev) -> None:
    sys.stdout.write(EVENT + json.dumps(ev, default=_plain) + "\n")
    sys.stdout.flush()


def _serve_commands(server, loop) -> None:
    """stdin ``metrics`` lines -> the server's ``metrics`` op (thread)."""
    for line in sys.stdin:
        if line.strip() == "metrics":
            resp = asyncio.run_coroutine_threadsafe(
                server.handle_request({"op": "metrics"}), loop).result()
            _emit(event="metrics", result=resp.get("result"))


async def _serve(spec: Dict) -> None:
    from common import import_program
    from inputs import load_graph

    import_program()
    if spec["mode"] == "fleet":
        from repro.service import RouterConfig, RouterTier

        server = RouterTier(RouterConfig(port=0, mmap_dir=spec["spool"]))
        t = time.perf_counter()
        await server.start(serve_tcp=True)
        _emit(event="started", spawn_s=time.perf_counter() - t)
        for name, path in spec["instances"].items():
            graph = load_graph(path)
            t = time.perf_counter()
            await server.add_instance(name, graph)
            _emit(event="added", name=name, add_s=time.perf_counter() - t)
    else:
        from repro.service import SensitivityService, ServiceConfig

        server = SensitivityService(ServiceConfig(port=0))
        t = time.perf_counter()
        for name, path in spec["instances"].items():
            server.add_instance(name, load_graph(path))
        await server.start(serve_tcp=True)
        _emit(event="started", spawn_s=time.perf_counter() - t)
    host, port = server.tcp_address
    threading.Thread(target=_serve_commands,
                     args=(server, asyncio.get_running_loop()),
                     daemon=True).start()
    _emit(event="ready", host=host, port=port)
    await server.serve_forever()
    t = time.perf_counter()
    await server.stop()
    _emit(event="stopped", stop_s=time.perf_counter() - t)


def main(spec_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    try:
        asyncio.run(_serve(spec))
    except Exception as exc:  # report the failure to the parent, then die
        _emit(event="error", error=f"{type(exc).__name__}: {exc}")
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
