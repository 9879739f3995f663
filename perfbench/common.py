"""Shared plumbing for the benchmark: paths, the work directory, and the
statistics every workload reports with.

The benchmark runs from the root of a source checkout. It imports the
program from ``src/`` (pure Python, nothing to build) and keeps
everything it writes — generated inputs, snapshot spools, logs — under
``WORK_DIR`` inside that checkout, which ``.gitignore`` names.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

#: multiprocessing's forkserver binds a unix socket under TMPDIR; the
#: kernel caps socket paths at 108 bytes, so a deep checkout keeps the
#: system default rather than failing to boot the fleet
_MAX_TMPDIR_LEN = 60


def import_program() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``.

    Raises ImportError when the checkout holds no program, which is how
    the benchmark fails (without a result) in a bare directory.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ImportError(f"no program under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro  # noqa: F401


_CLEANUPS: List[Callable[[], None]] = []


def on_cleanup(fn: Callable[[], None]) -> None:
    """Register a last-resort kill for a child process (watchdog path)."""
    _CLEANUPS.append(fn)


def run_cleanups() -> None:
    while _CLEANUPS:
        try:
            _CLEANUPS.pop()()
        except Exception as exc:  # keep killing the rest
            print(f"cleanup failed: {exc}", file=sys.stderr)


def work_path(*parts: str) -> str:
    path = os.path.join(WORK_DIR, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def fresh_dir(*parts: str) -> str:
    """An empty directory under the work dir (cleared if it existed)."""
    path = os.path.join(WORK_DIR, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child_env() -> Dict[str, str]:
    """Environment for the program's processes: import path + TMPDIR."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    tmp = os.path.join(WORK_DIR, "tmp")
    if len(tmp) <= _MAX_TMPDIR_LEN:
        os.makedirs(tmp, exist_ok=True)
        env["TMPDIR"] = tmp
    return env


# -- statistics ----------------------------------------------------------------


def tail_q(n: int, cap: float = 0.99) -> float:
    """Highest percentile (as a fraction, at most ``cap``) that keeps at
    least ten samples beyond it; 0.5 when there are too few samples."""
    if n <= 20:
        return 0.5
    return min(cap, math.floor((1.0 - 10.0 / n) * 100.0) / 100.0)


def quantile(values: Iterable[float], q: float) -> float:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray)
                     else values, dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    return float(np.quantile(arr, q))


def median(values: Iterable[float]) -> float:
    return quantile(values, 0.5)


class Metric:
    """One reported number: value, unit and the samples behind it."""

    __slots__ = ("value", "unit", "samples", "note")

    def __init__(self, value: float, unit: str, samples: int,
                 note: Optional[str] = None):
        self.value = float(value)
        self.unit = unit
        self.samples = int(samples)
        self.note = note


def latency_pair(lat_s: np.ndarray, cap: float = 0.99):
    """``(p50_ms, tail_ms, tail_q)`` of a latency array in seconds."""
    lat_ms = np.asarray(lat_s, dtype=np.float64) * 1e3
    q = tail_q(len(lat_ms), cap)
    return quantile(lat_ms, 0.5), quantile(lat_ms, q), q


def windowed_quantile_ms(due: np.ndarray, lat_s: np.ndarray,
                         window_s: float, q: float = 0.99) -> float:
    """Median over consecutive ``window_s`` windows (by due time) of each
    window's ``q`` quantile, in ms.

    One stall of the shared machine lifts the whole-phase tail of that
    run only; the median window keeps the tail a run-to-run comparable
    number while every window still reports its own quantile.
    """
    idx = np.floor(np.asarray(due) / window_s).astype(np.int64)
    lat_ms = np.asarray(lat_s, dtype=np.float64) * 1e3
    qs = [quantile(lat_ms[idx == k], q) for k in np.unique(idx)
          if np.count_nonzero(idx == k) >= 100]
    return median(qs) if qs else quantile(lat_ms, q)


@dataclass
class Outcome:
    """Everything one workload run produced.

    ``e2e`` holds the ``BENCHMARK.json`` end-to-end metrics, ``report``
    the same numbers under the names a reader of the workload knows
    them by (plus ``failed_frac``), ``layers`` the per-layer metrics of
    a traced run. ``problems`` are failed answer checks, ``invalid``
    says the generator fell behind its tick budget, and ``notes`` carry
    forced kills and writes that were not applied.
    """

    e2e: Dict[str, Metric] = field(default_factory=dict)
    report: List[Tuple[str, Metric]] = field(default_factory=list)
    layers: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    invalid: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
