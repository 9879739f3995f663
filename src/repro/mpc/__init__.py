"""MPC simulation substrate: tables, cost model, and two runtime engines.

See DESIGN.md (systems S1/S2). Quick use::

    from repro.mpc import LocalRuntime, MPCConfig, Table

    rt = LocalRuntime(MPCConfig(delta=0.35))
    t = Table(k=[2, 1, 2], v=[1.0, 5.0, 3.0])
    grouped = rt.reduce_by_key(t, ("k",), {"best": ("v", "min")})
"""

from .config import MPCConfig
from .cost import CostModel, CostReport, CostTracker
from .distributed import DistributedRuntime
from .local import LocalRuntime
from .machines import Fabric, FleetState
from .optimizer import JoinPlan, Optimizer
from .parallel import WorkerPool, run_partitions
from .plan import LazyTable, PhysProps, PlanLog, PlanNode, Planner
from .runtime import NEG_INF, POS_INF, Runtime, float_sort_key, pack_columns
from .table import Table

__all__ = [
    "MPCConfig",
    "CostModel",
    "CostReport",
    "CostTracker",
    "DistributedRuntime",
    "LocalRuntime",
    "Fabric",
    "FleetState",
    "JoinPlan",
    "LazyTable",
    "Optimizer",
    "PhysProps",
    "PlanLog",
    "PlanNode",
    "Planner",
    "Runtime",
    "WorkerPool",
    "run_partitions",
    "Table",
    "pack_columns",
    "float_sort_key",
    "NEG_INF",
    "POS_INF",
]


def make_runtime(engine: str = "local", config: MPCConfig | None = None,
                 total_words_hint: int = 4096) -> Runtime:
    """Construct a runtime engine by name (``"local"`` or ``"distributed"``)."""
    if engine == "local":
        return LocalRuntime(config)
    if engine == "distributed":
        return DistributedRuntime(config, total_words_hint=total_words_hint)
    raise ValueError(f"unknown engine {engine!r}")
