"""Baselines and oracles (system S14 in DESIGN.md)."""

from .mpc_boruvka import BoruvkaResult, mpc_boruvka, verify_by_recompute_mpc
from .naive_mpc_verify import NaiveVerifyResult, naive_verify_mst
from .seq_mst import kruskal_mst, mst_weight
from .seq_sensitivity import (
    SequentialSensitivity,
    covering_ascent,
    sequential_sensitivity,
)
from .seq_verify import nontree_pathmax, verify_by_pathmax, verify_by_recompute

__all__ = [
    "BoruvkaResult",
    "mpc_boruvka",
    "verify_by_recompute_mpc",
    "NaiveVerifyResult",
    "naive_verify_mst",
    "kruskal_mst",
    "mst_weight",
    "SequentialSensitivity",
    "covering_ascent",
    "sequential_sensitivity",
    "nontree_pathmax",
    "verify_by_pathmax",
    "verify_by_recompute",
]
