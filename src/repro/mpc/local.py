"""Vectorised MPC engine with model-cost accounting.

Executes every runtime primitive as whole-column NumPy operations while
charging exactly the rounds the distributed realisation would. This is
the engine used for experiments at scale; the message-level engine
(:mod:`.distributed`) validates it on smaller inputs (tests assert both
produce identical outputs and identical charged rounds).

Each primitive is split into a *charged eager* method (``_sort`` ...,
used when the planner is off — output-identical to the pre-planner
engine, including the per-call ``_sorted_order`` fast paths) and an
uncharged *physical executor* (``_exec_sort`` ...) that the planner
invokes after logical charging, optionally with a precomputed
:class:`~repro.mpc.optimizer.JoinPlan` carrying the optimizer's
physical-operator choice. Both paths share the physical kernels: every
join is resolved to a slot vector (1-based data row per query, 0 on a
miss; the eager path searches with
:func:`~repro.mpc.kernels.search_slots`) and assembled by one gather
per payload column in :meth:`LocalRuntime._exec_join`, and every sort
permutation comes from :func:`~repro.mpc.kernels.stable_argsort`. So
planned and eager outputs are bit-identical by construction.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

import numpy as np

from ..errors import ProtocolError, ValidationError
from .kernels import (check_unique_sorted, forward_fill, op_identity,
                      search_slots, segment_starts, segmented_scan,
                      stable_argsort)
from .optimizer import JoinPlan
from .runtime import Runtime, pack_columns, pack_pair
from .table import Table

__all__ = ["LocalRuntime"]


def _default_fill(n: int, src: np.ndarray, default) -> np.ndarray:
    """An output column prefilled with ``default``, dtype-widened if needed."""
    if src.dtype.kind == "f" or (
        isinstance(default, float) and not float(default).is_integer()
    ) or default in (float("inf"), float("-inf")):
        return np.full(n, float(default), dtype=np.float64)
    return np.full(n, int(default), dtype=src.dtype)


def _sorted_order(key: np.ndarray) -> np.ndarray | None:
    """Stable sort order of ``key``, or ``None`` when already sorted.

    A stable argsort of a non-decreasing array is the identity, so
    callers can skip both the argsort and the gathers it would feed.
    This per-call scan is the eager engine's fast path; with the
    planner on, the same decision comes from memoised array facts
    (:class:`~repro.mpc.plan.FactRegistry`) instead.
    """
    if len(key) > 1 and np.any(key[:-1] > key[1:]):
        return stable_argsort(key)
    return None


class LocalRuntime(Runtime):
    """Single-process engine: NumPy semantics + MPC cost model."""

    plan_capabilities = frozenset({"rewrite"})

    # -- charged eager primitives --------------------------------------------------

    def _sort(self, table: Table, by: Sequence[str]) -> Table:
        key = pack_columns(table, by)
        self.tracker.charge("sort", table.words)
        return self._exec_sort(table, key)

    def _scan(
        self,
        table: Table,
        value_col: str,
        op: str,
        by: Sequence[str] = (),
        exclusive: bool = False,
        identity=None,
    ) -> np.ndarray:
        self._check_op(op)
        keys = pack_columns(table, by) if by else None
        self.tracker.charge("scan", table.words)
        return self._exec_scan(table, keys, value_col, op, exclusive)

    def _lookup(
        self,
        queries: Table,
        qkey: Sequence[str],
        data: Table,
        dkey: Sequence[str],
        payload: Mapping[str, str],
        default: Mapping[str, float] | None = None,
        check_unique: bool = True,
    ) -> Table:
        qk, dk = pack_pair(queries, qkey, data, dkey)
        self.tracker.charge("lookup", queries.words + data.words)
        return self._exec_join(queries, qk, data, dk, payload, default, None,
                               exact=True, check_unique=check_unique)

    def _predecessor(
        self,
        queries: Table,
        qkey: str,
        data: Table,
        dkey: str,
        payload: Mapping[str, str],
        default: Mapping[str, float],
    ) -> Table:
        qk = queries.col(qkey)
        dk = data.col(dkey)
        if qk.dtype.kind != "i" or dk.dtype.kind != "i":
            raise ValidationError("predecessor keys must be integer columns")
        self.tracker.charge("predecessor", queries.words + data.words)
        return self._exec_join(queries, qk, data, dk, payload, default, None,
                               exact=False)

    def _reduce_by_key(
        self,
        table: Table,
        by: Sequence[str],
        aggs: Mapping[str, Tuple[str, str]],
    ) -> Table:
        for _, (_, op) in aggs.items():
            self._check_op(op)
        key = pack_columns(table, by)
        self.tracker.charge("reduce", table.words)
        return self._exec_reduce(table, key, by, aggs, _sorted_order(key))

    def _filter(self, table: Table, mask: np.ndarray) -> Table:
        self.tracker.charge("filter", table.words)
        return self._exec_filter(table, mask)

    def _scalar(self, table: Table, value_col: str, op: str):
        self._check_op(op)
        self.tracker.charge("scalar", table.words)
        return self._exec_scalar(table, value_col, op)

    # -- uncharged physical executors (planner entry points) -----------------------

    def _exec_sort(self, table: Table, key: np.ndarray) -> Table:
        return table.take(stable_argsort(key))

    def _exec_scan(self, table: Table, keys, value_col: str, op: str,
                   exclusive: bool) -> np.ndarray:
        vals = table.col(value_col)
        starts = segment_starts(keys, len(vals))
        return segmented_scan(vals, op, starts, exclusive=exclusive)

    def _exec_join(self, queries: Table, qk: np.ndarray, data: Table,
                   dk: np.ndarray, payload, default, jp, *, exact: bool,
                   check_unique: bool = False) -> Table:
        """Lookup (``exact``) or predecessor join, eager or planned.

        Without a plan the data is sorted here and searched with
        :func:`search_slots`. Either way ``jp.slot`` names each query's
        data row (1-based, 0 on a miss), so every payload column is one
        gather from ``[fill] + src``. The column takes the fill dtype,
        except that a fully-hit lookup keeps the source dtype (its
        head element is never gathered).
        """
        if jp is None:
            order = _sorted_order(dk)
            dks = dk if order is None else dk[order]
            if check_unique:
                check_unique_sorted(dks)
            jp = JoinPlan(order, search_slots(dks, qk, exact=exact))
        slot = jp.slot
        keep_dtype = exact and bool(slot.all())
        if exact and default is None and not keep_dtype:
            missing = qk[slot == 0][:3].tolist()
            raise ProtocolError(f"lookup misses with no default (keys {missing})")
        nd = len(data)
        if jp.order is not None:
            # sorted-data slots -> slots of the data rows as given
            remap = np.zeros(nd + 1, dtype=np.int64)
            np.add(jp.order, 1, out=remap[1:])
            slot = remap[slot]
        out_cols = {}
        for out_name, src_name in payload.items():
            src = data.col(src_name)
            head = (src[:1] if keep_dtype
                    else _default_fill(1, src, default[out_name]))
            out_cols[out_name] = np.concatenate((head, src))[slot]
        return queries.with_cols(**out_cols)

    def _exec_reduce(self, table: Table, key: np.ndarray, by, aggs,
                     order) -> Table:
        if order is None:  # already grouped: no argsort, no row gather
            sorted_tab, ks = table, key
        else:
            sorted_tab = table.take(order)
            ks = key[order]
        n = len(ks)
        starts = segment_starts(ks, n)
        start_idx = np.flatnonzero(starts)
        out = {c: sorted_tab.col(c)[start_idx] for c in by}
        for out_name, (src_name, op) in aggs.items():
            vals = sorted_tab.col(src_name)
            if n == 0:
                out[out_name] = vals[:0]
                continue
            ufunc = {"sum": np.add, "max": np.maximum, "min": np.minimum}[op]
            out[out_name] = ufunc.reduceat(vals, start_idx)
        return Table(out)

    def _exec_filter(self, table: Table, mask: np.ndarray) -> Table:
        return table.mask(mask)

    def _exec_scalar(self, table: Table, value_col: str, op: str):
        vals = table.col(value_col)
        if len(vals) == 0:
            ident = op_identity(op, vals.dtype)
            return ident
        if op == "sum":
            total = vals.sum()
        elif op == "max":
            total = vals.max()
        else:
            total = vals.min()
        return total.item()

    # -- internal (engine-private, used by tests) ----------------------------------

    @staticmethod
    def _forward_fill(values: np.ndarray, valid: np.ndarray):
        return forward_fill(values, valid)
