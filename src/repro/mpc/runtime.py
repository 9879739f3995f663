"""The MPC dataflow runtime API shared by both engines.

Algorithms in :mod:`repro.trees` and :mod:`repro.core` are written against
this interface only; they never touch machines directly. The primitives
correspond to the classical O(1)-round MPC building blocks [GSZ11]:

- :meth:`Runtime.sort` — global sort of a record table by integer keys;
- :meth:`Runtime.scan` — (segmented) prefix aggregation in current order;
- :meth:`Runtime.lookup` — equi-join against a unique-key table
  ("bring the value to the record");
- :meth:`Runtime.predecessor` — merge-rank join: for each query key the
  payload of the last data row with key <= query (powers interval
  stabbing / "which cluster contains this vertex" searches);
- :meth:`Runtime.reduce_by_key` — grouped min/max/sum;
- :meth:`Runtime.filter` — compaction of a filtered table;
- :meth:`Runtime.scalar` — global aggregate broadcast to every machine.

Row-aligned NumPy arithmetic on columns is free (it models local
computation on records already resident on a machine within a round).

Keys are int64 columns; composite keys are packed into a single 63-bit
word via :func:`pack_columns` (with overflow checking) so that both the
vectorised and the message-level engine compare them identically.
"""

from __future__ import annotations

import contextlib
import functools
import time
from abc import ABC, abstractmethod
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from ..errors import KeyPackingError, ProtocolError, ValidationError
from .config import MPCConfig
from .cost import CostModel, CostReport, CostTracker
from .table import Table

__all__ = [
    "Runtime",
    "pack_columns",
    "float_sort_key",
    "AGG_OPS",
    "NEG_INF",
    "POS_INF",
]

#: Sentinels used for "no value" in weight columns. Weights in instances are
#: finite; +/-inf survive max/min reductions as identities.
NEG_INF = float("-inf")
POS_INF = float("inf")

#: Supported aggregation operators for scans and reductions.
AGG_OPS = ("sum", "max", "min")


def _pack_words(names: Sequence[str], columns) -> list:
    """Pack key columns of one or more tables ("sides") with shared bounds.

    ``columns[i]`` holds key column ``names[i]`` of every side. Each
    column is shifted by its minimum over all sides and assigned a
    stride equal to the product of later columns' ranges; returns one
    int64 word array per side. Raises
    :class:`~repro.errors.KeyPackingError` if 63 bits do not suffice.
    """
    bounds = []
    for name, arrs in zip(names, columns):
        dtype = np.result_type(*arrs)
        if dtype.kind != "i":
            raise KeyPackingError(f"key column {name!r} must be integer")
        present = [a for a in arrs if len(a)]
        if not present:
            return [np.empty(0, dtype=np.int64) for _ in arrs]
        lo = min(int(a.min()) for a in present)
        hi = max(int(a.max()) for a in present)
        bounds.append((dtype, lo, hi - lo + 1))
    words = [np.zeros(len(a), dtype=np.int64) for a in columns[0]]
    stride = 1
    for arrs, (dtype, lo, rng) in zip(reversed(columns), reversed(bounds)):
        for w, a in zip(words, arrs):
            w += (a.astype(dtype, copy=False) - lo) * stride
        stride *= rng
        if stride > 1 << 62:
            raise KeyPackingError(
                f"composite key {list(names)} exceeds 62 bits (stride {stride})"
            )
    return words


def pack_columns(table: Table, cols: Sequence[str]) -> np.ndarray:
    """Pack integer key columns into one int64 preserving lexicographic order.

    A single integer column is returned as is; see :func:`_pack_words`
    for the packing of several.
    """
    cols = list(cols)
    if not cols:
        raise ValidationError("pack_columns needs at least one key column")
    if len(cols) == 1:
        arr = table.col(cols[0])
        if arr.dtype.kind != "i":
            raise KeyPackingError(f"key column {cols[0]!r} must be integer")
        return arr
    return _pack_words(cols, [(table.col(c),) for c in cols])[0]


def pack_pair(
    left: Table, lcols: Sequence[str], right: Table, rcols: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """Pack composite keys of two tables with *shared* bounds.

    Keys joined across tables must be packed with identical offsets and
    strides, otherwise equal tuples pack to different words. The words
    are those :func:`pack_columns` gives the two tables concatenated,
    without building the concatenation. Returns the packed key arrays
    ``(left_keys, right_keys)``.
    """
    lcols, rcols = list(lcols), list(rcols)
    if len(lcols) != len(rcols):
        raise ValidationError("join key arity mismatch")
    if len(lcols) == 1:
        lk = left.col(lcols[0])
        rk = right.col(rcols[0])
        if lk.dtype.kind != "i" or rk.dtype.kind != "i":
            raise KeyPackingError("join keys must be integer columns")
        return lk, rk
    names = [f"k{i}" for i in range(len(lcols))]
    lk, rk = _pack_words(names, [(left.col(lc), right.col(rc))
                                 for lc, rc in zip(lcols, rcols)])
    return lk, rk


def float_sort_key(values: np.ndarray) -> np.ndarray:
    """Map float64 values to int64 keys with the same total order.

    Standard IEEE-754 trick: reinterpret bits, then flip negative values'
    magnitude bits (and the sign bit of non-negatives).
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    bits = v.view(np.int64)
    return np.where(bits < 0, np.int64(-0x8000000000000000) - bits - 1, bits)


#: Engine method -> cost-phase primitive name (for wall attribution).
#: The charged eager implementations are wrapped; the planner times its
#: own record+execute path and reports through the same channel.
_TIMED_PRIMITIVES = {
    "_sort": "sort",
    "_scan": "scan",
    "_lookup": "lookup",
    "_predecessor": "predecessor",
    "_reduce_by_key": "reduce",
    "_filter": "filter",
    "_scalar": "scalar",
}


def _timed_method(primitive: str, fn):
    @functools.wraps(fn)
    def run(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(self, *args, **kwargs)
        finally:
            self.tracker.record_wall(primitive, time.perf_counter() - t0)

    run._wall_timed = True
    return run


class Runtime(ABC):
    """Abstract MPC engine; see module docstring for the primitive set.

    Primitives are *logical* operations: calling one charges its rounds
    and memory immediately (the logical plan is the charged op stream —
    the object of the paper's round claims). Physical execution runs
    through the planner (:mod:`.plan`) when ``config.planner`` is set:
    sorts defer to flush points and the optimizer elides/fuses provably
    redundant physical work, with outputs and :class:`CostReport`
    bit-identical to eager execution. With the planner off, the
    engine's charged eager implementations (``_sort`` ...) run
    directly, exactly as before.
    """

    #: Planner capability flags; ``{"rewrite"}`` enables the full
    #: physical rule set (requires the ``_exec_*`` executor split).
    plan_capabilities: frozenset = frozenset()

    def __init_subclass__(cls, **kwargs):
        # per-primitive wall attribution (``CostTracker.wall_profile``):
        # wrap each concrete engine's primitives at class-definition time
        # (instances stay clean and picklable) so both engines report
        # where the time actually goes
        super().__init_subclass__(**kwargs)
        for meth, prim in _TIMED_PRIMITIVES.items():
            fn = cls.__dict__.get(meth)
            if fn is not None and not getattr(fn, "_wall_timed", False):
                setattr(cls, meth, _timed_method(prim, fn))

    def __init__(self, config: MPCConfig | None = None):
        self.config = config or MPCConfig()
        self.tracker = CostTracker(CostModel(mode=self.config.cost_mode,
                                             delta=self.config.delta))
        self._rng = np.random.default_rng(self.config.seed)
        if self.config.planner:
            from .plan import Planner

            self._planner = Planner(self)
        else:
            self._planner = None

    # -- bookkeeping ------------------------------------------------------------

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    @property
    def planner(self):
        """The logical-plan recorder/executor (``None`` when disabled)."""
        return self._planner

    def flush_plan(self) -> None:
        """Execute pending deferred plan nodes (an explicit flush point)."""
        if self._planner is not None:
            self._planner.flush()

    @contextlib.contextmanager
    def phase(self, name: str):
        """Attribute all rounds charged inside the block to ``name``."""
        self.tracker.push_phase(name)
        try:
            yield self
        finally:
            # phase exits are flush points: deferred nodes recorded in
            # this phase execute before the phase closes
            if self._planner is not None:
                self._planner.flush()
            self.tracker.pop_phase(name)

    def report(self) -> CostReport:
        self.flush_plan()
        return self.tracker.report()

    @property
    def rounds(self) -> int:
        return self.tracker.rounds_total

    def retain(self, key: str, table_or_words) -> None:
        words = table_or_words.words if isinstance(table_or_words, Table) else int(table_or_words)
        self.tracker.retain(key, words)

    def release(self, key: str) -> None:
        self.tracker.release(key)

    # -- primitives (logical layer: plan when enabled, else eager) ----------------

    def sort(self, table: Table, by: Sequence[str]) -> Table:
        """Globally sort ``table`` by the integer key columns ``by``.

        Stable with respect to the current row order. Costs one ``sort``.
        """
        if self._planner is not None:
            return self._planner.sort(table, by)
        return self._sort(table, by)

    def scan(
        self,
        table: Table,
        value_col: str,
        op: str,
        by: Sequence[str] = (),
        exclusive: bool = False,
        identity: float | int | None = None,
    ) -> np.ndarray:
        """Prefix aggregation of ``value_col`` in current row order.

        With ``by`` non-empty, rows form contiguous segments of equal key
        (caller must have sorted/grouped accordingly) and the scan resets
        at segment boundaries. ``exclusive`` yields the aggregate of
        strictly preceding rows (``identity`` at segment starts).
        Costs one ``scan``.
        """
        if self._planner is not None:
            return self._planner.scan(table, value_col, op, by, exclusive,
                                      identity)
        return self._scan(table, value_col, op, by, exclusive, identity)

    def lookup(
        self,
        queries: Table,
        qkey: Sequence[str],
        data: Table,
        dkey: Sequence[str],
        payload: Mapping[str, str],
        default: Mapping[str, float | int] | None = None,
        check_unique: bool = True,
    ) -> Table:
        """Equi-join: attach ``payload`` columns of ``data`` to ``queries``.

        ``payload`` maps output column name -> data column name. ``data``
        keys must be unique (validated when ``check_unique``). Missing keys
        produce ``default[out_col]`` (required if misses can occur). The
        result is ``queries`` extended with the payload columns, original
        order preserved. Costs one ``lookup``.
        """
        if self._planner is not None:
            return self._planner.lookup(queries, qkey, data, dkey, payload,
                                        default, check_unique)
        return self._lookup(queries, qkey, data, dkey, payload, default,
                            check_unique)

    def predecessor(
        self,
        queries: Table,
        qkey: str,
        data: Table,
        dkey: str,
        payload: Mapping[str, str],
        default: Mapping[str, float | int],
    ) -> Table:
        """Merge-rank join: payload of the *last* data row with key <= query.

        ``data`` is sorted internally by ``dkey`` (stably), so among equal
        data keys the one latest in input order wins. Costs one
        ``predecessor``.
        """
        if self._planner is not None:
            return self._planner.predecessor(queries, qkey, data, dkey,
                                             payload, default)
        return self._predecessor(queries, qkey, data, dkey, payload, default)

    def reduce_by_key(
        self,
        table: Table,
        by: Sequence[str],
        aggs: Mapping[str, Tuple[str, str]],
    ) -> Table:
        """Group rows by ``by`` and aggregate.

        ``aggs`` maps output column -> (input column, op in AGG_OPS). The
        result has one row per distinct key, sorted by key, with the key
        columns and the aggregate columns. Costs one ``reduce``.
        """
        if self._planner is not None:
            return self._planner.reduce_by_key(table, by, aggs)
        return self._reduce_by_key(table, by, aggs)

    def filter(self, table: Table, mask: np.ndarray) -> Table:
        """Compact the rows where ``mask`` holds. Costs one ``filter``."""
        if self._planner is not None:
            return self._planner.filter(table, mask)
        return self._filter(table, mask)

    def scalar(self, table: Table, value_col: str, op: str) -> float | int:
        """Global aggregate of a column, made known to all machines.

        Returns the Python scalar; identity (0 / -inf / +inf) on an empty
        table. Costs one ``scalar``. A scalar read is a plan flush point:
        pending deferred nodes execute before the value is produced.
        """
        if self._planner is not None:
            return self._planner.scalar(table, value_col, op)
        return self._scalar(table, value_col, op)

    # -- charged eager implementations (one per engine) ---------------------------

    @abstractmethod
    def _sort(self, table: Table, by: Sequence[str]) -> Table:
        ...

    @abstractmethod
    def _scan(self, table, value_col, op, by=(), exclusive=False,
              identity=None) -> np.ndarray:
        ...

    @abstractmethod
    def _lookup(self, queries, qkey, data, dkey, payload, default=None,
                check_unique=True) -> Table:
        ...

    @abstractmethod
    def _predecessor(self, queries, qkey, data, dkey, payload,
                     default) -> Table:
        ...

    @abstractmethod
    def _reduce_by_key(self, table, by, aggs) -> Table:
        ...

    @abstractmethod
    def _filter(self, table, mask) -> Table:
        ...

    @abstractmethod
    def _scalar(self, table, value_col, op):
        ...

    # -- conveniences built on primitives -------------------------------------------

    def count(self, table: Table) -> int:
        """Number of rows, as a broadcast global aggregate (one ``scalar``)."""
        ones = Table(one=np.ones(len(table), dtype=np.int64))
        return int(self.scalar(ones, "one", "sum"))

    def unique_keys(self, table: Table, by: Sequence[str]) -> Table:
        """Distinct key combinations, sorted (one ``reduce``)."""
        marker = table.select(by).with_cols(__m=np.ones(len(table), dtype=np.int64))
        out = self.reduce_by_key(marker, by, {"__m": ("__m", "sum")})
        return out.drop("__m")

    def expand_join(
        self,
        queries: Table,
        qkey: Sequence[str],
        data: Table,
        dkey: Sequence[str],
        payload: Mapping[str, str],
        carry: Sequence[str] = (),
    ) -> Table:
        """One-to-many join: one output row per (query row, matching data row).

        Output columns: the query's ``carry`` columns plus the ``payload``
        columns (mapping output name -> data column). Queries with no
        match produce no rows. This is a *derived* operation composed of
        O(1) primitives (sort + reduce + lookup + scan + filter +
        predecessor + lookup), so it costs a constant number of rounds;
        its output size is the number of matches (the caller is
        responsible for that being within the memory budget, as the paper
        is in Lemma 3.7).
        """
        carry = list(carry)
        out_schema = {c: queries.col(c).dtype for c in carry}
        for out_name, src in payload.items():
            out_schema[out_name] = data.col(src).dtype
        if len(queries) == 0 or len(data) == 0:
            return Table.empty(out_schema)
        qk, dk = pack_pair(queries, qkey, data, dkey)
        dsort = self.sort(data.with_cols(__ek=dk), ("__ek",))
        pos_ids = np.arange(len(dsort), dtype=np.int64)
        if self._planner is not None:
            # structural fact: a fresh arange is sorted, unique and dense,
            # so the final fetch below joins by one gather, no search
            self._planner.hint_sorted_unique(pos_ids)
        dsort = dsort.with_cols(__pos=pos_ids)
        ones = np.ones(len(dsort), dtype=np.int64)
        groups = self.reduce_by_key(
            dsort.with_cols(__one=ones),
            ("__ek",),
            {"__start": ("__pos", "min"), "__cnt": ("__one", "sum")},
        )
        q2 = queries.select(carry).with_cols(__qk=qk)
        q2 = self.lookup(
            q2, ("__qk",), groups, ("__ek",),
            {"__start": "__start", "__cnt": "__cnt"},
            default={"__start": 0, "__cnt": 0},
        )
        off = self.scan(q2, "__cnt", "sum", exclusive=True)
        q2 = q2.with_cols(__off=off)
        total = int(self.scalar(q2.with_cols(__end=off + q2.col("__cnt")), "__end", "max"))
        total = max(total, 0)
        qnz = self.filter(q2, q2.col("__cnt") > 0)
        if total == 0 or len(qnz) == 0:
            return Table.empty(out_schema)
        skel_ids = np.arange(total, dtype=np.int64)
        if self._planner is not None:
            self._planner.hint_sorted_unique(skel_ids)
        skel = Table(__o=skel_ids)
        pred_payload = {"__off2": "__off", "__start2": "__start"}
        pred_payload.update({f"__c_{c}": c for c in carry})
        defaults = {"__off2": 0, "__start2": 0}
        defaults.update({f"__c_{c}": 0 for c in carry})
        skel = self.predecessor(skel, "__o", qnz, "__off", pred_payload, defaults)
        dpos = skel.col("__start2") + (skel.col("__o") - skel.col("__off2"))
        skel = skel.with_cols(__dpos=dpos)
        fetched = self.lookup(
            skel, ("__dpos",), dsort, ("__pos",), dict(payload), default=None
        )
        out_cols = {c: fetched.col(f"__c_{c}").astype(out_schema[c], copy=False)
                    for c in carry}
        for out_name in payload:
            out_cols[out_name] = fetched.col(out_name)
        return Table(out_cols)

    # -- internal shared validation ---------------------------------------------

    @staticmethod
    def _check_op(op: str) -> None:
        if op not in AGG_OPS:
            raise ProtocolError(f"unsupported aggregation op {op!r}")

    @staticmethod
    def _identity(op: str, kind: str):
        if op == "sum":
            return 0
        if op == "max":
            return NEG_INF if kind == "f" else np.iinfo(np.int64).min
        if op == "min":
            return POS_INF if kind == "f" else np.iinfo(np.int64).max
        raise ProtocolError(f"unsupported aggregation op {op!r}")
