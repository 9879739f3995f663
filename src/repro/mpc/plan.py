"""Lazy logical-plan layer: plan nodes, physical properties, lazy tables.

The planner splits every runtime primitive into two halves:

* the **logical op** — charged to the cost tracker the moment algorithm
  code calls the primitive, with exactly the rounds/words the eager
  engines charge, under the phase active at the call site. The round
  claims of the paper are about this stream, so ``CostReport`` is
  bit-identical whether the planner is on or off;
* the **physical op** — how (and whether) the primitive actually
  executes. The optimizer (:mod:`.optimizer`) picks it from tracked
  *physical properties*: sortedness, key uniqueness, key density/range,
  cardinality, and machine-major block partitioning (which every table
  in this runtime shares, so it is a constant of the lattice).

Execution is lazy where laziness is useful: ``sort`` returns a
:class:`LazyTable` whose permutation runs at a *flush point* — the first
materialising access to its columns, a consuming primitive, a scalar
read, or a phase exit — so a sort whose input is discovered to already
be in order is elided outright, and a sort consumed only by key-grouped
operators can be fused. Joins, scans, filters and scalars execute at
their logical position (their data-dependent validation errors must
surface at the call site, exactly as the eager engines raise them), but
go through the optimizer's physical-operator selection first.

Physical properties live at two levels:

* **array facts** (:class:`FactRegistry`) — per ``np.ndarray`` identity:
  is this int64 column sorted / duplicate-free / a contiguous range?
  Facts are set structurally by planner ops (a sort's key column *is*
  sorted; a reduce's key column is sorted *and* unique), inherited
  where provable (a filter of a sorted column stays sorted), and
  otherwise *discovered* by a memoised one-pass verification — the
  generalisation of the old per-call ``_sorted_order`` scans. Columns
  handed to primitives must not be mutated in place afterwards (the
  same immutability the eager engines already rely on).
* **table props** — per ``Table`` identity: which key columns the table
  is sorted/unique by and which logical node produced it (so a lookup
  against a ``reduce_by_key`` output can be fused with it).
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import KeyPackingError, ValidationError
from .table import Table, _as_column

__all__ = [
    "ArrayFacts",
    "FactRegistry",
    "PhysProps",
    "PlanNode",
    "PlanLog",
    "LazyTable",
    "Planner",
]


# ---------------------------------------------------------------------------
# array-level facts
# ---------------------------------------------------------------------------


class ArrayFacts:
    """Tri-state facts about one int64 column (``None`` = unknown)."""

    __slots__ = ("sorted", "unique")

    def __init__(self, sorted: Optional[bool] = None,
                 unique: Optional[bool] = None):
        self.sorted = sorted
        self.unique = unique


class FactRegistry:
    """Facts keyed by array identity, weakly held.

    Entries die with their arrays (a ``weakref.finalize`` removes them
    before the id can be reused), so the registry never serves a fact
    for a different array that happens to reuse an address.
    """

    def __init__(self):
        self._facts: Dict[int, ArrayFacts] = {}
        self._finalizers: Dict[int, weakref.finalize] = {}

    def get(self, arr: np.ndarray) -> ArrayFacts:
        key = id(arr)
        facts = self._facts.get(key)
        if facts is None:
            facts = ArrayFacts()
            self._facts[key] = facts
            self._finalizers[key] = weakref.finalize(
                arr, self._drop, key
            )
        return facts

    def _drop(self, key: int) -> None:
        self._facts.pop(key, None)
        self._finalizers.pop(key, None)

    # -- structural registration ------------------------------------------------

    def mark(self, arr: np.ndarray, *, sorted: Optional[bool] = None,
             unique: Optional[bool] = None) -> None:
        facts = self.get(arr)
        if sorted is not None:
            facts.sorted = sorted
        if unique is not None:
            facts.unique = unique

    # -- memoised discovery -----------------------------------------------------

    def ensure_sorted(self, arr: np.ndarray) -> bool:
        """Is ``arr`` non-decreasing? One verification pass, memoised."""
        facts = self.get(arr)
        if facts.sorted is None:
            facts.sorted = not (
                len(arr) > 1 and bool(np.any(arr[:-1] > arr[1:]))
            )
        return facts.sorted

    def ensure_unique_sorted(self, arr: np.ndarray) -> bool:
        """Is the (sorted) ``arr`` duplicate-free? Memoised."""
        facts = self.get(arr)
        if facts.unique is None:
            facts.unique = not (
                len(arr) > 1 and bool(np.any(arr[1:] == arr[:-1]))
            )
        return facts.unique


# ---------------------------------------------------------------------------
# plan nodes and the logical log
# ---------------------------------------------------------------------------


@dataclass
class PhysProps:
    """Tracked physical properties of one plan-node output.

    ``partitioning`` is constant in this runtime — every table is held
    machine-major in exact blocks — but is carried explicitly so the
    property lattice matches the model (and so ``explain`` can say so).
    """

    sorted_by: Optional[Tuple[str, ...]] = None
    unique_by: Optional[Tuple[str, ...]] = None
    cardinality: Optional[int] = None
    partitioning: str = "machine-major-blocks"
    source: Optional[Tuple[str, Tuple[str, ...]]] = None


@dataclass
class PlanNode:
    """One logical primitive invocation and its physical outcome."""

    nid: int
    op: str                      # logical primitive name
    phase: str                   # cost phase active at record time
    detail: str = ""             # key columns etc., for explain
    n_in: int = 0
    props: PhysProps = field(default_factory=PhysProps)
    status: str = "pending"      # pending|executed|elided|fused|reused|protocol
    physical: str = ""           # chosen physical operator
    note: str = ""
    reuse: bool = False          # a common sub-plan was reused (CSE or
                                 # a shared physical address table)
    # execution state (sort/derive nodes only). The node never holds a
    # strong reference to its materialised columns — they live on the
    # owning LazyTable (weakly linked via ``out_ref``), so the plan log
    # costs metadata, not retained table data.
    kind: str = "op"             # op|sort|derive
    input: object = None         # input Table, dropped after force
    key_col: Optional[str] = None
    packed_key: Optional[np.ndarray] = None
    derive: Optional[Tuple] = None   # (kind, payload) for derive nodes
    schema: Optional[Dict[str, np.dtype]] = None
    out_ref: object = None       # weakref to the owning LazyTable
    done: bool = False


class PlanLog:
    """The recorded logical plan plus per-node physical outcomes."""

    def __init__(self):
        self.nodes: List[PlanNode] = []

    def record(self, node: PlanNode) -> PlanNode:
        self.nodes.append(node)
        return node

    def __len__(self) -> int:
        return len(self.nodes)

    # -- summaries (explain + golden plan-shape fixtures) -----------------------

    def phase_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-phase counters of logical ops and physical outcomes.

        Keys are stable strings (asserted by the golden plan-shape
        regression fixtures): ``n_<op>`` counts logical ops,
        ``elided_sort`` / ``fused_join`` / ``reused`` count optimizer
        rewrites, and ``phys_<operator>`` counts chosen physical
        operators for joins.
        """
        out: Dict[str, Dict[str, int]] = {}
        for node in self.nodes:
            c = out.setdefault(node.phase, {})
            c["nodes"] = c.get("nodes", 0) + 1
            c[f"n_{node.op}"] = c.get(f"n_{node.op}", 0) + 1
            if node.op == "sort" and node.status == "elided":
                c["elided_sort"] = c.get("elided_sort", 0) + 1
            if node.status == "fused":
                c["fused_join"] = c.get("fused_join", 0) + 1
            if node.status == "reused" or node.reuse:
                c["reused"] = c.get("reused", 0) + 1
            if node.physical:
                k = f"phys_{node.physical}"
                c[k] = c.get(k, 0) + 1
        return out

    def totals(self) -> Dict[str, int]:
        tot: Dict[str, int] = {}
        for counters in self.phase_summary().values():
            for k, v in counters.items():
                tot[k] = tot.get(k, 0) + v
        return tot


# ---------------------------------------------------------------------------
# lazy tables
# ---------------------------------------------------------------------------


class LazyTable(Table):
    """A table whose columns materialise at the first flush point.

    Schema and cardinality are known without execution (they are
    tracked physical properties), so ``len``, ``words``, ``columns``
    and further *derivations* (``with_cols`` / ``select`` / ``drop`` /
    ``rename``) stay lazy; any access to column *data* forces the
    owning plan node (and its ancestors).
    """

    __slots__ = ("_planner", "_node")

    def __init__(self, planner: "Planner", node: PlanNode):
        # deliberately not calling Table.__init__: columns do not exist yet
        self._planner = planner
        self._node = node
        self._cols = None
        self._n = int(node.props.cardinality)

    # -- forcing ---------------------------------------------------------------

    def _materialize(self) -> "LazyTable":
        if self._cols is None:
            self._cols = self._planner.force(self._node)
        return self

    @property
    def plan_node(self) -> PlanNode:
        return self._node

    # -- lazy-safe protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def columns(self) -> tuple:
        if self._cols is not None:
            return tuple(self._cols)
        return tuple(self._node.schema)

    @property
    def words(self) -> int:
        return self._n * max(1, len(self.columns))

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def __iter__(self):
        return iter(self.columns)

    # -- data access (flush points) --------------------------------------------

    def col(self, name: str) -> np.ndarray:
        return self._materialize()._cols[name]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.col(name)

    def take(self, idx: np.ndarray) -> Table:
        return Table._wrap(
            {k: v[idx] for k, v in self._materialize()._cols.items()}
        )

    def mask(self, m: np.ndarray) -> Table:
        self._materialize()
        return Table.mask(self, m)

    def head(self, k: int) -> Table:
        self._materialize()
        return Table.head(self, k)

    def to_records(self) -> list:
        self._materialize()
        return Table.to_records(self)

    def equals(self, other: Table) -> bool:
        self._materialize()
        return Table.equals(self, other)

    # -- lazy derivations ------------------------------------------------------

    def with_cols(self, **new) -> Table:
        if self._cols is not None:
            return Table.with_cols(self, **new)
        cols = {}
        for name, values in new.items():
            arr = _as_column(name, values)
            if len(arr) != self._n:
                raise ValidationError(
                    f"new column {name!r} has length {len(arr)}, "
                    f"expected {self._n}"
                )
            cols[name] = arr
        return self._planner.derive(self, "with_cols", cols)

    def select(self, names) -> Table:
        if self._cols is not None:
            return Table.select(self, names)
        names = list(names)
        missing = [n for n in names if n not in self._node.schema]
        if missing:
            raise ValidationError(f"unknown columns {missing}")
        return self._planner.derive(self, "select", names)

    def drop(self, *names: str) -> Table:
        if self._cols is not None:
            return Table.drop(self, *names)
        keep = [n for n in self._node.schema if n not in names]
        return self._planner.derive(self, "select", keep)

    def rename(self, mapping) -> Table:
        if self._cols is not None:
            return Table.rename(self, mapping)
        return self._planner.derive(self, "rename", dict(mapping))

    def __reduce__(self):
        # pickling materialises: a shipped table is data, not a plan
        return (Table, (dict(self._materialize()._cols),))


# ---------------------------------------------------------------------------
# the planner
# ---------------------------------------------------------------------------


def _schema_of(table: Table) -> Dict[str, np.dtype]:
    if isinstance(table, LazyTable) and table._cols is None:
        return dict(table._node.schema)
    return {k: table.col(k).dtype for k in table.columns}


class Planner:
    """Records the logical plan and drives optimized physical execution.

    One planner per runtime. Engines declare capabilities via
    ``Runtime.plan_capabilities``:

    * ``"rewrite"`` — the engine exposes uncharged physical executors
      (``_exec_*``) and its primitives are pure data transforms, so the
      full rule set applies (the vectorised local engine);
    * otherwise the planner runs in *record* mode: the logical plan is
      still captured and property-based check elisions still apply, but
      every node executes its full protocol — for the message-level
      engine the transport schedule **is** the physical truth, so
      eliding exchanges would change the transport rounds the planner
      must keep bit-identical.
    """

    def __init__(self, rt):
        from .optimizer import Optimizer  # local import: optimizer uses plan types

        self.rt = rt
        self.log = PlanLog()
        self.facts = FactRegistry()
        self.rewrite = "rewrite" in rt.plan_capabilities
        self.opt = Optimizer(self)
        self._pending: List[PlanNode] = []
        self._next_id = 0
        # table identity -> (props, keepalive-check weakref)
        self._table_props: Dict[int, Tuple[PhysProps, object]] = {}
        self._table_final: Dict[int, weakref.finalize] = {}
        # sort CSE: (input table id, by) -> weakref to the output LazyTable
        self._sort_cse: Dict[Tuple[int, Tuple[str, ...]], object] = {}

    # -- bookkeeping -----------------------------------------------------------

    def _node(self, op: str, **kw) -> PlanNode:
        node = PlanNode(
            nid=self._next_id, op=op,
            phase=self.rt.tracker.current_phase, **kw,
        )
        self._next_id += 1
        return self.log.record(node)

    def props_of(self, table: Table) -> Optional[PhysProps]:
        if isinstance(table, LazyTable):
            return table._node.props
        entry = self._table_props.get(id(table))
        if entry is not None:
            props, ref = entry
            if ref() is table:
                return props
        return None

    def set_props(self, table: Table, props: PhysProps) -> None:
        key = id(table)
        self._table_props[key] = (props, weakref.ref(table))
        if key not in self._table_final:
            self._table_final[key] = weakref.finalize(
                table, self._drop_props, key
            )

    def _drop_props(self, key: int) -> None:
        self._table_props.pop(key, None)
        self._table_final.pop(key, None)

    def hint_sorted_unique(self, arr: np.ndarray, *,
                           unique: bool = True) -> None:
        """Structural fact registration for caller-created key columns
        (e.g. ``np.arange`` skeletons inside ``expand_join``)."""
        self.facts.mark(arr, sorted=True, unique=unique)

    # -- flush points ----------------------------------------------------------

    def flush(self) -> None:
        """Execute every pending deferred node in FIFO order (phase
        exits, reports)."""
        while self._pending:
            node = self._pending.pop(0)
            if not node.done:
                self.force(node)

    def force(self, node: PlanNode) -> Dict[str, np.ndarray]:
        if node.done:
            tab = node.out_ref() if node.out_ref is not None else None
            if tab is not None and tab._cols is not None:
                return tab._cols
            raise ValidationError(  # pragma: no cover - table outlives node use
                "plan node output was discarded"
            )
        t0 = time.perf_counter()
        if node.kind == "derive":
            parent_cols = self._input_cols(node.input)
            kind, payload = node.derive
            if kind == "with_cols":
                cols = dict(parent_cols)
                cols.update(payload)
            elif kind == "select":
                cols = {n: parent_cols[n] for n in payload}
            else:  # rename
                cols = {payload.get(k, k): v for k, v in parent_cols.items()}
            node.status = "executed"
        elif node.kind == "sort":
            cols = self.opt.execute_sort(node)
            self.rt.tracker.record_wall("sort", time.perf_counter() - t0)
        else:  # pragma: no cover - op nodes execute at record time
            raise ValidationError(f"cannot force node kind {node.kind!r}")
        node.done = True
        node.input = None
        node.packed_key = None
        # the columns live on the LazyTable only (the log keeps metadata);
        # a dead table means nobody can ever observe this output
        tab = node.out_ref() if node.out_ref is not None else None
        if tab is not None:
            tab._cols = cols
        return cols

    def _input_cols(self, table) -> Dict[str, np.ndarray]:
        table._materialize()
        return table._cols

    def input_table(self, table: Table) -> Table:
        """The forced input as a concrete-column table."""
        return table._materialize() if isinstance(table, LazyTable) else table

    def derive(self, parent_table: "LazyTable", kind: str,
               payload) -> LazyTable:
        parent = parent_table._node
        schema = dict(parent.schema)
        if kind == "with_cols":
            for name, arr in payload.items():
                schema[name] = arr.dtype
        elif kind == "select":
            schema = {n: schema[n] for n in payload}
        else:  # rename
            schema = {payload.get(k, k): v for k, v in schema.items()}
        props = PhysProps(cardinality=parent.props.cardinality)
        if kind == "with_cols":
            # a replaced column invalidates any fact naming it: the name
            # survives in the schema but the data is new
            replaced = set(payload)
            if parent.props.sorted_by and \
                    replaced.isdisjoint(parent.props.sorted_by):
                props.sorted_by = parent.props.sorted_by
            if parent.props.unique_by and \
                    replaced.isdisjoint(parent.props.unique_by):
                props.unique_by = parent.props.unique_by
        elif kind == "select":
            keep = set(schema)
            if parent.props.sorted_by and set(parent.props.sorted_by) <= keep:
                props.sorted_by = parent.props.sorted_by
            if parent.props.unique_by and set(parent.props.unique_by) <= keep:
                props.unique_by = parent.props.unique_by
        elif len(schema) == len(parent.schema):
            # rename without collisions maps facts through; a collision
            # (two columns mapped to one name) drops a column, so no
            # fact can be trusted by name afterwards
            if parent.props.sorted_by:
                props.sorted_by = tuple(
                    payload.get(c, c) for c in parent.props.sorted_by
                )
            if parent.props.unique_by:
                props.unique_by = tuple(
                    payload.get(c, c) for c in parent.props.unique_by
                )
        node = PlanNode(
            nid=-1, op="derive", phase=self.rt.tracker.current_phase,
            kind="derive", input=parent_table, derive=(kind, payload),
            schema=schema, props=props,
        )
        # derive nodes are free row algebra: tracked for execution but
        # not part of the logical (charged) plan, hence not logged
        self._pending.append(node)
        out = LazyTable(self, node)
        node.out_ref = weakref.ref(out)
        return out

    # -- logical primitives ----------------------------------------------------

    def sort(self, table: Table, by: Sequence[str]) -> Table:
        by = tuple(by)
        schema = _schema_of(table)
        missing = [c for c in by if c not in schema]
        if missing:
            raise ValidationError(f"unknown columns {missing}")
        if not by:
            raise ValidationError("pack_columns needs at least one key column")
        packed = None
        key_col = None
        if len(by) == 1:
            if schema[by[0]].kind != "i":
                raise KeyPackingError(f"key column {by[0]!r} must be integer")
            key_col = by[0]
        elif self.rewrite:
            # composite keys need data-dependent strides: pack eagerly so
            # overflow surfaces at the call site, exactly as eager does
            # (in record mode the engine packs at the call site anyway)
            from .runtime import pack_columns

            packed = pack_columns(self.input_table(table), by)
        n = len(table)
        words = table.words
        node = self._node(
            "sort", detail=",".join(by), n_in=n,
            props=PhysProps(cardinality=n, sorted_by=by),
        )
        if not self.rewrite:
            node.status = "protocol"
            node.physical = "sample-sort"
            out = self.rt._sort(self.input_table(table), by)
            self.set_props(out, node.props)
            return out
        self.rt.tracker.charge("sort", words)
        cse_key = (id(table), by)
        prior = self._sort_cse.get(cse_key)
        if prior is not None:
            prior_tab = prior[1]()
            if prior_tab is not None and prior[0]() is table:
                node.status = "reused"
                node.physical = "cse"
                node.note = "identical sort already planned"
                return prior_tab
        node.kind = "sort"
        node.input = table
        node.key_col = key_col
        node.packed_key = packed
        node.schema = schema
        out = LazyTable(self, node)
        node.out_ref = weakref.ref(out)
        self._pending.append(node)
        self._sort_cse[cse_key] = (weakref.ref(table), weakref.ref(out))
        return out

    def scan(self, table: Table, value_col: str, op: str,
             by: Sequence[str] = (), exclusive: bool = False,
             identity=None) -> np.ndarray:
        rt = self.rt
        rt._check_op(op)
        tab = self.input_table(table)
        node = self._node("scan", detail=value_col, n_in=len(tab))
        if not self.rewrite:
            node.status = "protocol"
            node.physical = "carry-chain"
            return rt._scan(tab, value_col, op, by, exclusive, identity)
        from .runtime import pack_columns

        keys = pack_columns(tab, by) if by else None
        rt.tracker.charge("scan", tab.words)
        t0 = time.perf_counter()
        out = rt._exec_scan(tab, keys, value_col, op, exclusive)
        rt.tracker.record_wall("scan", time.perf_counter() - t0)
        node.status = "executed"
        node.physical = "segmented-scan"
        return out

    def lookup(self, queries: Table, qkey, data: Table, dkey, payload,
               default=None, check_unique: bool = True) -> Table:
        return self._join(queries, qkey, data, dkey, payload, default,
                          check_unique, exact=True)

    def predecessor(self, queries: Table, qkey: str, data: Table, dkey: str,
                    payload, default) -> Table:
        return self._join(queries, (qkey,), data, (dkey,), payload, default,
                          False, exact=False)

    def _join(self, queries, qkey, data, dkey, payload, default,
              check_unique, *, exact) -> Table:
        rt = self.rt
        prim = "lookup" if exact else "predecessor"
        qtab = self.input_table(queries)
        dtab = self.input_table(data)
        dprops = self.props_of(data) or self.props_of(dtab)
        node = self._node(
            prim, detail=f"{','.join(qkey)}->{','.join(dkey)}",
            n_in=len(qtab),
        )
        fused = self.opt.fusion_with_reduce(dprops, tuple(dkey))
        if fused:
            node.status = "fused"
            node.note = "data is a reduce_by_key output on the same key"
        t0 = time.perf_counter()
        if not self.rewrite:
            node.physical = "co-sort-copy-down"
            if node.status != "fused":
                node.status = "protocol"
            if exact:
                out = rt._lookup(qtab, qkey, dtab, dkey, payload, default,
                                 check_unique and not fused)
            else:
                out = rt._predecessor(qtab, qkey[0], dtab, dkey[0], payload,
                                      default)
            rt.tracker.record_wall(prim, time.perf_counter() - t0)
            return out
        from .runtime import pack_pair

        if exact:
            qk, dk = pack_pair(qtab, qkey, dtab, dkey)
        else:
            qk = qtab.col(qkey[0])
            dk = dtab.col(dkey[0])
            if qk.dtype.kind != "i" or dk.dtype.kind != "i":
                raise ValidationError("predecessor keys must be integer columns")
        rt.tracker.charge("lookup" if exact else "predecessor",
                          qtab.words + dtab.words)
        jp = self.opt.join_plan(
            node, qk, dk, exact=exact,
            check_unique=check_unique, fused=fused,
            data_sorted_known=bool(fused) or self._sorted_by_props(
                dprops, tuple(dkey)),
        )
        out = rt._exec_join(qtab, qk, dtab, dk, payload, default, jp,
                            exact=exact)
        rt.tracker.record_wall(prim, time.perf_counter() - t0)
        if node.status == "pending":
            node.status = "executed"
        return out

    @staticmethod
    def _sorted_by_props(props: Optional[PhysProps],
                         dkey: Tuple[str, ...]) -> bool:
        return bool(props and props.sorted_by == dkey)

    def reduce_by_key(self, table: Table, by, aggs) -> Table:
        rt = self.rt
        by = tuple(by)
        for _, (_, op) in aggs.items():
            rt._check_op(op)
        node = self._node("reduce", detail=",".join(by), n_in=len(table))
        props = self.props_of(table)
        if not self.rewrite:
            node.status = "protocol"
            node.physical = "sort-scan-boundary"
            out = rt._reduce_by_key(self.input_table(table), by, aggs)
        else:
            from .runtime import pack_columns

            tab = self.input_table(table)
            key = pack_columns(tab, by)
            rt.tracker.charge("reduce", tab.words)
            t0 = time.perf_counter()
            order = self.opt.group_order(node, key, known_sorted=bool(
                props and props.sorted_by == by))
            out = rt._exec_reduce(tab, key, by, aggs, order)
            rt.tracker.record_wall("reduce", time.perf_counter() - t0)
            node.status = "executed"
        out_props = PhysProps(sorted_by=by, unique_by=by,
                              cardinality=len(out))
        out_props.source = ("reduce", by)  # type: ignore[attr-defined]
        self.set_props(out, out_props)
        if len(by) == 1 and by[0] in out:
            self.facts.mark(out.col(by[0]), sorted=True, unique=True)
        return out

    def filter(self, table: Table, mask: np.ndarray) -> Table:
        rt = self.rt
        tab = self.input_table(table)
        node = self._node("filter", n_in=len(tab))
        in_props = self.props_of(table) or self.props_of(tab)
        if not self.rewrite:
            node.status = "protocol"
            node.physical = "compact-rebalance"
            out = rt._filter(tab, mask)
        else:
            rt.tracker.charge("filter", tab.words)
            t0 = time.perf_counter()
            out = rt._exec_filter(tab, mask)
            rt.tracker.record_wall("filter", time.perf_counter() - t0)
            node.status = "executed"
            node.physical = "mask-compact"
        # a compaction preserves relative order: sortedness survives,
        # and subsequences of duplicate-free columns stay duplicate-free
        for name in out.columns:
            src = tab.col(name) if name in tab else None
            if src is not None:
                f = self.facts._facts.get(id(src))
                if f is not None and (f.sorted or f.unique):
                    self.facts.mark(out.col(name),
                                    sorted=True if f.sorted else None,
                                    unique=True if f.unique else None)
        if in_props is not None and in_props.sorted_by:
            props = PhysProps(sorted_by=in_props.sorted_by,
                              unique_by=in_props.unique_by,
                              cardinality=len(out))
            self.set_props(out, props)
        return out

    def scalar(self, table: Table, value_col: str, op: str):
        rt = self.rt
        rt._check_op(op)
        tab = self.input_table(table)
        node = self._node("scalar", detail=value_col, n_in=len(tab))
        self.flush()  # scalar reads are global flush points
        if not self.rewrite:
            node.status = "protocol"
            node.physical = "aggregation-tree"
            return rt._scalar(tab, value_col, op)
        rt.tracker.charge("scalar", tab.words)
        t0 = time.perf_counter()
        out = rt._exec_scalar(tab, value_col, op)
        rt.tracker.record_wall("scalar", time.perf_counter() - t0)
        node.status = "executed"
        node.physical = "aggregation-tree"
        return out
