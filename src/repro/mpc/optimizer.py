"""Rule-based physical optimizer over the logical plan.

Rules are applied per node as the planner records it (joins, reduces)
or at flush time (deferred sorts). Every rewrite must be *provably*
output-identical to the eager engine — properties are either derived
structurally from producing ops, or discovered by a memoised one-pass
verification (never assumed). The rule set:

``elide-sort``
    a sort whose key is already non-decreasing is the identity (a
    stable argsort of a sorted key is ``arange``), so the permutation
    and the gathers it feeds are skipped.
``reuse-sort`` (common-sub-plan reuse)
    the same table sorted by the same key twice returns the first plan
    node's output.
``fuse-reduce-join``
    a lookup/predecessor whose data operand is the output of a
    ``reduce_by_key`` over the same key inherits sorted+unique from the
    reduce — the join runs directly on the grouped output with no
    re-sort, no sortedness scan and no duplicate check.
``elide-dup-check``
    ``lookup``'s uniqueness validation is skipped when uniqueness is a
    known fact (and registered as one after the first verification, so
    repeated lookups against the same data pay it once).
``join-operator-selection``
    the physical join kernel is chosen from the data key's properties:

    * ``dense-gather`` — sorted, unique, contiguous keys: the position
      is the key itself (one subtraction, no search);
    * ``direct-address`` — sorted keys over a modest integer range: a
      scatter into a range-indexed table plus one gather (for
      predecessor, plus a running maximum over the range) replaces the
      per-query binary search — ~6-20x faster than ``searchsorted`` at
      this repo's shapes;
    * ``merge-search`` — predecessor joins whose key range is too wide
      to address directly (the labelling, LCA and sensitivity replays'
      packed (cluster, DFS-low) keys span ~n²) and whose query side is
      large against the data: the queries are sorted once and merged
      with the data keys (:func:`~repro.mpc.kernels.merge_search_slots`),
      the local realisation of the message-level engine's co-sort and
      copy-down;
    * ``binary-search`` — the eager kernel, used for every other join
      whose key range is too wide to address directly: exact lookups
      over packed composite keys, and predecessor joins with few
      queries.

    Each resolves the join to one slot vector (:class:`JoinPlan`), and
    all four vectors are bit-identical to the eager
    :func:`~repro.mpc.kernels.search_slots`.

The message-level engine accepts only check elisions and fusion facts:
its transport schedule is the physical ground truth the planner must
keep bit-identical, so no exchange is ever skipped there (see
``Planner`` in :mod:`.plan`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .kernels import (check_unique_sorted, merge_search_slots, search_slots,
                      stable_argsort)

__all__ = ["JoinPlan", "Optimizer", "DIRECT_SPAN_SLACK"]

#: ``direct-address`` is used when the key span fits within this many
#: words per involved row (the scatter table must stay linear in the
#: join's own size to be a win — and to respect the memory model).
DIRECT_SPAN_SLACK = 8
DIRECT_SPAN_FLOOR = 4096

#: ``merge-search`` answers a wide-span predecessor join with at least
#: ``MERGE_MIN_QUERIES`` queries and ``MERGE_QUERY_RATIO`` queries per
#: data row. Crossover measured on a 2-vCPU Xeon (best of 7 per join)
#: over the 637 wide-span predecessor joins that one verify and one
#: sensitivity call issue on a random and a backbone2048 graph at
#: n = 4096 and 16384: binary search takes 356 ms for all of them, and
#: merging the 566 these constants select cuts that to 120 ms (largest
#: join, nq = 65503 and nd = 4106: 1125 -> 736 us). The joins below the
#: query floor are small (nq < 1024: ~3 us searched vs ~21 us merged)
#: or have nq < 2 nd. The 40 selected joins the merge still loses, each
#: by < 0.12 ms, have nd <= 146; a floor on nd would forfeit more than
#: it saves (120 -> 124 ms at nd >= 32). Queries already in key order
#: favour the binary search (~2x on synthetic joins), but the captured
#: ones arrive unordered.
MERGE_MIN_QUERIES = 4096
MERGE_QUERY_RATIO = 2


@dataclass
class JoinPlan:
    """Physical join decisions handed to the engine's ``_exec_*`` kernels.

    ``order`` is the stable sort order of the data keys (``None`` when
    they are already sorted — matching the eager ``_sorted_order``
    contract); ``slot`` holds, per query, the 1-based position of its
    data row *in sorted-data coordinates*, 0 on a miss.
    """

    order: Optional[np.ndarray]
    slot: np.ndarray


class Optimizer:
    def __init__(self, planner):
        self.planner = planner
        self.facts = planner.facts
        # physical common-sub-plan reuse: scatter/accumulate address
        # tables keyed by data-key array identity (weakly guarded), so
        # repeated joins against the same data build them once
        self._addr_cache: dict = {}

    # -- rule: fuse-reduce-join --------------------------------------------------

    @staticmethod
    def fusion_with_reduce(data_props, dkey: Tuple[str, ...]) -> bool:
        return bool(
            data_props is not None
            and data_props.source is not None
            and data_props.source == ("reduce", dkey)
        )

    # -- rule: elide-sort (used by deferred sort nodes) --------------------------

    def execute_sort(self, node) -> dict:
        """Run (or elide) one deferred sort node; returns concrete cols."""
        cols = self.planner.input_table(node.input)._cols
        key = node.packed_key
        if key is None:
            key = cols[node.key_col]
        if self.facts.ensure_sorted(key):
            node.status = "elided"
            node.physical = "identity"
            node.note = "input already in key order"
            out = dict(cols)
        else:
            node.status = "executed"
            node.physical = "argsort-permute"
            order = stable_argsort(key)
            out = {k: v[order] for k, v in cols.items()}
        if node.key_col is not None:
            out_key = out[node.key_col]
            self.facts.mark(out_key, sorted=True)
            in_facts = self.facts.get(key)
            if in_facts.unique:
                self.facts.mark(out_key, unique=True)
        return out

    # -- rule: group-order for reduce --------------------------------------------

    def group_order(self, node, key: np.ndarray,
                    known_sorted: bool) -> Optional[np.ndarray]:
        """The stable grouping order, or ``None`` when rows are already
        grouped — decided from facts instead of a per-call scan."""
        if known_sorted or self.facts.ensure_sorted(key):
            node.physical = "grouped-reduceat"
            node.note = "input already grouped by key"
            return None
        node.physical = "sort-reduceat"
        return stable_argsort(key)

    # -- rule: join-operator-selection -------------------------------------------

    def join_plan(self, node, qk: np.ndarray, dk: np.ndarray, *,
                  exact: bool, check_unique: bool, fused: bool,
                  data_sorted_known: bool) -> JoinPlan:
        nd, nq = len(dk), len(qk)
        if nd == 0:
            node.physical = "empty-data"
            return JoinPlan(order=None, slot=np.zeros(nq, dtype=np.int64))
        # 1. sortedness: structural fact, memoised discovery, or argsort
        if fused or data_sorted_known:
            self.facts.mark(dk, sorted=True, unique=True if fused else None)
        if self.facts.ensure_sorted(dk):
            order = None
            dks = dk
        else:
            order = stable_argsort(dk)
            dks = dk[order]
        # 2. uniqueness (lookup only): elide when known, else verify once
        unique = None
        if exact and check_unique:
            unique_known = order is None and self.facts.get(dk).unique
            if unique_known:
                node.note = (node.note + "; " if node.note else "") + \
                    "dup-check elided"
            else:
                check_unique_sorted(dks)
                if order is None:
                    self.facts.mark(dk, unique=True)
            unique = True
        elif order is None:
            unique = self.facts.get(dk).unique
        # 3. physical kernel
        lo = int(dks[0])
        hi = int(dks[-1])
        span = hi - lo + 1
        cap = max(DIRECT_SPAN_FLOOR, DIRECT_SPAN_SLACK * (nd + nq))
        if span <= cap:
            table, shared = self._address_table(dks, lo, span, exact=exact,
                                                first_wins=not unique,
                                                cache=order is None)
            if shared:
                node.reuse = True
                node.note = (node.note + "; " if node.note else "") + \
                    "address table reused"
            # the zero pads answer every query outside [lo, hi]
            idx = qk - lo
            idx += 1
            slot = table[np.clip(idx, 0, span + 1, out=idx)]
            node.physical = ("dense-gather" if unique and span == nd
                            else "direct-address")
        elif (not exact and nq >= MERGE_MIN_QUERIES
              and nq >= MERGE_QUERY_RATIO * nd):
            node.physical = "merge-search"
            slot = merge_search_slots(dks, qk)
        else:
            node.physical = "binary-search"
            slot = search_slots(dks, qk, exact=exact)
        return JoinPlan(order=order, slot=slot)

    def _address_table(self, dks, lo, span, *, exact, first_wins,
                       cache=True):
        """The slot table for ``dks``: entry ``k - lo + 1`` holds key
        ``k``'s slot, with a zero pad at each end. Built once.

        Equi-join tables reproduce :func:`~repro.mpc.kernels.search_slots`:
        the *first* of duplicate data keys wins, so the scatter runs in
        reverse unless uniqueness is established. For predecessor joins
        a running maximum makes entry ``k`` the last row with key <= k
        (last duplicate wins) and carries the last slot into the pad.
        """
        kind = "exact" if exact else "pred"
        key = (id(dks), kind)  # per kind: mixed lookup/predecessor
        entry = self._addr_cache.get(key) if cache else None
        if entry is not None:
            ref, elo, ewins, table = entry
            # any cached exact table is reusable: a first-wins scatter
            # and a unique-proven scatter agree whenever a non-first-wins
            # request is legal (uniqueness proven => no duplicates)
            if ref() is dks and elo == lo:
                return table, True
        fwd = np.zeros(span + 2, dtype=np.int64)
        at = dks - lo
        at += 1
        slots = np.arange(1, len(dks) + 1, dtype=np.int64)
        if exact and first_wins:
            fwd[at[::-1]] = slots[::-1]
        else:
            fwd[at] = slots
        if not exact:
            np.maximum.accumulate(fwd, out=fwd)
        if cache:
            self._addr_cache[key] = (
                weakref.ref(dks,
                            lambda _, k=key: self._addr_cache.pop(k, None)),
                lo, first_wins, fwd,
            )
        return fwd, False
