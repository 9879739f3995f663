"""Message-level MPC engine on the columnar fabric.

Every runtime primitive is realised as an explicit multi-round protocol
over the :class:`~repro.mpc.machines.Fabric`: records are block-
partitioned into shards, machines exchange real (now columnar) rounds,
and the per-machine memory cap ``s`` is enforced on every round. The
protocols are the classical [GSZ11] constructions:

* ``sort``   — sample sort (local sort, sampled splitters on machine 0,
  splitter broadcast, bucket routing with tie-spreading, exact block
  rebalance);
* ``scan``   — local segmented scans + carry chain resolved on machine 0;
* ``lookup``/``predecessor`` — co-sort of tagged records + distributed
  forward-fill ("copy down"), then routing answers back to the callers;
* ``reduce_by_key`` — sort, scan, boundary exchange, compaction;
* ``filter``/``scalar`` — compaction / aggregation trees.

Rather than materialising ``m`` per-machine ``Table`` shards and packet
lists, the engine keeps the fleet as whole struct-of-arrays columns plus
a machine-id column (machine-major, so shard ``j`` is a contiguous
block) and executes each protocol phase with whole-fleet NumPy kernels:
bulk routing is one :meth:`Fabric.route` permutation, constant-size
control traffic (counts, offsets, summaries, carries) goes through
:meth:`Fabric.control` with exact per-machine word vectors. Round
structure, capacity enforcement and delivery order are identical to a
packet-by-packet simulation — only the interpreter-level per-packet work
is gone (see DESIGN.md §2.4).

Outputs are bit-identical to :class:`~repro.mpc.local.LocalRuntime`
(tests assert this), and model rounds are charged identically; actual
transport rounds are additionally counted by the fabric.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..errors import CapacityError, ProtocolError, ValidationError
from .config import MPCConfig
from .kernels import (
    op_combine,
    op_identity,
    segmented_scan,
)
from .local import _default_fill, _sorted_order
from .machines import Fabric, FleetState
from .runtime import Runtime, pack_columns, pack_pair
from .table import Table

__all__ = ["DistributedRuntime"]


class DistributedRuntime(Runtime):
    """Message-level engine; see module docstring.

    Under the planner this engine runs in *record* mode (no
    ``"rewrite"`` capability): the logical plan is captured and
    property-proven check elisions apply (e.g. the duplicate-key scan
    of a lookup fused with its producing reduce), but every protocol
    executes in full — the transport-round schedule is part of the
    engine's contract and must stay bit-identical, planned or eager.
    Workload-level partitions (:func:`repro.mpc.parallel.run_partitions`)
    still parallelise whole record-mode pipelines across worker
    processes.
    """

    def __init__(self, config: MPCConfig | None = None, total_words_hint: int = 4096):
        super().__init__(config)
        self.s = self.config.machine_capacity(total_words_hint)
        self.m = self.config.machine_count(total_words_hint)
        if self.m > self.s:
            raise ValidationError(
                f"deployment has m={self.m} > s={self.s}: single-level protocols "
                f"need m <= s (raise delta or min_machine_words for this input size)"
            )
        self.fabric = Fabric(self.m, self.s, self.tracker)

    # ------------------------------------------------------------------ plumbing

    def _rows_cap(self, ncols: int) -> int:
        return max(1, self.s // (2 * max(1, ncols)))

    def _scatter(self, n: int, ncols: int) -> Tuple[int, int]:
        """Block-partition ``n`` rows of ``ncols``-word records over the fleet.

        Machine ``j`` holds rows ``[j*cap, (j+1)*cap)`` — the machine-id
        column is implicit in the row position, so scattering costs no
        data movement in the simulation (the input is modelled as
        arriving pre-partitioned). Returns ``(cap, need)`` where ``need``
        is the number of non-empty shards.
        """
        cap = self._rows_cap(ncols)
        need = -(-n // cap) if n else 0
        if need > self.m:
            raise CapacityError(self.m - 1, n * ncols, self.m * cap * ncols,
                                what="hold input of")
        self.tracker.observe_machine_words(min(cap, n) * ncols)
        return cap, need

    def _block_counts(self, n: int, cap: int) -> np.ndarray:
        """Per-machine row counts of the exact block partition."""
        counts = np.zeros(self.m, dtype=np.int64)
        if n:
            need = -(-n // cap)
            counts[:need] = cap
            counts[need - 1] = n - (need - 1) * cap
        return counts

    def _block_mid(self, n: int, cap: int) -> np.ndarray:
        return np.arange(n, dtype=np.int64) // cap

    def _broadcast_tree(self, src: int, table: Table) -> List[Table]:
        """Deliver ``table`` to every machine via an f-ary fan-out tree.

        Per round each informed machine forwards at most
        ``f = s // words`` copies, so no machine exceeds its send cap;
        the number of informed machines grows by ``min(f * informed,
        remaining)`` per round. The fabric charges each fan-out round
        (words moved = newly informed x table words).
        """
        m = self.m
        w = max(1, table.words)
        if 2 * w > self.s:
            raise CapacityError(src, 2 * w, self.s, what="broadcast")
        f = max(1, self.s // w)
        # uninformed machines are informed in ascending id order; senders
        # (sorted, each forwarding up to f copies) stay under the send cap
        # by construction of f — the fabric still checks every round
        others = np.setdiff1d(np.arange(m, dtype=np.int64), [src])
        informed = np.array([src], dtype=np.int64)
        ti = 0
        while ti < len(others):
            newly = min(f * len(informed), len(others) - ti)
            send = np.zeros(m, dtype=np.int64)
            recv = np.zeros(m, dtype=np.int64)
            nfull, rem = divmod(newly, f)
            senders = np.sort(informed)
            send[senders[:nfull]] = f * w
            if rem:
                send[senders[nfull]] = rem * w
            recv[others[ti:ti + newly]] = w
            self.fabric.control(send, recv)
            informed = np.concatenate([informed, others[ti:ti + newly]])
            ti += newly
        return [table] * m

    def _rebalance(self, counts: np.ndarray, ncols: int, cap: int) -> None:
        """Exactly block-redistribute shard rows, preserving order (3 rounds).

        On the columnar fleet the rows are already held in global
        (machine-major) order, so the redistribution itself is a no-op
        permutation; the three protocol rounds — counts to machine 0,
        offsets back out, rows to their block positions (each row
        shipped with its global-position word ``__p``) — are charged
        with their exact per-machine word vectors.
        """
        m = self.m
        n = int(counts.sum())
        # round 1: counts to machine 0 (every machine reports, 2 words each)
        send = np.full(m, 2, dtype=np.int64)
        recv = np.zeros(m, dtype=np.int64)
        recv[0] = 2 * m
        self.fabric.control(send, recv)
        # round 2: offsets back out (1 word to each machine)
        send = np.zeros(m, dtype=np.int64)
        send[0] = m
        recv = np.ones(m, dtype=np.int64)
        self.fabric.control(send, recv)
        # round 3: route rows to block positions (records carry __p)
        send = counts * (ncols + 1)
        recv = self._block_counts(n, cap) * (ncols + 1)
        self.fabric.control(send, recv)

    # ------------------------------------------------------------------ sort

    def _sort_impl(self, table: Table, key: np.ndarray) -> Table:
        """Sample sort by ``key`` with original-order tiebreak; not charged."""
        n = len(table)
        if n <= 1:
            return table
        m = self.m
        ncols = len(dict.fromkeys((*table.columns, "__k", "__g")))
        cap, need = self._scatter(n, ncols)
        k = np.asarray(key)
        g = np.arange(n, dtype=np.int64)
        # local sort inside each shard by (key, original order): shards are
        # contiguous blocks, so one machine-major lexsort does all of them
        mid = self._block_mid(n, cap)
        perm = np.lexsort((g, k, mid))
        k, g = k[perm], g[perm]
        counts = self._block_counts(n, cap)
        offs = np.concatenate(([0], np.cumsum(counts)))
        # sample round: q evenly spaced local keys from every shard to 0
        q = max(1, min(self.s // max(1, m), 8 * int(np.ceil(np.log2(m + 1)))))
        send = np.zeros(m, dtype=np.int64)
        sample_parts = []
        for j in range(need):
            lj = int(counts[j])
            take = min(q, lj)
            idxs = offs[j] + np.linspace(0, lj - 1, num=take).astype(np.int64)
            sample_parts.append(k[idxs])
            send[j] = take
        recv = np.zeros(m, dtype=np.int64)
        recv[0] = int(send.sum())
        self.fabric.control(send, recv)
        samples = (
            np.sort(np.concatenate(sample_parts))
            if sample_parts
            else np.empty(0, dtype=np.int64)
        )
        if len(samples) and m > 1:
            pos = (np.arange(1, m, dtype=np.int64) * len(samples)) // m
            splitters = samples[np.minimum(pos, len(samples) - 1)]
        else:
            splitters = np.empty(0, dtype=np.int64)
        # splitter broadcast (fan-out tree)
        self._broadcast_tree(0, Table(__s=splitters))
        # bucket routing (monotone tie-spreading keeps total order)
        lo = np.searchsorted(splitters, k, side="left")
        hi = np.searchsorted(splitters, k, side="right")
        bucket = lo + (g * (hi - lo + 1)) // n
        state = self.fabric.route(
            FleetState({"k": k, "g": g, "perm": perm}, mid), bucket, ncols
        )
        # local sort of the received buckets
        order = np.lexsort((state.cols["g"], state.cols["k"], state.mid))
        perm = state.cols["perm"][order]
        self._rebalance(np.bincount(state.mid, minlength=m), ncols, cap)
        return table.take(perm)

    def _sort(self, table: Table, by: Sequence[str]) -> Table:
        key = pack_columns(table, by)
        self.tracker.charge("sort", table.words)
        return self._sort_impl(table, key)

    # ------------------------------------------------------------------ scan

    def _scan_impl(
        self,
        keys: np.ndarray | None,
        values: np.ndarray,
        op: str,
        exclusive: bool,
    ) -> np.ndarray:
        n = len(values)
        if n == 0:
            return values.copy()
        m = self.m
        cap, need = self._scatter(n, 2)  # records are (__k, __v) pairs
        counts = self._block_counts(n, cap)
        offs = np.concatenate(([0], np.cumsum(counts)))
        firsts = offs[:need]
        k = keys if keys is not None else np.zeros(n, dtype=np.int64)
        # segment starts, with every machine boundary restarting the local scan
        starts = np.zeros(n, dtype=bool)
        starts[0] = True
        starts[1:] = k[1:] != k[:-1]
        starts[firsts] = True
        if op == "sum" and values.dtype.kind == "f":
            # float cumsums must accumulate shard-locally to reproduce the
            # per-machine rounding of a real deployment bit-for-bit
            inc = np.empty_like(values)
            for j in range(need):
                lo, hi = int(offs[j]), int(offs[j + 1])
                inc[lo:hi] = segmented_scan(values[lo:hi], op, starts[lo:hi])
        else:
            inc = segmented_scan(values, op, starts)
        # summaries to machine 0: (__j, __e, __fk, __lk, __tail, __single)
        lasts = offs[1:need + 1] - 1
        nseg = (np.add.reduceat(starts.astype(np.int64), firsts)
                if need else np.empty(0, dtype=np.int64))
        info = {}
        for j in range(m):
            if j >= need:
                info[j] = (1, 0, 0, 0.0, 0)
            else:
                info[j] = (0, int(k[firsts[j]]), int(k[lasts[j]]),
                           float(inc[lasts[j]]), int(nseg[j] == 1))
        send = np.full(m, 6, dtype=np.int64)
        recv = np.zeros(m, dtype=np.int64)
        recv[0] = 6 * m
        self.fabric.control(send, recv)
        # machine 0 resolves the carry chain
        carries = {}
        for j in range(m):
            e, fk, lk, tail, single = info[j]
            if e:
                continue
            carry = None
            for i in range(j - 1, -1, -1):
                ei, fki, lki, taili, singlei = info[i]
                if ei:
                    continue
                if lki != fk:
                    break
                carry = taili if carry is None else op_combine(op, taili, carry)
                if not singlei:
                    break
            if carry is not None:
                carries[j] = carry
        # send carries (1 word each)
        send = np.zeros(m, dtype=np.int64)
        recv = np.zeros(m, dtype=np.int64)
        send[0] = len(carries)
        for j in carries:
            recv[j] = 1
        self.fabric.control(send, recv)
        # apply carries to each leading segment; derive exclusive locally
        applied = {}
        for j, c in carries.items():
            if values.dtype.kind != "f":
                c = int(c)
            applied[j] = c
            lo, hi = int(offs[j]), int(offs[j + 1])
            rel = np.flatnonzero(starts[lo + 1:hi])
            end = lo + 1 + int(rel[0]) if len(rel) else hi
            seg = inc[lo:end]
            if op == "sum":
                upd = c + seg
            elif op == "max":
                upd = np.where(c >= seg, c, seg)
            else:
                upd = np.where(c <= seg, c, seg)
            inc[lo:end] = upd.astype(inc.dtype, copy=False)
        if not exclusive:
            return inc
        ident = op_identity(op, values.dtype)
        exc = np.empty_like(
            inc, dtype=np.float64 if isinstance(ident, float) else inc.dtype
        )
        exc[1:] = inc[:-1]
        exc[starts] = ident
        for j, c in applied.items():
            exc[int(offs[j])] = c
        return exc

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
        return self._scan_impl(keys, table.col(value_col), op, exclusive)

    # ------------------------------------------------------------------ joins

    def _copy_down(
        self, table: Table, cols: Sequence[str], cap: int
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Distributed forward-fill of ``cols`` where ``__val`` marks valid rows.

        Round 1: every machine forward-fills locally and reports its last
        valid row (or ``has=0``) to machine 0; round 2: machine 0 sends
        each machine the nearest *preceding* valid row, which fills the
        machine's still-invalid leading prefix. The composition equals a
        plain fleet-wide forward fill, so that is what the columnar
        engine computes — the two rounds are charged with the exact
        per-machine payload words.
        """
        n = len(table)
        m = self.m
        counts = self._block_counts(n, cap)
        need = int(np.count_nonzero(counts))
        firsts = np.concatenate(([0], np.cumsum(counts)))[:need]
        valid = table.col("__val").astype(bool)
        F = len(cols)
        hasj = np.zeros(m, dtype=bool)
        if need:
            hasj[:need] = np.logical_or.reduceat(valid, firsts)
        # round 1: last valid row (2 + F words) or a has=0 marker (2 words)
        send = np.where(hasj, 2 + F, 2).astype(np.int64)
        recv = np.zeros(m, dtype=np.int64)
        recv[0] = int(send.sum())
        self.fabric.control(send, recv)
        # round 2: nearest preceding valid row to every later machine
        send = np.zeros(m, dtype=np.int64)
        recv = np.zeros(m, dtype=np.int64)
        with_valid = np.flatnonzero(hasj)
        if len(with_valid):
            fv = int(with_valid[0])
            send[0] = (m - fv - 1) * (2 + F)
            recv[fv + 1:] = 2 + F
        self.fabric.control(send, recv)
        # the rounds above realise exactly a fleet-wide forward fill
        idx = np.where(valid, np.arange(n, dtype=np.int64), -1)
        idx = np.maximum.accumulate(idx)
        ok = idx >= 0
        gather = np.maximum(idx, 0)
        filled = {}
        for c in cols:
            v = table.col(c)
            out = v.copy()
            out[ok] = v[gather[ok]]
            filled[c] = out
        return filled, ok

    def _merge_join(
        self,
        queries: Table,
        qk: np.ndarray,
        data: Table,
        dk: np.ndarray,
        payload: Mapping[str, str],
        default: Mapping[str, float] | None,
        exact: bool,
    ) -> Table:
        nq, nd = len(queries), len(data)
        if nq == 0:
            out = {o: _default_fill(0, data.col(s), 0) for o, s in payload.items()}
            return queries.with_cols(**out)
        pay_cols = list(payload.values())
        combo_cols = {
            "__jk": np.concatenate([dk, qk]),
            "__t": np.concatenate(
                [np.zeros(nd, dtype=np.int64), np.ones(nq, dtype=np.int64)]
            ),
            "__q": np.concatenate(
                [np.zeros(nd, dtype=np.int64), np.arange(nq, dtype=np.int64)]
            ),
            "__val": np.concatenate(
                [np.ones(nd, dtype=np.int64), np.zeros(nq, dtype=np.int64)]
            ),
        }
        fill_cols = ["__dk"]
        combo_cols["__dk"] = np.concatenate([dk, np.zeros(nq, dtype=np.int64)])
        for i, src in enumerate(pay_cols):
            arr = data.col(src)
            name = f"__p{i}"
            fill_cols.append(name)
            combo_cols[name] = np.concatenate(
                [arr, np.zeros(nq, dtype=arr.dtype)]
            )
        combo = Table(combo_cols)
        skey = pack_columns(combo, ("__jk", "__t", "__q"))
        scombo = self._sort_impl(combo, skey)
        cap, _ = self._scatter(len(scombo), len(scombo.columns))
        filled, ok = self._copy_down(scombo, fill_cols, cap)
        merged = scombo.with_cols(**filled, __val=ok.astype(np.int64))
        is_q = merged.col("__t") == 1
        qrows = merged.mask(is_q)
        hit = qrows.col("__val").astype(bool)
        if exact:
            hit = hit & (qrows.col("__dk") == qrows.col("__jk"))
        if default is None and not hit.all():
            raise ProtocolError("lookup misses with no default")
        # route answers back to query order (1 round via rebalance by __q)
        ans_cols = {"__q": qrows.col("__q"), "__hit": hit.astype(np.int64)}
        for i in range(len(pay_cols)):
            ans_cols[f"__p{i}"] = qrows.col(f"__p{i}")
        ans = Table(ans_cols)
        ans = self._sort_impl(ans, ans.col("__q"))
        out_cols = {}
        hit = ans.col("__hit").astype(bool)
        for i, (out_name, src_name) in enumerate(payload.items()):
            src = data.col(src_name)
            got = ans.col(f"__p{i}")
            if hit.all():
                out_cols[out_name] = got.astype(src.dtype, copy=False)
            else:
                col = _default_fill(nq, src, default[out_name])
                col[hit] = got[hit].astype(col.dtype, copy=False)
                out_cols[out_name] = col
        return queries.with_cols(**out_cols)

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
        if check_unique and len(dk) > 1:
            order = _sorted_order(dk)
            sdk = dk if order is None else dk[order]
            if np.any(sdk[1:] == sdk[:-1]):
                raise ProtocolError("lookup data has duplicate keys")
        self.tracker.charge("lookup", queries.words + data.words)
        return self._merge_join(queries, qk, data, dk, payload, default, exact=True)

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
        return self._merge_join(queries, qk, data, dk, payload, default, exact=False)

    # ------------------------------------------------------------------ reduce

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
        n = len(table)
        if n == 0:
            out = {c: table.col(c)[:0] for c in by}
            for out_name, (src_name, _) in aggs.items():
                out[out_name] = table.col(src_name)[:0]
            return Table(out)
        need = list(dict.fromkeys(list(by) + [s for s, _ in aggs.values()]))
        aug = table.select(need).with_cols(__rk=key)
        saug = self._sort_impl(aug, key)
        sk = saug.col("__rk")
        results = {}
        for out_name, (src_name, op) in aggs.items():
            results[out_name] = self._scan_impl(sk, saug.col(src_name), op, False)
        # boundary exchange: each machine ships its first key to its
        # predecessor so the last row of every key group can be found
        m = self.m
        cap, nneed = self._scatter(n, len(saug.columns))
        send = np.zeros(m, dtype=np.int64)
        recv = np.zeros(m, dtype=np.int64)
        if nneed > 1:
            send[1:nneed] = 1
            recv[:nneed - 1] = 1
        self.fabric.control(send, recv)
        # shards are contiguous, so a machine-last row keeps iff its key
        # differs from the next machine's first key — i.e. the next row
        keep = np.empty(n, dtype=bool)
        keep[:-1] = sk[:-1] != sk[1:]
        keep[-1] = True
        out = {c: saug.col(c)[keep] for c in by}
        for out_name in aggs:
            out[out_name] = results[out_name][keep]
        # charge a physical compaction round
        zeros = np.zeros(m, dtype=np.int64)
        self.fabric.control(zeros, zeros)
        return Table(out)

    # ------------------------------------------------------------------ misc

    def _filter(self, table: Table, mask: np.ndarray) -> Table:
        self.tracker.charge("filter", table.words)
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != len(table):
            raise ValidationError("mask length mismatch")
        n = len(table)
        if n == 0:
            return table
        ncols_in = len(dict.fromkeys((*table.columns, "__m")))
        cap, _ = self._scatter(n, ncols_in)
        # compaction is shard-local and free; the survivors then block-
        # rebalance (3 rounds) carrying their original columns
        mid = self._block_mid(n, cap)
        kept = np.bincount(mid[mask], minlength=self.m)
        self._rebalance(kept, len(table.columns), cap)
        return table.mask(mask)

    def _scalar(self, table: Table, value_col: str, op: str):
        self._check_op(op)
        vals = table.col(value_col)
        self.tracker.charge("scalar", table.words)
        if len(vals) == 0:
            return op_identity(op, vals.dtype)
        n = len(vals)
        m = self.m
        cap, need = self._scatter(n, 1)
        offs = np.concatenate(([0], np.cumsum(self._block_counts(n, cap))))
        parts = []
        for j in range(need):
            v = vals[offs[j]:offs[j + 1]]
            parts.append(v.sum() if op == "sum" else (v.max() if op == "max" else v.min()))
        send = np.zeros(m, dtype=np.int64)
        send[:need] = 1
        recv = np.zeros(m, dtype=np.int64)
        recv[0] = need
        self.fabric.control(send, recv)
        parts = np.array(parts)
        total = parts.sum() if op == "sum" else (parts.max() if op == "max" else parts.min())
        # broadcast round (physical, result conceptually known everywhere)
        zeros = np.zeros(m, dtype=np.int64)
        self.fabric.control(zeros, zeros)
        if vals.dtype.kind != "f":
            return int(total)
        return float(total)
