"""Shared NumPy kernels used by both runtime engines.

The local engine applies these to whole columns; the distributed engine
applies them shard-locally inside its message-level protocols. Keeping
one implementation guarantees the engines agree bit-for-bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ProtocolError

__all__ = [
    "stable_argsort",
    "search_slots",
    "merge_search_slots",
    "check_unique_sorted",
    "segment_starts",
    "segmented_scan",
    "forward_fill",
    "op_identity",
    "op_combine",
]


def op_identity(op: str, dtype: np.dtype):
    """Identity element of ``op`` for values of ``dtype``."""
    kind = np.dtype(dtype).kind
    if op == "sum":
        return 0.0 if kind == "f" else 0
    if op == "max":
        return -np.inf if kind == "f" else np.iinfo(np.int64).min
    if op == "min":
        return np.inf if kind == "f" else np.iinfo(np.int64).max
    raise ProtocolError(f"unsupported op {op!r}")


def op_combine(op: str, a, b):
    """Scalar combine for carry propagation."""
    if op == "sum":
        return a + b
    if op == "max":
        return a if a >= b else b
    if op == "min":
        return a if a <= b else b
    raise ProtocolError(f"unsupported op {op!r}")


def stable_argsort(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for an integer key, faster.

    The words ``(key - min) * n + row`` are distinct, so a plain
    ``np.sort`` of them yields the stable order. Keys whose span would
    overflow an int64 word fall back to the stable argsort.
    """
    n = len(key)
    if key.dtype.kind not in "iu" or key.dtype == np.uint64 or n < 2:
        return np.argsort(key, kind="stable")
    lo, hi = int(key.min()), int(key.max())
    if (hi - lo) * n + n - 1 > np.iinfo(np.int64).max:
        return np.argsort(key, kind="stable")
    words = key.astype(np.int64)
    words -= lo
    words *= n
    words += np.arange(n, dtype=np.int64)
    words.sort()
    return np.remainder(words, n, out=words)


def search_slots(dks: np.ndarray, qk: np.ndarray, *, exact: bool) -> np.ndarray:
    """Join slots of ``qk`` against the sorted data keys ``dks``.

    A slot is the 1-based position of the matching data row, 0 on a
    miss: for an equi-join the first row equal to the query, for a
    predecessor join the last row ``<=`` the query.
    """
    if not exact:
        return np.searchsorted(dks, qk, side="right")
    pos = np.searchsorted(dks, qk, side="left")
    if len(dks) == 0:
        return pos
    hit = dks[np.minimum(pos, len(dks) - 1)] == qk
    return np.where(hit, pos + 1, 0)


def merge_search_slots(dks: np.ndarray, qk: np.ndarray) -> np.ndarray:
    """Predecessor slots ``np.searchsorted(dks, qk, side="right")`` by a
    merge instead of one binary search per query.

    ``dks`` is sorted and non-empty; both are signed integer keys. The
    local form of the distributed engine's co-sort and copy-down: the
    queries strictly inside ``[dks[0], dks[-1])`` are sorted once as the
    distinct words ``(key - lo) << b | row``, each data key is searched
    into that run (``nd`` searches instead of ``nq``), the run lengths
    between consecutive data keys expand into slots with one
    ``np.repeat``, and the rows scatter them back to query order.
    Queries below ``dks[0]`` read 0 and queries at or above ``dks[-1]``
    read ``nd`` without entering the sort. Keys whose packed word would
    not fit an int64 fall back to the binary search.
    """
    nd, nq = len(dks), len(qk)
    lo, hi = int(dks[0]), int(dks[-1])
    b = (nq - 1).bit_length()  # row bits
    if (hi - lo) << b > np.iinfo(np.int64).max:
        return np.searchsorted(dks, qk, side="right")
    top = qk >= hi
    inside = qk >= lo
    inside ^= top  # hi >= lo, so top is a subset of (qk >= lo)
    slot = top.astype(np.int64)
    slot *= nd
    rows = np.flatnonzero(inside)
    words = qk[rows].astype(np.int64, copy=False)
    words -= lo
    words <<= b
    words |= rows
    words.sort()
    marks = dks.astype(np.int64)
    marks -= lo
    marks <<= b
    # inside keys are >= dks[0], so starts[0] == 0 and the runs cover all
    starts = np.searchsorted(words, marks, side="left")
    runs = np.diff(starts, append=len(words))
    words &= (1 << b) - 1
    slot[words] = np.repeat(np.arange(1, nd + 1, dtype=np.int64), runs)
    return slot


def check_unique_sorted(dks: np.ndarray) -> None:
    """Raise :class:`ProtocolError` if the sorted keys ``dks`` repeat."""
    dup = dks[1:][dks[1:] == dks[:-1]]
    if len(dup):
        raise ProtocolError(f"lookup data has duplicate key {int(dup[0])}")


def segment_starts(keys: np.ndarray | None, n: int) -> np.ndarray:
    """Boolean mask of segment-start positions for contiguous equal keys."""
    starts = np.zeros(n, dtype=bool)
    if n == 0:
        return starts
    starts[0] = True
    if keys is not None:
        starts[1:] = keys[1:] != keys[:-1]
    return starts


def _seg_ids(starts: np.ndarray) -> np.ndarray:
    return np.cumsum(starts) - 1


def segmented_scan(
    values: np.ndarray,
    op: str,
    starts: np.ndarray,
    exclusive: bool = False,
) -> np.ndarray:
    """Prefix aggregation within contiguous segments.

    ``starts`` marks the first row of each segment. Sum uses an exact
    cumulative-sum-with-offset; max/min use O(log n) doubling passes
    (the same structure an MPC scan would use).
    """
    n = len(values)
    if n == 0:
        return values.copy()
    if op == "sum":
        c = np.cumsum(values)
        start_idx = np.flatnonzero(starts)
        base = np.where(start_idx > 0, c[start_idx - 1] if n > 1 else 0, 0)
        if len(start_idx):
            base = np.where(start_idx > 0, c[np.maximum(start_idx - 1, 0)], 0)
        inc = c - base[_seg_ids(starts)]
    elif op in ("max", "min"):
        seg = _seg_ids(starts)
        inc = values.astype(np.float64 if values.dtype.kind == "f" else np.int64).copy()
        func = np.maximum if op == "max" else np.minimum
        k = 1
        while k < n:
            same = seg[k:] == seg[:-k]
            upd = func(inc[k:], inc[:-k])
            inc[k:] = np.where(same, upd, inc[k:])
            k <<= 1
    else:
        raise ProtocolError(f"unsupported scan op {op!r}")
    if not exclusive:
        return inc
    ident = op_identity(op, inc.dtype)
    out = np.empty_like(inc, dtype=np.float64 if isinstance(ident, float) else inc.dtype)
    out[1:] = inc[:-1]
    out[starts] = ident
    return out


def forward_fill(
    values: np.ndarray, valid: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Replace each entry by the latest preceding valid entry.

    Returns ``(filled_values, filled_valid)``; positions before the first
    valid entry keep their original value with ``filled_valid`` False.
    """
    n = len(values)
    if n == 0:
        return values.copy(), valid.copy()
    idx = np.where(valid, np.arange(n), -1)
    idx = np.maximum.accumulate(idx)
    ok = idx >= 0
    out = values.copy()
    out[ok] = values[np.maximum(idx[ok], 0)]
    return out, ok
