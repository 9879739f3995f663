"""Message-level fabric of simulated MPC machines — columnar fleet state.

A :class:`Fabric` owns ``m`` machines with ``s`` words of local memory
each and executes synchronous message-exchange rounds. Each round, every
machine may address arbitrary peers, but its total sent words and total
received words must both fit in ``s`` — exactly the constraint of the
MPC model (§1 of the paper). Violations raise
:class:`~repro.errors.CapacityError` rather than silently succeeding, so
algorithm bugs that would break the model are surfaced.

The fleet is held *columnar*: instead of ``m`` per-machine record lists,
all machine-resident rows live in single struct-of-arrays columns plus
an int64 ``machine_id`` column (:class:`FleetState`, machine-major row
order). A bulk exchange is then one vectorised permutation
(:meth:`Fabric.route`): a destination-keyed stable argsort moves every
record to its receiver at once, and ``np.bincount`` over sender/receiver
ids enforces the per-machine word caps — raising :class:`CapacityError`
on the same machine (and with the same send-before-receive precedence)
that a packet-by-packet delivery loop would. Constant-size control
traffic (shard counts, scan summaries, carries) goes through
:meth:`Fabric.control`, which performs the same cap enforcement and
round charging from per-machine word vectors without materialising
packets. Every :meth:`route`/:meth:`control` call still charges exactly
one transport round.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from ..errors import CapacityError, ValidationError
from .cost import CostTracker

__all__ = ["Fabric", "FleetState"]


class FleetState:
    """Struct-of-arrays snapshot of every machine-resident record.

    ``cols`` maps column name to one array spanning the *whole fleet*;
    ``mid`` is the int64 machine-id column (row ``i`` lives on machine
    ``mid[i]``). Rows are kept machine-major (``mid`` non-decreasing),
    so a machine's shard is a contiguous slice and never needs to be
    materialised separately.
    """

    __slots__ = ("cols", "mid")

    def __init__(self, cols: Mapping[str, np.ndarray], mid: np.ndarray):
        self.cols: Dict[str, np.ndarray] = dict(cols)
        self.mid = mid

    def __len__(self) -> int:
        return len(self.mid)


class Fabric:
    """Synchronous message fabric with per-round, per-machine word caps."""

    def __init__(self, n_machines: int, capacity_words: int, tracker: CostTracker):
        if n_machines < 1:
            raise ValidationError("need at least one machine")
        self.m = int(n_machines)
        self.s = int(capacity_words)
        self.tracker = tracker
        self.rounds_executed = 0
        self.words_moved = 0

    # ------------------------------------------------------------ shared bookkeeping

    def _enforce_caps(self, send_words: np.ndarray, recv_words: np.ndarray) -> None:
        """Raise on the first machine over cap — sends first (in machine
        order), then receives, matching packet-loop delivery precedence."""
        over = np.flatnonzero(send_words > self.s)
        if len(over):
            j = int(over[0])
            raise CapacityError(j, int(send_words[j]), self.s, what="send")
        over = np.flatnonzero(recv_words > self.s)
        if len(over):
            j = int(over[0])
            raise CapacityError(j, int(recv_words[j]), self.s, what="receive")

    def _finish_round(self, moved_words: int, max_recv_words: int) -> None:
        self.words_moved += int(moved_words)
        self.tracker.observe_machine_words(int(max_recv_words))
        self.rounds_executed += 1
        self.tracker.charge_transport_round()

    # ------------------------------------------------------------ columnar rounds

    def route(self, state: FleetState, dst: np.ndarray,
              words_per_row: int) -> FleetState:
        """One bulk exchange as a single vectorised permutation.

        Every record of ``state`` is sent from its current machine to
        ``dst[i]`` in one synchronous round. ``words_per_row`` is the
        modelled record width in machine words (the *protocol* record
        may be wider than the columns physically carried, e.g. when a
        permutation index stands in for the payload). Delivery order is
        deterministic: receiver-major, then sender, then send order —
        i.e. a stable argsort by destination of the machine-major rows.
        """
        m = self.m
        dst = np.asarray(dst)
        bad = (dst < 0) | (dst >= m)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(
                f"machine {int(state.mid[i])} addressed bad peer {int(dst[i])}"
            )
        send = np.bincount(state.mid, minlength=m) * words_per_row
        recv = np.bincount(dst, minlength=m) * words_per_row
        self._enforce_caps(send, recv)
        order = np.argsort(dst, kind="stable")
        out = FleetState({k: v[order] for k, v in state.cols.items()}, dst[order])
        self._finish_round(int(send.sum()), int(recv.max(initial=0)))
        return out

    def control(self, send_words: np.ndarray, recv_words: np.ndarray) -> None:
        """A control round: cap-check + charge from per-machine word vectors.

        Used for the constant-size protocol traffic (counts, offsets,
        scan summaries, carries, boundary keys) whose *values* the
        columnar engine computes directly from fleet columns; the fabric
        still accounts for the words that would cross the network and
        still charges one transport round.
        """
        send = np.asarray(send_words, dtype=np.int64)
        recv = np.asarray(recv_words, dtype=np.int64)
        self._enforce_caps(send, recv)
        self._finish_round(int(send.sum()), int(recv.max(initial=0)))
