"""Configuration of the simulated MPC deployment.

The model: ``m`` machines, each with ``s = O(n^delta)`` words of local
memory, global memory ``g = m * s``. For graph problems the paper targets
*optimal utilisation*: ``g = Theta(m + n)`` (linear in the input size).

:class:`MPCConfig` derives concrete ``s`` and ``m`` from an input size and
is shared by both engines; the distributed engine additionally enforces
the per-machine cap at message level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..errors import ValidationError

__all__ = ["MPCConfig"]


@dataclass(frozen=True)
class MPCConfig:
    """Parameters of the simulated MPC.

    Parameters
    ----------
    delta:
        Local-memory exponent; machines get ``s = max(s_min, c * N^delta)``
        words for an input of ``N`` words. The paper allows any constant
        ``delta in (0, 1)``.
    capacity_constant:
        The ``c`` above. Protocol headroom (splitter tables, boundary
        exchange buffers) lives inside the same budget.
    min_machine_words:
        Floor on ``s`` so that tiny test inputs still satisfy protocol
        preconditions (e.g. the splitter table of a sample sort must fit
        on one machine).
    global_slack:
        Global memory is provisioned as ``global_slack * N`` words; the
        distributed engine refuses to allocate more machines than that
        (this is the ``g = O(m + n)`` optimal-utilisation constraint).
    cost_mode:
        ``"unit"`` or ``"theory"`` round charging (see :mod:`.cost`).
    seed:
        Seed for randomised protocol choices (sample sort splitters,
        head/tail contraction coins). Fixed seed => reproducible runs.
    planner:
        Route primitives through the lazy logical-plan layer
        (:mod:`.plan` / :mod:`.optimizer`). Rounds and memory are
        charged from the logical op stream either way, so planned and
        eager execution produce bit-identical :class:`CostReport`\\ s;
        the planner only changes *physical* execution (elided sorts,
        direct-address joins). ``False`` restores the eager engines —
        the baseline the differential suite and E14 compare against.
    """

    delta: float = 0.35
    capacity_constant: float = 4.0
    min_machine_words: int = 256
    global_slack: float = 4.0
    cost_mode: str = "unit"
    seed: int = 0x5EED
    planner: bool = True

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValidationError(f"delta must be in (0,1), got {self.delta}")
        if self.capacity_constant <= 0:
            raise ValidationError("capacity_constant must be positive")
        if self.min_machine_words < 16:
            raise ValidationError("min_machine_words must be at least 16")
        if self.global_slack < 1.0:
            raise ValidationError("global_slack must be >= 1")

    # -- derived deployment sizes -------------------------------------------------

    def machine_capacity(self, total_words: int) -> int:
        """Local memory ``s`` in words for an input of ``total_words``."""
        total_words = max(1, int(total_words))
        s = int(math.ceil(self.capacity_constant * total_words**self.delta))
        return max(self.min_machine_words, s)

    def machine_count(self, total_words: int) -> int:
        """Number of machines ``m`` so that ``m*s >= global_slack * N``."""
        total_words = max(1, int(total_words))
        s = self.machine_capacity(total_words)
        m = int(math.ceil(self.global_slack * total_words / s))
        return max(1, m)

    def global_budget_words(self, total_words: int) -> int:
        """The linear global-memory budget ``g`` for this input size."""
        return self.machine_capacity(total_words) * self.machine_count(total_words)

    def with_(self, **kw) -> "MPCConfig":
        return replace(self, **kw)
