"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler

import numpy as np
import pytest

from repro.mpc import DistributedRuntime, LocalRuntime, MPCConfig

#: Per-test hang budget. The slowest test takes ~11 s on 2 vCPUs.
HANG_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def _hang_watchdog():
    """A test may fail but never hang: past the budget, dump every
    thread's stack and end the run with exit status 1.

    The process has one ``faulthandler`` timer, so pytest's own
    ``faulthandler_timeout`` must stay unset.
    """
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rt() -> LocalRuntime:
    """A fresh local runtime."""
    return LocalRuntime(MPCConfig(seed=1234))


@pytest.fixture
def dist_rt() -> DistributedRuntime:
    """A message-level runtime sized for small test tables."""
    return DistributedRuntime(MPCConfig(delta=0.6, seed=1234),
                              total_words_hint=20_000)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(98765)


def make_local(seed: int = 1234) -> LocalRuntime:
    return LocalRuntime(MPCConfig(seed=seed))


def make_dist(hint: int = 20_000, seed: int = 1234) -> DistributedRuntime:
    return DistributedRuntime(MPCConfig(delta=0.6, seed=seed),
                              total_words_hint=hint)
