"""Golden ``CostReport``s and output digests for verify + sensitivity.

The two engines, and the planner on and off, share their physical join
and sort kernels, so comparing them with each other cannot notice a
kernel change that moves all of them at once. This fixture can: it pins
the charged cost stream (``CostReport.to_dict()``) and a SHA-256 of
every output array of ``verify_mst`` (on the MST and on a perturbed
copy) and ``mst_sensitivity`` on three seeded shapes, for

* the local engine at n=1024 with the planner on,
* the local engine at n=1024 with the planner off,
* the distributed engine at n=256.

Regenerate only for a change that is *meant* to move the cost stream or
the answers::

    PYTHONPATH=src python tests/test_golden_costs.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro import mst_sensitivity, verify_mst
from repro.graph.generators import known_mst_instance, perturb_break_mst
from repro.mpc import MPCConfig

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_costs.json")

SHAPES = (("random", 3), ("grid", 5), ("power_law", 7))
SETUPS = {
    "local-planner": ("local", 1024, {"planner": True}),
    "local-eager": ("local", 1024, {"planner": False}),
    "distributed": ("distributed", 256, {"delta": 0.6}),
}
VERIFY_FIELDS = ("is_mst", "n_violations", "violating_edges",
                 "nontree_index", "pathmax", "diameter_estimate", "rounds",
                 "cluster_counts")
SENS_FIELDS = ("sensitivity", "mc", "tree_index", "nontree_index",
               "pathmax", "diameter_estimate", "rounds", "notes_peak")


def _digest(result, fields) -> str:
    h = hashlib.sha256()
    for name in fields:
        value = getattr(result, name)
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def capture(setup: str, shape: str, seed: int) -> dict:
    engine, n, cfg = SETUPS[setup]
    graph, _ = known_mst_instance(shape, n, extra_m=2 * n, rng=seed)
    broken = perturb_break_mst(graph, rng=seed)
    out = {}
    for kind, g, fn, fields in (
            ("verify", graph, verify_mst, VERIFY_FIELDS),
            ("verify-broken", broken, verify_mst, VERIFY_FIELDS),
            ("sensitivity", graph, mst_sensitivity, SENS_FIELDS)):
        result = fn(g, engine=engine, config=MPCConfig(**cfg))
        out[kind] = {"report": result.report.to_dict(),
                     "outputs_sha256": _digest(result, fields)}
    return out


def _cases():
    return [(setup, shape, seed) for setup in SETUPS
            for shape, seed in SHAPES]


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as f:
        return json.load(f)


@pytest.mark.parametrize("setup,shape,seed", _cases())
def test_cost_report_and_outputs_match_golden(golden, setup, shape, seed):
    got = capture(setup, shape, seed)
    want = golden[f"{setup}/{shape}/{seed}"]
    for kind in want:
        assert got[kind]["report"] == want[kind]["report"], (
            f"{setup}/{shape} {kind}: CostReport moved")
        assert got[kind]["outputs_sha256"] == want[kind]["outputs_sha256"], (
            f"{setup}/{shape} {kind}: outputs moved")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden_costs.py --write")
    data = {f"{setup}/{shape}/{seed}": capture(setup, shape, seed)
            for setup, shape, seed in _cases()}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(data)} cases to {FIXTURE}")
