"""The oracle's min-cover kernel against the sequential DSU ascent.

``SensitivityOracle.from_result`` recovers every tree edge's minimum
cover and replacement-edge identity with one binary-lifting pass
(:meth:`RootedTree.min_cover_to_ancestor` under
``repro.oracle._covering_ascent``). The reference is the Tarjan-style
union-find walk in :func:`repro.baselines.covering_ascent`, which
stamps each tree edge with the first cover in stable ascending-weight
order. The two must agree bit for bit on ``(mc, cover)`` — ties
included, so the weights here come from a three-value set and the
stable tie-break decides most covers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import covering_ascent
from repro.graph.tree import RootedTree
from repro.oracle import _covering_ascent

NONE = np.iinfo(np.int64).max


def _parents(shape: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random recursive tree, path of depth n-1, or star, relabelled."""
    if shape == "path":
        parent = np.maximum(np.arange(n) - 1, 0)
    elif shape == "star":
        parent = np.zeros(n, dtype=np.int64)
    else:
        parent = np.zeros(n, dtype=np.int64)
        for i in range(1, n):
            parent[i] = rng.integers(0, i)
    perm = rng.permutation(n)  # new label of each old vertex
    out = np.empty(n, dtype=np.int64)
    out[perm] = perm[parent]
    return out


@st.composite
def instances(draw):
    """A rooted tree plus 0..3n non-tree edges with heavy weight ties.

    Edges mix random pairs, copies of tree edges (both endpoints of one
    tree edge) and parallel copies of earlier non-tree edges.
    """
    n = draw(st.integers(1, 200))
    shape = draw(st.sampled_from(["recursive", "path", "star"]))
    m = draw(st.integers(0, 3 * n)) if n > 1 else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parent = _parents(shape, n, rng)
    root = int(np.flatnonzero(parent == np.arange(n))[0])
    tree = RootedTree(parent=parent, root=root)
    nonroot = np.flatnonzero(np.arange(n) != root)
    nu = np.empty(m, dtype=np.int64)
    nv = np.empty(m, dtype=np.int64)
    for i in range(m):
        kind = rng.integers(3)
        if kind == 1:                       # both ends of a tree edge
            x = int(rng.choice(nonroot))
            nu[i], nv[i] = x, parent[x]
        elif kind == 2 and i:               # parallel to an earlier edge
            j = int(rng.integers(i))
            nu[i], nv[i] = nv[j], nu[j]
        else:
            a, b = rng.choice(n, 2, replace=False)
            nu[i], nv[i] = a, b
    nw = rng.choice([0.5, 1.0, 2.0], m)
    ids = rng.permutation(4 * m + 1)[:m]    # arbitrary, non-positional
    return tree, nu, nv, nw, ids


@given(instances())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_kernel_matches_dsu_ascent(inst):
    tree, nu, nv, nw, ids = inst
    mc, cover = _covering_ascent(tree, nu, nv, nw, ids)
    ref_mc, ref_cover = covering_ascent(tree, nu, nv, nw, ids)
    np.testing.assert_array_equal(mc, ref_mc)
    np.testing.assert_array_equal(cover, ref_cover)


@given(instances(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_min_cover_to_ancestor_matches_walk(inst, seed):
    """Arbitrary (repeating) keys, checked by walking every path."""
    tree, nu, nv, _nw, _ids = inst
    keys = np.random.default_rng(seed).integers(0, 8, len(nu))
    top = tree.lca(nu, nv) if len(nu) else np.empty(0, dtype=np.int64)
    got = tree.min_cover_to_ancestor(np.concatenate([nu, nv]),
                                     np.concatenate([top, top]),
                                     np.concatenate([keys, keys]))
    want = np.full(tree.n, NONE, dtype=np.int64)
    for a, b, lca, key in zip(nu, nv, top, keys):
        for x in (a, b):
            while x != lca:
                want[x] = min(want[x], key)
                x = tree.parent[x]
    np.testing.assert_array_equal(got, want)


def test_no_nontree_edges_leaves_everything_uncovered():
    tree = RootedTree(parent=np.array([0, 0, 1]), root=0)
    empty = np.empty(0, dtype=np.int64)
    mc, cover = _covering_ascent(tree, empty, empty, np.empty(0), empty)
    assert np.all(np.isinf(mc)) and np.all(cover == -1)


def test_first_of_equal_weights_wins():
    # path 0-1-2-3; both non-tree edges cover (2, 1) at weight 1.0, and
    # the earlier one in input order is the recorded replacement
    tree = RootedTree(parent=np.array([0, 0, 1, 2]), root=0)
    nu, nv = np.array([3, 2]), np.array([1, 0])
    mc, cover = _covering_ascent(tree, nu, nv, np.array([1.0, 1.0]),
                                 np.array([10, 20]))
    assert mc.tolist() == [np.inf, 1.0, 1.0, 1.0]
    assert cover.tolist() == [-1, 20, 10, 10]
