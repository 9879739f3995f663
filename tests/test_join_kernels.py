"""Parity of the physical join and sort kernels against plain references.

The local engine's eager and planned paths share these kernels, so an
eager-vs-planned comparison alone cannot catch a kernel that is wrong in
both. Each kernel is checked here against an independent reference:

* ``stable_argsort`` against ``np.argsort(kind="stable")``;
* slot vectors (``search_slots`` and the optimizer's direct-address
  tables) against brute-force first/last-match positions, and
  ``merge_search_slots`` against ``np.searchsorted(side="right")``;
* joins on both paths against the masked-scatter assembly the engine
  used before slot vectors, values *and* dtypes;
* ``pack_pair`` against packing the concatenated tables.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyPackingError, ProtocolError
from repro.mpc import LocalRuntime, MPCConfig
from repro.mpc.kernels import merge_search_slots, search_slots, stable_argsort
from repro.mpc.optimizer import MERGE_MIN_QUERIES
from repro.mpc.runtime import pack_columns, pack_pair
from repro.mpc.table import Table

I64_MAX = np.iinfo(np.int64).max


# -- stable_argsort -----------------------------------------------------------------


def _keys(kind: str, n: int, rng) -> np.ndarray:
    if kind == "random":
        return rng.integers(0, max(1, n // 3), n)
    if kind == "sorted":
        return np.sort(rng.integers(0, 50, n))
    if kind == "reversed":
        return np.sort(rng.integers(0, 50, n))[::-1].copy()
    if kind == "constant":
        return np.full(n, 7, dtype=np.int64)
    if kind == "negative":
        return rng.integers(-1000, -1, n)
    if kind == "int32":
        return rng.integers(-50, 50, n).astype(np.int32)
    if kind == "uint16":
        return rng.integers(0, 60000, n).astype(np.uint16)
    if kind == "overflow":  # the packed word would not fit: fallback
        k = rng.integers(-5, 5, n)
        if n:
            k[0], k[-1] = -(1 << 62), 1 << 62
        return k
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", ["random", "sorted", "reversed", "constant",
                                  "negative", "int32", "uint16", "overflow"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5000])
def test_stable_argsort_matches_numpy_stable(kind, n):
    key = _keys(kind, n, np.random.default_rng(n))
    got = stable_argsort(key)
    want = np.argsort(key, kind="stable")
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_stable_argsort_edge_of_word():
    # (hi - lo) * n + n - 1 == int64 max exactly: still packed, and right
    n = 2
    key = np.array([(I64_MAX - 1) // n, 0], dtype=np.int64)
    assert (int(key.max()) - int(key.min())) * n + n - 1 == I64_MAX
    np.testing.assert_array_equal(stable_argsort(key),
                                  np.argsort(key, kind="stable"))


# -- slot vectors ---------------------------------------------------------------------


def _brute_slots(dks: np.ndarray, qk: np.ndarray, exact: bool) -> np.ndarray:
    """First equal row (exact) or last row <= query (predecessor), 1-based."""
    out = np.zeros(len(qk), dtype=np.int64)
    for i, q in enumerate(qk.tolist()):
        if exact:
            eq = np.flatnonzero(dks == q)
            out[i] = eq[0] + 1 if len(eq) else 0
        else:
            le = np.flatnonzero(dks <= q)
            out[i] = le[-1] + 1 if len(le) else 0
    return out


def _data_and_queries(rng, nd: int, span: int, nq: int):
    dks = np.sort(rng.integers(100, 100 + span, nd))
    # queries straddle the data range: below, inside, above
    qk = rng.integers(100 - span // 2 - 3, 100 + span + span // 2 + 3, nq)
    return dks, qk


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_search_slots_match_brute_force(exact, seed):
    rng = np.random.default_rng(seed)
    dks, qk = _data_and_queries(rng, nd=60, span=40, nq=200)  # duplicates
    np.testing.assert_array_equal(search_slots(dks, qk, exact=exact),
                                  _brute_slots(dks, qk, exact))


@pytest.mark.parametrize("exact", [True, False])
def test_search_slots_on_empty_data_all_miss(exact):
    qk = np.array([-3, 0, 9], dtype=np.int64)
    got = search_slots(np.empty(0, dtype=np.int64), qk, exact=exact)
    np.testing.assert_array_equal(got, [0, 0, 0])


@st.composite
def merge_joins(draw):
    """Sorted data keys and queries for the merge-search kernel.

    Data keys repeat when their range is narrow; queries mix copies of
    data keys, keys inside the range, keys below and above it (down to
    the dtype's extremes) or only out-of-range keys. A huge range makes
    the packed word overflow and the kernel fall back.
    """
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    info = np.iinfo(dtype)
    nd = draw(st.sampled_from([1, 2, 5, 40, 300]))
    nq = draw(st.sampled_from([0, 1, 9, 500, MERGE_MIN_QUERIES - 1,
                               MERGE_MIN_QUERIES]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 7)) == 0 and dtype is np.int64:
        lo, hi = -(1 << 62), 1 << 62  # (hi - lo) << b overflows int64
    else:
        lo = draw(st.sampled_from([-(1 << 30), -1000, 0, 1 << 20]))
        hi = lo + draw(st.sampled_from([0, 3, 60, 1 << 28]))
    dks = np.sort(rng.integers(lo, hi, nd, endpoint=True)).astype(dtype)
    lo, hi = int(dks[0]), int(dks[-1])
    below = rng.integers(info.min, lo, nq, endpoint=True)
    above = rng.integers(hi, info.max, nq, endpoint=True)
    pools = [below, above, np.full(nq, info.min), np.full(nq, info.max)]
    if not draw(st.booleans()):  # else every query is out of range
        pools += [rng.choice(dks, nq), rng.integers(lo, hi, nq, endpoint=True)]
    pick = rng.integers(0, len(pools), nq)
    qk = np.choose(pick, pools).astype(dtype) if nq else np.empty(0, dtype)
    return dks, qk


@given(merge_joins())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_merge_search_slots_match_searchsorted(join):
    dks, qk = join
    got = merge_search_slots(dks, qk)
    want = np.searchsorted(dks, qk, side="right")
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_merge_search_first_query_equal_to_a_data_key():
    # row 0 packs to exactly (key - lo) << b: the data-key search must
    # place it after the data key (count of queries strictly below)
    dks = np.array([10, 20, 20, 30, 40], dtype=np.int64)
    qk = np.array([20, 10, 39, 40, 9, 41, 30, 25], dtype=np.int64)
    np.testing.assert_array_equal(merge_search_slots(dks, qk),
                                  [3, 1, 4, 5, 0, 5, 4, 3])


def _planned_slots(dk, qk, *, exact, unique=False):
    """Run the optimizer's join planning on ``dk`` (maybe unsorted)."""
    rt = LocalRuntime(MPCConfig(planner=True))
    node = SimpleNamespace(physical="", note="", reuse=False)
    jp = rt.planner.opt.join_plan(node, qk, dk, exact=exact,
                                  check_unique=unique, fused=False,
                                  data_sorted_known=False)
    return jp, node.physical


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_address_table_slots_match_brute_force(exact, seed):
    rng = np.random.default_rng(100 + seed)
    dks, qk = _data_and_queries(rng, nd=300, span=120, nq=500)
    jp, physical = _planned_slots(dks, qk, exact=exact)
    assert physical == "direct-address"
    assert jp.order is None
    np.testing.assert_array_equal(jp.slot, _brute_slots(dks, qk, exact))


@pytest.mark.parametrize("exact", [True, False])
def test_wide_span_binary_search_slots_match_brute_force(exact):
    rng = np.random.default_rng(7)
    dks = np.sort(rng.integers(0, 1 << 40, 200))
    dks[50:55] = dks[50]  # duplicates, in sorted position
    qk = np.concatenate([dks[::3], dks[::7] + 1, [-5, (1 << 41)]])
    jp, physical = _planned_slots(dks, qk, exact=exact)
    assert physical == "binary-search"
    np.testing.assert_array_equal(jp.slot, _brute_slots(dks, qk, exact))


@pytest.mark.parametrize("exact", [True, False])
def test_unsorted_data_slots_are_in_sorted_coordinates(exact):
    rng = np.random.default_rng(3)
    dk = rng.integers(0, 30, 80)
    qk = rng.integers(-5, 40, 100)
    jp, _ = _planned_slots(dk, qk, exact=exact)
    np.testing.assert_array_equal(jp.order, np.argsort(dk, kind="stable"))
    np.testing.assert_array_equal(jp.slot,
                                  _brute_slots(dk[jp.order], qk, exact))


def test_dense_gather_slots():
    dk = np.arange(10, 60, dtype=np.int64)
    qk = np.array([9, 10, 35, 59, 60, -1], dtype=np.int64)
    jp, physical = _planned_slots(dk, qk, exact=True, unique=True)
    assert physical == "dense-gather"
    np.testing.assert_array_equal(jp.slot, [0, 1, 26, 50, 0, 0])


# -- joins: planned and eager against the masked-scatter reference ----------------


def _reference_join(queries, qk, data, dk, payload, default, exact):
    """The join assembly as the engine did it before slot vectors."""
    def fill(n, src, d):
        if src.dtype.kind == "f" or (
            isinstance(d, float) and not float(d).is_integer()
        ) or d in (float("inf"), float("-inf")):
            return np.full(n, float(d), dtype=np.float64)
        return np.full(n, int(d), dtype=src.dtype)

    nq = len(qk)
    order = np.argsort(dk, kind="stable")
    dks = dk[order]
    if len(dks) == 0:
        hit, pos = np.zeros(nq, bool), np.zeros(nq, np.int64)
    elif exact:
        pos = np.minimum(np.searchsorted(dks, qk, "left"), len(dks) - 1)
        hit = dks[pos] == qk
    else:
        pos = np.searchsorted(dks, qk, "right") - 1
        hit = pos >= 0
        pos = np.maximum(pos, 0)
    out = {}
    for name, src_name in payload.items():
        src = data.col(src_name)[order]
        if exact and hit.all():
            out[name] = src[pos] if len(src) else np.empty(0, src.dtype)
            continue
        col = fill(nq, src, default[name])
        if len(src):
            col[hit] = src[pos[hit]].astype(col.dtype, copy=False)
        out[name] = col
    return out


def _join_both_paths(queries, qcol, data, dcol, payload, default, exact):
    outs = []
    for planner in (True, False):
        rt = LocalRuntime(MPCConfig(planner=planner))
        if exact:
            got = rt.lookup(queries, (qcol,), data, (dcol,), payload,
                            default=default, check_unique=False)
        else:
            got = rt.predecessor(queries, qcol, data, dcol, payload,
                                 default)
        outs.append({name: got.col(name) for name in payload})
    return outs


def _assert_same(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        np.testing.assert_array_equal(got[name], want[name])


PAYLOAD = {"a": "ival", "b": "fval", "c": "i32"}
DEFAULTS = [
    {"a": -1, "b": -1, "c": 0},                          # int defaults
    {"a": 0.5, "b": 2.0, "c": -3},                       # float default
    {"a": float("inf"), "b": float("-inf"), "c": float("-inf")},
]


def _data(rng, nd, span, *, sort):
    key = rng.integers(0, span, nd)
    if sort:
        key = np.sort(key)
    return Table(k=key, ival=rng.integers(-9, 9, nd),
                 fval=rng.uniform(-1, 1, nd),
                 i32=rng.integers(-9, 9, nd).astype(np.int32))


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("sort", [True, False])
@pytest.mark.parametrize("di", range(len(DEFAULTS)))
@pytest.mark.parametrize("span", [40, 1 << 40])  # direct vs binary search
def test_joins_match_reference_on_both_paths(exact, sort, di, span):
    rng = np.random.default_rng(di * 7 + span % 11 + sort)
    data = _data(rng, 50, span, sort=sort)
    if exact:  # lookups need unique data keys to be well defined
        _, first = np.unique(data.col("k"), return_index=True)
        data = data.take(np.sort(first))
    qk = np.concatenate([data.col("k")[::2], rng.integers(-5, span + 5, 30)])
    queries = Table(q=qk)
    want = _reference_join(queries, qk, data, data.col("k"), PAYLOAD,
                           DEFAULTS[di], exact)
    for got in _join_both_paths(queries, "q", data, "k", PAYLOAD,
                                DEFAULTS[di], exact):
        _assert_same(got, want)


@pytest.mark.parametrize("exact", [True, False])
def test_fully_hit_joins_keep_reference_dtypes(exact):
    # a fully-hit lookup keeps the source dtype; a fully-hit predecessor
    # still widens to the fill dtype (int source, -inf default -> float)
    rng = np.random.default_rng(5)
    data = Table(k=np.arange(20, dtype=np.int64), ival=rng.integers(0, 9, 20),
                 fval=rng.uniform(0, 1, 20),
                 i32=rng.integers(0, 9, 20).astype(np.int32))
    qk = rng.integers(0, 20, 40)
    queries = Table(q=qk)
    default = DEFAULTS[2]
    want = _reference_join(queries, qk, data, data.col("k"), PAYLOAD,
                           default, exact)
    assert (want["a"].dtype == np.int64) == exact
    for got in _join_both_paths(queries, "q", data, "k", PAYLOAD, default,
                                exact):
        _assert_same(got, want)


@pytest.mark.parametrize("exact", [True, False])
def test_joins_on_empty_data(exact):
    data = Table(k=np.empty(0, np.int64), ival=np.empty(0, np.int64),
                 fval=np.empty(0), i32=np.empty(0, np.int32))
    qk = np.array([3, 1, 4], dtype=np.int64)
    queries = Table(q=qk)
    want = _reference_join(queries, qk, data, data.col("k"), PAYLOAD,
                           DEFAULTS[0], exact)
    for got in _join_both_paths(queries, "q", data, "k", PAYLOAD,
                                DEFAULTS[0], exact):
        _assert_same(got, want)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("nd", [0, 6])
def test_joins_with_empty_queries(exact, nd):
    rng = np.random.default_rng(nd)
    data = _data(rng, nd, 40, sort=False)
    if exact:
        _, first = np.unique(data.col("k"), return_index=True)
        data = data.take(np.sort(first))
    qk = np.empty(0, dtype=np.int64)
    queries = Table(q=qk)
    want = _reference_join(queries, qk, data, data.col("k"), PAYLOAD,
                           DEFAULTS[1], exact)
    for got in _join_both_paths(queries, "q", data, "k", PAYLOAD,
                                DEFAULTS[1], exact):
        _assert_same(got, want)


@pytest.mark.parametrize("planner", [True, False])
def test_lookup_miss_without_default_raises_on_both_paths(planner):
    rt = LocalRuntime(MPCConfig(planner=planner))
    data = Table(k=np.array([1, 2, 3]), v=np.array([10, 20, 30]))
    with pytest.raises(ProtocolError, match=r"keys \[7\]"):
        rt.lookup(Table(q=np.array([1, 7])), ("q",), data, ("k",),
                  {"v": "v"})


@pytest.mark.parametrize("planner", [True, False])
def test_lookup_duplicate_check_on_both_paths(planner):
    rt = LocalRuntime(MPCConfig(planner=planner))
    data = Table(k=np.array([4, 2, 4]), v=np.array([10, 20, 30]))
    with pytest.raises(ProtocolError, match="duplicate key 4"):
        rt.lookup(Table(q=np.array([2])), ("q",), data, ("k",), {"v": "v"})


# -- pack_pair ------------------------------------------------------------------------


def _reference_pack_pair(left, lcols, right, rcols):
    combined = Table({
        f"k{i}": np.concatenate([left.col(lc), right.col(rc)])
        for i, (lc, rc) in enumerate(zip(lcols, rcols))
    })
    packed = pack_columns(combined, [f"k{i}" for i in range(len(lcols))])
    return packed[:len(left)], packed[len(left):]


def _pack_cases():
    rng = np.random.default_rng(11)
    yield (Table(a=rng.integers(-50, 50, 40), b=rng.integers(0, 9, 40)),
           Table(x=rng.integers(-80, 20, 25), y=rng.integers(-4, 12, 25)))
    yield (Table(a=rng.integers(0, 5, 10), b=rng.integers(0, 5, 10),
                 c=rng.integers(-3, 3, 10)),
           Table(x=rng.integers(0, 5, 7), y=rng.integers(0, 5, 7),
                 z=rng.integers(-3, 3, 7)))
    yield (Table(a=rng.integers(0, 9, 12).astype(np.int32),
                 b=rng.integers(0, 9, 12)),
           Table(x=rng.integers(0, 9, 4), y=rng.integers(0, 9, 4).astype(
               np.int32)))
    yield (Table(a=np.empty(0, np.int64), b=np.empty(0, np.int64)),
           Table(x=rng.integers(0, 9, 6), y=rng.integers(0, 9, 6)))
    yield (Table(a=rng.integers(0, 9, 6), b=rng.integers(0, 9, 6)),
           Table(x=np.empty(0, np.int64), y=np.empty(0, np.int64)))
    yield (Table(a=np.empty(0, np.int64), b=np.empty(0, np.int64)),
           Table(x=np.empty(0, np.int64), y=np.empty(0, np.int64)))


@pytest.mark.parametrize("case", range(6))
def test_pack_pair_words_match_concatenating_reference(case):
    left, right = list(_pack_cases())[case]
    lcols, rcols = left.columns, right.columns
    got = pack_pair(left, lcols, right, rcols)
    want = _reference_pack_pair(left, lcols, right, rcols)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def _message(fn, *args) -> str:
    with pytest.raises(KeyPackingError) as err:
        fn(*args)
    return str(err.value)


def test_pack_pair_overflow_error_matches_reference():
    big = 1 << 40
    left = Table(a=np.array([0, big]), b=np.array([0, 5]))
    right = Table(x=np.array([3]), y=np.array([big]))
    args = (left, ("a", "b"), right, ("x", "y"))
    assert _message(pack_pair, *args) == _message(_reference_pack_pair,
                                                  *args)


def test_pack_pair_non_integer_error_matches_reference():
    left = Table(a=np.array([0, 1]), b=np.array([0.5, 1.5]))
    right = Table(x=np.array([3]), y=np.array([2]))
    args = (left, ("a", "b"), right, ("x", "y"))
    assert _message(pack_pair, *args) == _message(_reference_pack_pair,
                                                  *args)
