"""Binary columnar wire protocol (S25): codecs, negotiation, malformed
input, and cross-protocol bit-identity.

The contract under test is dict *equality*, not value equality: a
binary client must observe byte-for-byte the same response dicts as a
JSON-lines client for every query — successes, type errors, range
errors, sheds — both against a single-process service and through the
router tier, across a mid-storm generation swap. The router section
also asserts the zero-parse relay property via the ``WireMetrics``
counters: the storm's frames flow through the binary door while
``json_decodes`` only ever counts the constant escape handshakes.
"""

import asyncio
import struct

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.graph.generators import known_mst_instance
from repro.oracle import build_oracle
from repro.service import (
    InstanceUpdater,
    RouterConfig,
    RouterTier,
    SensitivityService,
    ServiceClient,
    ServiceConfig,
)
from repro.service import wire
from repro.service.loadgen import make_plan, run_tcp

OPS = ("sensitivity", "survives", "replacement_edge", "entry_threshold")


def run(coro):
    return asyncio.run(coro)


def make_graph(n=120, seed=11):
    g, _ = known_mst_instance("random", n, extra_m=2 * n, rng=seed)
    return g


async def started_tcp(graph, name="default", **cfg_kw):
    cfg_kw.setdefault("shards", 2)
    cfg_kw.setdefault("port", 0)
    svc = SensitivityService(ServiceConfig(**cfg_kw))
    svc.add_instance(name, graph)
    await svc.start(serve_tcp=True)
    return svc


async def read_frame(reader):
    head = await reader.readexactly(wire.HEADER_LEN)
    need = wire.frame_length(head)
    return head + await reader.readexactly(need - wire.HEADER_LEN)


def point_frame(op, iid, edge, weight=0.0):
    return struct.pack("<BBHId", wire.MAGIC, wire.OP_CODE[op], iid,
                       edge, weight)


class TestFraming:
    def test_every_frame_length_is_derivable_from_the_header(self):
        cases = [
            point_frame("sensitivity", 0, 7),
            point_frame("survives", 1, 9, 2.5),
            wire.encode_escape({"op": "ping"}),
            wire.encode_bulk_request("sensitivity", 0,
                                     np.arange(5, dtype="<u4")),
            wire.encode_bulk_request("survives", 2,
                                     np.arange(9, dtype="<u4"),
                                     np.ones(9)),
            wire.encode_bulk_response(
                wire.OP_CODE["sensitivity"], 1, 3,
                np.zeros(4, dtype="u1"), np.ones(4)),
        ]
        for frame in cases:
            assert wire.frame_length(frame[:wire.HEADER_LEN]) == len(frame)
        # response frames are 16B flat too
        resp = np.zeros(1, dtype=wire.RESP_DTYPE)
        resp["magic"] = wire.MAGIC
        resp["type"] = wire.RESP_BASE
        assert wire.frame_length(resp.tobytes()) == wire.POINT_LEN

    def test_incomplete_header_is_none_not_an_error(self):
        assert wire.frame_length(b"") is None
        assert wire.frame_length(bytes([wire.MAGIC, 0x01])) is None

    def test_bad_magic_raises_with_json_client_hint(self):
        with pytest.raises(wire.WireError, match="JSON client"):
            wire.frame_length(b'{"op": "ping"}\n')

    def test_unknown_type_byte_raises(self):
        bad = struct.pack("<BBHI", wire.MAGIC, 0x3F, 0, 0)
        with pytest.raises(wire.WireError, match="unknown frame type"):
            wire.frame_length(bad)

    def test_oversized_lengths_raise_instead_of_allocating(self):
        huge = struct.pack("<BBHI", wire.MAGIC, wire.ESCAPE, 0,
                           wire.MAX_FRAME_LEN)
        with pytest.raises(wire.WireError, match="cap"):
            wire.frame_length(huge)
        bulk = struct.pack("<BBHI", wire.MAGIC, 0x12, 0, 2 ** 31)
        with pytest.raises(wire.WireError, match="cap"):
            wire.frame_length(bulk)

    def test_point_run_length_scans_uniform_runs(self):
        frames = (point_frame("sensitivity", 0, 1)
                  + point_frame("survives", 0, 2, 1.0)
                  + wire.encode_escape({"op": "ping"}))
        assert wire.point_run_length(frames) == 2
        assert wire.point_run_length(frames[:20]) == 1
        assert wire.point_run_length(b"") == 0
        assert wire.point_run_length(
            wire.encode_escape({"op": "ping"})) == 0


class TestCodecs:
    def test_escape_roundtrip(self):
        req = {"op": "metrics", "nested": {"a": [1, 2.5, None]}}
        assert wire.decode_escape(wire.encode_escape(req)) == req

    def test_escape_payload_must_be_an_object(self):
        with pytest.raises(wire.WireError, match="escape payload"):
            wire.decode_escape(struct.pack(
                "<BBHI", wire.MAGIC, wire.ESCAPE, 0, 5) + b"[1,2]")

    def test_bulk_request_roundtrip(self):
        edges = np.array([3, 1, 999], dtype="<u4")
        op, iid, e2, w2 = wire.decode_bulk_request(
            wire.encode_bulk_request("replacement_edge", 7, edges))
        assert (op, iid) == ("replacement_edge", 7)
        assert np.array_equal(e2, edges) and w2 is None
        weights = np.array([0.5, 1.5, 2.5])
        op, iid, e2, w2 = wire.decode_bulk_request(
            wire.encode_bulk_request("survives", 1, edges, weights))
        assert op == "survives"
        assert np.array_equal(w2, weights)

    def test_bulk_survives_without_weights_is_an_error(self):
        with pytest.raises(wire.WireError, match="weights"):
            wire.encode_bulk_request("survives", 0,
                                     np.arange(3, dtype="<u4"))

    def test_bulk_response_roundtrip(self):
        st = np.array([0, 1, 5], dtype="u1")
        vals = np.array([1.25, -1.0, 4096.0])
        shard, gen, st2, v2 = wire.decode_bulk_response(
            wire.encode_bulk_response(wire.OP_CODE["survives"], 3, 17,
                                      st, vals))
        assert (shard, gen) == (3, 17)
        assert np.array_equal(st2, st) and np.array_equal(v2, vals)

    def test_compact_json_helpers(self):
        obj = {"ok": True, "result": [1, 2]}
        assert b" " not in wire.dumps_line(obj)
        assert wire.dumps_line(obj).endswith(b"\n")
        assert wire.join_lines([obj, obj]) == wire.dumps_line(obj) * 2

    def test_vectorised_point_encode_matches_struct_pack(self):
        ops = np.array([wire.OP_CODE["sensitivity"],
                        wire.OP_CODE["survives"]], dtype="u1")
        buf = wire.encode_point_requests(
            ops, np.array([0, 3], dtype="<u2"),
            np.array([5, 6], dtype="<u4"), np.array([0.0, 1.5]))
        assert buf == (point_frame("sensitivity", 0, 5)
                       + point_frame("survives", 3, 6, 1.5))


class TestEnvelopeReconstruction:
    """The frame carries enough to rebuild the JSON path's exact dicts."""

    @staticmethod
    def rec(status, shard=0, generation=0, value=0.0):
        r = np.zeros(1, dtype=wire.RESP_DTYPE)
        r["magic"] = wire.MAGIC
        r["type"] = wire.RESP_BASE | status
        r["shard"] = shard
        r["generation"] = generation
        r["value"] = value
        return r[0]

    def test_ok_values_map_back_to_op_result_types(self):
        d = wire.point_response_to_dict(
            "survives", 3, self.rec(wire.ST_OK, 1, 4, 1.0))
        assert d == {"ok": True, "generation": 4, "shard": 1,
                     "result": True}
        d = wire.point_response_to_dict(
            "replacement_edge", 3, self.rec(wire.ST_OK, 0, 0, -1.0))
        assert d["result"] is None
        d = wire.point_response_to_dict(
            "replacement_edge", 3, self.rec(wire.ST_OK, 0, 0, 41.0))
        assert d["result"] == 41

    def test_type_error_strings_match_the_service(self):
        d = wire.point_response_to_dict(
            "sensitivity", 9, self.rec(wire.ST_TYPE, 1, 2))
        assert d["error"] == "edge 9 is not a non-tree edge"
        d = wire.point_response_to_dict(
            "replacement_edge", 9, self.rec(wire.ST_TYPE))
        assert d["error"] == "edge 9 is not a tree edge"

    def test_range_error_reconstructs_the_route_envelope(self):
        d = wire.point_response_to_dict(
            "sensitivity", 900, self.rec(wire.ST_RANGE, value=360.0))
        assert d == {"ok": False,
                     "error": "edge index 900 out of range [0, 360)"}

    def test_shed_envelopes(self):
        d = wire.point_response_to_dict(
            "sensitivity", 1, self.rec(wire.ST_SHED, shard=2, value=64.0))
        assert d == {"ok": False, "shed": True,
                     "error": "shard 2 queue full (64)"}
        d = wire.point_response_to_dict(
            "sensitivity", 1, self.rec(wire.ST_SHED_ROUTER, value=2.0),
            instance="g0")
        assert d == {"ok": False, "shed": True, "where": "router",
                     "error": "all 2 replica(s) of 'g0' are past the "
                              "shed watermark"}

    def test_disconnected_messages_disambiguate_by_value(self):
        d0 = wire.point_response_to_dict(
            "sensitivity", 1, self.rec(wire.ST_DISCONNECTED, value=0.0),
            instance="g0")
        d1 = wire.point_response_to_dict(
            "sensitivity", 1, self.rec(wire.ST_DISCONNECTED, value=1.0),
            instance="g0")
        assert "no live replica of 'g0'" in d0["error"]
        assert "kept disconnecting" in d1["error"]
        assert d0["error_kind"] == d1["error_kind"] == "worker-disconnected"

    def test_status_roundtrip_through_json_classification(self):
        for status, kind in wire.STATUS_TO_KIND.items():
            if status == wire.ST_OK:
                assert wire.response_to_status({"ok": True}) == wire.ST_OK
            else:
                assert wire.response_to_status(
                    {"ok": False, "error_kind": kind}) == status
        assert wire.response_to_status(
            {"ok": False, "shed": True}) == wire.ST_SHED
        assert wire.response_to_status(
            {"ok": False, "shed": True,
             "where": "router"}) == wire.ST_SHED_ROUTER


class TestSymbols:
    def test_dense_append_only_ids(self):
        syms = wire.WireSymbols()
        assert syms.intern("b") == 0
        assert syms.intern("a") == 1
        assert syms.intern("b") == 0          # stable on re-intern
        assert syms.names() == ["b", "a"]
        assert syms.name_of(1) == "a"
        assert syms.name_of(7) is None
        assert syms.version == 2
        assert syms.table() == {"b": 0, "a": 1}

    def test_intern_all_respects_given_order(self):
        syms = wire.WireSymbols()
        got = syms.intern_all(["z", "m", "a"])
        assert got == {"z": 0, "m": 1, "a": 2}


class TestMalformedInputOverTcp:
    """Garbage on the binary door: structured error or clean close,
    never a hang, and never collateral damage to other connections."""

    def test_truncated_frame_then_eof_closes_cleanly(self):
        async def scenario():
            svc = await started_tcp(make_graph(n=60))
            try:
                host, port = svc.tcp_address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(bytes([wire.MAGIC, 0x01, 0x00]))  # 3 of 16B
                await writer.drain()
                writer.write_eof()
                got = await asyncio.wait_for(reader.read(), 10.0)
                assert got == b""           # no answer, no hang
                writer.close()
                # the listener survived: a fresh JSON client still works
                c = await ServiceClient.connect(host, port)
                assert (await c.call("ping"))["ok"]
                await c.close()
            finally:
                await svc.stop()

        run(scenario())

    async def _expect_protocol_error(self, svc, payload, match):
        host, port = svc.tcp_address
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(payload)
        await writer.drain()
        frame = await asyncio.wait_for(read_frame(reader), 10.0)
        err = wire.decode_escape(frame)
        assert not err["ok"] and err["error_kind"] == "protocol"
        assert match in err["error"], err
        got = await asyncio.wait_for(reader.read(), 10.0)
        assert got == b""                   # server closed after the error
        writer.close()

    def test_unknown_opcode_answers_structured_error_then_closes(self):
        async def scenario():
            svc = await started_tcp(make_graph(n=60))
            try:
                bad = struct.pack("<BBHI", wire.MAGIC, 0x3F, 0, 0) * 2
                await self._expect_protocol_error(
                    svc, bad, "unknown frame type")
            finally:
                await svc.stop()

        run(scenario())

    def test_oversized_length_prefix_is_refused_not_allocated(self):
        async def scenario():
            svc = await started_tcp(make_graph(n=60))
            try:
                huge = struct.pack("<BBHI", wire.MAGIC, wire.ESCAPE, 0,
                                   wire.MAX_FRAME_LEN)
                await self._expect_protocol_error(svc, huge, "cap")
            finally:
                await svc.stop()

        run(scenario())

    def test_json_line_on_a_binary_connection_gets_the_hint(self):
        async def scenario():
            svc = await started_tcp(make_graph(n=60))
            try:
                host, port = svc.tcp_address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(wire.encode_escape({"op": "hello"}))
                await writer.drain()
                await asyncio.wait_for(read_frame(reader), 10.0)  # hello ok
                # now the client "forgets" it negotiated binary
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                frame = await asyncio.wait_for(read_frame(reader), 10.0)
                err = wire.decode_escape(frame)
                assert not err["ok"]
                assert "JSON client" in err["error"]
                writer.close()
            finally:
                await svc.stop()

        run(scenario())

    def test_response_frame_as_a_request_is_refused(self):
        async def scenario():
            svc = await started_tcp(make_graph(n=60))
            try:
                resp = np.zeros(1, dtype=wire.RESP_DTYPE)
                resp["magic"] = wire.MAGIC
                resp["type"] = wire.RESP_BASE
                await self._expect_protocol_error(
                    svc, resp.tobytes(), "not a request")
            finally:
                await svc.stop()

        run(scenario())


class TestHelloNegotiation:
    def test_hello_interns_and_repeats_are_supersets(self):
        async def scenario():
            g = make_graph(n=60)
            svc = SensitivityService(ServiceConfig(
                shards=2, port=0))
            svc.add_instance("beta", g)
            svc.add_instance("alpha", g)
            await svc.start(serve_tcp=True)
            try:
                host, port = svc.tcp_address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(wire.encode_escape(
                    {"op": "hello", "wire": 1}))
                await writer.drain()
                first = wire.decode_escape(
                    await asyncio.wait_for(read_frame(reader), 10.0))
                # omitted list → sorted registration order
                assert first["result"]["symbols"] == {"alpha": 0,
                                                      "beta": 1}
                assert first["result"]["wire"] == wire.WIRE_VERSION
                # explicit re-hello only ever extends the table
                writer.write(wire.encode_escape(
                    {"op": "hello", "instances": ["beta", "gamma"]}))
                await writer.drain()
                second = wire.decode_escape(
                    await asyncio.wait_for(read_frame(reader), 10.0))
                assert second["result"]["symbols"] == {"beta": 1,
                                                       "gamma": 2}
                writer.close()
            finally:
                await svc.stop()

        run(scenario())


class TestCrossProtocolDirect:
    """One service, two clients: every response dict must be equal."""

    def test_differential_every_op_and_error_kind(self):
        async def scenario():
            g = make_graph(n=120)
            svc = await started_tcp(g, name="g0")
            try:
                host, port = svc.tcp_address
                cj = await ServiceClient.connect(host, port)
                cb = await ServiceClient.connect(host, port,
                                                 wire_mode="binary")
                probes = []
                for e in list(range(0, g.m, 7)) + [g.m, g.m + 13]:
                    for op in OPS:
                        kw = {"op": op, "edge": e, "instance": "g0"}
                        if op == "survives":
                            kw["weight"] = 1.25
                        probes.append(kw)
                # degenerate shapes only the escape fallback can carry
                probes += [
                    {"op": "sensitivity", "edge": -3, "instance": "g0"},
                    {"op": "survives", "edge": 2, "instance": "g0"},
                    {"op": "sensitivity", "edge": 1, "instance": "nope"},
                    {"op": "sensitivity", "edge": 1, "instance": "g0",
                     "id": "tagged"},
                ]
                checked = 0
                for req in probes:
                    kw = {k: v for k, v in req.items() if k != "op"}
                    rj = await cj.call(req["op"], **kw)
                    rb = await cb.call(req["op"], **kw)
                    assert rj == rb, (req, rj, rb)
                    checked += 1
                assert checked == len(probes)
                await cj.close()
                await cb.close()
            finally:
                await svc.stop()

        run(scenario())

    def test_bulk_columns_match_scalar_point_queries(self):
        async def scenario():
            g = make_graph(n=120)
            svc = await started_tcp(g, name="g0")
            try:
                host, port = svc.tcp_address
                cb = await ServiceClient.connect(host, port,
                                                 wire_mode="binary")
                edges = np.arange(0, g.m + 6, 5, dtype=np.int64)
                for op in OPS:
                    weights = (1.25 * np.ones(len(edges))
                               if op == "survives" else None)
                    shard, gen, statuses, values = await cb.bulk(
                        op, edges, weights, instance="g0")
                    assert len(statuses) == len(edges)
                    for i, e in enumerate(edges):
                        kw = {"edge": int(e), "instance": "g0"}
                        if op == "survives":
                            kw["weight"] = 1.25
                        ref = await cb.call(op, **kw)
                        st = int(statuses[i])
                        if ref.get("ok"):
                            assert st == wire.ST_OK
                            assert (wire._wrap_value(op, float(values[i]))
                                    == ref["result"])
                        elif int(e) >= g.m:
                            assert st == wire.ST_RANGE
                            assert int(values[i]) == g.m
                        else:
                            assert st == wire.ST_TYPE
                await cb.close()
            finally:
                await svc.stop()

        run(scenario())

    def test_control_ops_ride_the_escape_frame(self):
        async def scenario():
            g = make_graph(n=120)
            svc = await started_tcp(g, name="g0")
            try:
                host, port = svc.tcp_address
                cj = await ServiceClient.connect(host, port)
                cb = await ServiceClient.connect(host, port,
                                                 wire_mode="binary")
                met = await cb.call("metrics")
                assert met["ok"]
                wm = met["result"]["wire"]
                assert wm["binary"]["connections"] >= 1
                assert wm["binary"]["frames_in"] >= 1
                # a structural update over the binary connection swaps
                # the generation for BOTH protocols identically
                upd = await cb.call("update", edge=0, weight=0.5,
                                    instance="g0")
                assert upd["ok"]
                r1 = await cb.call("sensitivity", edge=0, instance="g0")
                r2 = await cj.call("sensitivity", edge=0, instance="g0")
                assert r1 == r2 and r1["generation"] == upd["generation"]
                await cj.close()
                await cb.close()
            finally:
                await svc.stop()

        run(scenario())

    def test_bulk_needs_a_binary_connection(self):
        async def scenario():
            g = make_graph(n=60)
            svc = await started_tcp(g)
            try:
                host, port = svc.tcp_address
                cj = await ServiceClient.connect(host, port)
                with pytest.raises(ServiceError, match="binary"):
                    await cj.bulk("sensitivity", np.arange(4))
                await cj.close()
            finally:
                await svc.stop()

        run(scenario())


class TestLoadgenBinaryDriver:
    def test_binary_storm_is_clean_and_reports_encode_separately(self):
        async def scenario():
            g = make_graph(n=120)
            svc = await started_tcp(g, name="g0")
            try:
                host, port = svc.tcp_address
                plan = make_plan({"g0": g.m}, 600, seed=3)
                sb = await run_tcp(host, port, plan, clients=2,
                                   pipeline=16, wire_mode="binary")
                sj = await run_tcp(host, port, plan, clients=2,
                                   pipeline=16, wire_mode="json")
                for s in (sb, sj):
                    assert s.sent == 600
                    assert s.errors == 0
                    assert s.answered + s.shed == 600
                    assert s.encode_s > 0.0          # measured, not zero
                    assert "encode_s" in s.summary()
                # identical tallies: the protocols saw the same plan
                assert sb.answered == sj.answered
                assert sb.type_errors == sj.type_errors
            finally:
                await svc.stop()

        run(scenario())

    def test_unknown_wire_mode_is_rejected(self):
        async def scenario():
            with pytest.raises(ValueError, match="wire_mode"):
                await run_tcp("127.0.0.1", 1, make_plan({"x": 4}, 1),
                              wire_mode="msgpack")

        run(scenario())


class TestRouterZeroParseRelay:
    """The heavy scenario: real worker processes, one boot.

    Checks (a) cross-protocol dict equality through the front door,
    (b) a mid-storm generation swap that stays bit-identical across
    protocols, and (c) the zero-parse relay property: the storm's
    binary frames are forwarded while the router's binary-door
    ``json_decodes`` counter only moves for the constant handshakes.
    """

    def test_router_differential_with_mid_storm_swap(self):
        async def scenario():
            g = make_graph(n=120, seed=7)
            rt = RouterTier(RouterConfig(
                workers=2, replication=2, shards=2, port=0,
                queue_depth=1 << 15))
            await rt.start(serve_tcp=True)
            try:
                await rt.add_instance("g0", g)
                host, port = rt.tcp_address
                cj = await ServiceClient.connect(host, port)
                cb = await ServiceClient.connect(host, port,
                                                 wire_mode="binary")

                async def compare(expect_generation=None):
                    for e in list(range(0, g.m, 9)) + [g.m + 2]:
                        for op in OPS:
                            kw = {"edge": e, "instance": "g0"}
                            if op == "survives":
                                kw["weight"] = 1.25
                            rj = await cj.call(op, **kw)
                            rb = await cb.call(op, **kw)
                            assert rj == rb, (op, e, rj, rb)
                            if expect_generation is not None and rj.get("ok"):
                                assert rj["generation"] == expect_generation

                await compare(expect_generation=0)

                bm = rt.wire["binary"]
                frames_before = bm.frames_in
                decodes_before = bm.json_decodes

                # pick a rebuild-forcing edge, then swap mid-storm
                ref0 = build_oracle(g)
                upd_edge = next(
                    e for e in range(g.m_tree)
                    if InstanceUpdater("probe", g, ref0).classify(e, 1e-6)
                    == "rebuilt")
                plan = make_plan({"g0": g.m}, 1500, seed=5)

                async def storm():
                    return await run_tcp(host, port, plan, clients=2,
                                         pipeline=32, wire_mode="binary")

                async def swap():
                    await asyncio.sleep(0.05)
                    return await cj.call("update", edge=upd_edge,
                                         weight=1e-6, instance="g0")

                stats, upd = await asyncio.gather(storm(), swap())
                assert stats.errors == 0, (
                    f"{stats.errors} binary queries failed across the "
                    f"generation swap")
                assert stats.answered + stats.shed == 1500
                assert upd["ok"] and upd["action"] == "rebuilt"
                assert upd["generation"] == 1

                # zero-parse: the storm's frames were relayed, yet the
                # binary door never fed a data frame to json.loads —
                # only the storm conns' hello escapes moved the counter
                assert bm.frames_in - frames_before >= 1500
                assert bm.json_decodes - decodes_before <= 4, (
                    f"router parsed JSON on the binary relay path: "
                    f"{bm.snapshot()}")

                # the swap is observed identically over both protocols
                await compare(expect_generation=1)

                # a JSON storm through the door rides the same frames:
                # no JSON-lines connection runs inside the fleet
                jplan = make_plan({"g0": g.m}, 300, seed=6)
                jstats = await run_tcp(host, port, jplan, clients=2,
                                       pipeline=32, wire_mode="json")
                assert jstats.errors == 0
                assert jstats.answered + jstats.shed == 300
                met = await cj.call("metrics")
                for wid, wm in met["result"]["workers"].items():
                    assert wm["wire"]["json"]["connections"] == 0, (
                        wid, wm["wire"])

                await cj.close()
                await cb.close()
            finally:
                await rt.stop()

        run(scenario())


class TestRouterJsonDoorDifferential:
    """The router's JSON door packs queries into frames; every odd
    shape must still answer with the single-process service's dict."""

    SHAPES = [
        {"op": "sensitivity", "edge": -3, "instance": "g0"},
        {"op": "sensitivity", "edge": "M", "instance": "g0"},
        {"op": "entry_threshold", "edge": "M+5", "instance": "g0"},
        {"op": "sensitivity", "edge": 2 ** 32, "instance": "g0"},
        {"op": "sensitivity", "edge": 2 ** 32 + 7, "instance": "g0"},
        {"op": "sensitivity", "edge": 3.0, "instance": "g0"},
        {"op": "replacement_edge", "edge": True, "instance": "g0"},
        {"op": "survives", "edge": 2, "instance": "g0"},
        {"op": "survives", "edge": 2, "weight": "heavy", "instance": "g0"},
        {"op": "survives", "edge": 2, "weight": None, "instance": "g0"},
        {"op": "survives", "edge": 2, "weight": 3, "instance": "g0"},
        {"op": "survives", "edge": 2, "weight": 1.25, "instance": "g0"},
        {"op": "sensitivity", "edge": 1, "instance": "nope"},
        {"op": "sensitivity", "edge": 1, "instance": "g0", "id": "tag"},
        {"op": "entry_threshold", "edge": 4, "instance": "g0", "id": 7},
        {"op": "sensitivity", "edge": 1},
        {"op": "replacement_edge", "edge": 0},
    ]

    def test_odd_shapes_match_the_single_process_service(self):
        async def scenario():
            g = make_graph(n=120, seed=7)
            ref = SensitivityService(ServiceConfig(shards=2))
            ref.add_instance("g0", g)
            await ref.start()
            rt = RouterTier(RouterConfig(workers=2, replication=2,
                                         shards=2, port=0))
            await rt.start(serve_tcp=True)
            try:
                await rt.add_instance("g0", g)
                host, port = rt.tcp_address
                cj = await ServiceClient.connect(host, port)
                marks = {"M": g.m, "M+5": g.m + 5}
                for shape in self.SHAPES:
                    req = dict(shape)
                    req["edge"] = marks.get(req["edge"], req["edge"])
                    want = await ref.handle_request(dict(req))
                    kw = {k: v for k, v in req.items() if k != "op"}
                    got = await asyncio.wait_for(
                        cj.call(req["op"], **kw), 10.0)
                    assert got == want, (req, got, want)
                await cj.close()
            finally:
                await rt.stop()
                await ref.stop()

        run(scenario())
