"""Tests for the binary wire transport: framing, handshake, in-process server.

The multiprocess worker pool reuses ``serve_connection`` verbatim, so
everything proven here about framing and dispatch carries over to
``tests/serving/test_workers.py``, which focuses on the shared-memory
and process-lifecycle parts.
"""

import socket
import struct
import threading

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    GridError,
    ServingError,
    TransportError,
)
from repro.io.artifacts import save_partition_artifact
from repro.serving import ServingEngine, WireConnection, WireServer
from repro.serving.codecs import BinaryCodec, FrameParts
from repro.serving.wire import (
    FRAME_ERROR,
    FRAME_JSON,
    FRAME_LOCATE,
    FRAME_RESULT,
    MAX_FRAME_BYTES,
    SCATTER_MIN_BYTES,
    WIRE_VERSION,
    _HEADER,
    error_to_exception,
    recv_frame,
    send_frame,
)
from repro.spatial.grid import Grid
from repro.spatial.partition import uniform_partition


def _bundle(tmp_path, name: str, blocks: int):
    partition = uniform_partition(Grid(8, 8), blocks, blocks)
    return save_partition_artifact(partition, tmp_path / name, {"name": name})


@pytest.fixture()
def engine(tmp_path):
    engine = ServingEngine()
    engine.deploy("la", _bundle(tmp_path, "v1", 2))
    return engine


@pytest.fixture()
def server(engine):
    with WireServer(engine, port=0).serve_background() as server:
        yield server


def _connect(server, **kwargs) -> WireConnection:
    return WireConnection(server.host, server.port, **kwargs).connect()


class TestFraming:
    def _pair(self):
        left, right = socket.socketpair()
        left.settimeout(5.0)
        right.settimeout(5.0)
        return left, right

    def test_roundtrip_preserves_kind_and_payload(self):
        left, right = self._pair()
        try:
            send_frame(left, FRAME_LOCATE, b"\x00\xffpayload")
            assert recv_frame(right) == (FRAME_LOCATE, b"\x00\xffpayload")
            send_frame(left, FRAME_JSON, b"")
            assert recv_frame(right) == (FRAME_JSON, b"")
        finally:
            left.close(); right.close()

    def test_clean_eof_is_none(self):
        left, right = self._pair()
        left.close()
        try:
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_mid_frame_eof_is_a_truncation_error(self):
        left, right = self._pair()
        try:
            header = _HEADER.pack(100, FRAME_LOCATE, WIRE_VERSION, 0)
            left.sendall(header + b"only-part")
            left.close()
            with pytest.raises(TransportError, match="truncated"):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_declared_payload_refused_before_reading_it(self):
        left, right = self._pair()
        try:
            left.sendall(_HEADER.pack(MAX_FRAME_BYTES + 1, FRAME_JSON, WIRE_VERSION, 0))
            with pytest.raises(ConfigurationError, match="limit"):
                recv_frame(right)
        finally:
            left.close(); right.close()

    def test_oversized_send_refused_client_side(self):
        left, right = self._pair()
        try:
            with pytest.raises(TransportError, match="frame limit"):
                send_frame(left, FRAME_LOCATE, b"\x00" * (MAX_FRAME_BYTES + 1))
        finally:
            left.close(); right.close()

    def test_unknown_framing_version_refused(self):
        left, right = self._pair()
        try:
            left.sendall(_HEADER.pack(0, FRAME_JSON, WIRE_VERSION + 1, 0))
            with pytest.raises(ConfigurationError, match="framing version"):
                recv_frame(right)
        finally:
            left.close(); right.close()

    def test_nonzero_reserved_field_refused(self):
        left, right = self._pair()
        try:
            left.sendall(_HEADER.pack(0, FRAME_JSON, WIRE_VERSION, 7))
            with pytest.raises(ConfigurationError, match="reserved"):
                recv_frame(right)
        finally:
            left.close(); right.close()

    def test_header_layout_is_the_documented_8_bytes(self):
        # <IBBH: u32 length, u8 kind, u8 version, u16 reserved — the frame
        # layout promised in ARCHITECTURE.md.  A change here is a wire break.
        assert _HEADER.size == 8
        assert _HEADER.pack(1, 2, 1, 0) == struct.pack("<IBBH", 1, 2, 1, 0)


class _RecordingSocket:
    """A socket stand-in that keeps every buffer handed to ``sendall``."""

    def __init__(self):
        self.buffers = []
        self.sent = bytearray()

    def sendall(self, data):
        self.buffers.append(data)
        self.sent += memoryview(data).cast("B")


def _frame_bytes(kind, payload):
    """The frame the wire always wrote: header + joined payload."""
    body = bytes(payload)
    return _HEADER.pack(len(body), kind, WIRE_VERSION, 0) + body


class TestScatterGather:
    """Large payloads leave part by part and arrive via ``recv_into``; the
    bytes on the wire are the historical joined frame either way."""

    def test_large_payloads_go_out_one_sendall_per_part_without_copies(self):
        rng = np.random.default_rng(11)
        n = 5000  # 80 kB of coordinates: above SCATTER_MIN_BYTES
        payload = BinaryCodec().encode_request(
            "la", rng.uniform(size=n), rng.uniform(size=n), strict=True, version=3
        )
        assert len(payload) >= SCATTER_MIN_BYTES
        sock = _RecordingSocket()
        send_frame(sock, FRAME_LOCATE, payload)
        # The header, then each part as the object the codec returned: the
        # coordinate arrays reach the socket without a staging copy.
        assert len(sock.buffers) == 1 + len(payload.parts)
        assert all(sent is part for sent, part in zip(sock.buffers[1:], payload.parts))
        assert bytes(sock.sent) == _frame_bytes(FRAME_LOCATE, payload)
        decoded = BinaryCodec().decode_request(sock.sent[_HEADER.size:])
        assert decoded.xs.tobytes() == payload.parts[2].tobytes()
        assert decoded.ys.tobytes() == payload.parts[3].tobytes()
        assert (decoded.deployment, decoded.strict, decoded.version) == ("la", True, 3)

    def test_small_payloads_go_out_as_one_coalesced_write(self):
        payload = BinaryCodec().encode_request("la", np.arange(64.0), np.arange(64.0))
        assert len(payload) < SCATTER_MIN_BYTES
        sock = _RecordingSocket()
        send_frame(sock, FRAME_LOCATE, payload)
        assert len(sock.buffers) == 1
        assert bytes(sock.sent) == _frame_bytes(FRAME_LOCATE, payload)

    def test_peer_closing_mid_payload_is_a_truncation_error_on_recv_into(self):
        left, right = socket.socketpair()
        right.settimeout(5.0)
        n, k = 4 * SCATTER_MIN_BYTES, 3 * SCATTER_MIN_BYTES + 5

        def send_part_then_close():
            left.sendall(_HEADER.pack(n, FRAME_LOCATE, WIRE_VERSION, 0) + b"\x01" * k)
            left.close()

        sender = threading.Thread(target=send_part_then_close)
        sender.start()
        try:
            with pytest.raises(
                TransportError,
                match=f"{k} of {n} frame payload bytes received \\(truncated frame\\)",
            ):
                recv_frame(right)
        finally:
            sender.join()
            right.close()

    def test_oversized_typed_view_is_refused_by_byte_count(self):
        # 2**23 + 1 int64 elements: len() is far below MAX_FRAME_BYTES, the
        # byte count is just over it.  np.empty leaves the pages untouched.
        big = np.empty(MAX_FRAME_BYTES // 8 + 1, dtype=np.int64)
        assert len(big) < MAX_FRAME_BYTES < big.nbytes
        sock = _RecordingSocket()
        with pytest.raises(TransportError, match=f"{big.nbytes} bytes exceeds"):
            send_frame(sock, FRAME_RESULT, big)
        with pytest.raises(TransportError, match="frame limit"):
            send_frame(sock, FRAME_RESULT, FrameParts((b"prefix", big), 6 + big.nbytes))
        assert not sock.sent

    def test_recv_returns_bytes_below_the_threshold_and_a_readonly_view_above(self):
        left, right = socket.socketpair()
        left.settimeout(5.0)
        right.settimeout(5.0)
        small = b"s" * (SCATTER_MIN_BYTES - 1)
        large = bytes(range(256)) * (SCATTER_MIN_BYTES // 256 + 1)
        sender = threading.Thread(
            target=lambda: (send_frame(left, FRAME_JSON, small),
                            send_frame(left, FRAME_LOCATE, large))
        )
        sender.start()
        try:
            kind, payload = recv_frame(right)
            assert kind == FRAME_JSON and type(payload) is bytes and payload == small
            kind, payload = recv_frame(right)
            assert kind == FRAME_LOCATE and isinstance(payload, memoryview)
            assert payload.readonly and len(payload) == len(large)
            assert bytes(payload) == large
        finally:
            sender.join()
            left.close(); right.close()


class TestGoldenBytes:
    """The binary codec's parts join to the historical layout, byte for byte:
    ``<HBqI`` prefix, name bytes, ``xs.tobytes()``, ``ys.tobytes()``."""

    def test_request_matches_the_hand_built_layout(self):
        xs = np.linspace(-1.0, 1.0, 20)[::2]           # strided
        ys = np.arange(10, dtype=">f8") * np.pi         # big-endian
        ys[3] = np.nan
        name = "los ángeles"
        for strict, strict_code in ((None, 0), (True, 1), (False, 2)):
            for version, version_code in ((None, 0), ("latest", -1), (9, 9)):
                expected = (
                    struct.pack("<HBqI", len(name.encode()), strict_code, version_code, 10)
                    + name.encode("utf-8")
                    + np.asarray(xs, dtype="<f8").tobytes()
                    + np.asarray(ys, dtype="<f8").tobytes()
                )
                payload = BinaryCodec().encode_request(name, xs, ys, strict, version)
                assert bytes(payload) == expected
                assert len(payload) == len(expected)

    def test_response_matches_the_hand_built_layout(self):
        regions = np.array([4, -1, 0, 2**40, -1], dtype=">i8")
        expected = struct.pack("<qI", 7, 5) + regions.astype("<i8").tobytes()
        payload = BinaryCodec().encode_response("la", 7, regions)
        assert bytes(payload) == expected
        assert len(payload) == len(expected)

    def test_wire_version_is_unchanged(self):
        assert WIRE_VERSION == 1


class TestReadOnlyOverASocket:
    """Arrays decoded from a received frame are views the caller cannot
    write through, on both the ``bytes`` and the ``recv_into`` paths."""

    @pytest.mark.parametrize("n", [64, 20_000])
    def test_decode_request_views_over_a_socketpair_frame(self, n):
        left, right = socket.socketpair()
        left.settimeout(5.0)
        right.settimeout(5.0)
        xs = np.arange(n, dtype=float)
        payload = BinaryCodec().encode_request("la", xs, -xs)
        sender = threading.Thread(target=send_frame, args=(left, FRAME_LOCATE, payload))
        sender.start()
        try:
            kind, received = recv_frame(right)
        finally:
            sender.join()
            left.close(); right.close()
        decoded = BinaryCodec().decode_request(received)
        for values in (decoded.xs, decoded.ys):
            assert values.base is not None
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 1.0
        assert np.array_equal(decoded.xs, xs) and np.array_equal(decoded.ys, -xs)

    @pytest.mark.parametrize("n", [64, 20_000])
    def test_wire_connection_locate_answers_are_readonly_views(self, engine, server, n):
        rng = np.random.default_rng(n)
        xs = rng.uniform(-0.1, 1.1, n)
        ys = rng.uniform(-0.1, 1.1, n)
        with _connect(server) as conn:
            version, regions = conn.locate("la", xs, ys)
        assert regions.base is not None
        assert not regions.flags.writeable
        assert np.array_equal(regions, engine.locate_points("la", xs, ys))


class TestErrorMapping:
    def test_known_types_map_back_to_themselves(self):
        exc = error_to_exception({"type": "ServingError", "message": "m"})
        assert type(exc) is ServingError and str(exc) == "m"
        exc = error_to_exception({"type": "ConfigurationError", "message": "m"})
        assert type(exc) is ConfigurationError

    def test_unknown_type_degrades_to_serving_error(self):
        exc = error_to_exception({"type": "SomethingElse", "message": "m"})
        assert type(exc) is ServingError
        assert "SomethingElse" in str(exc)

    def test_non_repro_type_names_cannot_be_injected(self):
        # A malicious/buggy server naming a stdlib exception must not make
        # the client raise it; only ReproError subclasses map through.
        exc = error_to_exception({"type": "SystemExit", "message": "m"})
        assert type(exc) is ServingError


class TestHandshake:
    def test_negotiates_first_mutual_codec(self, server):
        with _connect(server) as conn:
            assert conn.codec.name == "binary"
            assert conn.server_info.get("mode") == "in-process"
        with _connect(server, codecs=("json+b64",)) as conn:
            assert conn.codec.name == "json+b64"

    def test_client_preference_order_wins(self, server):
        with _connect(server, codecs=("json+b64", "binary")) as conn:
            assert conn.codec.name == "json+b64"

    def test_no_mutual_codec_fails_typed(self, engine):
        with WireServer(engine, port=0, codecs=("json+b64",)).serve_background() as server:
            with pytest.raises(ServingError, match="no mutual codec"):
                _connect(server, codecs=("binary",))

    def test_unknown_client_codec_names_are_skipped_not_fatal(self, server):
        with _connect(server, codecs=("binary",)) as conn:
            # exercise the server-side skip by speaking raw hello frames
            assert conn.codec.name == "binary"
        raw = socket.create_connection((server.host, server.port), timeout=5.0)
        try:
            send_frame(raw, FRAME_JSON,
                       b'{"op": "hello", "v": 1, "codecs": ["zstd", "binary"]}')
            kind, payload = recv_frame(raw)
            assert kind == FRAME_JSON and b'"codec": "binary"' in payload
        finally:
            raw.close()

    def test_protocol_version_mismatch_fails_typed(self, server):
        raw = socket.create_connection((server.host, server.port), timeout=5.0)
        try:
            send_frame(raw, FRAME_JSON,
                       b'{"op": "hello", "v": 99, "codecs": ["binary"]}')
            kind, payload = recv_frame(raw)
            assert kind == FRAME_ERROR
            assert b"protocol version" in payload
        finally:
            raw.close()

    def test_connection_refused_is_a_transport_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransportError, match="cannot connect"):
            WireConnection("127.0.0.1", port, timeout=2.0).connect()


class TestLocate:
    @pytest.mark.parametrize("codecs", [("binary",), ("json+b64",)])
    def test_locate_bit_exact_vs_engine(self, engine, server, codecs):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-0.1, 1.1, 1000)
        ys = rng.uniform(-0.1, 1.1, 1000)
        expected = engine.locate_points("la", xs, ys)
        with _connect(server, codecs=codecs) as conn:
            version, regions = conn.locate("la", xs, ys)
        assert version == 1
        assert regions.tobytes() == np.asarray(expected, dtype="<i8").tobytes()

    @pytest.mark.parametrize("codecs", [("binary",), ("json+b64",)])
    def test_large_locate_bit_exact_vs_engine(self, engine, server, codecs):
        # 50,000 points: request and answer frames both take the
        # part-by-part send and recv_into receive path.
        rng = np.random.default_rng(6)
        xs = rng.uniform(-0.1, 1.1, 50_000)
        ys = rng.uniform(-0.1, 1.1, 50_000)
        expected = engine.locate_points("la", xs, ys)
        with _connect(server, codecs=codecs) as conn:
            for _ in range(2):  # the connection stays in step afterwards
                version, regions = conn.locate("la", xs, ys)
                assert version == 1
                assert regions.tobytes() == np.asarray(expected, dtype="<i8").tobytes()

    def test_strict_off_map_answers_an_error_and_survives(self, server):
        with _connect(server) as conn:
            with pytest.raises(GridError):
                conn.locate("la", np.array([5.0]), np.array([5.0]), strict=True)
            # connection still usable after the error frame
            version, regions = conn.locate("la", np.array([0.1]), np.array([0.1]))
            assert version == 1 and regions.size == 1

    def test_unknown_deployment_is_typed_and_connection_survives(self, server):
        with _connect(server) as conn:
            with pytest.raises(ServingError, match="unknown deployment"):
                conn.locate("nope", np.array([0.1]), np.array([0.1]))
            assert conn.locate("la", np.array([0.1]), np.array([0.1]))[0] == 1

    def test_non_finite_coordinates_rejected_server_side(self, server):
        with _connect(server) as conn:
            with pytest.raises(ConfigurationError, match="finite"):
                conn.locate("la", np.array([np.nan]), np.array([0.1]))

    def test_hot_swap_visible_on_live_connection(self, engine, server, tmp_path):
        with _connect(server) as conn:
            assert conn.locate("la", np.array([0.9]), np.array([0.9]))[0] == 1
            engine.deploy("la", _bundle(tmp_path, "v2", 4))
            version, regions = conn.locate("la", np.array([0.9]), np.array([0.9]))
            assert version == 2
            assert regions.tobytes() == np.asarray(
                engine.locate_points("la", [0.9], [0.9]), dtype="<i8"
            ).tobytes()


class TestControlPlane:
    def test_healthz_stats_deployments(self, engine, server):
        with _connect(server) as conn:
            assert conn.control({"op": "healthz"}) == {
                "status": "ok", "deployments": 1
            }
            stats = conn.control({"op": "stats"})
            assert "la" in stats["deployments"]
            rows = conn.control({"op": "deployments"})["deployments"]
            assert rows == engine.deployments()

    def test_unknown_op_is_typed(self, server):
        with _connect(server) as conn:
            with pytest.raises(ServingError, match="unknown wire op"):
                conn.control({"op": "explode"})

    def test_range_query_over_the_wire_matches_engine(self, engine, server):
        from repro.serving import RangeRequest

        request = RangeRequest(
            deployment="la", min_x=0.0, min_y=0.0, max_x=0.4, max_y=0.4
        )
        expected = engine.range_query(request)
        with _connect(server) as conn:
            answer = conn.control(request.to_dict())
        assert answer["kind"] == "range"
        assert tuple(answer["regions"]) == expected.regions

    def test_admin_operations_are_refused_with_guidance(self, server):
        with _connect(server) as conn:
            with pytest.raises(ServingError, match="HTTP admin plane"):
                conn.control({
                    "kind": "swap-shard", "deployment": "la",
                    "row": 0, "col": 0, "artifact": "/b",
                })
            with pytest.raises(ServingError, match="HTTP admin plane"):
                conn.control({"kind": "rollback-shard", "deployment": "la",
                              "row": 0, "col": 0})

    def test_json_b64_dense_locate_arrives_as_a_control_frame(self, engine, server):
        from repro.serving.codecs import JsonB64Codec

        xs = np.array([0.1, 0.9]); ys = np.array([0.1, 0.9])
        body = JsonB64Codec().encode_request("la", xs, ys)
        with _connect(server, codecs=("json+b64",)) as conn:
            sock = conn._sock
            send_frame(sock, FRAME_JSON, body)
            kind, payload = recv_frame(sock)
        assert kind == FRAME_JSON
        version, regions = JsonB64Codec().decode_response(payload)
        assert version == 1
        assert np.array_equal(regions, engine.locate_points("la", xs, ys))


class TestConnectionDiscipline:
    def test_binary_frame_on_json_connection_answers_typed_error(self, server):
        # a json+b64 WireConnection never sends FRAME_LOCATE, so force the
        # codec mismatch with raw frames.  The frame was fully read, so the
        # stream stays coherent and the connection survives.
        raw = socket.create_connection((server.host, server.port), timeout=5.0)
        try:
            send_frame(raw, FRAME_JSON,
                       b'{"op": "hello", "v": 1, "codecs": ["json+b64"]}')
            recv_frame(raw)
            send_frame(raw, FRAME_LOCATE, b"\x00" * 32)
            kind, payload = recv_frame(raw)
            assert kind == FRAME_ERROR and b"negotiated" in payload
            send_frame(raw, FRAME_JSON, b'{"op": "healthz"}')
            kind, payload = recv_frame(raw)
            assert kind == FRAME_JSON and b'"ok"' in payload
        finally:
            raw.close()

    def test_server_close_tears_down_live_connections(self, engine):
        server = WireServer(engine, port=0).serve_background()
        conn = _connect(server)
        server.close()
        with pytest.raises((TransportError, ServingError, OSError)):
            conn.locate("la", np.array([0.1]), np.array([0.1]))
        conn.close()

    def test_double_start_refused(self, engine, server):
        with pytest.raises(ServingError, match="already running"):
            server.serve_background()
