"""Fixture: payload staging the wire modules flag, plus a pragma'd twin."""

import struct

HEADER = struct.Struct("<IBBH")


def staged(sock, prefix, values):
    header = HEADER.pack(len(values), 2, 1, 0)
    sock.sendall(header + values.tobytes())  # BAD: header concat
    return b"".join((prefix, values.tobytes()))  # BAD: joined payload


def coalesced(sock, payload):
    header = HEADER.pack(len(payload), 2, 1, 0)
    sock.sendall(header + payload)  # repro: ignore[hot-path-copy] -- small-frame coalesce
    return b"".join((header, payload))  # repro: ignore[hot-path-copy] -- small-frame coalesce


def parts(sock, payload):
    for part in (HEADER.pack(len(payload), 2, 1, 0), payload):
        sock.sendall(part)
    return ", ".join(("text", "only"))
