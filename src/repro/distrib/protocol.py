"""Wire protocol: versioned, optionally compressed JSON frames.

Every message is one JSON object, normally on one UTF-8 line.  The
conversation between server and worker (protocol version 2)::

    worker -> {"op": "hello", "worker": "worker-0", "proto": 2,
               "compress": true}
    server -> {"op": "welcome", "proto": 2, "compress": true,
               "depth": 4, "cache": "/path/.runcache" | null,
               "cache_proto": true}
    server -> {"op": "task", "id": 7, "spec": {...}}
            | {"op": "tasks", "tasks": [{"id": 7, "spec": {...}}, ...]}
    worker -> {"op": "result", "id": 7, "payload": {...},
               "cached": false, "seconds": 1.93}
            | {"op": "results", "results": [{...}, ...]}
            | {"op": "error", "id": 7, "error": "ValueError: ...",
               "traceback": "..."}
            | {"op": "cache_get", "id": 7, "hash": "<sha256>"}
              (server -> {"op": "cache_value", "id": 7,
                          "payload": {...} | null})
    ...                         # repeat until the queue is dry
    worker -> {"op": "bye", "worker": "worker-0", "abandoned": [8, 9]}
              (clean departure: unstarted pipelined tasks go back)
    server -> {"op": "bye"}

**Versioning.** The worker's ``hello`` carries the protocol version
it speaks (a missing ``proto`` field is version 1, the original strict
request/reply protocol).  Server and worker must speak the same
version: fleets are launched from one checkout, so a mismatch means a
stale worker.  The server answers it with ``{"op": "error", "error":
...}`` naming both versions and drops the connection; the worker
raises :class:`ProtocolError` on that frame, and likewise on a
``welcome`` of another version.  No feature is negotiated by version;
compression alone is negotiated, by the ``compress`` flags.

**Compression.** When both sides offer ``compress`` at hello/welcome,
every subsequent frame may be sent compressed: the JSON bytes are
zlib-deflated and framed as ``z<len>\\n<blob>`` (a length-prefixed
binary frame — JSON objects always start with ``{``, so the leading
``z`` is unambiguous).  Payloads are large canonical JSON, which
deflates 5-10x, so the CPU spent is nearly free real-bandwidth savings
on anything but a loopback link.  Compression never touches payload
*content*: the bytes that come out of :func:`recv_message` are exactly
the bytes that went into :func:`send_message`, so the byte-determinism
contract is transport-invariant.

**Robustness.** A frame that cannot be parsed — truncated mid-frame,
an unterminated line longer than ``max_line``, non-JSON garbage, a bad
compressed blob — raises :class:`ProtocolError` with a message naming
what was wrong.  Receivers treat that as fatal *for the one
connection* (the peer is speaking garbage; resynchronising a framed
stream is hopeless) and never as fatal for the server.

Addresses are strings: ``"host:port"`` for TCP (port 0 = ephemeral) or
``"unix:/path.sock"`` for unix-domain sockets.
"""

from __future__ import annotations

import json
import socket
import zlib
from typing import Any, Optional, Tuple, Union

__all__ = [
    "PROTO_VERSION",
    "MAX_FRAME",
    "ProtocolError",
    "connect",
    "format_address",
    "parse_address",
    "recv_message",
    "send_message",
]

#: The protocol version this build speaks, and the only one it accepts.
#: Version 1 was the original one-line-JSON strict request/reply
#: protocol; version 2 adds batched frames, zlib frame compression,
#: protocol-level cache read-through and clean worker departure.
PROTO_VERSION = 2

#: Upper bound on one frame, compressed or not (a 64 MiB line is not a
#: message, it is a bug or an attack on the submitter's memory).
MAX_FRAME = 64 * 1024 * 1024

#: zlib level for compressed frames: level 1 already gets most of the
#: win on canonical JSON and costs the least CPU per task.
COMPRESS_LEVEL = 1

#: (family, sockaddr) — what parse_address returns.
Address = Tuple[int, Union[str, Tuple[str, int]]]


class ProtocolError(ValueError):
    """The peer sent bytes that are not a well-formed protocol frame.

    Fatal for the connection it arrived on (the framing cannot be
    resynchronised), never for the server as a whole.
    """


def parse_address(address: str) -> Address:
    """``"host:port"`` or ``"unix:/path"`` -> ``(family, sockaddr)``."""
    if address.startswith("unix:"):
        if not hasattr(socket, "AF_UNIX"):
            raise ValueError("unix sockets are not supported on this platform")
        return socket.AF_UNIX, address[len("unix:"):]
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValueError(
            f"bad address {address!r}: expected 'host:port' or 'unix:/path'"
        )
    return socket.AF_INET, (host or "127.0.0.1", int(port))


def format_address(family: int, sockaddr: Union[str, Tuple[str, int]]) -> str:
    """The string form of a bound socket address (inverse of parse)."""
    if hasattr(socket, "AF_UNIX") and family == socket.AF_UNIX:
        return f"unix:{sockaddr}"
    host, port = sockaddr[0], sockaddr[1]
    return f"{host}:{port}"


def connect(address: str, timeout: Optional[float] = None) -> socket.socket:
    """Open a client connection to a server address string."""
    family, sockaddr = parse_address(address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    if timeout is not None:
        sock.settimeout(timeout)
    sock.connect(sockaddr)
    return sock


def send_message(wfile, message: dict, compress: bool = False) -> None:
    """Write one message and flush.

    Uncompressed frames are compact JSON + newline; with ``compress``
    the JSON bytes go out zlib-deflated behind a ``z<len>\\n`` header.
    Only enable ``compress`` after both sides negotiated it at
    hello/welcome.
    """
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if compress:
        blob = zlib.compress(data, COMPRESS_LEVEL)
        wfile.write(b"z%d\n" % len(blob))
        wfile.write(blob)
    else:
        wfile.write(data)
        wfile.write(b"\n")
    wfile.flush()


def recv_message(rfile, max_frame: int = MAX_FRAME) -> Optional[Any]:
    """Read one message; ``None`` on a clean EOF (peer went away).

    Raises :class:`ProtocolError` on anything that is not a well-formed
    frame: an unterminated line longer than ``max_frame``, a line
    truncated by EOF, a compressed frame shorter than its declared
    length, a blob zlib cannot inflate, or bytes that are not JSON.
    """
    line = rfile.readline(max_frame + 1)
    if not line:
        return None
    if len(line) > max_frame:
        raise ProtocolError(
            f"oversized frame: line exceeds {max_frame} bytes "
            "without a newline"
        )
    if line[:1] == b"z":
        # length-prefixed compressed frame: z<len>\n<blob>
        try:
            length = int(line[1:])
        except ValueError:
            raise ProtocolError(
                f"bad frame header {line[:40]!r}: expected 'z<len>'"
            ) from None
        if not (0 <= length <= max_frame):
            raise ProtocolError(
                f"oversized compressed frame: {length} bytes declared, "
                f"limit {max_frame}"
            )
        blob = rfile.read(length)
        if len(blob) < length:
            raise ProtocolError(
                f"truncated frame: {length} bytes declared, "
                f"{len(blob)} received before EOF"
            )
        inflater = zlib.decompressobj()
        try:
            data = inflater.decompress(blob, max_frame)
        except zlib.error as exc:
            raise ProtocolError(f"bad compressed frame: {exc}") from None
        if inflater.unconsumed_tail:
            raise ProtocolError(
                f"oversized compressed frame: inflates past {max_frame} bytes"
            )
    else:
        if not line.endswith(b"\n"):
            raise ProtocolError(
                "truncated frame: EOF in the middle of a line"
            )
        data = line
    try:
        return json.loads(data)
    except ValueError:
        head = data[:60]
        raise ProtocolError(f"frame is not JSON: {head!r}...") from None
