"""Binary wire protocol for worker/central exchanges.

Frame layout, integers little-endian, doubles IEEE-754 binary64:

    len:u32 | tag:u8 | worker_id:u32 | epoch:u32 | v1[d] f64 | v2[d] f64 | v3[d] f64

len counts every byte after the length field itself. Tags: 0 sync
report, 1 async delta, 2 global state. The vector meaning depends on
the tag: (x, x_bar, g_bar) for reports and global state, and the
corresponding deltas for tag 1.

The dimension d is fixed per connection by a handshake frame sent once
before any message: len=5, tag=255, payload d:u32. Every frame on a
connection therefore has one size, and this module is the only one that
knows it: `read_message` and `read_handshake` read frames off a stream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

HANDSHAKE_TAG = 255

_LEN = struct.Struct("<I")
_HEADER = struct.Struct("<IBII")  # len, tag, worker_id, epoch
_HANDSHAKE = struct.Struct("<IBI")  # len, tag, d

_HEADER_PAYLOAD = 1 + 4 + 4  # tag + worker_id + epoch, inside len
_VEC_BYTES = 8


class MessageTag(IntEnum):
    SYNC_REPORT = 0
    ASYNC_DELTA = 1
    GLOBAL_STATE = 2


class DecodeError(ValueError):
    """Malformed frame. offset is the byte position within the frame at
    which the problem was detected."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


@dataclass
class ProtocolMessage:
    tag: MessageTag
    worker_id: int
    epoch: int
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray


def encode_message(m: ProtocolMessage) -> bytes:
    """Serialize a message to one complete frame, length prefix included."""
    tag = MessageTag(m.tag)
    v1 = np.ascontiguousarray(m.v1, dtype="<f8")
    v2 = np.ascontiguousarray(m.v2, dtype="<f8")
    v3 = np.ascontiguousarray(m.v3, dtype="<f8")
    d = v1.shape[0]
    if v1.ndim != 1 or v2.shape != (d,) or v3.shape != (d,):
        raise ValueError("v1, v2, v3 must be 1-d vectors of equal length")
    payload_len = _HEADER_PAYLOAD + 3 * d * _VEC_BYTES
    return (_HEADER.pack(payload_len, int(tag), m.worker_id, m.epoch)
            + v1.tobytes() + v2.tobytes() + v3.tobytes())


def decode_message(frame: bytes, expected_d: int | None = None) -> ProtocolMessage:
    """Parse one complete frame produced by encode_message.

    Raises DecodeError on truncation, an unknown tag, or a declared
    length inconsistent with the fixed layout (or with expected_d when
    given)."""
    if len(frame) < _LEN.size:
        raise DecodeError("truncated frame: incomplete length prefix",
                          offset=len(frame))
    (payload_len,) = _LEN.unpack_from(frame, 0)
    total = _LEN.size + payload_len
    if len(frame) < total:
        raise DecodeError(
            f"truncated frame: declared {payload_len} payload bytes, "
            f"got {len(frame) - _LEN.size}", offset=len(frame))
    if len(frame) > total:
        raise DecodeError("frame longer than declared length", offset=total)
    if payload_len < _HEADER_PAYLOAD:
        raise DecodeError(
            f"declared length {payload_len} too short for the header", offset=0)
    tag_byte = frame[4]
    if tag_byte not in (int(MessageTag.SYNC_REPORT), int(MessageTag.ASYNC_DELTA),
                        int(MessageTag.GLOBAL_STATE)):
        raise DecodeError(f"unknown tag {tag_byte}", offset=4)
    body = payload_len - _HEADER_PAYLOAD
    if body % (3 * _VEC_BYTES) != 0:
        raise DecodeError(
            f"length mismatch: {body} vector bytes is not a multiple of 24",
            offset=0)
    d = body // (3 * _VEC_BYTES)
    if expected_d is not None and d != expected_d:
        raise DecodeError(
            f"length mismatch: payload carries d={d}, connection agreed "
            f"d={expected_d}", offset=0)
    _, tag, worker_id, epoch = _HEADER.unpack_from(frame, 0)
    off = _HEADER.size
    vecs = []
    for _ in range(3):
        vecs.append(np.frombuffer(frame, dtype="<f8", count=d,
                                  offset=off).astype(np.float64))
        off += d * _VEC_BYTES
    return ProtocolMessage(MessageTag(tag), worker_id, epoch, *vecs)


def encode_handshake(d: int) -> bytes:
    """Connection-setup frame announcing the vector dimension."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return _HANDSHAKE.pack(1 + 4, HANDSHAKE_TAG, d)


def decode_handshake(frame: bytes) -> int:
    """Parse a handshake frame; returns the announced dimension."""
    if len(frame) < _HANDSHAKE.size:
        raise DecodeError("truncated handshake", offset=len(frame))
    if len(frame) > _HANDSHAKE.size:
        raise DecodeError("handshake longer than declared length",
                          offset=_HANDSHAKE.size)
    payload_len, tag, d = _HANDSHAKE.unpack(frame)
    if payload_len != 5:
        raise DecodeError(f"handshake declares length {payload_len}, expected 5",
                          offset=0)
    if tag != HANDSHAKE_TAG:
        raise DecodeError(f"expected handshake tag {HANDSHAKE_TAG}, got {tag}",
                          offset=4)
    if d < 1:
        raise DecodeError(f"handshake dimension {d} is not positive", offset=5)
    return d


def _read_exact(read, nbytes: int) -> bytes:
    """nbytes from read(n), or fewer if the stream ends first; the
    decoders reject a short read as truncated."""
    got = b""
    while len(got) < nbytes:
        chunk = read(nbytes - len(got))
        if not chunk:
            break
        got += chunk
    return got


def read_message(read, d: int) -> ProtocolMessage | None:
    """Read and decode one frame of dimension d from a stream.

    read(n) returns at most n bytes and b"" at end of stream, as
    socket.recv does. Returns None on a clean end of stream before the
    frame. A length prefix larger than a d-frame is rejected before the
    body is read, so a corrupt prefix cannot leave the reader waiting."""
    frame = _read_exact(read, _LEN.size)
    if not frame:
        return None
    if len(frame) == _LEN.size:
        (payload_len,) = _LEN.unpack(frame)
        limit = _HEADER_PAYLOAD + 3 * _VEC_BYTES * d
        if payload_len > limit:
            raise DecodeError(
                f"length mismatch: declared {payload_len} payload bytes, "
                f"connection allows at most {limit}", offset=0)
        frame += _read_exact(read, payload_len)
    return decode_message(frame, expected_d=d)


def read_handshake(read) -> int:
    """Read and decode a handshake frame from a stream; returns d."""
    return decode_handshake(_read_exact(read, _HANDSHAKE.size))
