import io
import struct

import numpy as np
import pytest

from vrlite.distributed.protocol import (
    HANDSHAKE_TAG,
    DecodeError,
    MessageTag,
    ProtocolMessage,
    decode_handshake,
    decode_message,
    encode_handshake,
    encode_message,
    read_handshake,
    read_message,
)


def _random_message(rng, d, tag=None):
    tag = MessageTag(int(rng.integers(0, 3))) if tag is None else tag
    return ProtocolMessage(
        tag=tag,
        worker_id=int(rng.integers(0, 2**32)),
        epoch=int(rng.integers(0, 2**32)),
        v1=rng.standard_normal(d),
        v2=rng.standard_normal(d),
        v3=rng.standard_normal(d),
    )


@pytest.mark.parametrize("d", [1, 20, 1000])
def test_round_trip_preserves_everything(d):
    rng = np.random.default_rng(d)
    for _ in range(25):
        m = _random_message(rng, d)
        out = decode_message(encode_message(m))
        assert out.tag == m.tag
        assert out.worker_id == m.worker_id
        assert out.epoch == m.epoch
        np.testing.assert_array_equal(out.v1, m.v1)
        np.testing.assert_array_equal(out.v2, m.v2)
        np.testing.assert_array_equal(out.v3, m.v3)


def test_round_trip_with_expected_dimension():
    rng = np.random.default_rng(0)
    m = _random_message(rng, 20)
    out = decode_message(encode_message(m), expected_d=20)
    np.testing.assert_array_equal(out.v3, m.v3)


def test_frame_layout_is_stable():
    m = ProtocolMessage(MessageTag.SYNC_REPORT, worker_id=3, epoch=9,
                        v1=np.array([1.0]), v2=np.array([2.0]),
                        v3=np.array([-1.0]))
    frame = encode_message(m)
    assert len(frame) == 4 + 9 + 3 * 8
    # Little-endian length prefix counts everything after itself.
    assert struct.unpack_from("<I", frame, 0)[0] == len(frame) - 4
    assert frame[4] == 0
    assert struct.unpack_from("<I", frame, 5)[0] == 3
    assert struct.unpack_from("<I", frame, 9)[0] == 9
    assert struct.unpack_from("<d", frame, 13)[0] == 1.0
    assert struct.unpack_from("<d", frame, 21)[0] == 2.0
    assert struct.unpack_from("<d", frame, 29)[0] == -1.0


def test_special_float_values_survive():
    m = ProtocolMessage(MessageTag.GLOBAL_STATE, 0, 0,
                        v1=np.array([np.inf, -np.inf]),
                        v2=np.array([np.nan, 0.0]),
                        v3=np.array([-0.0, 5e-324]))
    out = decode_message(encode_message(m))
    np.testing.assert_array_equal(out.v1, m.v1)
    assert np.isnan(out.v2[0]) and out.v2[1] == 0.0
    assert np.signbit(out.v3[0]) and out.v3[1] == 5e-324


def test_encode_rejects_mismatched_vectors():
    with pytest.raises(ValueError):
        encode_message(ProtocolMessage(MessageTag.SYNC_REPORT, 0, 0,
                                       np.zeros(3), np.zeros(2), np.zeros(3)))
    with pytest.raises(ValueError):
        encode_message(ProtocolMessage(7, 0, 0, np.zeros(2), np.zeros(2),
                                       np.zeros(2)))


def test_decode_rejects_unknown_tags():
    rng = np.random.default_rng(1)
    frame = bytearray(encode_message(_random_message(rng, 4)))
    for bad in (3, 7, HANDSHAKE_TAG):
        frame[4] = bad
        with pytest.raises(DecodeError) as exc:
            decode_message(bytes(frame))
        assert exc.value.offset == 4
        assert "unknown tag" in str(exc.value)


def test_decode_rejects_truncation_everywhere():
    rng = np.random.default_rng(2)
    frame = encode_message(_random_message(rng, 8))
    for cut in (0, 1, 3, 4, 8, 13, len(frame) - 1):
        with pytest.raises(DecodeError) as exc:
            decode_message(frame[:cut])
        assert "truncated" in str(exc.value)
        assert exc.value.offset == cut


def test_decode_rejects_trailing_bytes():
    rng = np.random.default_rng(3)
    frame = encode_message(_random_message(rng, 2))
    with pytest.raises(DecodeError) as exc:
        decode_message(frame + b"\x00")
    assert exc.value.offset == len(frame)
    assert "longer" in str(exc.value)


def test_decode_rejects_inconsistent_length():
    rng = np.random.default_rng(4)
    good = encode_message(_random_message(rng, 2))
    # Declared payload not a multiple of the three-vector layout.
    bad = struct.pack("<I", len(good) - 4 + 1) + good[4:] + b"\x00"
    with pytest.raises(DecodeError, match="multiple of 24"):
        decode_message(bad)
    # Declared payload shorter than the fixed header.
    tiny = struct.pack("<I", 3) + b"\x00\x00\x00"
    with pytest.raises(DecodeError, match="too short"):
        decode_message(tiny)


def test_decode_rejects_dimension_disagreement():
    rng = np.random.default_rng(5)
    frame = encode_message(_random_message(rng, 4))
    with pytest.raises(DecodeError, match="d=4"):
        decode_message(frame, expected_d=5)


def test_decoded_vectors_are_writable_copies():
    rng = np.random.default_rng(6)
    out = decode_message(encode_message(_random_message(rng, 3)))
    out.v1[0] = 99.0  # must not raise: decoding copies out of the buffer
    assert out.v1[0] == 99.0


def test_handshake_round_trip():
    for d in (1, 22, 10**6):
        assert decode_handshake(encode_handshake(d)) == d
    frame = encode_handshake(7)
    assert len(frame) == 9
    assert struct.unpack_from("<I", frame, 0)[0] == 5
    assert frame[4] == HANDSHAKE_TAG


def test_handshake_validation():
    with pytest.raises(ValueError):
        encode_handshake(0)
    with pytest.raises(DecodeError, match="truncated"):
        decode_handshake(encode_handshake(7)[:5])
    with pytest.raises(DecodeError, match="longer"):
        decode_handshake(encode_handshake(7) + b"\x01")
    bad_tag = bytearray(encode_handshake(7))
    bad_tag[4] = 0
    with pytest.raises(DecodeError, match="handshake tag"):
        decode_handshake(bytes(bad_tag))
    bad_len = struct.pack("<IBI", 6, HANDSHAKE_TAG, 7)
    with pytest.raises(DecodeError, match="length"):
        decode_handshake(bad_len)
    zero_d = struct.pack("<IBI", 5, HANDSHAKE_TAG, 0)
    with pytest.raises(DecodeError, match="not positive"):
        decode_handshake(zero_d)


class _Trickle:
    """A stream that hands out at most `step` bytes per read and records
    every request, like a socket whose data arrives in pieces."""

    def __init__(self, data: bytes, step: int):
        self.buf = io.BytesIO(data)
        self.step = step
        self.requests = []

    def read(self, n):
        self.requests.append(n)
        return self.buf.read(min(n, self.step))


def test_read_message_reads_consecutive_frames_then_none():
    rng = np.random.default_rng(3)
    msgs = [_random_message(rng, 5) for _ in range(3)]
    stream = _Trickle(b"".join(encode_message(m) for m in msgs), step=7)
    for m in msgs:
        out = read_message(stream.read, 5)
        assert (out.tag, out.worker_id, out.epoch) == (m.tag, m.worker_id, m.epoch)
        np.testing.assert_array_equal(out.v3, m.v3)
    assert read_message(stream.read, 5) is None


def test_read_message_rejects_oversized_prefix_before_the_body():
    frame = bytearray(encode_message(_random_message(np.random.default_rng(4), 5)))
    struct.pack_into("<I", frame, 0, len(frame) - 4 + 24)
    stream = _Trickle(bytes(frame), step=1 << 16)
    with pytest.raises(DecodeError, match="allows at most"):
        read_message(stream.read, 5)
    assert stream.requests == [4]  # the body was never asked for


@pytest.mark.parametrize("cut", [1, 3, 4, 20])
def test_read_message_rejects_a_stream_that_ends_mid_frame(cut):
    frame = encode_message(_random_message(np.random.default_rng(5), 5))
    with pytest.raises(DecodeError, match="truncated"):
        read_message(_Trickle(frame[:cut], step=2).read, 5)


def test_read_message_checks_the_dimension():
    frame = encode_message(_random_message(np.random.default_rng(6), 4))
    with pytest.raises(DecodeError, match="d=4"):
        read_message(io.BytesIO(frame).read, 5)


def test_read_handshake():
    assert read_handshake(_Trickle(encode_handshake(22), step=2).read) == 22
    with pytest.raises(DecodeError, match="truncated"):
        read_handshake(io.BytesIO(encode_handshake(22)[:6]).read)


def test_thousand_message_soak():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        d = int(rng.choice([1, 20, 1000]))
        m = _random_message(rng, d)
        out = decode_message(encode_message(m), expected_d=d)
        assert (out.tag, out.worker_id, out.epoch) == (m.tag, m.worker_id,
                                                       m.epoch)
        np.testing.assert_array_equal(out.v1, m.v1)
        np.testing.assert_array_equal(out.v2, m.v2)
        np.testing.assert_array_equal(out.v3, m.v3)
