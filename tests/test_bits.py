import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorfault.bits import BitReader, BitWriter


class BigIntWriter:
    """Reference writer: the whole stream held in one int, shifted on every field."""

    def __init__(self):
        self.bits = 0
        self.value = 0

    def write(self, value: int, width: int) -> None:
        if width < 0:
            raise ValueError("negative width")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self.value = (self.value << width) | value
        self.bits += width

    def to_bytes(self) -> bytes:
        nbytes = (self.bits + 7) // 8
        return (self.value << (nbytes * 8 - self.bits)).to_bytes(nbytes, "big")


class BigIntReader:
    """Reference reader: the whole stream decoded into one int up front."""

    def __init__(self, data: bytes):
        self.nbits = len(data) * 8
        self.data = int.from_bytes(data, "big")
        self.pos = 0

    def read(self, width: int) -> int:
        if self.pos + width > self.nbits:
            raise ValueError("bit stream exhausted")
        shift = self.nbits - self.pos - width
        self.pos += width
        return (self.data >> shift) & ((1 << width) - 1)


fields = st.lists(
    st.integers(0, 80).flatmap(lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(fields)
def test_codec_matches_big_int_reference(items):
    w, ref = BitWriter(), BigIntWriter()
    for value, width in items:
        assert w.write(value, width) is w
        ref.write(value, width)
    data = w.to_bytes()
    assert data == ref.to_bytes()
    assert w.to_bytes() == data  # to_bytes does not consume the stream
    r, rr = BitReader(data), BigIntReader(data)
    for value, width in items:
        assert r.read(width) == value == rr.read(width)
    pad = r.remaining
    assert 0 <= pad < 8 and pad == rr.nbits - rr.pos
    assert r.read(pad) == 0
    with pytest.raises(ValueError, match="exhausted"):
        r.read(1)


def test_writer_rejects_bad_fields():
    w = BitWriter()
    with pytest.raises(ValueError, match="negative width"):
        w.write(0, -1)
    with pytest.raises(ValueError, match="does not fit"):
        w.write(8, 3)
    with pytest.raises(ValueError, match="does not fit"):
        w.write(-1, 8)
    with pytest.raises(ValueError, match="does not fit"):
        w.write(1, 0)
    assert w.to_bytes() == b""  # a rejected field writes nothing


def test_reader_rejects_bad_widths_and_over_reads():
    r = BitReader(b"\xa5\x0f")
    with pytest.raises(ValueError, match="negative width"):
        r.read(-1)
    assert r.read(3) == 0b101
    with pytest.raises(ValueError, match="exhausted"):
        r.read(14)
    assert r.remaining == 13  # a refused read moves nothing
    assert r.read(13) == 0b0010100001111
    assert r.read(0) == 0
    with pytest.raises(ValueError, match="exhausted"):
        r.read(1)


def test_reader_copies_its_input():
    buf = bytearray(b"\xff")
    r = BitReader(buf)
    buf[0] = 0
    assert r.read(8) == 0xFF
