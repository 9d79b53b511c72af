"""Fixed-width bit packing for canonical label and oracle encodings.

Label "length" everywhere in this package means the bit count of the canonical
encoding produced with these helpers: ids in ceil(log2 n)-bit fields, colors in
ceil(log2 C)-bit fields, dictionaries as length-prefixed (key, value) pairs
sorted by key.  In-memory object size is never what is measured.

Fields are packed most significant bit first and the stream is padded with 0
bits to a whole byte.  Both ends work in O(width) per field: the writer keeps
fewer than 64 pending bits and appends whole bytes, the reader decodes only the
bytes that cover the field it reads.
"""

from __future__ import annotations


def width_for(count: int) -> int:
    """Bits needed for values 0..count-1 (0 when count <= 1)."""
    if count <= 1:
        return 0
    return (count - 1).bit_length()


def id_width(n: int) -> int:
    """ceil(log2 n) for n >= 2; 0 for a single id."""
    return width_for(n)


class BitWriter:
    __slots__ = ("_out", "_pending", "_npending")

    def __init__(self):
        self._out = bytearray()
        self._pending = 0  # the last _npending bits written, not yet whole bytes in _out
        self._npending = 0

    def write(self, value: int, width: int) -> "BitWriter":
        if width < 0:
            raise ValueError("negative width")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        pending = (self._pending << width) | value
        npending = self._npending + width
        if npending >= 64:
            keep = npending & 7
            self._out += (pending >> keep).to_bytes(npending >> 3, "big")
            pending &= (1 << keep) - 1
            npending = keep
        self._pending, self._npending = pending, npending
        return self

    def to_bytes(self) -> bytes:
        nbytes = (self._npending + 7) // 8
        tail = self._pending << (nbytes * 8 - self._npending)
        return bytes(self._out) + tail.to_bytes(nbytes, "big")


class BitReader:
    __slots__ = ("_data", "_pos", "_nbits")

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._nbits = len(self._data) * 8
        self._pos = 0

    def read(self, width: int) -> int:
        if width < 0:
            raise ValueError("negative width")
        pos = self._pos
        end = pos + width
        if end > self._nbits:
            raise ValueError("bit stream exhausted")
        self._pos = end
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[pos >> 3:last], "big")
        return (chunk >> (last * 8 - end)) & ((1 << width) - 1)

    @property
    def remaining(self) -> int:
        return self._nbits - self._pos
