"""The bitstream scalar codecs (BitWriter, BitReader, put_value/get_value) as
they were in mtix.codec before the list kernels became its only codec path,
kept verbatim as the reference the differential test in test_codec compares
codec.encode_lists and codec.decode_lists against. Not used by mtix; it codes
one value at a time with bit arithmetic and takes nothing from mtix.codec's
word tables on purpose.

write_lists and read_lists use them to code lists in the section format:
three streams back to back, every list's gamma(count + 1), then every key
gap, then every value. Under rice the key gaps are one stream per
parameter k, led by a table of their lengths; rice_k and the rice coder
are written here from the format's rules, bit by bit, apart from
mtix.codec's.

vbyte_decode is mtix.codec.vbyte_decode as it was before it became a
one-value call of codec.decode_vbytes, kept verbatim so that test_codec can
check the call raises the same errors, with the same messages.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable, Sequence

from mtix.errors import CorruptionError, TruncationError, ValidationError

MAX_VALUE = (1 << 64) - 1
MAX_VBYTE_LEN = 10  # ceil(64 / 7)


class BitWriter:
    """Append-only bit sequence; first bit written is bit 7 of byte 0."""

    __slots__ = ("_out", "_acc", "_nacc")

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._nacc = 0

    @property
    def bit_length(self) -> int:
        return len(self._out) * 8 + self._nacc

    def write_bits(self, value: int, nbits: int) -> None:
        if value >> nbits:
            raise ValidationError(f"value {value} does not fit in {nbits} bits")
        acc = (self._acc << nbits) | value
        n = self._nacc + nbits
        out = self._out
        while n >= 8:
            n -= 8
            out.append((acc >> n) & 0xFF)
        self._acc = acc & ((1 << n) - 1)
        self._nacc = n

    def getvalue(self) -> bytes:
        """Contents so far, zero-padded to a whole byte."""
        if self._nacc:
            return bytes(self._out) + bytes([(self._acc << (8 - self._nacc)) & 0xFF])
        return bytes(self._out)


class BitReader:
    """Cursor-based reader over a byte string; never reads past bit_length."""

    __slots__ = ("_data", "_bitlen", "pos")

    def __init__(self, data: bytes, bit_length: int | None = None):
        self._data = data
        self._bitlen = len(data) * 8 if bit_length is None else bit_length
        if self._bitlen > len(data) * 8:
            raise ValidationError("bit_length exceeds buffer size")
        self.pos = 0

    @property
    def bit_length(self) -> int:
        return self._bitlen

    def read_bits(self, nbits: int) -> int:
        pos = self.pos
        end = pos + nbits
        if end > self._bitlen:
            raise TruncationError("bit stream ended mid-value")
        if nbits == 0:
            return 0
        first = pos >> 3
        last = (end - 1) >> 3
        chunk = int.from_bytes(self._data[first : last + 1], "big")
        shift = (last + 1) * 8 - end
        self.pos = end
        return (chunk >> shift) & ((1 << nbits) - 1)

    def read_unary(self) -> int:
        """Count zero bits up to (and consume) the terminating one bit."""
        data = self._data
        bitlen = self._bitlen
        pos = self.pos
        zeros = 0
        while True:
            if pos >= bitlen:
                raise TruncationError("bit stream ended mid-value")
            rem = data[pos >> 3] & (0xFF >> (pos & 7))
            if rem == 0:
                step = 8 - (pos & 7)
                zeros += step
                pos += step
                continue
            lead = (8 - (pos & 7)) - rem.bit_length()
            if pos + lead >= bitlen:
                raise TruncationError("bit stream ended mid-value")
            self.pos = pos + lead + 1
            return zeros + lead


def _put_vbyte(w: BitWriter, x: int) -> None:
    if not 0 <= x <= MAX_VALUE:
        raise ValidationError(f"vbyte: {x} outside [0, 2^64)")
    while True:
        group = x & 0x7F
        x >>= 7
        w.write_bits(group | 0x80 if x else group, 8)
        if not x:
            return


def _get_vbyte(r: BitReader) -> int:
    x = 0
    shift = 0
    for consumed in range(MAX_VBYTE_LEN + 1):
        if consumed >= MAX_VBYTE_LEN:
            raise CorruptionError("vbyte value longer than 10 bytes")
        byte = r.read_bits(8)
        x |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if x > MAX_VALUE:
                raise CorruptionError("vbyte value exceeds 64 bits")
            return x
        shift += 7
    raise AssertionError("unreachable")


def vbyte_decode(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one vbyte value starting at `offset`; returns (value, bytes consumed)."""
    x = 0
    shift = 0
    consumed = 0
    while True:
        if offset + consumed >= len(data):
            raise TruncationError("vbyte value truncated")
        if consumed >= MAX_VBYTE_LEN:
            raise CorruptionError("vbyte value longer than 10 bytes")
        byte = data[offset + consumed]
        x |= (byte & 0x7F) << shift
        consumed += 1
        if not byte & 0x80:
            if x > MAX_VALUE:
                raise CorruptionError("vbyte value exceeds 64 bits")
            return x, consumed
        shift += 7


def _put_gamma(w: BitWriter, x: int) -> None:
    if not 1 <= x <= MAX_VALUE:
        raise ValidationError(f"gamma: {x} outside [1, 2^64)")
    # Leading zeros of the 2n-1 wide field are exactly the unary prefix.
    w.write_bits(x, 2 * x.bit_length() - 1)


def _get_gamma(r: BitReader) -> int:
    n = r.read_unary()
    if n > 63:
        raise CorruptionError("gamma code exceeds 64-bit range")
    if n == 0:
        return 1
    return (1 << n) | r.read_bits(n)


def _put_delta(w: BitWriter, x: int) -> None:
    if not 1 <= x <= MAX_VALUE:
        raise ValidationError(f"delta: {x} outside [1, 2^64)")
    n = x.bit_length() - 1
    _put_gamma(w, n + 1)
    if n:
        w.write_bits(x & ((1 << n) - 1), n)


def _get_delta(r: BitReader) -> int:
    n = _get_gamma(r) - 1
    if n > 63:
        raise CorruptionError("delta code exceeds 64-bit range")
    if n == 0:
        return 1
    return (1 << n) | r.read_bits(n)


def rice_k(n: int, universe: int) -> int:
    """The rice parameter of n gaps of keys below universe: b is
    0.69 (universe - n + 1) / n rounded, and k the floor of its log2."""
    b = (69 * (universe - n + 1) + 50 * n) // (100 * n)
    k = 0
    while b >= 2:
        b //= 2
        k += 1
    return k


def put_rice(w: BitWriter, g: int, k: int) -> None:
    if not 1 <= g <= MAX_VALUE:
        raise ValidationError(f"rice: {g} outside [1, 2^64)")
    q = (g - 1) >> k
    for _ in range(q):
        w.write_bits(0, 1)
    w.write_bits(1, 1)
    w.write_bits((g - 1) & ((1 << k) - 1), k)


def get_rice(r: BitReader, k: int) -> int:
    q = r.read_unary()
    return (q << k | r.read_bits(k)) + 1


_WRITERS: dict[str, Callable[[BitWriter, int], None]] = {
    "vbyte": _put_vbyte,
    "gamma": _put_gamma,
    "delta": _put_delta,
}
_READERS: dict[str, Callable[[BitReader], int]] = {
    "vbyte": _get_vbyte,
    "gamma": _get_gamma,
    "delta": _get_delta,
}


def put_value(w: BitWriter, x: int, codec: str) -> None:
    _WRITERS[codec](w, x)


def get_value(r: BitReader, codec: str) -> int:
    return _READERS[codec](r)


def write_lists(
    lists: Iterable[tuple[Sequence[int], Sequence[int]]], gap_codec: str, val_codec: str, universe: int = 0
) -> tuple[bytes, tuple[int, int], list[int]]:
    """(keys, values) lists as three streams back to back: every list's
    count, then every key gap, then every value; under rice the gaps of
    each k in turn, and a table of their streams' lengths (one vbyte per k
    up to rice_k(1, universe)) before it all. Returns the blob, the bit
    offsets where the gap and value streams start, and each list's bit
    offset were the lists laid end to end."""
    lists = [(list(keys), list(values)) for keys, values in lists]
    rice = gap_codec == "rice"
    ks = [rice_k(len(keys), universe) if rice and keys else 0 for keys, _ in lists]
    w = BitWriter()
    sizes = [0] * len(lists)
    for i, (keys, _) in enumerate(lists):
        before = w.bit_length
        put_value(w, len(keys) + 1, "gamma")
        sizes[i] += w.bit_length - before
    starts = []
    for k in range(rice_k(1, universe) + 1 if rice else 1):
        starts.append(w.bit_length)
        for i, (keys, _) in enumerate(lists):
            if ks[i] == k:
                before = w.bit_length
                prev = -1
                for key in keys:
                    if rice:
                        put_rice(w, key - prev, k)
                    else:
                        put_value(w, key - prev, gap_codec)
                    prev = key
                sizes[i] += w.bit_length - before
    starts.append(w.bit_length)
    for i, (_, values) in enumerate(lists):
        before = w.bit_length
        for value in values:
            put_value(w, value, val_codec)
        sizes[i] += w.bit_length - before
    offsets = list(accumulate(sizes, initial=0))[:-1]
    if not rice:
        return w.getvalue(), (starts[0], starts[-1]), offsets
    table = BitWriter()
    for a, b in zip(starts, starts[1:]):
        _put_vbyte(table, b - a)
    head = table.bit_length
    return table.getvalue() + w.getvalue(), (starts[0] + head, starts[-1] + head), offsets


def read_lists(
    data: bytes, count: int, gap_codec: str, val_codec: str, universe: int = 0
) -> tuple[list[tuple[list[int], list[int]]], tuple[int, int], list[int]]:
    """`count` lists read from their streams, one stream after the other,
    as write_lists returns them."""
    rice = gap_codec == "rice"
    at = 0
    if rice:
        for _ in range(rice_k(1, universe) + 1):
            at += vbyte_decode(data, at)[1]
    r = BitReader(data)
    r.pos = 8 * at
    sizes = [0] * count
    counts = []
    for i in range(count):
        before = r.pos
        counts.append(get_value(r, "gamma") - 1)
        sizes[i] += r.pos - before
    ks = [rice_k(n, universe) if rice and n else 0 for n in counts]
    starts = [r.pos]
    gaps: list[list[int]] = [[] for _ in counts]
    for k in range(rice_k(1, universe) + 1 if rice else 1):
        for i, n in enumerate(counts):
            if ks[i] == k:
                before = r.pos
                gaps[i] = [get_rice(r, k) if rice else get_value(r, gap_codec) for _ in range(n)]
                sizes[i] += r.pos - before
    starts.append(r.pos)
    values = []
    for i, n in enumerate(counts):
        before = r.pos
        values.append([get_value(r, val_codec) for _ in range(n)])
        sizes[i] += r.pos - before
    lists = [(list(accumulate(g, initial=-1))[1:], v) for g, v in zip(gaps, values)]
    return lists, (starts[0], starts[1]), list(accumulate(sizes, initial=0))[:-1]
