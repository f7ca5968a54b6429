"""Lossless integer codecs and the d-gap posting-list transform.

Bit conventions (fixed here so independent implementations can match
bit-exactly; see src/mtix/data/codec_vectors.tsv for frozen reference
encodings):

* Every code word is emitted MSB-first, and bits are packed into bytes in
  big-endian bit order: the first bit written lands in bit 7 of byte 0.
* vbyte: 7-bit groups, least-significant group first; the high bit of each
  byte is 1 iff more bytes follow. Standalone vbyte values are byte strings;
  inside a bitstream each vbyte byte is written as an 8-bit word (the stream
  itself is not re-aligned to byte boundaries).
* gamma(x), x >= 1: floor(log2 x) zeros, then the binary of x MSB-first.
  Code length is exactly 2*floor(log2 x) + 1 bits.
* delta(x), x >= 1: gamma(floor(log2 x) + 1), then the floor(log2 x)
  low-order bits of x.
* rice(g), g >= 1, key gaps only: (g - 1) >> k zeros, a one, then the k
  low-order bits of g - 1; ((g - 1) >> k) + 1 + k bits. A list of n gaps
  of keys below a universe N takes k = floor(log2 b) (0 when b is 0) for
  b = (69 (N - n + 1) + 50 n) // (100 n), 0.69 (N - n + 1) / n rounded,
  the Golomb parameter of geometric gaps of that density (rice_k); so no
  parameter is stored.
* Posting list: gamma(count + 1), then the doc gaps (g0 = doc0 + 1,
  gi = doc_i - doc_{i-1}, all >= 1) under the doc-gap codec, then the
  payloads in posting order under the payload codec.
* Section of lists: three streams back to back, with no padding between
  them: every list's gamma(count + 1), then every list's key gaps, then
  every list's values, each stream in list order. A one-list section is
  that list's bits. Each stream is prefix-free, so it decodes
  unambiguously, and the counts say how many gaps and values each list
  takes. Under rice the gaps are one stream per k, k ascending, each
  holding its lists' gaps in list order, and the section starts with the
  streams' lengths in bits, one vbyte per k up to rice_k(1, N).

Lists are coded a whole list at a time (the block-at-a-time idea of Lemire
and Boytsov, SPE 2015), with Python's C-level string and int routines doing
the per-bit work. There are three list kernels:

* encode (`encode_streams`, `encode_lists`): one format() per code word
  (small values take theirs from a table of the same words) and one join
  per list and stream; each stream is flushed to bytes in bounded,
  byte-aligned chunks, and the streams are joined at the end, behind the
  rice table when there is one.
* decode (`decode_lists`): a section's streams are read side by side, each
  out of '0'/'1' text made of one bounded window of that stream at a time,
  under every codec alike: one regex findall splits a whole window into
  code words, a word cut off at the window's end is carried over into the
  next window, and the words of values below _TABLE_SIZE are looked up in
  a table of the codec's words; the others go through int(word, 2) (vbyte
  words after one join of the window's 7-bit groups). A rice stream is
  read with its k's one pattern, and a small table of its k's words. Each
  list takes its count's worth of the values, and of the gaps of its gap
  stream: the one stream, or its rice k's.
* size (`list_bit_lengths`, `code_bits`): code lengths in closed form from
  each value's bit length (rice: from each gap and the list's k), with
  nothing encoded.

The string-level scalar codecs (gamma_/delta_encode/decode) are one-value
calls of the same code-word rules, and the byte-level vbyte_encode/decode
are one-value calls of the bulk pair encode_vbytes/decode_vbytes, which
the index file's name tables use.

Values are limited to 64 bits. Decoding raises only MtixError subclasses.
All functions are pure.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, repeat
from operator import is_, rshift, sub
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from .errors import CorruptionError, TruncationError, ValidationError

MAX_VALUE = (1 << 64) - 1
MAX_VBYTE_LEN = 10  # ceil(64 / 7)

CODEC_NAMES = ("vbyte", "gamma", "delta")  # the codes of any value
GAP_CODEC_NAMES = (*CODEC_NAMES, "rice")  # and those of key gaps
CODEC_IDS = {name: i for i, name in enumerate(GAP_CODEC_NAMES)}


@dataclass(frozen=True)
class CodecConfig:
    """Codec selection for the three encoded streams of an index; rice
    codes doc gaps only."""

    doc_gap: str = "rice"
    payload: str = "gamma"
    coeff: str = "gamma"

    def __post_init__(self) -> None:
        for name, names in ((self.doc_gap, GAP_CODEC_NAMES), (self.payload, CODEC_NAMES), (self.coeff, CODEC_NAMES)):
            if name not in names:
                what = "codes key gaps only" if name in GAP_CODEC_NAMES else "is unknown"
                raise ValidationError(f"codec {name!r} {what}; expected one of {names}")


# ---------------------------------------------------------------------------
# Code-word rules, one set per codec. Length tables are indexed by the value's
# bit length b; b = 0 is the value 0, which only vbyte codes.

_GAMMA_LEN = [0] + [2 * b - 1 for b in range(1, 65)]
_DELTA_LEN = [0] + [2 * b.bit_length() - 1 + b - 1 for b in range(1, 65)]
_VBYTE_LEN = [8] + [8 * -(-b // 7) for b in range(1, 65)]
_CODE_LEN = {"gamma": _GAMMA_LEN, "delta": _DELTA_LEN, "vbyte": _VBYTE_LEN}
_MAX_CODE_LEN = {codec: max(lengths) for codec, lengths in _CODE_LEN.items()}

# gamma(x) is x itself, zero-filled to its code length.
_GAMMA_FMT = [f"0{n}b" for n in _GAMMA_LEN]
# delta(x) is gamma(b) followed by the low b-1 bits of x. Read as one integer
# that is x + ((b - 1) << (b - 1)), zero-filled to its code length; b follows
# from the word's length, as code lengths grow with b.
_DELTA_ADD = [0] + [(b - 1) << (b - 1) for b in range(1, 65)]
_DELTA_FMT = [f"0{n}b" for n in _DELTA_LEN]
_DELTA_ADD_BY_LEN = dict(zip(_DELTA_LEN, _DELTA_ADD))


def _gamma_pattern() -> str:
    """One gamma word: z zeros, a one, then z bits (z <= 63), nested by z."""
    p = ""
    for z in range(63, -1, -1):
        p = f"1[01]{{{z}}}" + (f"|0(?:{p})" if p else "")
    return p


def _delta_pattern() -> str:
    """One delta word: gamma(b), then b - 1 bits (1 <= b <= 64), nested by
    the length of gamma(b)'s zero prefix."""
    p = ""
    for z in range(6, -1, -1):
        alts = "|".join(f"{b:b}"[1:] + f"[01]{{{b - 1}}}" for b in range(1 << z, min(2 << z, 65)))
        p = f"1(?:{alts})" + (f"|0(?:{p})" if p else "")
    return p


# A bit that starts no code word matches as a lone-bit token, so the tokens
# of a string tile it; such a token is in _JUNK.
_WORD_RE = {
    "gamma": re.compile(_gamma_pattern() + "|[01]"),
    "delta": re.compile(_delta_pattern() + "|[01]"),
    "vbyte": re.compile(f"(?:1[01]{{7}}){{0,{MAX_VBYTE_LEN - 1}}}0[01]{{7}}|[01]"),
}
_JUNK = {"gamma": frozenset("0"), "delta": frozenset("0"), "vbyte": frozenset("01")}


def rice_k(n: int, universe: int) -> int:
    """The rice parameter of a list of n >= 1 key gaps whose keys lie below
    `universe`: floor(log2 b) for b = round(0.69 (universe - n + 1) / n),
    or 0 when b is 0. It falls as n grows, so rice_k(1, universe) is the
    largest."""
    b = (69 * (universe - n + 1) + 50 * n) // (100 * n)
    return b.bit_length() - 1 if b > 0 else 0


def gap_lengths(codec: str, top: int, k: int = 0) -> list[int]:
    """The bits of the code word of each key gap up to `top` under `codec`,
    by the gap, one run per bit length (rice: per quotient, of parameter
    k)."""
    if codec == "rice":
        lengths = [0]
        for q in range(((top - 1) >> k) + 1):
            lengths += [q + 1 + k] * (1 << k)
        return lengths
    lengths = [_CODE_LEN[codec][0]]
    for b in range(1, top.bit_length() + 1):
        lengths += [_CODE_LEN[codec][b]] * (1 << (b - 1))
    return lengths


@functools.cache
def _rice_pattern(k: int) -> re.Pattern[str]:
    """One rice(k) word: zeros, a one, then k bits. Where a run of zeros or
    a one starts no whole word, it is a token of its own, so the tokens
    tile a text; that happens only at its end, and costs no backtracking
    into the run more than once."""
    return re.compile(f"0*1[01]{{{k}}}|0+|1[01]*")


def _rice_format(gaps: Sequence[int], k: int, table: Sequence[str] = ("",)) -> list[str]:
    """rice(k) words of `gaps`; those of the gaps below len(table) from it."""
    size, top = len(table), 1 << k
    if max(gaps, default=0) < size:
        return list(map(table.__getitem__, gaps))
    return [table[g] if g < size else "0" * ((g - 1) >> k) + bin((g - 1) & (top - 1) | top)[2:] for g in gaps]


def _rice_parse(words: list[str], k: int) -> list[int]:
    # int(word, 2) is (1 << k) | r, and a word is q + 1 + k bits long
    return [int(w, 2) + ((len(w) - 2 - k) << k) + 1 for w in words]


# The rice(k) words of the first eight quotients come from a table, for k up
# to this: all these tables together hold 8 (2^9 - 1) = 4,088 words, fewer
# than one table of another codec (_TABLE_SIZE - 1).
_RICE_TABLE_K = 8


@functools.cache
def _rice_table(k: int) -> list[str]:
    """The rice(k) words of the gaps 1 .. 8 << k, each at its gap; none
    past _RICE_TABLE_K."""
    return ["", *_rice_format(range(1, (8 << k) + 1), k)] if k <= _RICE_TABLE_K else [""]


@functools.cache
def _rice_values(k: int) -> dict[str, int]:
    """The inverse of _rice_table(k)."""
    return dict(zip(_rice_table(k)[1:], count(1)))


# Code words of the values below this come from a table built on first use.
_TABLE_SIZE = 1 << 12


def _bit_string(data: bytes) -> str:
    """The bits of `data` as a '0'/'1' string, bit 7 of byte 0 first."""
    return bin(int.from_bytes(data, "big") | 1 << 8 * len(data))[3:]


def _gamma_format(values: Iterable[int]) -> list[str]:
    fmt = _GAMMA_FMT
    return [format(x, fmt[x.bit_length()]) for x in values]


def _delta_format(values: Iterable[int]) -> list[str]:
    add, fmt = _DELTA_ADD, _DELTA_FMT
    return [format(x + add[b], fmt[b]) for x in values for b in (x.bit_length(),)]


def _vbyte_format(values: Iterable[int]) -> list[str]:
    return [_bit_string(vbyte_encode(x)) for x in values]


def _gamma_parse(words: list[str]) -> list[int]:
    return list(map(int, words, repeat(2, len(words))))


def _delta_parse(words: list[str]) -> list[int]:
    ints = map(int, words, repeat(2, len(words)))
    return list(map(sub, ints, map(_DELTA_ADD_BY_LEN.__getitem__, map(len, words))))


# Each byte's 7-bit group as text; a word's last byte (flag bit 0) starts a
# new token.
_VBYTE_GROUP = [("" if b & 0x80 else " ") + format(b & 0x7F, "07b") for b in range(256)]


def _vbyte_parse(words: list[str]) -> list[int]:
    text = "".join(words)
    if len(text) == 8 * len(words):  # one byte per word: the word is its value
        values = list(map(int, words, repeat(2, len(words))))
    else:
        # The run's bytes reversed put the words in reverse order, each with
        # its 7-bit groups most significant first, and each led by its last
        # byte: one join and split give the value texts of the whole run.
        raw = int(text, 2).to_bytes(len(text) >> 3, "big")[::-1]
        tokens = "".join(map(_VBYTE_GROUP.__getitem__, raw)).split()
        values = list(map(int, tokens, repeat(2, len(tokens))))
        values.reverse()
    if values and max(values) > MAX_VALUE:
        raise CorruptionError("vbyte value exceeds 64 bits")
    return values


_FORMAT: dict[str, Callable[[Iterable[int]], list[str]]] = {
    "vbyte": _vbyte_format,
    "gamma": _gamma_format,
    "delta": _delta_format,
}
_PARSE: dict[str, Callable[[list[str]], list[int]]] = {
    "vbyte": _vbyte_parse,
    "gamma": _gamma_parse,
    "delta": _delta_parse,
}


@functools.cache
def _word_table(codec: str) -> list[str]:
    return _FORMAT[codec](range(_TABLE_SIZE))


@functools.cache
def _word_values(codec: str) -> dict[str, int]:
    """The inverse of _word_table for the values 1 .. _TABLE_SIZE - 1."""
    return dict(zip(_word_table(codec)[1:], range(1, _TABLE_SIZE)))


def _parse(words: list[str], codec: str, k: int = 0) -> list[int]:
    """Values of `codec` words (rice: of parameter k): those of the table's
    words, as the table's own int objects, from the word -> value table;
    the misses by the codec's parse."""
    if codec == "rice":
        table = _rice_values(k)
        if not table:
            return _rice_parse(words, k)
        parse: Callable[[list[str]], list[int]] = functools.partial(_rice_parse, k=k)
    else:
        table, parse = _word_values(codec), _PARSE[codec]
    values = list(map(table.get, words))
    misses = list(compress(count(), map(is_, values, repeat(None))))
    for i, x in zip(misses, parse([words[i] for i in misses])):
        values[i] = x
    return values


def _words(values: Sequence[int], codec: str, top: int) -> list[str]:
    """Code words of `values`, all in range, the largest being `top`."""
    if top < _TABLE_SIZE:
        return list(map(_word_table(codec).__getitem__, values))
    return _FORMAT[codec](values)


def _no_word(codec: str, pos: int, avail: int) -> NoReturn:
    """Raise for bit `pos`, which starts no `codec` code word and has
    `avail` bits from it to the end of the stream."""
    if avail >= _MAX_CODE_LEN[codec]:
        raise CorruptionError(f"no {codec} code word at bit {pos}")
    raise TruncationError("bit stream ended mid-value")


def _decode_one(bits: str, start: int, codec: str) -> tuple[int, int]:
    match = _WORD_RE[codec].match(bits, start)
    if not match or match.group() in _JUNK[codec]:
        _no_word(codec, start, len(bits) - start)
    return _PARSE[codec]([match.group()])[0], match.end() - start


# ---------------------------------------------------------------------------
# Scalar codecs, string/bytes level


def vbyte_encode(x: int) -> bytes:
    if not 0 <= x <= MAX_VALUE:
        raise ValidationError(f"vbyte_encode: {x} outside [0, 2^64)")
    return encode_vbytes((x,))


def vbyte_decode(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one vbyte value starting at `offset`; returns (value, bytes consumed)."""
    (x,), end = decode_vbytes(data, 1, offset)
    if x > MAX_VALUE:
        raise CorruptionError("vbyte value exceeds 64 bits")
    return x, end - offset


def encode_vbytes(values: Iterable[int]) -> bytes:
    """Values >= 0 as vbytes back to back, written in one pass; vbyte_encode
    is the one-value call with its range check."""
    out = bytearray()
    for x in values:
        while x > 0x7F:
            out.append(x & 0x7F | 0x80)
            x >>= 7
        out.append(x)
    return bytes(out)


def decode_vbytes(data: bytes, count: int, pos: int = 0) -> tuple[Sequence[int], int]:
    """The `count` vbytes of data from `pos`, read in one pass; returns the
    values and the position after them. A value may take up to 70 bits:
    vbyte_decode is the one-value call with the 64-bit check."""
    head = bytes(data[pos : pos + count])
    if len(head) == count and head.isascii():  # every value fits one byte: the bytes are the values
        return head, pos + count
    values: list[int] = []
    x = shift = 0
    for byte in data[pos:]:
        pos += 1
        x |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            if shift == 7 * MAX_VBYTE_LEN and pos < len(data):
                raise CorruptionError(f"vbyte value longer than {MAX_VBYTE_LEN} bytes")
            continue
        values.append(x)
        if len(values) == count:
            return values, pos
        x = shift = 0
    raise TruncationError("vbyte value truncated")


def gamma_encode(x: int) -> str:
    if not 1 <= x <= MAX_VALUE:
        raise ValidationError(f"gamma_encode: {x} outside [1, 2^64)")
    return _gamma_format((x,))[0]


def gamma_decode(bits: str, start: int = 0) -> tuple[int, int]:
    """Decode one gamma code from a '0'/'1' string; returns (value, bits consumed)."""
    return _decode_one(bits, start, "gamma")


def delta_encode(x: int) -> str:
    if not 1 <= x <= MAX_VALUE:
        raise ValidationError(f"delta_encode: {x} outside [1, 2^64)")
    return _delta_format((x,))[0]


def delta_decode(bits: str, start: int = 0) -> tuple[int, int]:
    """Decode one delta code from a '0'/'1' string; returns (value, bits consumed)."""
    return _decode_one(bits, start, "delta")


# ---------------------------------------------------------------------------
# List kernels. A list is (keys, values): keys strictly ascending and >= 0,
# values >= 1. Posting lists are (docs, payloads); W rows are (meta-term ids,
# coefficients).

# Bits of encoded output held back before they are flushed to bytes.
_FLUSH_BITS = 1 << 16

_LIST_VALUE_RANGE = "list value outside [1, 2^64)"


def _gaps(keys: Sequence[int]) -> Iterator[int]:
    """Key gaps: g0 = key0 + 1, then each key minus the one before."""
    return map(sub, keys, chain((-1,), keys))


def _universe(gap_codec: str, universe: int | None) -> int:
    """The keys' universe that rice gaps are coded against; any other gap
    code needs none."""
    if universe is None:
        if gap_codec == "rice":
            raise ValidationError("rice gaps need the universe their keys lie below")
        return 0
    return universe


def _list_parts(
    keys: Sequence[int], values: Sequence[int], gap_codec: str, val_codec: str, universe: int
) -> tuple[int, tuple[str, str, str]]:
    """One list's bits in each of the three streams, as '0'/'1' strings:
    gamma(count + 1), the key gaps, the values; and the list's gap stream,
    its rice parameter (0 under another gap code)."""
    if len(keys) != len(values):
        raise ValidationError(f"{len(keys)} keys for {len(values)} values")
    if not keys:
        return 0, ("1", "", "")  # gamma(1): count 0
    gaps = list(_gaps(keys))
    top_gap, top_value = max(gaps), max(values)
    if min(gaps) < 1:
        raise ValidationError(f"keys not strictly ascending at {keys[gaps.index(min(gaps))]}")
    if min(values) < 1:
        raise ValidationError(f"value {min(values)} must be >= 1")
    if top_gap > MAX_VALUE or top_value > MAX_VALUE:
        raise ValidationError(_LIST_VALUE_RANGE)
    k = 0
    if gap_codec == "rice":
        if keys[-1] >= universe:
            raise ValidationError(f"key {keys[-1]} outside the universe of {universe} keys")
        k = rice_k(len(keys), universe)
        gap_words = _rice_format(gaps, k, _rice_table(k))
    else:
        gap_words = _words(gaps, gap_codec, top_gap)
    return k, (
        _words((len(keys) + 1,), "gamma", len(keys) + 1)[0],
        "".join(gap_words),
        "".join(_words(values, val_codec, top_value)),
    )


def _flush(out: bytearray, bits: str) -> str:
    """Append the whole bytes of `bits` to `out`; return the bits left over."""
    n = len(bits) & ~7
    if n:
        out += int(bits[:n], 2).to_bytes(n >> 3, "big")
    return bits[n:]


def encode_streams(
    lists: Iterable[tuple[Sequence[int], Sequence[int]]], gap_codec: str, val_codec: str, universe: int | None = None
) -> tuple[bytes, tuple[int, int], list[int]]:
    """Bit-pack (keys, values) lists as three streams back to back: every
    list's gamma(count + 1), then every key gap, then every value. Under
    rice the gaps are one stream per parameter k, and the blob starts with
    the table of their lengths; `universe` is what the keys lie below.

    Returns the blob, zero-padded to a whole byte; the bits where the gap
    and value streams start; and each list's bit offset were the lists laid
    end to end, so that consecutive offsets differ by a list's length.
    """
    universe = _universe(gap_codec, universe)
    gap_streams = rice_k(1, universe) + 1 if gap_codec == "rice" else 1
    outs = [bytearray() for _ in range(gap_streams + 2)]
    pending: list[list[str]] = [[] for _ in outs]
    offsets = []
    total = held = 0
    for keys, values in lists:
        k, (head, gaps, vals) = _list_parts(keys, values, gap_codec, val_codec, universe)
        offsets.append(total)
        total += (size := len(head) + len(gaps) + len(vals))
        held += size
        pending[0].append(head)
        pending[1 + k].append(gaps)
        pending[-1].append(vals)
        if held >= _FLUSH_BITS:
            for out, stream in zip(outs, pending):
                stream[:] = [_flush(out, "".join(stream))]
            held = 0
    # The gap and value streams' bytes follow, shifted a chunk at a time.
    out, rest = outs[0], "".join(pending[0])
    starts = []
    for data, stream in zip(outs[1:], pending[1:]):
        starts.append(8 * len(out) + len(rest))
        for i in range(0, len(data), _FLUSH_BITS >> 3):
            rest = _flush(out, rest + _bit_string(data[i : i + (_FLUSH_BITS >> 3)]))
        data.clear()
        rest = _flush(out, rest + "".join(stream))
    _flush(out, rest + "0" * (-len(rest) % 8))
    table = encode_vbytes(map(sub, starts[1:], starts)) if gap_codec == "rice" else b""  # each gap stream's length
    return table + out, (starts[0] + 8 * len(table), starts[-1] + 8 * len(table)), offsets


def encode_lists(
    lists: Iterable[tuple[Sequence[int], Sequence[int]]], gap_codec: str, val_codec: str, universe: int | None = None
) -> tuple[bytes, list[int]]:
    """encode_streams' blob and list offsets, for a caller that keeps no
    stream starts: decode_lists finds them."""
    blob, _, offsets = encode_streams(lists, gap_codec, val_codec, universe)
    return blob, offsets


# Streams are turned into '0'/'1' text and tokenised this many bytes at a
# time, so a decoder holds a bounded window of each stream, never all of it.
# A section holds up to one rice stream per k, each with a window of half
# of that.
_WINDOW_BYTES = 2048

# Before a window's last _MAX_CODE_LEN tokens (which may hold a word cut
# off at its end), a token that starts no code word comes only after this
# run of zeros: 64 under gamma, and under delta the 6 that start gamma(b)
# for b >= 64. A vbyte window is searched whole.
_JUNK_RUN = {"gamma": "0" * 64, "delta": "0" * 6, "vbyte": ""}


class _Stream:
    """Bits [start, end) of a blob: code words under one codec, read as
    '0'/'1' text one bounded window at a time. A rice stream holds the
    gaps of parameter k of keys below `universe`.

    bits[pos:] are the bits not yet read; bits[0] is bit `base` of the
    blob. buf[i:] are the values of the words read but not yet taken.
    """

    __slots__ = ("blob", "codec", "name", "end", "next_bit", "bits", "base", "pos", "buf", "i", "k", "top_q")

    def __init__(self, blob: bytes, codec: str, start: int, end: int, name: str = "", k: int = 0, universe: int = 0) -> None:
        self.blob, self.codec, self.name, self.end = blob, codec, name, end
        self.next_bit = self.base = start
        self.bits = ""
        self.pos = self.i = 0
        self.buf: list[int] = []
        self.k = k
        self.top_q = (universe - 1) >> k  # rice: the quotient of a gap as large as the universe

    def bits_left(self) -> int:
        return self.end - self.base - self.pos

    def _window(self) -> None:
        """Add the stream's next window to the unread text."""
        start = self.next_bit
        if start < self.end:
            self.next_bit = stop = min(self.end, start + (_WINDOW_BYTES << 2 if self.codec == "rice" else _WINDOW_BYTES << 3))
            skip = start & 7
            self.bits += _bit_string(self.blob[start >> 3 : (stop + 7) >> 3])[skip : skip + stop - start]

    def words(self) -> list[str]:
        """The whole code words in the stream's next window, read. The
        unread bits are carried over into the window."""
        codec = self.codec
        self.base += self.pos
        self.bits = self.bits[self.pos :]
        self.pos = 0
        if codec == "rice":
            return self._rice_words()
        self._window()
        bits = self.bits
        tokens = _WORD_RE[codec].findall(bits)
        # The tokens tile the text. The first junk token starts a word cut
        # off at the end, or no word at all.
        end = len(tokens)
        first = 0 if _JUNK_RUN[codec] in bits else max(0, end - _MAX_CODE_LEN[codec])
        for junk in _JUNK[codec]:
            try:
                end = tokens.index(junk, first, end)
            except ValueError:
                pass
        self.pos = len(bits) - sum(map(len, tokens[end:]))
        del tokens[end:]
        if not tokens:
            _no_word(codec, self.base, len(bits))
        return tokens

    def _rice_words(self) -> list[str]:
        """words() of a rice stream. A word may be longer than a window, so
        windows are added until the text holds a one with k bits after it,
        each window searched once for it. A quotient past that of a gap as
        large as the universe is corrupt, found before the text holds more
        zeros than that. (A later word's gap past the universe puts its
        list's last key past it, which _lists rejects.)"""
        k = self.k
        # the carried bits are a word cut off at the end: zeros, then a one
        # with fewer than k bits after it, if any
        lo = max(0, len(self.bits) - k)
        while True:
            self._window()
            bits = self.bits
            one = bits.find("1", lo)
            if (len(bits) if one < 0 else one) > self.top_q:
                raise CorruptionError(f"no rice code word at bit {self.base}")
            if 0 <= one < len(bits) - k:
                break
            if self.next_bit >= self.end:
                raise TruncationError("bit stream ended mid-value")
            lo = len(bits) if one < 0 else one
        tokens = _rice_pattern(k).findall(bits)
        # The tokens tile the text; a word cut off at its end is one or two
        # tokens with no one k bits before their end.
        end = len(tokens)
        while len(tokens[end - 1]) <= k or tokens[end - 1][-k - 1] == "0":
            end -= 1
        self.pos = len(bits) - sum(map(len, tokens[end:]))
        del tokens[end:]
        return tokens

    def read(self) -> list[int]:
        """The values of the words in the next window, read ahead."""
        words = self.words()
        buf = self.buf = _parse(words, self.codec, self.k)
        self.i = 0
        if self.codec == "vbyte" and 0 in buf:  # no list value: read no further
            z = buf.index(0)
            if not z:
                raise CorruptionError(f"decoded a zero {self.name}")
            self.pos -= sum(map(len, words[z:]))
            del buf[z:]
        return buf

    def take(self, k: int) -> list[int]:
        """The next `k` values."""
        i, buf = self.i, self.buf
        if i + k <= len(buf):
            self.i = i + k
            return buf[i : i + k]
        out = buf[i:]
        while len(out) < k:
            if k - len(out) > self.bits_left():  # every code word is at least one bit
                raise TruncationError("bit stream ended mid-value")
            buf = self.read()
            self.i = i = min(len(buf), k - len(out))
            out += buf[:i]
        return out


def _stream_starts(blob: bytes, count: int, gap_codec: str, head: int = 0, gap_bits: int | None = None) -> list[int]:
    """Where the gap and value streams of `count` lists start: past the
    count words from bit `head`, and past as many gap words as they count,
    or `gap_bits` bits when the gap streams' lengths are stored."""
    starts = []
    at, k = head, count
    for codec in ("gamma", gap_codec)[: 1 if gap_bits is not None else 2]:
        src = _Stream(blob, codec, at, 8 * len(blob))
        n = 0
        while k:
            if k > src.bits_left():
                raise TruncationError("bit stream ended mid-value")
            at = src.base + src.pos
            words = src.words()[:k]
            at += sum(map(len, words))
            k -= len(words)
            n += sum(_parse(words, "gamma")) - len(words) if codec == "gamma" else 0
        starts.append(at)
        k = n
    if gap_bits is not None:
        starts.append(at + gap_bits)
    return starts


class _Lazy(dict):
    """A table whose value for a key is build(key), made and stored the
    first time the key is looked up."""

    def __init__(self, build: Callable[[int], object]):
        super().__init__()
        self.build = build

    def __missing__(self, key: int) -> object:
        value = self[key] = self.build(key)
        return value


def _lists(
    streams: list[_Stream], count: int, what: str, universe: int | None
) -> Iterator[tuple[list[int], list[int]]]:
    """decode_lists' lists, read from the streams side by side: the counts
    a window at a time, and each list's gaps (from its own rice k's stream,
    when the gaps are several streams) and values after the one before's.
    Rice keys must lie below their universe."""
    heads, *gaps, values = streams
    take_values = values.take
    # each count's gap stream: its own rice k's, or the one stream
    take_gaps = _Lazy(lambda n: gaps[rice_k(n - 1, universe) if n > 1 and len(gaps) > 1 else 0].take)
    index = 0
    while index < count:
        i = heads.i
        counts = heads.buf[i : i + count - index] if i < len(heads.buf) else heads.read()[: count - index]
        heads.i += len(counts)
        for n in counts:
            keys = take_gaps[n](n - 1)
            vals = take_values(n - 1)
            index += 1
            if index == count:
                # each stream ends where the next starts, the last in the blob's final byte
                for src in streams:
                    if src.i < len(src.buf) or src.bits_left() >= (8 if src is values else 1):
                        where = "the section" if src is values else f"its {src.name} stream"
                        raise CorruptionError(f"{what} {count - 1} does not end at the end of {where}")
            if keys:
                keys[0] -= 1  # g0 = key0 + 1
                keys = list(accumulate(keys))
                if universe is not None and keys[-1] >= universe:
                    raise CorruptionError(f"{what} {index - 1} has a key past its universe of {universe}")
            yield keys, vals


def decode_lists(
    blob: bytes,
    count: int,
    gap_codec: str,
    val_codec: str,
    what: str = "list",
    starts: Sequence[int] | None = None,
    universe: int | None = None,
) -> Iterator[tuple[list[int], list[int]]]:
    """Decode the `count` lists `encode_streams` packed into `blob`; rice
    gaps need the `universe` they were coded against.

    `starts` are where the gap and value streams start, as encode_streams
    returns them; without them they are found by reading the counts and
    skipping the gaps (rice: by the table of the gap streams' lengths).
    The streams are read side by side, each list from the words after the
    one before's; each stream must end where the next starts, and the last
    in the blob's final byte. Yields (keys, values) one list at a time,
    holding a bounded window of each stream.
    """
    universe = _universe(gap_codec, universe)
    size = 8 * len(blob)
    rice = gap_codec == "rice"
    head, lengths = 0, ()
    if rice:  # the table of the gap streams' lengths, one per k
        lengths, head = decode_vbytes(blob, rice_k(1, universe) + 1)
        head *= 8
    if starts is None:
        starts = _stream_starts(blob, count, gap_codec, head, sum(lengths) if rice else None)
    gap_at, val_at = starts
    if not head <= gap_at <= val_at <= size:
        raise CorruptionError(f"{what} streams start out of bounds")
    if not count and size > head:
        raise CorruptionError(f"{what} section holds {size - head} bits but no {what}")
    if rice:
        bounds = list(accumulate(lengths, initial=gap_at))
        if bounds[-1] != val_at:
            raise CorruptionError(f"{what} gap streams take {bounds[-1] - gap_at} bits, not {val_at - gap_at}")
        gaps = [_Stream(blob, "rice", *bounds[k : k + 2], "gap", k, universe) for k in range(len(lengths))]
    else:
        gaps = [_Stream(blob, gap_codec, gap_at, val_at, "gap")]
    streams = [_Stream(blob, "gamma", head, gap_at, "count"), *gaps, _Stream(blob, val_codec, val_at, size, "value")]
    return _lists(streams, count, what, universe if rice else None)


def code_lengths(codec: str) -> Sequence[int]:
    """The bits of one `codec` code word, indexed by the coded value's bit
    length: the table code_bits and list_bit_lengths sum from. rice has
    none: its lengths hang on the gap itself."""
    return _CODE_LEN[codec]


def code_bits(values: Iterable[int], codec: str) -> int:
    """Total bits of coding each of `values` under `codec`, in closed form."""
    try:
        return sum(map(_CODE_LEN[codec].__getitem__, map(int.bit_length, values)))
    except IndexError:  # a bit length past the tables: wider than 64 bits
        raise ValidationError("value wider than 64 bits") from None


def _rice_bits(keys: Sequence[int], universe: int) -> int:
    """Bits of the rice gap words of a list's keys, in closed form: each
    gap's (g - 1) >> k, plus k + 1."""
    n = len(keys)
    if not n:
        return 0
    k = rice_k(n, universe)
    if not k:  # unary: the gaps add up to the last key plus one
        return keys[-1] + 1
    # g - 1 is each key less the key before it plus one (0 before the
    # first): the differences of each key less its index
    y = list(map(sub, keys, range(n)))
    return n * (k + 1) + sum(map(rshift, map(sub, y, chain((0,), y)), repeat(k, n)))


def list_bit_lengths(
    lists: Iterable[tuple[Sequence[int], Sequence[int]]], gap_codec: str, val_codec: str, universe: int | None = None
) -> list[int]:
    """Each list's encoded length in bits, as `encode_lists` would write it
    (rice: against `universe`)."""
    val_len = _CODE_LEN[val_codec].__getitem__
    bit_length = int.bit_length
    if gap_codec == "rice":
        gap_bits = functools.partial(_rice_bits, universe=_universe(gap_codec, universe))
    else:
        gap_len = _CODE_LEN[gap_codec].__getitem__

        def gap_bits(keys: Sequence[int]) -> int:
            return sum(map(gap_len, map(bit_length, _gaps(keys))))
    try:
        return [
            _GAMMA_LEN[(len(keys) + 1).bit_length()] + gap_bits(keys) + sum(map(val_len, map(bit_length, values)))
            for keys, values in lists
        ]
    except IndexError:  # a bit length past the tables: wider than 64 bits
        raise ValidationError(_LIST_VALUE_RANGE) from None


# ---------------------------------------------------------------------------
# (key, value) pair lists


def unzip_pairs(pairs: Sequence[tuple[int, int]]) -> tuple[Sequence[int], ...]:
    """(keys, values) of a (key, value) pair list."""
    return tuple(zip(*pairs)) or ((), ())
