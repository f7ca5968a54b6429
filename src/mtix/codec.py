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
* Posting list: gamma(count + 1), then the doc gaps (g0 = doc0 + 1,
  gi = doc_i - doc_{i-1}, all >= 1) under the doc-gap codec, then the
  payloads in posting order under the payload codec. Lists are prefix-free,
  so concatenated lists decode unambiguously.

Lists are coded a whole list at a time (the block-at-a-time idea of Lemire
and Boytsov, SPE 2015), with Python's C-level string and int routines doing
the per-bit work. There are three list kernels:

* encode (`encode_lists`): one format() per code word (small values take
  theirs from a table of the same words) and one join per list; a
  section's lists are packed back to back and flushed to bytes in bounded,
  byte-aligned chunks.
* decode (`decode_lists`): a section's lists are read in sequence, each
  from the bit after the one before, out of '0'/'1' text made of one
  bounded window of the section at a time. Under all-gamma coding one
  regex findall splits a whole window into code words; under other codec
  pairs one findall splits each run of words under one codec, over a span
  sized from the run's count. A word cut off at a window's end is carried
  over into the next window, and int(word, 2) turns words into values
  (vbyte words after one join of each run's 7-bit groups).
* size (`list_bit_lengths`, `code_bits`): code lengths in closed form from
  each value's bit length, with nothing encoded.

The string-level scalar codecs (gamma_/delta_encode/decode) are one-value
calls of the same code-word rules.

Values are limited to 64 bits. Decoding raises only MtixError subclasses.
All functions are pure.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import sub
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from .errors import CorruptionError, TruncationError, ValidationError

MAX_VALUE = (1 << 64) - 1
MAX_VBYTE_LEN = 10  # ceil(64 / 7)

CODEC_NAMES = ("vbyte", "gamma", "delta")
CODEC_IDS = {name: i for i, name in enumerate(CODEC_NAMES)}


@dataclass(frozen=True)
class CodecConfig:
    """Codec selection for the three encoded streams of an index."""

    doc_gap: str = "gamma"
    payload: str = "gamma"
    coeff: str = "gamma"

    def __post_init__(self) -> None:
        for name in (self.doc_gap, self.payload, self.coeff):
            if name not in CODEC_NAMES:
                raise ValidationError(f"unknown codec {name!r}; expected one of {CODEC_NAMES}")


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
    out = bytearray()
    while True:
        group = x & 0x7F
        x >>= 7
        out.append(group | 0x80 if x else group)
        if not x:
            return bytes(out)


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


def _list_bits(keys: Sequence[int], values: Sequence[int], gap_codec: str, val_codec: str) -> str:
    """One list as a '0'/'1' string: gamma(count+1), the key gaps, the values."""
    if len(keys) != len(values):
        raise ValidationError(f"{len(keys)} keys for {len(values)} values")
    if not keys:
        return "1"  # gamma(1): count 0
    gaps = list(_gaps(keys))
    top_gap, top_value = max(gaps), max(values)
    if min(gaps) < 1:
        raise ValidationError(f"keys not strictly ascending at {keys[gaps.index(min(gaps))]}")
    if min(values) < 1:
        raise ValidationError(f"value {min(values)} must be >= 1")
    if top_gap > MAX_VALUE or top_value > MAX_VALUE:
        raise ValidationError(_LIST_VALUE_RANGE)
    words = _words((len(keys) + 1,), "gamma", len(keys) + 1)
    words += _words(gaps, gap_codec, top_gap)
    words += _words(values, val_codec, top_value)
    return "".join(words)


def _flush(out: bytearray, bits: str) -> str:
    """Append the whole bytes of `bits` to `out`; return the bits left over."""
    n = len(bits) & ~7
    if n:
        out += int(bits[:n], 2).to_bytes(n >> 3, "big")
    return bits[n:]


def encode_lists(
    lists: Iterable[tuple[Sequence[int], Sequence[int]]], gap_codec: str, val_codec: str
) -> tuple[bytes, list[int]]:
    """Bit-pack (keys, values) lists back to back.

    Returns the blob, zero-padded to a whole byte, and each list's starting
    bit offset.
    """
    out = bytearray()
    offsets = []
    total = 0
    pending: list[str] = []
    held = 0
    for keys, values in lists:
        bits = _list_bits(keys, values, gap_codec, val_codec)
        offsets.append(total)
        total += len(bits)
        pending.append(bits)
        held += len(bits)
        if held >= _FLUSH_BITS:
            rest = _flush(out, "".join(pending))
            pending = [rest]
            held = len(rest)
    _flush(out, "".join(pending) + "0" * (-held % 8))
    return bytes(out), offsets


# Sections are turned into '0'/'1' text and tokenised this many bytes at a
# time, so a decoder holds a bounded window of a section, never all of it.
_WINDOW_BYTES = 2048


class _BitWindow:
    """The bits of a blob as '0'/'1' text, one bounded window at a time.

    bits[pos:] are the bits not yet read; bits[0] is bit `base` of the blob.
    """

    __slots__ = ("blob", "bits", "base", "pos", "next_byte", "bits_per_word")

    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.bits = ""
        self.base = self.pos = self.next_byte = 0
        # per codec, the bits per word of the last run read: sizes the next
        self.bits_per_word = dict.fromkeys(CODEC_NAMES, 8)

    def more(self) -> bool:
        """Carry the unread bits over into the blob's next window; False
        if the blob has no bytes left."""
        start = self.next_byte
        if start >= len(self.blob):
            return False
        self.next_byte = start + _WINDOW_BYTES
        self.base += self.pos
        self.bits = self.bits[self.pos :] + _bit_string(self.blob[start : self.next_byte])
        self.pos = 0
        return True

    def bits_left(self) -> int:
        return 8 * len(self.blob) - self.base - self.pos

    def stuck(self, codec: str) -> NoReturn:
        """Raise for the unread bits, which start no `codec` code word."""
        _no_word(codec, self.base + self.pos, len(self.bits) - self.pos)


# A gamma word has at most 63 leading zeros.
_NO_GAMMA = "0" * 64


def _gamma_window(src: _BitWindow) -> list[int]:
    """The values of the whole gamma words in the next window, read."""
    if not src.more():
        src.stuck("gamma")
    bits = src.bits
    tokens = _WORD_RE["gamma"].findall(bits)
    # The tokens tile the text. A junk token "0" starts 64 zeros or a word
    # cut off at the end; without such zeros, the first one is among the
    # last word's tokens, which are at most as many as its bits.
    first = 0 if _NO_GAMMA in bits else max(0, len(tokens) - _MAX_CODE_LEN["gamma"])
    try:
        first = tokens.index("0", first)
    except ValueError:
        src.pos = len(bits)
    else:
        src.pos = len(bits) - sum(map(len, tokens[first:]))
        del tokens[first:]
    if not tokens:
        src.stuck("gamma")
    return _gamma_parse(tokens)


def _head(src: _BitWindow) -> int:
    """The next list's count, read from its gamma(count + 1) header."""
    if len(src.bits) - src.pos < _MAX_CODE_LEN["gamma"]:
        src.more()
    match = _WORD_RE["gamma"].match(src.bits, src.pos)
    if not match or match.group() == "0":
        src.stuck("gamma")
    src.pos = match.end()
    return int(match.group(), 2) - 1


def _take(src: _BitWindow, codec: str, k: int) -> list[str]:
    """The next `k` code words under `codec`, read.

    Each pass tokenises a span sized from the words still wanted and keeps
    its whole words; a span that comes up short is followed by a larger one
    from the first bit not kept.
    """
    if not k:
        return []
    if k > src.bits_left():  # every code word is at least one bit
        raise TruncationError("bit stream ended mid-value")
    regex, junk, longest = _WORD_RE[codec], _JUNK[codec], _MAX_CODE_LEN[codec]
    per_word = src.bits_per_word[codec]
    start = src.base + src.pos
    words: list[str] = []
    while len(words) < k:
        span = min((k - len(words)) * per_word + longest, 8 * _WINDOW_BYTES)
        if len(src.bits) - src.pos < span:
            src.more()
        bits, pos = src.bits, src.pos
        end = min(len(bits), pos + span)
        tokens = regex.findall(bits, pos, end)[: k - len(words)]
        # keep the whole words: those before a bit that starts no word, or
        # before the first bit of a word cut off at `end`
        for token in junk:
            if token in tokens:
                del tokens[tokens.index(token) :]
        src.pos = pos = pos + sum(map(len, tokens))
        words += tokens
        if len(words) < k:
            # no word starts at pos though a whole one would fit before
            # `end`, or the blob ends: else `end` cut a word, so look further
            if end - pos >= longest or end == len(bits) and src.next_byte >= len(src.blob):
                src.stuck(codec)
            per_word *= 2
    src.bits_per_word[codec] = -(-(src.base + src.pos - start) // k)
    return words


def _check_end(bits_left: int, count: int, what: str) -> None:
    """The lists must end in the blob's final byte."""
    if bits_left >= 8:
        raise CorruptionError(
            f"{what} {count - 1} does not end at the end of the section"
            if count
            else f"{what} section holds {bits_left} bits but no {what}"
        )


def _gamma_lists(src: _BitWindow, count: int, what: str) -> Iterator[tuple[list[int], list[int]]]:
    """decode_lists when every code word is gamma: the lists are sliced
    from the values of whole windows."""
    buf: list[int] = []  # values read ahead
    i = 0
    for index in range(count):
        if i == len(buf):
            buf, i = _gamma_window(src), 0
        mid = i + buf[i]  # the header is count + 1
        stop = 2 * mid - i - 1
        while stop > len(buf):
            if stop - len(buf) > src.bits_left():
                raise TruncationError("bit stream ended mid-value")
            del buf[:i]
            mid, stop, i = mid - i, stop - i, 0
            buf += _gamma_window(src)
        gaps, values = buf[i + 1 : mid], buf[mid:stop]
        i = stop
        if index == count - 1:
            unread = sum(_GAMMA_LEN[x.bit_length()] for x in buf[i:])
            _check_end(src.bits_left() + unread, count, what)
        if gaps:
            gaps[0] -= 1  # g0 = key0 + 1
        yield list(accumulate(gaps)), values


def _mixed_lists(
    src: _BitWindow, count: int, gap_codec: str, val_codec: str, what: str
) -> Iterator[tuple[list[int], list[int]]]:
    """decode_lists under any codec pair: each run of code words under one
    codec (the gamma count header, the gaps, the values) is read as one
    run, adjacent runs under the same codec as one."""
    for index in range(count):
        n = _head(src)
        if gap_codec == val_codec:
            gaps = _PARSE[gap_codec](_take(src, gap_codec, 2 * n))
            values = gaps[n:]
            del gaps[n:]
        else:
            gaps = _PARSE[gap_codec](_take(src, gap_codec, n))
            values = _PARSE[val_codec](_take(src, val_codec, n))
        if gap_codec == "vbyte" and 0 in gaps:
            raise CorruptionError("decoded a zero gap")
        if val_codec == "vbyte" and 0 in values:
            raise CorruptionError("decoded a zero payload")
        if index == count - 1:
            _check_end(src.bits_left(), count, what)
        if gaps:
            gaps[0] -= 1  # g0 = key0 + 1
        yield list(accumulate(gaps)), values


def decode_lists(
    blob: bytes, count: int, gap_codec: str, val_codec: str, what: str = "list"
) -> Iterator[tuple[list[int], list[int]]]:
    """Decode the `count` lists `encode_lists` packed into `blob`.

    The lists are read in sequence, each from the bit after the one before,
    and the last must end in the blob's final byte. Yields (keys, values)
    one list at a time, holding a bounded window of the blob's bits.
    """
    src = _BitWindow(blob)
    if not count:
        _check_end(src.bits_left(), count, what)
    if gap_codec == val_codec == "gamma":
        return _gamma_lists(src, count, what)
    return _mixed_lists(src, count, gap_codec, val_codec, what)


def code_bits(values: Iterable[int], codec: str) -> int:
    """Total bits of coding each of `values` under `codec`, in closed form."""
    try:
        return sum(map(_CODE_LEN[codec].__getitem__, map(int.bit_length, values)))
    except IndexError:  # a bit length past the tables: wider than 64 bits
        raise ValidationError("value wider than 64 bits") from None


def list_bit_lengths(
    lists: Iterable[tuple[Sequence[int], Sequence[int]]], gap_codec: str, val_codec: str
) -> list[int]:
    """Each list's encoded length in bits, as `encode_lists` would write it."""
    gap_len = _CODE_LEN[gap_codec].__getitem__
    val_len = _CODE_LEN[val_codec].__getitem__
    bit_length = int.bit_length
    try:
        return [
            _GAMMA_LEN[(len(keys) + 1).bit_length()]
            + sum(map(gap_len, map(bit_length, _gaps(keys))))
            + sum(map(val_len, map(bit_length, values)))
            for keys, values in lists
        ]
    except IndexError:  # a bit length past the tables: wider than 64 bits
        raise ValidationError(_LIST_VALUE_RANGE) from None


# ---------------------------------------------------------------------------
# (key, value) pair lists


def unzip_pairs(pairs: Sequence[tuple[int, int]]) -> tuple[Sequence[int], ...]:
    """(keys, values) of a (key, value) pair list."""
    return tuple(zip(*pairs)) or ((), ())
