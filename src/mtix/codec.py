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
* decode (`decode_lists`): each list is read from a '0'/'1' string of its
  own byte span and must end exactly where the next list starts. One
  regex findall per codec run splits the span into code words, and
  int(word, 2) turns them into values.
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
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CorruptionError, TruncationError, ValidationError
from .matrix import Posting, PostingList

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


def _vbyte_value(word: str) -> int:
    # the 7-bit groups after each byte's flag bit, most significant (last) first
    return int("".join([word[i : i + 7] for i in range(len(word) - 7, 0, -8)]), 2)


def _vbyte_parse(words: list[str]) -> list[int]:
    values = [int(word, 2) if len(word) == 8 else _vbyte_value(word) for word in words]
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


def _parse_tokens(tokens: list[str], count: int, pos: int, end: int, codec: str) -> tuple[list[int], int]:
    """Values of `tokens`, the first tokens of bits[pos:end], which must be
    `count` code words; returns them and the position after them."""
    junk = _JUNK[codec]
    if len(tokens) == count and junk.isdisjoint(tokens):
        return _PARSE[codec](tokens), pos + sum(map(len, tokens))
    for token in tokens:
        if token in junk:
            break
        pos += len(token)
    if end - pos >= max(_CODE_LEN[codec]):
        raise CorruptionError(f"no {codec} code word at bit {pos}")
    raise TruncationError("bit stream ended mid-value")


def _decode_one(bits: str, start: int, codec: str) -> tuple[int, int]:
    match = _WORD_RE[codec].match(bits, start)
    (x,), end = _parse_tokens([match.group()] if match else [], 1, start, len(bits), codec)
    return x, end - start


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


def _decode_list(
    bits: str, pos: int, end: int, gap_codec: str, val_codec: str
) -> tuple[list[int], list[int], int]:
    """Decode one list from bits[pos:end]; returns (keys, values, new pos).

    Each run of code words under one codec (the gamma count header, the
    gaps, the values) is split by one findall, adjacent runs under the same
    codec by the same one.
    """
    gamma = _WORD_RE["gamma"]
    if gap_codec == "gamma":
        tokens = gamma.findall(bits, pos, end)
    else:
        match = gamma.match(bits, pos, end)
        tokens = [match.group()] if match else []
    (n,), pos = _parse_tokens(tokens[:1], 1, pos, end, "gamma")
    count = n - 1
    del tokens[:1]
    if gap_codec != "gamma":
        tokens = _WORD_RE[gap_codec].findall(bits, pos, end)
    if gap_codec == val_codec:
        gaps, pos = _parse_tokens(tokens[: 2 * count], 2 * count, pos, end, gap_codec)
        values = gaps[count:]
        del gaps[count:]
    else:
        gaps, pos = _parse_tokens(tokens[:count], count, pos, end, gap_codec)
        tokens = _WORD_RE[val_codec].findall(bits, pos, end)
        values, pos = _parse_tokens(tokens[:count], count, pos, end, val_codec)
    if gap_codec == "vbyte" and 0 in gaps:
        raise CorruptionError("decoded a zero gap")
    if val_codec == "vbyte" and 0 in values:
        raise CorruptionError("decoded a zero payload")
    if gaps:
        gaps[0] -= 1  # g0 = key0 + 1
    return list(accumulate(gaps)), values, pos


def decode_lists(
    blob: bytes, offsets: Sequence[int], gap_codec: str, val_codec: str, what: str = "list"
) -> Iterator[tuple[list[int], list[int]]]:
    """Decode the lists `encode_lists` packed into `blob` at bit `offsets`.

    List i is read from the bytes that hold bits [offsets[i], offsets[i+1])
    and must end exactly at offsets[i+1]; the last list must end in the
    blob's final byte. offsets[0] must be 0. Yields (keys, values) per list.
    """
    nbits = 8 * len(blob)
    if offsets and offsets[0] != 0:
        raise CorruptionError(f"{what} 0 not at its recorded offset")
    ends = chain(offsets[1:], (nbits,))
    last = len(offsets) - 1
    for i, (start, end) in enumerate(zip(offsets, ends)):
        if not start <= end <= nbits:
            raise CorruptionError(f"{what} {i + 1} offset out of order or past the section")
        first = start >> 3
        base = first << 3
        bits = _bit_string(blob[first : (end + 7) >> 3])
        keys, values, pos = _decode_list(bits, start - base, end - base, gap_codec, val_codec)
        left = end - base - pos
        if left and i < last:
            raise CorruptionError(f"{what} {i} does not end at the next {what}'s offset")
        if left >= 8:
            raise CorruptionError(f"{what} {i} does not end at the end of the section")
        yield keys, values


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
# Posting lists


def unzip_pairs(pairs: Sequence[tuple[int, int]]) -> tuple[Sequence[int], ...]:
    """(keys, values) of a (key, value) pair list."""
    return tuple(zip(*pairs)) or ((), ())


def encode_posting_list(pl: PostingList | Sequence[Posting], cfg: CodecConfig) -> bytes:
    """Encode one posting list to bytes (zero-padded to a whole byte)."""
    columns = (pl.docs, pl.payloads) if isinstance(pl, PostingList) else unzip_pairs(pl)
    blob, _ = encode_lists([columns], cfg.doc_gap, cfg.payload)
    return blob


def decode_posting_list(data: bytes, cfg: CodecConfig, term: int = 0) -> PostingList:
    """Exact inverse of encode_posting_list. `data` must hold one list that
    ends in its final byte; the pad bits after it are not checked."""
    ((docs, payloads),) = decode_lists(data, [0], cfg.doc_gap, cfg.payload, "posting list")
    return PostingList._from_columns(term, docs, payloads)
