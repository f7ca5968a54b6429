"""Binary index persistence and size statistics.

File layout, format version 2 (header integers little-endian, fixed width):

    magic "MTIX" | u8 version | u8 x3 codec ids (doc-gap, payload, coeff)
    u32 CRC32 (zlib) of every other byte of the file
    u64 num_terms | u64 num_docs | u64 num_metaterms
    u64 section offsets x4 (doc-table, lexicon, H-section, W-section)

Every table is `u64 count | one vbyte per entry | payload`:

    doc-table: byte lengths; the UTF-8 doc names back to back
    lexicon:   the same for the terms, then the W rows' bit offsets as
               vbyte deltas (no payload)
    H-section: the meta-term lists' bit offsets as vbyte deltas; the lists
    W-section: u64 count; the per-term (meta-term id gap, coefficient) lists

H lists and W rows are bit-packed back to back by the codec's list kernels
and zero-padded to a byte. Loading checks the CRC right after magic and
version, then the structure: each table must end exactly at the next
section's offset, and each list, decoded from its own byte span, must end
exactly at the next list's recorded bit offset (the last one in its
section's final byte). Malformed or corrupted file content raises an
MtixError subclass. Version 1 files are not read.

Saving identical inputs yields byte-identical files. Size statistics count
the encoded content of the H/W sections (everything after each section's
count word), so an empty index reports zero bytes; they are computed from
closed-form code lengths, without encoding anything.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .codec import (
    CODEC_IDS,
    CODEC_NAMES,
    CodecConfig,
    code_bits,
    decode_lists,
    encode_lists,
    list_bit_lengths,
    unzip_pairs,
    vbyte_decode,
    vbyte_encode,
)
from .errors import CorruptionError, FormatError, TruncationError, ValidationError
from .factorize import Factorization, MetaTerm
from .matrix import Lexicon, TermDocMatrix, nnz

MAGIC = b"MTIX"
VERSION = 2
_HEADER = struct.Struct("<4s4BI3Q4Q")  # magic, version, 3 codec ids, CRC32, counts, offsets
_CRC_AT = 8  # byte offset of the CRC32 in the header
_U64 = struct.Struct("<Q")


def _checksum(image: bytes | bytearray | memoryview) -> int:
    """CRC32 of every byte of a file image but the CRC's own four."""
    view = memoryview(image)
    return zlib.crc32(view[_CRC_AT + 4 :], zlib.crc32(view[:_CRC_AT]))


def _deltas(offsets: Sequence[int]) -> list[int]:
    return [b - a for a, b in zip(chain((0,), offsets), offsets)]


def _vbytes(values: Iterable[int]) -> bytes:
    """A table's entries: one vbyte per value."""
    return b"".join(map(vbyte_encode, values))


def _str_table(strings: Iterable[str], what: str) -> bytes:
    try:
        raw = [s.encode("utf-8") for s in strings]
    except UnicodeEncodeError as exc:
        raise ValidationError(f"{what} string {exc.object!r} is not encodable as UTF-8: {exc.reason}") from None
    return _U64.pack(len(raw)) + _vbytes(map(len, raw)) + b"".join(raw)


def _read_vbytes(data: memoryview, pos: int, end: int, count: int, what: str) -> tuple[list[int], int]:
    """Read a table's count word and its `count` vbytes from data[pos:end];
    returns the values and the position after them."""
    if pos + 8 > end:
        raise CorruptionError(f"{what} runs past its section")
    if _U64.unpack_from(data, pos)[0] != count:
        raise CorruptionError(f"{what} count does not match header")
    pos += 8
    section = data[:end]
    values = []
    try:
        for _ in range(count):
            value, used = vbyte_decode(section, pos)
            values.append(value)
            pos += used
    except TruncationError:
        raise CorruptionError(f"{what} runs past its section") from None
    except CorruptionError as exc:
        raise CorruptionError(f"{what}: {exc}") from None
    return values, pos


def _read_strs(data: memoryview, pos: int, end: int, count: int, what: str) -> tuple[list[str], int]:
    lengths, pos = _read_vbytes(data, pos, end, count, what)
    if pos + sum(lengths) > end:
        raise CorruptionError(f"{what} lengths run past its section")
    strings = []
    for n in lengths:
        try:
            strings.append(str(data[pos : pos + n], "utf-8"))
        except UnicodeDecodeError as exc:
            raise CorruptionError(f"string at byte {pos} is not UTF-8: {exc.reason}") from None
        pos += n
    return strings, pos


def _h_lists(f: Factorization) -> Iterator[tuple[Sequence[int], Sequence[int]]]:
    return ((mt.cols, mt.base) for mt in f.metaterms)


def _w_lists(f: Factorization) -> Iterator[tuple[Sequence[int], Sequence[int]]]:
    return map(unzip_pairs, f.memberships)


def encoded_section_parts(
    f: Factorization, cfg: CodecConfig
) -> tuple[bytes, bytes, bytes, list[int]]:
    """(H offsets blob, H blob, W blob, W bit offsets) exactly as saved."""
    h_blob, h_offsets = encode_lists(_h_lists(f), cfg.doc_gap, cfg.payload)
    w_blob, w_offsets = encode_lists(_w_lists(f), cfg.doc_gap, cfg.coeff)
    return _vbytes(_deltas(h_offsets)), h_blob, w_blob, w_offsets


def save_index(
    f: Factorization,
    lexicon: Lexicon,
    cfg: CodecConfig,
    path: str | Path,
    doc_names: Sequence[str] | None = None,
) -> int:
    """Write the factored index to `path`; returns total bytes written."""
    if len(lexicon) != f.num_terms:
        raise ValidationError(f"lexicon has {len(lexicon)} terms, factorization {f.num_terms}")
    if doc_names is None:
        doc_names = [str(d) for d in range(f.num_docs)]
    if len(doc_names) != f.num_docs:
        raise ValidationError(f"{len(doc_names)} doc names for {f.num_docs} docs")

    doc_table = _str_table(doc_names, "doc-table")
    terms = _str_table(lexicon, "lexicon")
    h_off_blob, h_blob, w_blob, w_offsets = encoded_section_parts(f, cfg)
    sections = (
        doc_table,
        terms + _U64.pack(f.num_terms) + _vbytes(_deltas(w_offsets)),
        _U64.pack(len(f.metaterms)) + h_off_blob + h_blob,
        _U64.pack(f.num_terms) + w_blob,
    )
    codec_ids = (CODEC_IDS[c] for c in (cfg.doc_gap, cfg.payload, cfg.coeff))
    offsets = accumulate(map(len, sections[:-1]), initial=_HEADER.size)
    counts = (f.num_terms, f.num_docs, len(f.metaterms))
    header = _HEADER.pack(MAGIC, VERSION, *codec_ids, 0, *counts, *offsets)  # CRC32 0 until filled in
    blob = bytearray().join((header, *sections))
    struct.pack_into("<I", blob, _CRC_AT, _checksum(blob))
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


@dataclass
class LoadedIndex:
    factorization: Factorization
    lexicon: Lexicon
    doc_names: list[str]
    cfg: CodecConfig


def load_index(path: str | Path) -> LoadedIndex:
    """Exact inverse of save_index."""
    data = memoryview(Path(path).read_bytes())
    if len(data) < _HEADER.size:
        raise FormatError("file too small to hold an index header")
    magic, version, id_gap, id_pay, id_coeff, crc, num_terms, num_docs, num_meta, off_doc, off_lex, off_h, off_w = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if crc != _checksum(data):
        raise CorruptionError("checksum mismatch: the index file is corrupt")
    for cid in (id_gap, id_pay, id_coeff):
        if cid >= len(CODEC_NAMES):
            raise FormatError(f"unknown codec id {cid}")
    cfg = CodecConfig(CODEC_NAMES[id_gap], CODEC_NAMES[id_pay], CODEC_NAMES[id_coeff])
    if not _HEADER.size == off_doc <= off_lex <= off_h <= off_w <= len(data):
        raise CorruptionError("section offsets out of bounds")

    doc_names, pos = _read_strs(data, off_doc, off_lex, num_docs, "doc-table")
    if pos != off_lex:
        raise CorruptionError("doc-table does not end at the lexicon's offset")
    terms, pos = _read_strs(data, off_lex, off_h, num_terms, "lexicon")
    w_deltas, pos = _read_vbytes(data, pos, off_h, num_terms, "W offset table")
    if pos != off_h:
        raise CorruptionError("lexicon does not end at the H section's offset")
    lexicon = Lexicon(terms)
    if len(lexicon) != num_terms:
        raise CorruptionError("lexicon contains duplicate terms")

    h_deltas, pos = _read_vbytes(data, off_h, off_w, num_meta, "H offset table")
    metaterms = []
    h_lists = decode_lists(data[pos:off_w], list(accumulate(h_deltas)), cfg.doc_gap, cfg.payload, "meta-term")
    for mid, (cols, base) in enumerate(h_lists):
        # keys are strictly ascending, so the last is the largest
        if cols and cols[-1] >= num_docs:
            raise CorruptionError(f"meta-term {mid} references doc beyond num_docs")
        metaterms.append(MetaTerm(mid, tuple(cols), tuple(base)))

    if off_w + 8 > len(data) or _U64.unpack_from(data, off_w)[0] != num_terms:
        raise CorruptionError("W-section count does not match header")
    memberships = []
    w_lists = decode_lists(data[off_w + 8 :], list(accumulate(w_deltas)), cfg.doc_gap, cfg.coeff, "W row")
    for t, (ids, coeffs) in enumerate(w_lists):
        if ids and ids[-1] >= num_meta:
            raise CorruptionError(f"W row {t} references meta-term beyond count")
        memberships.append(tuple(zip(ids, coeffs)))

    f = Factorization(
        metaterms=tuple(metaterms),
        memberships=tuple(memberships),
        num_terms=num_terms,
        num_docs=num_docs,
    )
    return LoadedIndex(f, lexicon, doc_names, cfg)


@dataclass(frozen=True)
class IndexStats:
    """Raw vs factored size accounting under one codec configuration."""

    nnz_v: int
    nnz_w: int
    nnz_h: int
    bytes_direct: int
    bytes_factored: int
    ratio: Fraction | None

    def rows(self) -> list[tuple[str, str]]:
        out = [
            ("nnz_V", str(self.nnz_v)),
            ("nnz_W", str(self.nnz_w)),
            ("nnz_H", str(self.nnz_h)),
            ("bytes_direct", str(self.bytes_direct)),
            ("bytes_factored", str(self.bytes_factored)),
            ("ratio", f"{float(self.ratio):.4f}" if self.ratio is not None else "-"),
        ]
        return out


def stats(matrix: TermDocMatrix, f: Factorization, cfg: CodecConfig) -> IndexStats:
    """Measure V encoded directly vs the factored W + H under `cfg`.

    bytes_direct is V's rows coded as posting lists. bytes_factored counts
    exactly what the file spends on W and H: the meta-term lists, their
    offset table and the W rows. The header, count words, doc names, term
    strings and W-row offsets are left out of both: a directly coded index
    needs the same names and one string and one list offset per term, so
    they are framing, not a cost of factoring. The ratio is undefined
    (None) when there is nothing to encode directly. Both come from
    closed-form code lengths, so the lists are taken to be valid, as ingest
    and factor build them; save_index is what checks them.
    """
    direct_bits = list_bit_lengths(
        ((row.docs, row.payloads) for row in matrix.rows), cfg.doc_gap, cfg.payload
    )
    h_bits = list_bit_lengths(_h_lists(f), cfg.doc_gap, cfg.payload)
    w_bits = list_bit_lengths(_w_lists(f), cfg.doc_gap, cfg.coeff)
    # The H offset table codes each list's offset as a vbyte delta from the
    # previous one: 0 first, then every list length but the last.
    h_off_bytes = code_bits(chain((0,), h_bits[:-1]), "vbyte") // 8 if h_bits else 0
    bytes_direct = (sum(direct_bits) + 7) // 8
    bytes_factored = h_off_bytes + (sum(h_bits) + 7) // 8 + (sum(w_bits) + 7) // 8
    return IndexStats(
        nnz_v=nnz(matrix),
        nnz_w=f.nnz_w,
        nnz_h=f.nnz_h,
        bytes_direct=bytes_direct,
        bytes_factored=bytes_factored,
        ratio=Fraction(bytes_factored, bytes_direct) if bytes_direct else None,
    )
