"""Binary index persistence and size statistics.

File layout (all multi-byte header integers little-endian fixed-width,
strings length-prefixed with a u32):

    magic "MTIX" | u8 version | u8 x3 codec ids (doc-gap, payload, coeff)
    u64 num_terms | u64 num_docs | u64 num_metaterms
    u64 section offsets x4 (doc-table, lexicon, H-section, W-section)
    doc-table: u64 count; count x (u32 len + UTF-8 doc name)
    lexicon:   u64 count; count x (u32 len + UTF-8 term + u64 W-row bit offset)
    H-section: u64 count; count x vbyte(bit-offset delta); encoded meta-term
               posting lists, bit-packed, zero-padded to a byte
    W-section: u64 count; per-term (meta-term id gap, coefficient) lists,
               bit-packed, zero-padded to a byte

H lists and W rows are bit-packed back to back by the codec's list kernels.
Loading decodes each list from its own byte span, bounded by the next
list's recorded bit offset, and rejects a list that does not end exactly
there (the last list must end in its section's final byte). Malformed or
truncated file content raises an MtixError subclass.

Saving identical inputs yields byte-identical files. Size statistics count
the encoded content of the H/W sections (everything after each section's
count word), so an empty index reports zero bytes; they are computed from
closed-form code lengths, without encoding anything.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

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
from .errors import CorruptionError, FormatError, ValidationError
from .factorize import Factorization, MetaTerm
from .matrix import Lexicon, TermDocMatrix, nnz

MAGIC = b"MTIX"
VERSION = 1
_HEADER = struct.Struct("<4s4B3Q4Q")  # magic, version, 3 codec ids, counts, offsets


def _encode_offsets(offsets: Sequence[int]) -> bytes:
    out = bytearray()
    prev = 0
    for off in offsets:
        out += vbyte_encode(off - prev)
        prev = off
    return bytes(out)


def _decode_offsets(data: bytes, pos: int, count: int) -> tuple[list[int], int]:
    offsets = []
    prev = 0
    for _ in range(count):
        try:
            delta, used = vbyte_decode(data, pos)
        except CorruptionError as exc:
            raise CorruptionError(f"H offset table: {exc}") from None
        pos += used
        prev += delta
        offsets.append(prev)
    return offsets, pos


def _encode_str_table(strings: Sequence[str]) -> bytes:
    out = bytearray(struct.pack("<Q", len(strings)))
    for s in strings:
        raw = s.encode("utf-8")
        out += struct.pack("<I", len(raw))
        out += raw
    return bytes(out)


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
    return _encode_offsets(h_offsets), h_blob, w_blob, w_offsets


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

    h_off_blob, h_blob, w_blob, w_offsets = encoded_section_parts(f, cfg)

    doc_table = _encode_str_table(doc_names)
    lex = bytearray(struct.pack("<Q", f.num_terms))
    for t in range(f.num_terms):
        raw = lexicon.term_of(t).encode("utf-8")
        lex += struct.pack("<I", len(raw))
        lex += raw
        lex += struct.pack("<Q", w_offsets[t])
    h_section = struct.pack("<Q", len(f.metaterms)) + h_off_blob + h_blob
    w_section = struct.pack("<Q", f.num_terms) + w_blob

    off_doc = _HEADER.size
    off_lex = off_doc + len(doc_table)
    off_h = off_lex + len(lex)
    off_w = off_h + len(h_section)
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        CODEC_IDS[cfg.doc_gap],
        CODEC_IDS[cfg.payload],
        CODEC_IDS[cfg.coeff],
        f.num_terms,
        f.num_docs,
        len(f.metaterms),
        off_doc,
        off_lex,
        off_h,
        off_w,
    )
    blob = header + doc_table + bytes(lex) + h_section + w_section
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


@dataclass
class LoadedIndex:
    factorization: Factorization
    lexicon: Lexicon
    doc_names: list[str]
    cfg: CodecConfig


class _Cursor:
    """Bounds-checked byte reader over the index file image."""

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptionError("index file truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        (length,) = struct.unpack("<I", self.take(4))
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptionError(f"string at byte {self.pos - length} is not UTF-8: {exc.reason}") from None


def load_index(path: str | Path) -> LoadedIndex:
    """Exact inverse of save_index."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise FormatError("file too small to hold an index header")
    magic, version, id_gap, id_pay, id_coeff, num_terms, num_docs, num_meta, off_doc, off_lex, off_h, off_w = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    for cid in (id_gap, id_pay, id_coeff):
        if cid >= len(CODEC_NAMES):
            raise FormatError(f"unknown codec id {cid}")
    cfg = CodecConfig(CODEC_NAMES[id_gap], CODEC_NAMES[id_pay], CODEC_NAMES[id_coeff])
    if not _HEADER.size == off_doc <= off_lex <= off_h <= off_w <= len(data):
        raise CorruptionError("section offsets out of bounds")

    cur = _Cursor(data, off_doc)
    if cur.u64() != num_docs:
        raise CorruptionError("doc-table count does not match header")
    doc_names = [cur.string() for _ in range(num_docs)]

    cur = _Cursor(data, off_lex)
    if cur.u64() != num_terms:
        raise CorruptionError("lexicon count does not match header")
    terms = []
    w_offsets = []
    for _ in range(num_terms):
        terms.append(cur.string())
        w_offsets.append(cur.u64())
    lexicon = Lexicon(terms)
    if len(lexicon) != num_terms:
        raise CorruptionError("lexicon contains duplicate terms")

    cur = _Cursor(data, off_h)
    if cur.u64() != num_meta:
        raise CorruptionError("H-section count does not match header")
    h_offsets, blob_start = _decode_offsets(data, cur.pos, num_meta)
    if blob_start > off_w:
        raise CorruptionError("H offset table runs past the H section")
    metaterms = []
    h_lists = decode_lists(data[blob_start:off_w], h_offsets, cfg.doc_gap, cfg.payload, "meta-term")
    for mid, (cols, base) in enumerate(h_lists):
        # keys are strictly ascending, so the last is the largest
        if cols and cols[-1] >= num_docs:
            raise CorruptionError(f"meta-term {mid} references doc beyond num_docs")
        metaterms.append(MetaTerm(mid, tuple(cols), tuple(base)))

    cur = _Cursor(data, off_w)
    if cur.u64() != num_terms:
        raise CorruptionError("W-section count does not match header")
    memberships = []
    w_lists = decode_lists(data[cur.pos :], w_offsets, cfg.doc_gap, cfg.coeff, "W row")
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

    bytes_factored counts exactly the encoded content the index file carries
    for W and H (meta-term lists, their offset table, and the W rows);
    bytes_direct is the same encoding applied to V's rows. The ratio is
    undefined (None) when there is nothing to encode directly. Both come
    from closed-form code lengths, so the lists are taken to be valid, as
    ingest and factor build them; save_index is what checks them.
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
