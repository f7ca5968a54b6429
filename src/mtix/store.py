"""Binary index persistence and size statistics.

File layout, format version 4 (header integers little-endian, fixed width):

    magic "MTIX" | u8 version | u8 x3 codec ids (doc-gap, payload, coeff)
    u32 CRC32 (zlib) of every other byte of the file
    u64 num_terms | u64 num_docs | u64 num_metaterms
    u64 section offsets x4 (doc-table, lexicon, H-section, W-section)

Each section is `u64 count | payload`:

    doc-table: one vbyte byte length per doc; the UTF-8 names back to back
    lexicon:   the same for the terms
    H-section: the meta-terms' (doc gap, base value) lists, then one direct
               (doc gap, payload) list per term, in term order
    W-section: the per-term (meta-term id gap, coefficient) lists

A term's direct list is its residual row (Factorization.residual): the cells
that no meta-term covers, coded as a directly coded index would code them,
with no H list and no W entry of their own. A term with no residual cells
has an empty direct list. Every meta-term is stored, with an H list and one
W entry per member, so any factorization save_index accepts loads back
equal; one that would not, it rejects before writing. Overlapping
memberships round-trip as they are: reconstruct is what rejects them.

H lists and W rows are bit-packed back to back by the codec's list kernels
and zero-padded to a byte. No list offset is stored: each list starts with
its gamma-coded length, so a section decodes in sequence, one list after
the other. Loading checks the CRC right after magic and version, then the
structure: each string table must end exactly at the next section's
offset, and each section's lists must end in its final byte. Malformed or
corrupted file content raises an MtixError subclass. Files of versions 1
to 3 are not read. A loaded index holds one int object per doc id, which
the meta-terms' columns and the direct lists share.

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
from itertools import accumulate, chain, compress, islice, repeat
from operator import is_, not_
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .codec import (
    CODEC_IDS,
    CODEC_NAMES,
    CodecConfig,
    MAX_VBYTE_LEN,
    decode_lists,
    encode_lists,
    list_bit_lengths,
    unzip_pairs,
)
from .errors import CorruptionError, FormatError, ValidationError
from .factorize import Factorization, MetaTerm
from .matrix import Lexicon, PostingList, TermDocMatrix, nnz, shared_ints

MAGIC = b"MTIX"
VERSION = 4
_HEADER = struct.Struct("<4s4BI3Q4Q")  # magic, version, 3 codec ids, CRC32, counts, offsets
_CRC_AT = 8  # byte offset of the CRC32 in the header
_U64 = struct.Struct("<Q")


def _checksum(image: bytes | bytearray | memoryview) -> int:
    """CRC32 of every byte of a file image but the CRC's own four."""
    view = memoryview(image)
    return zlib.crc32(view[_CRC_AT + 4 :], zlib.crc32(view[:_CRC_AT]))


def _vbytes(values: Iterable[int]) -> bytes:
    """A table's entries, one vbyte per value, written in one pass."""
    out = bytearray()
    for x in values:
        while x > 0x7F:
            out.append(x & 0x7F | 0x80)
            x >>= 7
        out.append(x)
    return bytes(out)


def _str_table(strings: Iterable[str], what: str) -> bytes:
    try:
        raw = [s.encode("utf-8") for s in strings]
    except UnicodeEncodeError as exc:
        raise ValidationError(f"{what} string {exc.object!r} is not encodable as UTF-8: {exc.reason}") from None
    return _U64.pack(len(raw)) + _vbytes(map(len, raw)) + b"".join(raw)


def _read_vbytes(data: memoryview, pos: int, end: int, count: int, what: str) -> tuple[list[int], int]:
    """Read a table's count word and its `count` vbytes from data[pos:end]
    in one pass; returns the values and the position after them."""
    if pos + 8 > end:
        raise CorruptionError(f"{what} runs past its section")
    if _U64.unpack_from(data, pos)[0] != count:
        raise CorruptionError(f"{what} count does not match header")
    pos += 8
    head = bytes(data[pos : min(pos + count, end)])
    if len(head) == count and head.isascii():  # every value fits one byte
        return list(head), pos + count
    values: list[int] = []
    x = shift = 0
    for byte in data[pos:end]:
        pos += 1
        x |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            if shift == 7 * MAX_VBYTE_LEN:
                raise CorruptionError(f"{what}: vbyte value longer than {MAX_VBYTE_LEN} bytes")
            continue
        values.append(x)
        if len(values) == count:
            return values, pos
        x = shift = 0
    raise CorruptionError(f"{what} runs past its section")


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


def _section_lists(f: Factorization, residual: Iterable[PostingList]) -> tuple[Iterator, Iterator]:
    """(H lists, W rows) as saved: the meta-terms' lists, then the given
    residual rows (f.residual as saved) as the direct lists, and the
    memberships."""
    h = chain(((mt.cols, mt.base) for mt in f.metaterms), ((row.docs, row.payloads) for row in residual))
    return h, map(unzip_pairs, f.memberships)


def encoded_section_parts(
    f: Factorization, cfg: CodecConfig
) -> tuple[bytes, bytes, bytes, list[int]]:
    """(b"", H blob, W blob, W bit offsets): the H section's lists (the
    meta-terms, then the direct lists) and the W rows exactly as saved, and
    where each W row starts. The first item was the H offset table, which
    format 3 dropped; it stays, empty, so that the tuple keeps the shape
    perfbench reads."""
    h_lists, w_lists = _section_lists(f, f.residual)
    h_blob, _ = encode_lists(h_lists, cfg.doc_gap, cfg.payload)
    w_blob, w_offsets = encode_lists(w_lists, cfg.doc_gap, cfg.coeff)
    return b"", h_blob, w_blob, w_offsets


def _check_saveable(f: Factorization) -> None:
    """Raise ValidationError for a factorization that would not load back
    equal: a table not num_terms long, an id not its position, or a key out
    of range. A list's last key stands for all of it: encode_lists rejects
    keys that do not ascend."""
    if not len(f.residual) == len(f.memberships) == f.num_terms:
        raise ValidationError(f"{len(f.residual)} residual rows and {len(f.memberships)} W rows for {f.num_terms} terms")
    for m, mt in enumerate(f.metaterms):
        if mt.id != m:
            raise ValidationError(f"meta-term at position {m} has id {mt.id}")
        if mt.cols and mt.cols[-1] >= f.num_docs:
            raise ValidationError(f"meta-term {m} references doc {mt.cols[-1]} beyond num_docs={f.num_docs}")
    for t, (row, members) in enumerate(zip(f.residual, f.memberships)):
        if row.term != t:
            raise ValidationError(f"residual row {t} is of term {row.term}")
        if row.docs and row.docs[-1] >= f.num_docs:
            raise ValidationError(f"residual row {t} references doc {row.docs[-1]} beyond num_docs={f.num_docs}")
        if members and members[-1][0] >= len(f.metaterms):
            raise ValidationError(f"W row {t} references meta-term {members[-1][0]} beyond {len(f.metaterms)}")


def save_index(
    f: Factorization,
    lexicon: Lexicon,
    cfg: CodecConfig,
    path: str | Path,
    doc_names: Sequence[str] | None = None,
) -> int:
    """Write the factored index to `path`; returns total bytes written.
    Raises ValidationError, writing nothing, for what would not load back equal."""
    _check_saveable(f)
    if len(lexicon) != f.num_terms:
        raise ValidationError(f"lexicon has {len(lexicon)} terms, factorization {f.num_terms}")
    if doc_names is None:
        doc_names = [str(d) for d in range(f.num_docs)]
    if len(doc_names) != f.num_docs:
        raise ValidationError(f"{len(doc_names)} doc names for {f.num_docs} docs")

    _, h_blob, w_blob, _ = encoded_section_parts(f, cfg)
    sections = (
        _str_table(doc_names, "doc-table"),
        _str_table(lexicon, "lexicon"),
        _U64.pack(len(f.metaterms)) + h_blob,
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
    if pos != off_h:
        raise CorruptionError("lexicon does not end at the H section's offset")
    lexicon = Lexicon(terms)
    if len(lexicon) != num_terms:
        raise CorruptionError("lexicon contains duplicate terms")

    if off_h + 8 > off_w or _U64.unpack_from(data, off_h)[0] != num_meta:
        raise CorruptionError("H-section count does not match header")
    if off_w + 8 > len(data) or _U64.unpack_from(data, off_w)[0] != num_terms:
        raise CorruptionError("W-section count does not match header")

    doc_ids = list(range(num_docs))  # num_docs is bounded: the doc table is read
    metaterms = []
    residual = []
    h_lists = decode_lists(data[off_h + 8 : off_w], num_meta + num_terms, cfg.doc_gap, cfg.payload, "H list")
    for mid, (cols, base) in enumerate(islice(h_lists, num_meta)):
        # keys are strictly ascending, so the last is the largest
        if cols and cols[-1] >= num_docs:
            raise CorruptionError(f"meta-term {mid} references doc beyond num_docs")
        metaterms.append(MetaTerm(mid, shared_ints(doc_ids, cols), tuple(base)))
    for t, (docs, payloads) in enumerate(h_lists):  # the direct lists, one per term
        if docs and docs[-1] >= num_docs:
            raise CorruptionError(f"direct list of term {t} references doc beyond num_docs")
        residual.append(PostingList(t, shared_ints(doc_ids, docs), tuple(payloads)))

    memberships = []
    w_lists = decode_lists(data[off_w + 8 :], num_terms, cfg.doc_gap, cfg.coeff, "W row")
    for t, (ids, coeffs) in enumerate(w_lists):
        if ids and ids[-1] >= num_meta:
            raise CorruptionError(f"W row {t} references meta-term beyond count")
        memberships.append(tuple(zip(ids, coeffs)))

    f = Factorization(
        metaterms=tuple(metaterms),
        memberships=tuple(memberships),
        residual=tuple(residual),
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
    exactly what the file spends on W and H: the meta-terms' lists, each
    term's residual row as its direct list, and the W rows. A factorization
    with no meta-term thus costs bytes_direct + ceil(num_terms / 8): its
    direct lists are V's rows, and each W row is empty, a 1-bit count. The
    header, count words, doc names and term strings are left out of both:
    a directly coded index needs the same names and strings, so they are
    framing, not a cost of factoring. The ratio is undefined (None) when
    there is nothing to encode directly. Both come from closed-form code
    lengths, so the lists are taken to be valid, as ingest and factor build
    them; save_index is what checks them. nnz_w and nnz_h count the
    factorization's entries, each non-empty residual row as the one W entry
    and len(row) H entries of the single-member meta-term it stands for.
    """
    direct_bits = list_bit_lengths(
        ((row.docs, row.payloads) for row in matrix.rows), cfg.doc_gap, cfg.payload
    )
    # A residual row that is V's own row object, as factoring leaves an
    # untouched row, is coded as that row was above: only the others are sized.
    own = list(map(is_, f.residual, chain(matrix.rows, repeat(None))))
    h_lists, w_lists = _section_lists(f, compress(f.residual, map(not_, own)))
    h_bits = sum(list_bit_lengths(h_lists, cfg.doc_gap, cfg.payload)) + sum(compress(direct_bits, own))
    w_bits = list_bit_lengths(w_lists, cfg.doc_gap, cfg.coeff)
    bytes_direct = (sum(direct_bits) + 7) // 8
    bytes_factored = (h_bits + 7) // 8 + (sum(w_bits) + 7) // 8
    return IndexStats(
        nnz_v=nnz(matrix),
        nnz_w=f.nnz_w,
        nnz_h=f.nnz_h,
        bytes_direct=bytes_direct,
        bytes_factored=bytes_factored,
        ratio=Fraction(bytes_factored, bytes_direct) if bytes_direct else None,
    )
