"""Binary index persistence and size statistics.

File layout, format version 6 (header integers little-endian, fixed width):

    magic "MTIX" | u8 version | u8 x3 codec ids (doc-gap, payload, coeff)
    u32 CRC32 (zlib) of every other byte of the file
    u64 num_terms | u64 num_docs | u64 num_metaterms
    u64 stream starts x4 (H gaps, H values, W gaps, W values)
    u64 section offsets x4 (doc-table, lexicon, H-section, W-section)

Each section starts with a `u64 count`:

    doc-table: count | u64 inflated length | zlib stream of the doc names
    lexicon:   the same for the terms
    H-section: count | the meta-terms' (doc gap, base value) lists, then one
               direct (doc gap, payload) list per term, in term order
    W-section: count | the per-term (meta-term id gap, coefficient) lists

The two name tables are front-coded, then deflated (zlib, level 9). The
inflated bytes hold, one vbyte each (codec.encode_vbytes), every name's
shared-prefix length against the name before it (the first name's against
""), then every name's suffix length, and then the suffixes' UTF-8 text
back to back. Both lengths count code points. Each zlib stream ends
exactly at the next section's offset.

A term's direct list is its residual row (Factorization.residual): the cells
that no meta-term covers, coded as a directly coded index would code them,
with no H list and no W entry of their own. A term with no residual cells
has an empty direct list. Every meta-term is stored, with an H list and one
W entry per member, so any factorization save_index accepts loads back
equal; one that would not, it rejects before writing. Overlapping
memberships round-trip as they are: reconstruct is what rejects them.

A section's lists are bit-packed by the codec's list kernels as three
streams back to back, with no padding between them: every list's
gamma(count + 1), then every key gap under the doc-gap codec, then every
value (H: payloads, W: coefficients) under its codec; the section is
zero-padded to a byte. A stream start is a bit offset from the first bit
after the section's count word; the counts start there. No list offset is
stored: the counts say how many gaps and values each list takes, so the
three streams decode side by side, one list after the other. Loading
checks magic, version and section offsets, then the
CRC, then the structure: each name table's count must match the header,
its inflated length must hold two vbytes per name, its stream must
inflate to exactly that length and end at the next section's offset, and
its names must decode; each H and W section's lists must end in its final
byte, and its counts and gaps where the next stream starts. Malformed or
corrupted file content raises an MtixError subclass.
Deflate expands at most 1032:1 and a stated length past that is
rejected before inflating. Front coding multiplies the inflated bytes
again (a name of a few bytes can repeat all of the name before it), so a
table whose names would hold more than 1032 code points per byte of the
file is rejected before any name is built. A crafted file thus cannot make
load inflate more than 1032 bytes, or build names of more than 1032 code
points, per table and per byte of its own size. Files of versions 1 to 5
are not read. A loaded index holds one int object per doc id, which the
meta-terms' columns and the direct lists share.

Saving identical inputs yields byte-identical files under one zlib build
(zlib's output is fixed for one level and one version of the library).
Size statistics count the encoded content of the H/W sections
(everything after each section's count word), so an empty index reports
zero bytes; they are computed from closed-form code lengths, without
encoding anything.
"""

from __future__ import annotations

import os
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
    decode_lists,
    decode_vbytes,
    encode_streams,
    encode_vbytes,
    list_bit_lengths,
    unzip_pairs,
)
from .errors import CorruptionError, FormatError, TruncationError, ValidationError
from .factorize import Factorization, MetaTerm
from .matrix import Lexicon, PostingList, TermDocMatrix, nnz, shared_ints

MAGIC = b"MTIX"
VERSION = 6
_HEADER = struct.Struct("<4s4BI3Q4Q4Q")  # magic, version, 3 codec ids, CRC32, counts, stream starts, offsets
_CRC_AT = 8  # byte offset of the CRC32 in the header
_U64 = struct.Struct("<Q")
_NAME_LEVEL = 9  # deflate level of the name tables
_MAX_INFLATE = 1032  # deflate's largest expansion: n stream bytes inflate to at most 1032 n


def _checksum(image: bytes | bytearray | memoryview) -> int:
    """CRC32 of every byte of a file image but the CRC's own four."""
    view = memoryview(image)
    return zlib.crc32(view[_CRC_AT + 4 :], zlib.crc32(view[:_CRC_AT]))


def _name_table(names: Iterable[str], what: str) -> bytes:
    """A doc table or lexicon as saved: `u64 count | u64 inflated length |
    zlib stream` of the names front-coded in their order."""
    prefixes: list[int] = []
    suffixes: list[str] = []
    prev = ""
    try:
        for name in names:
            if not name.isascii():
                name.encode("utf-8")  # raises for a lone surrogate
            n = 0
            for a, b in zip(prev, name):
                if a != b:
                    break
                n += 1
            prefixes.append(n)
            suffixes.append(name[n:])
            prev = name
    except UnicodeEncodeError as exc:
        raise ValidationError(f"{what} string {name!r} is not encodable as UTF-8: {exc.reason}") from None
    raw = encode_vbytes(prefixes) + encode_vbytes(map(len, suffixes)) + "".join(suffixes).encode("utf-8")
    return _U64.pack(len(prefixes)) + _U64.pack(len(raw)) + zlib.compress(raw, _NAME_LEVEL)


def _read_names(data: memoryview, pos: int, end: int, count: int, what: str) -> tuple[list[str], int]:
    """The `count` names of the table in data[pos:end], and the position
    where its zlib stream ends."""
    if pos + 16 > end:
        raise CorruptionError(f"{what} runs past its section")
    if _U64.unpack_from(data, pos)[0] != count:
        raise CorruptionError(f"{what} count does not match header")
    size = _U64.unpack_from(data, pos + 8)[0]
    stream = data[pos + 16 : end]
    if size < 2 * count:  # two vbytes per name at least
        raise CorruptionError(f"{what} runs past its section")
    if size > _MAX_INFLATE * len(stream):
        raise CorruptionError(f"{what} states {size} inflated bytes, more than its stream can hold")
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(stream, size + 1)
    except zlib.error as exc:
        raise CorruptionError(f"{what}: bad zlib stream: {exc}") from None
    if len(raw) > size:
        raise CorruptionError(f"{what} inflates past its stated {size} bytes")
    if not inflater.eof:
        raise CorruptionError(f"{what} zlib stream is truncated")
    if len(raw) < size:
        raise CorruptionError(f"{what} inflates to {len(raw)} bytes, not its stated {size}")
    try:
        lengths, at = decode_vbytes(raw, 2 * count)
    except TruncationError:
        raise CorruptionError(f"{what} runs past its section") from None
    except CorruptionError as exc:
        raise CorruptionError(f"{what}: {exc}") from None
    try:
        text = str(memoryview(raw)[at:], "utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptionError(f"{what} string at byte {at + exc.start} is not UTF-8: {exc.reason}") from None
    prefixes, suffixes = lengths[:count], lengths[count:]
    total = sum(suffixes)
    if total > len(text):
        raise CorruptionError(f"{what} lengths run past its section")
    if total < len(text):
        raise CorruptionError(f"{what} text runs past its last name")
    if sum(prefixes) + total > _MAX_INFLATE * len(data):  # the names' code points, if the prefixes are sound
        raise CorruptionError(f"{what} names would hold more than {_MAX_INFLATE} code points per byte of the file")
    names: list[str] = []
    name = ""
    start = 0
    for p, n in zip(prefixes, suffixes):
        if p > len(name):
            raise CorruptionError(f"{what} name {len(names)} shares {p} code points with a name of {len(name)}")
        name = name[:p] + text[start : start + n]
        start += n
        names.append(name)
    return names, end - len(inflater.unused_data)


def _section_lists(f: Factorization, residual: Iterable[PostingList]) -> tuple[Iterator, Iterator]:
    """(H lists, W rows) as saved: the meta-terms' lists, then the given
    residual rows (f.residual as saved) as the direct lists, and the
    memberships."""
    h = chain(((mt.cols, mt.base) for mt in f.metaterms), ((row.docs, row.payloads) for row in residual))
    return h, map(unzip_pairs, f.memberships)


def _encoded_sections(f: Factorization, cfg: CodecConfig) -> tuple[tuple, tuple]:
    """encode_streams' (blob, stream starts, list offsets) of the H
    section's lists (the meta-terms, then the direct lists) and of the W
    rows, exactly as saved."""
    h_lists, w_lists = _section_lists(f, f.residual)
    return encode_streams(h_lists, cfg.doc_gap, cfg.payload), encode_streams(w_lists, cfg.doc_gap, cfg.coeff)


def encoded_section_parts(
    f: Factorization, cfg: CodecConfig
) -> tuple[bytes, bytes, bytes, list[int]]:
    """(b"", H blob, W blob, W bit offsets): the H and W sections' streams
    as saved, after their count words, and each W row's offset were the
    rows laid end to end. The first item was the H offset table, which
    format 3 dropped; it stays, empty, so that the tuple keeps the shape
    perfbench reads."""
    (h_blob, _, _), (w_blob, _, w_offsets) = _encoded_sections(f, cfg)
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

    (h_blob, h_starts, _), (w_blob, w_starts, _) = _encoded_sections(f, cfg)
    sections = (
        _name_table(doc_names, "doc-table"),
        _name_table(lexicon, "lexicon"),
        _U64.pack(len(f.metaterms)) + h_blob,
        _U64.pack(f.num_terms) + w_blob,
    )
    codec_ids = (CODEC_IDS[c] for c in (cfg.doc_gap, cfg.payload, cfg.coeff))
    offsets = accumulate(map(len, sections[:-1]), initial=_HEADER.size)
    counts = (f.num_terms, f.num_docs, len(f.metaterms))
    header = _HEADER.pack(MAGIC, VERSION, *codec_ids, 0, *counts, *h_starts, *w_starts, *offsets)  # CRC32 0 until filled in
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


def _checked_header(data: bytes | memoryview, size: int) -> tuple:
    """The header's fields, once its magic, version and section offsets
    check out for a file of `size` bytes."""
    if len(data) < _HEADER.size:
        raise FormatError("file too small to hold an index header")
    fields = _HEADER.unpack_from(data)
    magic, version, *_, off_doc, off_lex, off_h, off_w = fields
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if not _HEADER.size == off_doc <= off_lex <= off_h <= off_w <= size:
        raise CorruptionError("section offsets out of bounds")
    return fields


def index_sections(path: str | Path) -> dict[str, int]:
    """The bytes of each part of an index file, in file order: the header,
    the doc table, the lexicon, the H section and the W section, each
    section with its count word. They sum to the file's size. Only the
    header is read and checked, as load_index checks it (bar the CRC)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        size = fh.seek(0, os.SEEK_END)
    *_, off_doc, off_lex, off_h, off_w = _checked_header(head, size)
    return {
        "header": off_doc,
        "doc-table": off_lex - off_doc,
        "lexicon": off_h - off_lex,
        "H-section": off_w - off_h,
        "W-section": size - off_w,
    }


def load_index(path: str | Path) -> LoadedIndex:
    """Exact inverse of save_index."""
    data = memoryview(Path(path).read_bytes())
    _, _, id_gap, id_pay, id_coeff, crc, num_terms, num_docs, num_meta, *starts, off_doc, off_lex, off_h, off_w = _checked_header(data, len(data))
    if crc != _checksum(data):
        raise CorruptionError("checksum mismatch: the index file is corrupt")
    for cid in (id_gap, id_pay, id_coeff):
        if cid >= len(CODEC_NAMES):
            raise FormatError(f"unknown codec id {cid}")
    cfg = CodecConfig(CODEC_NAMES[id_gap], CODEC_NAMES[id_pay], CODEC_NAMES[id_coeff])

    doc_names, pos = _read_names(data, off_doc, off_lex, num_docs, "doc-table")
    if pos != off_lex:
        raise CorruptionError("doc-table does not end at the lexicon's offset")
    terms, pos = _read_names(data, off_lex, off_h, num_terms, "lexicon")
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
    h_lists = decode_lists(data[off_h + 8 : off_w], num_meta + num_terms, cfg.doc_gap, cfg.payload, "H list", starts[:2])
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
    w_lists = decode_lists(data[off_w + 8 :], num_terms, cfg.doc_gap, cfg.coeff, "W row", starts[2:])
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
    A factorization of another shape than matrix raises ValidationError.
    """
    if (f.num_terms, f.num_docs) != (matrix.num_terms, matrix.num_docs):
        raise ValidationError(
            f"a factorization of {f.num_terms} terms x {f.num_docs} docs for a matrix of "
            f"{matrix.num_terms} x {matrix.num_docs}"
        )
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
