import hashlib
import operator
import random
import struct
import time
import tracemalloc
import zlib
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from mtix import (
    CodecConfig,
    CorruptionError,
    FormatError,
    Lexicon,
    MtixError,
    PostingList,
    TruncationError,
    ValidationError,
    factor,
    factor_whole_rows,
    FactorParams,
    ingest_triples,
    ingest_tsv,
    index_sections,
    load_index,
    matrix_from_cells,
    save_index,
    stats,
)
from mtix.codec import CODEC_NAMES, decode_lists, encode_lists, encode_vbytes, gamma_encode, unzip_pairs
from mtix.factorize import Factorization, MetaTerm
from mtix.store import _CRC_AT, _HEADER, _checksum, _name_table, encoded_section_parts
from mtix.synth import planted_matrix, random_matrix, zipf_corpus
from conftest import bench_workloads, inflated_image, one_object_per_value

ALL_CFGS = [CodecConfig(g, p, c) for g in CODEC_NAMES for p in CODEC_NAMES for c in CODEC_NAMES]


CFGS = [
    CodecConfig("gamma", "gamma", "gamma"),
    CodecConfig("vbyte", "vbyte", "vbyte"),
    CodecConfig("delta", "gamma", "vbyte"),
]


@pytest.mark.parametrize("cfg", CFGS)
def test_round_trip(tmp_path, cfg):
    rng = random.Random(4)
    V = random_matrix(30, 60, 0.12, rng=rng)
    f = factor(V, FactorParams(min_cols=2))
    path = tmp_path / "t.idx"
    written = save_index(f, V.lexicon, cfg, path, V.doc_names)
    assert written == path.stat().st_size
    idx = load_index(path)
    assert idx.factorization == f
    assert idx.lexicon == V.lexicon
    assert idx.doc_names == V.doc_names
    assert idx.cfg == cfg


def test_round_trip_every_codec_combination(tmp_path):
    rng = random.Random(8)
    V = random_matrix(12, 25, 0.25, rng=rng)
    f = factor(V, FactorParams(min_cols=2))
    names = ("vbyte", "gamma", "delta")
    for gap in names:
        for pay in names:
            for coeff in names:
                cfg = CodecConfig(gap, pay, coeff)
                path = tmp_path / f"{gap}-{pay}-{coeff}.idx"
                save_index(f, V.lexicon, cfg, path, V.doc_names)
                idx = load_index(path)
                assert idx.factorization == f and idx.cfg == cfg


def test_round_trip_empty(tmp_path):
    f = factor(matrix_from_cells({}))
    path = tmp_path / "e.idx"
    save_index(f, Lexicon(), CodecConfig(), path)
    idx = load_index(path)
    assert idx.factorization == f
    assert idx.doc_names == [] and len(idx.lexicon) == 0


def test_round_trip_planted(tmp_path):
    V, _ = planted_matrix(rng=random.Random(9))
    f = factor(V)
    path = tmp_path / "p.idx"
    save_index(f, V.lexicon, CodecConfig(), path, V.doc_names)
    assert load_index(path).factorization == f


@pytest.mark.parametrize("cfg", CFGS)
def test_load_shares_one_int_per_doc_id(tmp_path, cfg):
    V, _ = planted_matrix(rng=random.Random(9))
    f = factor(V)
    path = tmp_path / "p.idx"
    save_index(f, V.lexicon, cfg, path, V.doc_names)
    g = load_index(path).factorization
    assert g == f and len(g.metaterms) > 1
    docs = [d for mt in g.metaterms for d in mt.cols] + [d for row in g.residual for d in row.docs]
    assert len(set(docs)) > 500 and one_object_per_value(docs)


def test_identical_inputs_give_identical_bytes(tmp_path):
    rng = random.Random(15)
    V = random_matrix(20, 40, 0.2, rng=rng)
    f = factor(V)
    a, b = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(f, V.lexicon, CodecConfig(), a, V.doc_names)
    save_index(f, V.lexicon, CodecConfig(), b, V.doc_names)
    assert hashlib.sha256(a.read_bytes()).hexdigest() == hashlib.sha256(b.read_bytes()).hexdigest()


def _saved(tmp_path):
    rng = random.Random(33)
    V = random_matrix(15, 30, 0.2, rng=rng)
    f = factor(V)
    path = tmp_path / "base.idx"
    save_index(f, V.lexicon, CodecConfig(), path, V.doc_names)
    return path.read_bytes()


def _resign(data) -> bytes:
    """`data` with its CRC32 rewritten, so that a deliberate corruption gets
    past the checksum to the structural check it aims at."""
    data = bytearray(data)
    struct.pack_into("<I", data, _CRC_AT, _checksum(data))
    return bytes(data)


def _load_resigned(tmp_path, data):
    bad = tmp_path / "resigned.idx"
    bad.write_bytes(_resign(data))
    return load_index(bad)


def test_huge_doc_count_fails_before_any_per_doc_allocation(tmp_path):
    data = bytearray(_saved(tmp_path))
    fields = list(_HEADER.unpack_from(data))
    fields[7] = 1 << 40  # num_docs
    _HEADER.pack_into(data, 0, *fields)
    struct.pack_into("<Q", data, _HEADER.size, 1 << 40)  # the doc table's count word
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(CorruptionError, match="^doc-table runs past its section$"):
            _load_resigned(tmp_path, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1 and peak < 1 << 20


def test_corrupt_magic(tmp_path):
    data = _saved(tmp_path)
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"NOPE" + data[4:])
    with pytest.raises(FormatError):
        load_index(bad)


def test_unsupported_version(tmp_path):
    data = _saved(tmp_path)
    bad = tmp_path / "bad.idx"
    for version in (1, 2, 3, 4, 5, 99):
        bad.write_bytes(data[:4] + bytes([version]) + data[5:])
        with pytest.raises(FormatError, match=f"^unsupported version {version}$"):
            load_index(bad)


def test_truncated_sections(tmp_path):
    data = _saved(tmp_path)
    for cut in (len(data) - 3, len(data) // 2, _HEADER.size + 5, 10):
        bad = tmp_path / "cut.idx"
        bad.write_bytes(data[:cut])
        with pytest.raises((CorruptionError, FormatError)):
            load_index(bad)


def test_corrupt_offset_detected(tmp_path):
    data = bytearray(_saved(tmp_path))
    # point the W section into the middle of the H section
    (off_w,) = struct.unpack_from("<Q", data, _HEADER.size - 8)
    struct.pack_into("<Q", data, _HEADER.size - 8, off_w - 1)
    with pytest.raises(CorruptionError):
        _load_resigned(tmp_path, data)


def test_stats_bytes_match_file_sections(tmp_path):
    rng = random.Random(6)
    V = random_matrix(25, 50, 0.15, rng=rng)
    f = factor(V)
    cfg = CodecConfig("delta", "gamma", "vbyte")
    path = tmp_path / "s.idx"
    save_index(f, V.lexicon, cfg, path, V.doc_names)
    data = path.read_bytes()
    *_, off_h, off_w = _HEADER.unpack_from(data)
    h_section = data[off_h:off_w]
    w_section = data[off_w:]
    st = stats(V, f, cfg)
    # encoded content = the sections minus their u64 count words
    assert st.bytes_factored == (len(h_section) - 8) + (len(w_section) - 8)


@pytest.mark.parametrize(
    "corpus, cfg",
    [
        ("zipf", CodecConfig()),  # no meta-term pays: every residual row is V's own
        ("zipf", CodecConfig("vbyte", "vbyte", "vbyte")),  # V's rows next to cut-down ones
        ("planted", CodecConfig("delta", "gamma", "vbyte")),
    ],
)
def test_stats_same_after_reload(tmp_path, corpus, cfg):
    # stats reuses the direct size of each residual row that is V's own row
    # object; a loaded factorization shares no row with V and is sized anew
    if corpus == "zipf":
        docs = zipf_corpus(120, 600, rng=random.Random(7))
        (tmp_path / "z.tsv").write_text("".join(f"{d}\t{b}\n" for d, b in docs), encoding="utf-8")
        V = ingest_tsv(tmp_path / "z.tsv")
    else:
        V, _ = planted_matrix(rng=random.Random(55))
    f = factor(V, cfg=cfg)
    assert any(map(operator.is_, f.residual, V.rows))
    path = tmp_path / "s.idx"
    save_index(f, V.lexicon, cfg, path, V.doc_names)
    g = load_index(path).factorization
    assert g == f and not any(map(operator.is_, g.residual, V.rows))
    assert stats(V, g, cfg) == stats(V, f, cfg)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_default_codec_codes_direct_in_fewer_bytes_than_all_gamma(tmp_path, seed):
    # The default codes doc gaps in delta: on inputs shaped like the bench
    # workloads (Zipf text, and random and planted triples over 20,000
    # docs), V coded directly takes 2-10% fewer bytes than under all-gamma.
    # On small dense inputs gamma can win: 300 docs of Zipf text take about
    # 2% more bytes under delta.
    rng = random.Random(seed)
    path = tmp_path / "zipf.tsv"
    path.write_text("".join(f"{doc}\t{body}\n" for doc, body in zipf_corpus(1000, 5000, rng=rng)), encoding="utf-8")
    inputs = (
        ingest_tsv(path),
        random_matrix(200, 20_000, 0.005, rng=rng),
        planted_matrix(num_groups=20, noise_rows=200, num_docs=20_000, rng=rng)[0],
    )
    gamma = CodecConfig("gamma", "gamma", "gamma")
    for V in inputs:
        f = factor_whole_rows(V)
        assert stats(V, f, CodecConfig()).bytes_direct < stats(V, f, gamma).bytes_direct


def test_stats_all_singleton_overhead():
    # primitive rows (gcd 1), no shared structure: factored carries the same
    # rows plus an empty W row per term, so the ratio is >= 1
    cells = {t: {t * 3 + i: [1, 2, 5][i] for i in range(3)} for t in range(8)}
    V = matrix_from_cells(cells)
    f = factor(V)
    assert f.metaterms == () and all(f.residual)  # every row is its residual row
    st = stats(V, f, CodecConfig())
    assert st.bytes_factored >= st.bytes_direct
    assert st.ratio is not None and st.ratio >= 1


def test_stats_planted_compresses():
    V, report = planted_matrix(rng=random.Random(55))
    f = factor(V)
    st = stats(V, f, CodecConfig())
    assert st.nnz_v == report.total_nnz
    # planted portion contributes 550 factored entries instead of 2500
    assert st.nnz_w + st.nnz_h < st.nnz_v
    assert st.ratio is not None and st.ratio < 1
    # with whole-row grouping only, the split is exact:
    # planted 10*(5+50) plus one coefficient and one base row per noise term
    from mtix import factor_whole_rows

    st1 = stats(V, factor_whole_rows(V), CodecConfig())
    noise_rows = 100
    assert st1.nnz_w + st1.nnz_h == 550 + noise_rows + report.noise_nnz


def test_stats_rejects_payload_past_64_bits():
    V = matrix_from_cells({0: {0: 1 << 70, 1: 3}, 1: {0: 5}})
    with pytest.raises(ValidationError, match=r"list value outside \[1, 2\^64\)"):
        stats(V, factor(V), CodecConfig())


def test_stats_rejects_a_factorization_of_another_shape():
    # sized anyway, another matrix's factorization gives a ratio that means nothing
    V = random_matrix(30, 40, 0.2, rng=random.Random(1))
    for terms, docs in ((20, 40), (30, 50)):
        other = random_matrix(terms, docs, 0.2, rng=random.Random(2))
        with pytest.raises(ValidationError, match="a factorization of"):
            stats(V, factor(other), CodecConfig())


def test_stats_empty_matrix_flagged():
    V = matrix_from_cells({})
    st = stats(V, factor(V), CodecConfig())
    assert (st.nnz_v, st.nnz_w, st.nnz_h) == (0, 0, 0)
    assert st.bytes_direct == 0 and st.bytes_factored == 0
    assert st.ratio is None


def test_section_parts_deterministic():
    rng = random.Random(3)
    V = random_matrix(10, 20, 0.3, rng=rng)
    f = factor(V)
    cfg = CodecConfig()
    assert encoded_section_parts(f, cfg) == encoded_section_parts(f, cfg)


def test_save_rejects_mismatched_lexicon(tmp_path):
    V = matrix_from_cells({0: {0: 1}})
    f = factor(V)
    from mtix import ValidationError

    with pytest.raises(ValidationError):
        save_index(f, Lexicon(["a", "b"]), CodecConfig(), tmp_path / "x.idx")


# sha256 of save_index output for one seeded planted matrix, one digest per
# all-same-codec config: format v6 must not move by a single byte. Deflate's
# output is fixed only for one zlib build, so the digest is of the file with
# its name tables inflated (conftest.inflated_image); H and W count byte
# for byte, and load_index checks the CRC and offsets of the file itself.
PINNED_DIGESTS = {
    "gamma": "db26fdfc44b014824f526c933760abdad78e3da7ddf509b418e0d205e70cbbe1",
    "delta": "8d9ebbb26b61a4dc4737be94174470ba4090e4d717a5cfa241cbbeea25793a5b",
    "vbyte": "c97024805d339ee9883cc711c8f3c3a05e786433287de0425b3979f1c5512085",
}


@pytest.mark.parametrize("codec", sorted(PINNED_DIGESTS))
def test_saved_bytes_match_pinned_digest(tmp_path, codec):
    V, _ = planted_matrix(
        num_groups=4,
        rows_per_group=3,
        cols_per_group=40,
        noise_rows=30,
        num_docs=3000,
        noise_payload_range=(1, 1 << 20),
        rng=random.Random(2026),
    )
    f = factor(V)
    path = tmp_path / "pinned.idx"
    save_index(f, V.lexicon, CodecConfig(codec, codec, codec), path, V.doc_names)
    assert hashlib.sha256(inflated_image(path.read_bytes())).hexdigest() == PINNED_DIGESTS[codec]
    assert load_index(path).factorization == f


payloads = st.one_of(st.integers(1, 20), st.integers(1, (1 << 64) - 1))
small_matrices = st.dictionaries(
    st.integers(0, 9),
    st.dictionaries(st.integers(0, 3000), payloads, min_size=1, max_size=8),
    max_size=8,
).map(matrix_from_cells)


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_stats_closed_form_matches_encoded_lengths(V):
    f = factor(V)
    for cfg in ALL_CFGS:
        st_ = stats(V, f, cfg)
        h_offsets, h, w, _ = encoded_section_parts(f, cfg)
        assert st_.bytes_factored == len(h_offsets) + len(h) + len(w)
        direct, _ = encode_lists(map(unzip_pairs, (row.postings for row in V.rows)), cfg.doc_gap, cfg.payload)
        assert st_.bytes_direct == len(direct)


# All-gamma, mixed vbyte-delta, the default (delta doc gaps) and
# all-vbyte: the decoder finds junk in a window's tail by a run of zeros
# that differs per codec.
FUZZ_CFGS = [
    CodecConfig("gamma", "gamma", "gamma"),
    CodecConfig("vbyte", "delta", "vbyte"),
    CodecConfig(),
    CodecConfig("vbyte", "vbyte", "vbyte"),
]


def _fuzz_index(tmp_path, cfg):
    """Save the fuzz index; returns what was saved, the file's bytes and the
    rng to flip them with."""
    rng = random.Random(77)
    V = random_matrix(30, 60, 0.15, payload_range=(1, 300), rng=rng)
    f = factor(V, FactorParams(min_cols=2))
    path = tmp_path / "fuzz.idx"
    save_index(f, V.lexicon, cfg, path, V.doc_names)
    return (f, V.lexicon, V.doc_names, cfg), path.read_bytes(), rng


def _flipped(data, rng, count):
    """`count` copies of `data`, each with 1-3 random bits flipped."""
    for _ in range(count):
        flipped = bytearray(data)
        for i in rng.sample(range(len(data) * 8), rng.randint(1, 3)):
            flipped[i // 8] ^= 1 << (7 - i % 8)
        yield flipped


@pytest.mark.parametrize("cfg", FUZZ_CFGS)
def test_bit_flip_fuzz_load_raises_only_mtix_errors(tmp_path, cfg):
    """Every flip of 1-3 bits in a small index, re-signed so that it gets
    past the checksum to the decoders, either loads or raises an MtixError,
    never another exception."""
    _, data, rng = _fuzz_index(tmp_path, cfg)
    for flipped in _flipped(data, rng, 2000):
        try:
            _load_resigned(tmp_path, flipped)
        except MtixError:
            pass


@pytest.mark.parametrize("cfg", FUZZ_CFGS)
def test_bit_flip_never_loads_different_content(tmp_path, cfg):
    """Every flip of 1-3 bits anywhere in the file either raises an
    MtixError or loads exactly the saved content: no silent wrong load."""
    saved, data, rng = _fuzz_index(tmp_path, cfg)
    bad = tmp_path / "flipped.idx"
    for flipped in _flipped(data, rng, 3000):
        bad.write_bytes(flipped)
        try:
            idx = load_index(bad)
        except MtixError:
            continue
        assert (idx.factorization, idx.lexicon, idx.doc_names, idx.cfg) == saved


_DOC_TABLE_AT = 13  # the header field of the doc table's offset; the lexicon's follows


def _inflated(data):
    """The doc table's count and inflated bytes in a file image."""
    fields = _HEADER.unpack_from(data)
    start, end = fields[_DOC_TABLE_AT : _DOC_TABLE_AT + 2]
    (count,) = struct.unpack_from("<Q", data, start)
    return count, zlib.decompress(data[start + 16 : end])


def _with_table(data, body):
    """`data` with the doc table's bytes after its count word replaced by
    `body`, the later sections' offsets moved to match."""
    fields = list(_HEADER.unpack_from(data))
    start, end = fields[_DOC_TABLE_AT : _DOC_TABLE_AT + 2]
    shift = len(body) - (end - start - 8)
    fields[_DOC_TABLE_AT + 1 :] = [offset + shift for offset in fields[_DOC_TABLE_AT + 1 :]]
    data = bytearray(data[: start + 8] + body + data[end:])
    _HEADER.pack_into(data, 0, *fields)
    return data


def _deflated(raw, size=None):
    """A name table's body: the inflated length (`size` if given) and the
    zlib stream of `raw`."""
    return struct.pack("<Q", len(raw) if size is None else size) + zlib.compress(raw, 9)


def test_non_utf8_string_is_corruption(tmp_path):
    data = _saved(tmp_path)
    count, raw = _inflated(data)
    # the inflated doc table: prefix lengths, suffix lengths, then the text
    first_name = 2 * count
    raw = raw[:first_name] + b"\xff" + raw[first_name + 1 :]
    with pytest.raises(CorruptionError, match="string at byte .* is not UTF-8"):
        _load_resigned(tmp_path, _with_table(data, _deflated(raw)))


def test_string_lengths_past_section_are_corruption(tmp_path):
    data = _saved(tmp_path)
    count, raw = _inflated(data)
    raw = bytearray(raw)
    raw[2 * count - 1] = 127  # the last doc name's suffix length
    with pytest.raises(CorruptionError, match="^doc-table lengths run past its section$"):
        _load_resigned(tmp_path, _with_table(data, _deflated(bytes(raw))))


@pytest.mark.parametrize(
    "at, message",
    [
        (_HEADER.size - 24, "^doc-table does not end at the lexicon's offset$"),
        (_HEADER.size - 16, "^lexicon does not end at the H section's offset$"),
    ],
    ids=["doc-table", "lexicon"],
)
def test_table_must_end_at_next_section(tmp_path, at, message):
    data = bytearray(_saved(tmp_path))
    (offset,) = struct.unpack_from("<Q", data, at)
    struct.pack_into("<Q", data, at, offset + 1)
    with pytest.raises(CorruptionError, match=message):
        _load_resigned(tmp_path, data)


@pytest.mark.parametrize("section", ["H", "W"])
def test_section_count_must_match_header(tmp_path, section):
    data = bytearray(_saved(tmp_path))
    *_, off_h, off_w = _HEADER.unpack_from(data)
    at = off_h if section == "H" else off_w
    struct.pack_into("<Q", data, at, struct.unpack_from("<Q", data, at)[0] + 1)
    with pytest.raises(CorruptionError, match=f"^{section}-section count does not match header$"):
        _load_resigned(tmp_path, data)


def test_checksum_mismatch_is_corruption(tmp_path):
    data = bytearray(_saved(tmp_path))
    data[-1] ^= 1
    bad = tmp_path / "bad.idx"
    bad.write_bytes(data)
    with pytest.raises(CorruptionError, match="^checksum mismatch"):
        load_index(bad)


@pytest.mark.parametrize("where", ["lexicon", "doc-table"])
def test_unencodable_string_is_validation_error(tmp_path, where):
    f = factor(matrix_from_cells({0: {0: 1}}))
    terms, docs = (["\ud800"], ["d0"]) if where == "lexicon" else (["a"], ["d\udcff"])
    path = tmp_path / "x.idx"
    with pytest.raises(ValidationError, match=f"^{where} string .* is not encodable as UTF-8"):
        save_index(f, Lexicon(terms), CodecConfig(), path, docs)
    assert not path.exists()


strings = st.one_of(
    st.sampled_from(["", "\n", "\x00", "ä", "日本", "\U0001f99c", "x" * 127, "x" * 128]),
    st.text(max_size=4),
    st.text(min_size=128, max_size=160),  # at least 128 bytes: a two-byte vbyte length
    st.text(alphabet="é€\U0001f99c", min_size=40, max_size=60),
    # names whose UTF-8 bytes share a prefix that ends inside a character:
    # é/è, €/₭ and the two emoji differ in their last byte only
    st.builds(operator.add, st.sampled_from(["", "ab", "日本"]), st.text(alphabet="éè€₭\U0001f99c\U0001f99d", max_size=4)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(strings, unique=True, max_size=6), st.lists(strings, max_size=6))
def test_strings_round_trip(tmp_path_factory, terms, docs):
    cells = {t: {t % len(docs): t + 1} for t in range(len(terms))} if docs else {}
    V = matrix_from_cells(cells, num_terms=len(terms), num_docs=len(docs))
    f = factor(V)
    path = tmp_path_factory.getbasetemp() / "strings.idx"
    save_index(f, Lexicon(terms), CodecConfig(), path, docs)
    idx = load_index(path)
    assert idx.factorization == f
    assert list(idx.lexicon) == terms and idx.doc_names == docs


def test_overlong_string_length_is_corruption(tmp_path):
    V = matrix_from_cells({0: {0: 1}})
    path = tmp_path / "s.idx"
    save_index(factor(V), V.lexicon, CodecConfig(), path, ["d"])
    data = path.read_bytes()
    assert _inflated(data) == (1, b"\x00\x01d")  # the one name's prefix and suffix lengths, then its text
    # the suffix length's bytes both flag a next byte
    with pytest.raises(CorruptionError, match="^doc-table runs past its section$"):
        _load_resigned(tmp_path, _with_table(data, _deflated(b"\x00\x80\x80")))
    # an 11-byte vbyte suffix length
    with pytest.raises(CorruptionError, match="^doc-table: vbyte value longer than 10 bytes$"):
        _load_resigned(tmp_path, _with_table(data, _deflated(b"\x00" + b"\xff" * 10 + b"\x01d")))
    # ten bytes that each flag a next byte, at the end of the inflated table
    with pytest.raises(CorruptionError, match="^doc-table runs past its section$"):
        _load_resigned(tmp_path, _with_table(data, _deflated(b"\x00" + b"\xff" * 10)))


def _two_names(tmp_path):
    """A saved index whose doc table holds "ab" then "abc"; the file's bytes."""
    V = matrix_from_cells({0: {0: 1, 1: 2}})
    path = tmp_path / "n.idx"
    save_index(factor(V), V.lexicon, CodecConfig(), path, ["ab", "abc"])
    data = path.read_bytes()
    assert _inflated(data) == (2, b"\x00\x02\x02\x01abc")
    return data


def _stream_cut(data, by):
    """`data` with the doc table's zlib stream `by` bytes short."""
    _, raw = _inflated(data)
    return _with_table(data, _deflated(raw)[:-by])


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: _with_table(d, _deflated(b"\x00\x03\x02\x01abc")),
         "^doc-table name 1 shares 3 code points with a name of 2$"),
        (lambda d: _with_table(d, _deflated(b"\x00\x02\x02\x01abcd")), "^doc-table text runs past its last name$"),
        (lambda d: _with_table(d, _deflated(b"\x00\x02\x02\x01abc", 8)),
         "^doc-table inflates to 7 bytes, not its stated 8$"),
        (lambda d: _with_table(d, _deflated(b"\x00\x02\x02\x01abc", 6)),
         "^doc-table inflates past its stated 6 bytes$"),
        (lambda d: _with_table(d, _deflated(b"\x00\x02\x02\x01abc") + b"\x00"),
         "^doc-table does not end at the lexicon's offset$"),
        (lambda d: _stream_cut(d, 1), "^doc-table zlib stream is truncated$"),
        (lambda d: _stream_cut(d, 6), "^doc-table zlib stream is truncated$"),
        (lambda d: _with_table(d, struct.pack("<Q", 7) + b"garbage!"), "^doc-table: bad zlib stream: "),
        (lambda d: _with_table(d, struct.pack("<Q", 7) + zlib.compress(b"\x00\x02\x02\x01abd")[:-1] + b"\x00"),
         "^doc-table: bad zlib stream: "),
        (lambda d: _with_table(d, _deflated(b"\x00\x02\x02\x01abc", (1 << 64) - 1)),
         f"^doc-table states {(1 << 64) - 1} inflated bytes, more than its stream can hold$"),
        (lambda d: _with_table(d, struct.pack("<Q", 3)), "^doc-table runs past its section$"),
        (lambda d: _with_table(d, _deflated(b"\x00\x02\x02", 2)), "^doc-table runs past its section$"),
    ],
    ids=["prefix-past-name-before", "text-past-last-name", "length-one-over", "length-one-short",
         "bytes-after-stream", "stream-cut-1", "stream-cut-6", "garbage-stream", "bad-check-value",
         "length-past-64-bits", "no-stream", "length-below-two-per-name"],
)
def test_name_table_corruption(tmp_path, change, message):
    data = _two_names(tmp_path)
    assert _with_table(data, data[_HEADER.size + 8 : _HEADER.unpack_from(data)[_DOC_TABLE_AT + 1]]) == data
    with pytest.raises(CorruptionError, match=message):
        _load_resigned(tmp_path, change(data))


def test_stated_length_past_the_stream_fails_before_inflating(tmp_path):
    # a stated inflated length that holds two vbytes per name but no zlib
    # stream of this size can give: rejected before anything is inflated
    data = bytearray(_saved(tmp_path))
    fields = list(_HEADER.unpack_from(data))
    fields[7] = 1 << 40  # num_docs
    _HEADER.pack_into(data, 0, *fields)
    struct.pack_into("<QQ", data, _HEADER.size, 1 << 40, 2 << 40)  # the doc table's count and inflated length
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(CorruptionError, match=f"^doc-table states {2 << 40} inflated bytes, more than its stream can hold$"):
            _load_resigned(tmp_path, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1 and peak < 1 << 20


def test_long_shared_prefixes_fail_before_any_name_is_built(tmp_path):
    # a first name of L code points, then N names that each repeat L - 1 of
    # the name before it: about 5 N + L inflated bytes, N L code points of
    # names (100 MB here), rejected before any name is built
    L = N = 10_000
    raw = encode_vbytes([0] + [L - 1] * N) + encode_vbytes([L] + [1] * N) + ("x" * L + "y" * N).encode()
    data = _with_table(bytearray(_saved(tmp_path)), _deflated(raw))
    assert len(data) < 2_000
    fields = list(_HEADER.unpack_from(data))
    fields[7] = N + 1  # num_docs
    _HEADER.pack_into(data, 0, *fields)
    struct.pack_into("<Q", data, _HEADER.size, N + 1)  # the doc table's count word
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(CorruptionError, match="^doc-table names would hold more than 1032 code points per byte of the file$"):
            _load_resigned(tmp_path, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1 and peak < 1 << 20


def test_name_tables_front_code_then_deflate():
    names = ["ab", "abc", "b", "日本", "日本語", "日x", "\U0001f99c"]
    table = _name_table(names, "doc-table")
    raw = (
        bytes([0, 2, 0, 0, 2, 1, 0])  # prefix lengths, in code points
        + bytes([2, 1, 1, 2, 1, 1, 1])  # suffix lengths, in code points
        + "abcb日本語x\U0001f99c".encode("utf-8")
    )
    assert table == struct.pack("<QQ", len(names), len(raw)) + zlib.compress(raw, 9)


def test_section_parts_keep_their_shape(tmp_path):
    """encoded_section_parts stays a 4-tuple: the H offset table, which is
    now empty, the H and W sections as saved, and each W row's bit offset."""
    V = random_matrix(15, 30, 0.2, rng=random.Random(21))
    f = factor(V)
    cfg = CodecConfig("delta", "gamma", "vbyte")
    path = tmp_path / "parts.idx"
    save_index(f, V.lexicon, cfg, path, V.doc_names)
    data = path.read_bytes()
    *_, off_h, off_w = _HEADER.unpack_from(data)
    parts = encoded_section_parts(f, cfg)
    assert isinstance(parts, tuple) and len(parts) == 4
    h_offsets, h, w, w_offsets = parts
    assert (h_offsets, h, w) == (b"", data[off_h + 8 : off_w], data[off_w + 8 :])
    # the W rows as saved hold the multi-row memberships alone
    saved_rows = list(decode_lists(w, f.num_terms, cfg.doc_gap, cfg.coeff))
    multi = {m for m, n in _members(f).items() if n >= 2}
    assert [list(zip(*row)) for row in saved_rows] == [[p for p in row if p[0] in multi] for row in f.memberships]
    assert w_offsets == encode_lists(saved_rows, cfg.doc_gap, cfg.coeff)[1]


def _members(f):
    """Meta-term id -> number of member terms."""
    return Counter(m for row in f.memberships for m, _ in row)


# A genuine format v3 file (terms "0" "1" "2" over docs "0" "1").
V3_FILE = bytes.fromhex(
    "4d544958030101013d050c870300000000000000020000000000000003000000000000004400000000000000"
    "50000000000000005e000000000000006a0000000000000002000000000000000101303103000000000000"
    "0001010130313203000000000000007d3e928003000000000000005a4936"
)


# A genuine format v4 file (terms "0" "1" "2" over docs "0" "1"), its
# names stored raw: one vbyte byte length per name, then the UTF-8 bytes.
V4_FILE = bytes.fromhex(
    "4d5449580401010169547fd50300000000000000020000000000000000000000000000004400000000000000"
    "50000000000000005e0000000000000069000000000000000200000000000000010130310300000000000000"
    "01010130313200000000000000005a49f40300000000000000e0"
)


# A genuine format v5 file (terms "0" "1" "2" over docs "0" "1"): its H
# and W lists one after the other, each its count, gaps and values.
V5_FILE = bytes.fromhex(
    "4d544958050101019ff7f9050300000000000000020000000000000000000000000000004400000000000000"
    "620000000000000083000000000000008e000000000000000200000000000000060000000000000078da6360"
    "606434300400009e00640300000000000000090000000000000078da6360606064643430340200013c009700"
    "000000000000005a49f80300000000000000e0"
)


def test_v3_file_is_rejected(tmp_path):
    path = tmp_path / "v3.idx"
    path.write_bytes(V3_FILE)
    with pytest.raises(FormatError, match="^unsupported version 3$"):
        load_index(path)


def test_v4_file_is_rejected(tmp_path):
    path = tmp_path / "v4.idx"
    path.write_bytes(V4_FILE)
    with pytest.raises(FormatError, match="^unsupported version 4$"):
        load_index(path)
    with pytest.raises(FormatError, match="^unsupported version 4$"):
        index_sections(path)


def test_v5_file_is_rejected(tmp_path):
    path = tmp_path / "v5.idx"
    path.write_bytes(V5_FILE)
    with pytest.raises(FormatError, match="^unsupported version 5$"):
        load_index(path)
    with pytest.raises(FormatError, match="^unsupported version 5$"):
        index_sections(path)


def _f(metaterms, memberships, num_docs, residual=None):
    """A hand-built factorization; residual maps a term to its (docs,
    payloads), the other terms' residual rows are empty."""
    return Factorization(
        tuple(MetaTerm(m, cols, base) for m, (cols, base) in enumerate(metaterms)),
        tuple(tuple(row) for row in memberships),
        tuple(PostingList(t, *(residual or {}).get(t, ((), ()))) for t in range(len(memberships))),
        len(memberships),
        num_docs,
    )


# Hand-built factorizations: every meta-term is stored with an H list,
# whatever its members, and each residual row is its term's direct list.
HAND_BUILT = {
    "all singletons in term order": _f([((0, 2), (1, 2)), ((1,), (1,))], [[(0, 3)], [(1, 1)]], 3),
    "two singletons on one term": _f([((0, 1), (1, 2)), ((3,), (1,))], [[(0, 1), (1, 5)]], 4),
    "non-primitive base": _f([((0, 2), (2, 4))], [[(0, 1)]], 3),
    "coefficient not the gcd": _f([((1,), (3,))], [[(0, 2)]], 2),
    "singletons out of term order": _f([((1,), (1,)), ((0,), (1,))], [[(1, 2)], [(0, 1)]], 2),
    "meta-term with no members": _f([((0,), (1,)), ((1,), (3,)), ((1,), (1,))], [[(0, 2)], [(2, 5)]], 2),
    "memberless meta-term last": _f([((0,), (1,)), ((1,), (3,))], [[(0, 2)], []], 2),
    "singleton with no columns": _f([((), ())], [[(0, 1)]], 1),
    "payload past 64 bits": _f([((0, 1), (2, 3))], [[(0, 1 << 63)]], 2),
    "singleton before a multi-row meta-term": _f([((0,), (1,)), ((1, 2), (1, 1))], [[(0, 1), (1, 1)], [(1, 2)]], 3),
    "residual rows only": _f([], [[], [], []], 5, {0: ((0, 4), (2, 1)), 2: ((1,), (1 << 63,))}),
    "residual rows beside singletons": _f(
        [((0, 2), (1, 2)), ((1,), (1,))], [[(0, 3)], [(1, 1)]], 4, {0: ((1, 3), (5, 5)), 1: ((0, 3), (2, 6))}
    ),
    "residual rows beside singletons first and last": _f(
        [((4,), (2,)), ((0, 1), (1, 1)), ((2,), (3,))],
        [[(0, 1), (1, 2)], [(1, 1)], [(2, 1)]],
        5,
        {0: ((2, 3), (7, 1)), 1: ((3,), (9,)), 2: ((0, 1, 3, 4), (1, 1, 1, 1))},
    ),
}


@pytest.mark.parametrize("cfg", CFGS)
@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_factorizations_round_trip(tmp_path, case, cfg):
    f = HAND_BUILT[case]
    path = tmp_path / "h.idx"
    save_index(f, Lexicon(map(str, range(f.num_terms))), cfg, path)
    assert load_index(path).factorization == f
    data = path.read_bytes()
    assert _HEADER.unpack_from(data)[8] == len(f.metaterms)  # the header's meta-term count
    *_, off_h, off_w = _HEADER.unpack_from(data)
    _, h, w, _ = encoded_section_parts(f, cfg)
    assert (h, w) == (data[off_h + 8 : off_w], data[off_w + 8 :])


small_dense_matrices = st.dictionaries(
    st.integers(0, 7),
    st.dictionaries(st.integers(0, 6), st.integers(1, 3), min_size=1, max_size=7),
    max_size=8,
).map(matrix_from_cells)


@settings(max_examples=80, deadline=None)
@given(small_dense_matrices, st.booleans(), st.sampled_from(CFGS))
def test_every_factor_output_round_trips(tmp_path_factory, V, stage2, cfg):
    f = factor(V, FactorParams(min_cols=2)) if stage2 else factor_whole_rows(V)
    path = tmp_path_factory.getbasetemp() / "dense.idx"
    save_index(f, V.lexicon, cfg, path, V.doc_names)
    assert load_index(path).factorization == f


_SAVE_V = matrix_from_cells({0: {0: 1, 1: 2, 2: 3}, 1: {0: 2, 1: 4, 2: 6}, 2: {1: 5}})
_SAVE_F = factor_whole_rows(_SAVE_V)  # terms 0 and 1 share meta-term 0; term 2 is residual


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"memberships": (((0, 1),), ((0, 2),), ((1, 1),))}, "^W row 2 references meta-term 1 beyond 1$"),
        ({"residual": _SAVE_F.residual[:2]}, "^2 residual rows and 3 W rows for 3 terms$"),
        ({"memberships": _SAVE_F.memberships[:2]}, "^3 residual rows and 2 W rows for 3 terms$"),
        ({"residual": _SAVE_F.residual[:2] + (PostingList(2, (3,), (5,)),)},
         "^residual row 2 references doc 3 beyond num_docs=3$"),
        ({"metaterms": (MetaTerm(0, (0, 1, 3), (1, 2, 3)),)}, "^meta-term 0 references doc 3 beyond num_docs=3$"),
        ({"metaterms": (MetaTerm(1, (0, 1, 2), (1, 2, 3)),)}, "^meta-term at position 0 has id 1$"),
        ({"residual": _SAVE_F.residual[:2] + (PostingList(0, (1,), (5,)),)}, "^residual row 2 is of term 0$"),
    ],
    ids=["w-id-past-count", "short-residual", "short-memberships", "residual-doc-past-end",
         "metaterm-col-past-end", "metaterm-id-not-position", "residual-term-not-index"],
)
def test_save_rejects_what_would_not_load_back_equal(tmp_path, changes, message):
    # unchecked, each shape saves and then fails to load or loads different:
    # save_index must refuse it before it writes a byte
    assert _SAVE_F.metaterms == (MetaTerm(0, (0, 1, 2), (1, 2, 3)),)
    path = tmp_path / "f.idx"
    save_index(_SAVE_F, _SAVE_V.lexicon, CodecConfig(), path, _SAVE_V.doc_names)
    assert load_index(path).factorization == _SAVE_F
    path.unlink()
    with pytest.raises(ValidationError, match=message):
        save_index(replace(_SAVE_F, **changes), _SAVE_V.lexicon, CodecConfig(), path, _SAVE_V.doc_names)
    assert not path.exists()


def _assert_direct_plus_one_bit_per_term(V, f):
    assert all(n == 1 for n in _members(f).values())
    for cfg in ALL_CFGS:
        st_ = stats(V, f, cfg)
        assert st_.bytes_factored == st_.bytes_direct + -(-V.num_terms // 8)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_no_multirow_metaterm_costs_direct_plus_one_bit_per_term(V):
    """With no multi-row meta-term, H holds V's rows as they are and W one
    empty row per term, under every codec configuration."""
    f = factor_whole_rows(V)
    assume(all(n == 1 for n in _members(f).values()))
    _assert_direct_plus_one_bit_per_term(V, f)


@pytest.mark.parametrize("workload", ["zipf-text", "random-triples"])
def test_stage1_on_bench_inputs_costs_direct_plus_one_bit_per_term(tmp_path, workload):
    gen = bench_workloads().generate(workload, 1, tmp_path)
    V = (ingest_triples if gen.triples else ingest_tsv)(gen.corpus)
    _assert_direct_plus_one_bit_per_term(V, factor_whole_rows(V))


@pytest.mark.parametrize("cfg", CFGS)
def test_index_sections_sum_to_the_file(tmp_path, cfg):
    V, _ = planted_matrix(rng=random.Random(9))
    f = factor(V)
    path = tmp_path / "p.idx"
    save_index(f, V.lexicon, cfg, path, V.doc_names)
    sections = index_sections(path)
    assert list(sections) == ["header", "doc-table", "lexicon", "H-section", "W-section"]
    assert sum(sections.values()) == path.stat().st_size
    assert sections["header"] == _HEADER.size
    _, h, w, _ = encoded_section_parts(f, cfg)
    assert (sections["H-section"], sections["W-section"]) == (8 + len(h), 8 + len(w))


def test_index_sections_checks_the_header(tmp_path):
    data = _saved(tmp_path)
    off_w = _HEADER.unpack_from(data)[-1]
    path = tmp_path / "x.idx"
    for image, error, message in [
        (data[:10], FormatError, "^file too small to hold an index header$"),
        (b"NOPE" + data[4:], FormatError, "^bad magic b'NOPE'$"),
        (data[:4] + b"\x09" + data[5:], FormatError, "^unsupported version 9$"),
        (data[: off_w - 1], CorruptionError, "^section offsets out of bounds$"),
    ]:
        path.write_bytes(image)
        with pytest.raises(error, match=message):
            index_sections(path)
    path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))  # the CRC is left to load_index
    assert sum(index_sections(path).values()) == len(data)


@pytest.mark.parametrize("workload", ["zipf-text", "planted-triples", "random-triples"])
def test_name_tables_on_bench_inputs(tmp_path, workload):
    """Front coding then deflate on the seed-1 bench inputs' names, with no
    factoring: the triples inputs name docs and terms "0".."n-1", and
    zipf-text's terms are words in first-seen order."""
    gen = bench_workloads().generate(workload, 1, tmp_path)
    V = (ingest_triples if gen.triples else ingest_tsv)(gen.corpus)
    doc_table = len(_name_table(V.doc_names, "doc-table"))
    lexicon = len(_name_table(V.lexicon, "lexicon"))
    if gen.triples:
        assert doc_table + lexicon <= 1024
    else:
        words = [t.encode("utf-8") for t in V.lexicon]
        v4_lexicon = 8 + len(encode_vbytes(map(len, words))) + sum(map(len, words))  # a length vbyte per term, then the bytes
        assert lexicon <= 0.7 * v4_lexicon


_H_STARTS_AT = 9  # the header field where the H section's gap stream starts; its value stream's follows


def _with_h_lists(data, counts, gaps, values):
    """`data` with its H section's streams replaced by the gamma code words
    of `counts` (each list's count + 1), `gaps` and `values`, the stream
    starts set to match and the W section moved after them, re-signed."""
    fields = list(_HEADER.unpack_from(data))
    *_, off_h, off_w = fields
    streams = ["".join(map(gamma_encode, words)) for words in (counts, gaps, values)]
    bits = "".join(streams)
    bits += "0" * (-len(bits) % 8)
    h = int(bits, 2).to_bytes(len(bits) // 8, "big")
    fields[_H_STARTS_AT : _H_STARTS_AT + 2] = [len(streams[0]), len(streams[0]) + len(streams[1])]
    fields[-1] = off_h + 8 + len(h)
    data = bytearray(data[: off_h + 8] + h + data[off_w:])
    _HEADER.pack_into(data, 0, *fields)
    return data


@pytest.mark.parametrize(
    "term_1, error, message",
    [
        ((3, [2, 1], [1000, 997]), None, None),  # as saved
        ((2, [2, 1], [1000, 997]), CorruptionError, "^H list 1 does not end at the end of its gap stream$"),
        ((4, [2, 1], [1000, 997]), TruncationError, "^bit stream ended mid-value$"),
        ((3, [2, 3], [1000, 997]), CorruptionError, "^direct list of term 1 references doc beyond num_docs$"),
    ],
    ids=["as-saved", "count-one-short", "count-one-over", "doc-past-the-end"],
)
def test_direct_list_corruption(tmp_path, term_1, error, message):
    # no multi-row meta-term: the H section is the two terms' direct lists,
    # their gamma(count + 1), then their doc gaps, then their payloads
    V = matrix_from_cells({0: {0: 1000, 3: 999}, 1: {1: 1000, 2: 997}})
    f = factor(V)
    path = tmp_path / "d.idx"
    save_index(f, V.lexicon, CodecConfig("gamma", "gamma", "gamma"), path, V.doc_names)
    count, gaps, payloads = term_1
    data = _with_h_lists(path.read_bytes(), [3, count], [1, 3, *gaps], [1000, 999, *payloads])
    if error is None:
        assert data == path.read_bytes()
        return
    with pytest.raises(error, match=message):
        _load_resigned(tmp_path, data)
