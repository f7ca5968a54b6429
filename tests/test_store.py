import hashlib
import importlib.util
import random
import struct
import sys
from collections import Counter
from pathlib import Path

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
    load_index,
    matrix_from_cells,
    save_index,
    stats,
)
from mtix.codec import CODEC_NAMES, decode_lists, encode_lists, gamma_encode, unzip_pairs
from mtix.factorize import Factorization, MetaTerm
from mtix.store import _CRC_AT, _HEADER, _checksum, encoded_section_parts
from mtix.synth import planted_matrix, random_matrix

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


def test_corrupt_magic(tmp_path):
    data = _saved(tmp_path)
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"NOPE" + data[4:])
    with pytest.raises(FormatError):
        load_index(bad)


def test_unsupported_version(tmp_path):
    data = _saved(tmp_path)
    bad = tmp_path / "bad.idx"
    for version in (1, 2, 3, 99):
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
# all-same-codec config: format v4 must not move by a single byte.
PINNED_DIGESTS = {
    "gamma": "784de274c92de18667646b7156dfeaa44cb5cdd851ed43da75a316e98710a3d7",
    "delta": "3c44e434d25cfac3c6ab04a11d2f46ce0e43605b53eb4fa82068e8cd490e2ce3",
    "vbyte": "d91118b58700d89b4baa13faaf7715743e34623b3c9a355579d2cc441d763c5e",
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
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DIGESTS[codec]
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


FUZZ_CFGS = [CodecConfig(), CodecConfig("vbyte", "delta", "vbyte")]


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


def test_non_utf8_string_is_corruption(tmp_path):
    data = _saved(tmp_path)
    num_docs = _HEADER.unpack_from(data)[7]
    # doc table: u64 count, one single-byte length per name, then the names
    first_name = _HEADER.size + 8 + num_docs
    with pytest.raises(CorruptionError, match="string at byte .* is not UTF-8"):
        _load_resigned(tmp_path, data[:first_name] + b"\xff" + data[first_name + 1 :])


def test_string_lengths_past_section_are_corruption(tmp_path):
    data = bytearray(_saved(tmp_path))
    num_docs = _HEADER.unpack_from(data)[7]
    data[_HEADER.size + 8 + num_docs - 1] = 127  # the last doc name's length
    with pytest.raises(CorruptionError, match="^doc-table lengths run past its section$"):
        _load_resigned(tmp_path, data)


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
    data = bytearray(path.read_bytes())
    at = _HEADER.size + 8  # the doc table's one length, then its one name
    assert data[at : at + 2] == b"\x01d"
    data[at : at + 2] = b"\x80\x80"  # both bytes flag a next byte
    with pytest.raises(CorruptionError, match="^doc-table runs past its section$"):
        _load_resigned(tmp_path, data)
    data[at : at + 2] = b"\xff" * 10 + b"\x01d"  # an 11-byte vbyte length
    for offset in range(_HEADER.size - 24, _HEADER.size, 8):  # the sections after it move
        struct.pack_into("<Q", data, offset, struct.unpack_from("<Q", data, offset)[0] + 10)
    with pytest.raises(CorruptionError, match="^doc-table: vbyte value longer than 10 bytes$"):
        _load_resigned(tmp_path, data)


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


def test_v3_file_is_rejected(tmp_path):
    path = tmp_path / "v3.idx"
    path.write_bytes(V3_FILE)
    with pytest.raises(FormatError, match="^unsupported version 3$"):
        load_index(path)


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
    f = factor(V, FactorParams(min_cols=2, enable_stage2=stage2))
    path = tmp_path_factory.getbasetemp() / "dense.idx"
    save_index(f, V.lexicon, cfg, path, V.doc_names)
    assert load_index(path).factorization == f


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
    f = factor(V, FactorParams(enable_stage2=False))
    assume(all(n == 1 for n in _members(f).values()))
    _assert_direct_plus_one_bit_per_term(V, f)


def _bench_workloads():
    """perfbench's seeded workload generators, loaded from their file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["zipf-text", "random-triples"])
def test_stage1_on_bench_inputs_costs_direct_plus_one_bit_per_term(tmp_path, workload):
    gen = _bench_workloads().generate(workload, 1, tmp_path)
    V = (ingest_triples if gen.triples else ingest_tsv)(gen.corpus)
    _assert_direct_plus_one_bit_per_term(V, factor_whole_rows(V))


def _with_h_lists(data, words):
    """`data` with its H section's lists replaced by the gamma code words
    of `words`, the W section moved after them, re-signed."""
    *_, off_h, off_w = _HEADER.unpack_from(data)
    bits = "".join(map(gamma_encode, words))
    bits += "0" * (-len(bits) % 8)
    h = int(bits, 2).to_bytes(len(bits) // 8, "big")
    data = bytearray(data[: off_h + 8] + h + data[off_w:])
    struct.pack_into("<Q", data, _HEADER.size - 8, off_h + 8 + len(h))
    return data


@pytest.mark.parametrize(
    "term_1, error, message",
    [
        ([3, 2, 1, 1000, 997], None, None),  # as saved
        ([2, 2, 1, 1000, 997], CorruptionError, "^H list 1 does not end at the end of the section$"),
        ([4, 2, 1, 1000, 997], TruncationError, "^bit stream ended mid-value$"),
        ([3, 2, 3, 1000, 997], CorruptionError, "^direct list of term 1 references doc beyond num_docs$"),
    ],
    ids=["as-saved", "count-one-short", "count-one-over", "doc-past-the-end"],
)
def test_direct_list_corruption(tmp_path, term_1, error, message):
    # no multi-row meta-term: the H section is the two terms' direct lists,
    # each gamma(count + 1), the doc gaps, the payloads
    V = matrix_from_cells({0: {0: 1000, 3: 999}, 1: {1: 1000, 2: 997}})
    f = factor(V)
    path = tmp_path / "d.idx"
    save_index(f, V.lexicon, CodecConfig(), path, V.doc_names)
    data = _with_h_lists(path.read_bytes(), [3, 1, 3, 1000, 999] + term_1)
    if error is None:
        assert data == path.read_bytes()
        return
    with pytest.raises(error, match=message):
        _load_resigned(tmp_path, data)
