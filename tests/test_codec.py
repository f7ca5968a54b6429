import importlib.resources
import operator
import random
import time
import tracemalloc
from itertools import accumulate, product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import codec_reference as reference

from mtix import (
    CodecConfig,
    CorruptionError,
    MtixError,
    PostingList,
    TruncationError,
    ValidationError,
    delta_decode,
    delta_encode,
    gamma_decode,
    gamma_encode,
    vbyte_decode,
    vbyte_encode,
)
from mtix.codec import (
    CODEC_NAMES,
    MAX_VALUE,
    _RICE_TABLE_K,
    _TABLE_SIZE,
    _WINDOW_BYTES,
    _parse,
    _rice_format,
    _rice_values,
    code_bits,
    decode_lists,
    decode_vbytes,
    encode_lists,
    encode_streams,
    encode_vbytes,
    gap_lengths,
    list_bit_lengths,
    rice_k,
    unzip_pairs,
)


def _vector_rows():
    text = importlib.resources.files("mtix").joinpath("data/codec_vectors.tsv").read_text()
    return [line.split("\t") for line in text.splitlines() if line and not line.startswith("#")]


def load_vectors():
    """(value, codec, encoding) of the vbyte, gamma and delta vectors."""
    return [(int(value), codec, enc) for value, codec, enc in (row for row in _vector_rows() if row[1] != "rice")]


def load_rice_vectors():
    """(gap, k, bits) of the rice vectors."""
    return [(int(value), int(k), bits) for value, _, k, bits in (row for row in _vector_rows() if row[1] == "rice")]


VECTORS = load_vectors()
RICE_VECTORS = load_rice_vectors()


def test_vbyte_examples():
    assert vbyte_encode(0) == b"\x00"
    assert vbyte_encode(127) == b"\x7f"
    assert vbyte_encode(128) == b"\x80\x01"
    assert vbyte_encode(300) == b"\xac\x02"  # 300 = 44 + 2*128
    assert vbyte_decode(b"\x00") == (0, 1)
    assert vbyte_decode(b"\xac\x02") == (300, 2)


def test_gamma_examples():
    assert gamma_encode(1) == "1"
    assert gamma_encode(5) == "00101"
    assert gamma_encode(9) == "0001001"
    assert gamma_decode("00101") == (5, 5)


def test_delta_examples():
    assert delta_encode(1) == "1"
    assert delta_encode(5) == "01101"
    assert delta_encode(9) == "00100001"
    assert delta_decode("00100001") == (9, 8)


_WORD = {
    "gamma": gamma_encode,
    "delta": delta_encode,
    "vbyte": lambda x: "".join(format(b, "08b") for b in vbyte_encode(x)),
}


def _assert_parse_through_the_word_table(codec):
    # every value the table holds and as many past it, both sides of its
    # edge, the largest value, and windows that mix hits and misses
    word = _WORD[codec]
    values = [*range(1, 1 << 13), _TABLE_SIZE - 1, _TABLE_SIZE, MAX_VALUE]
    words = [word(x) for x in values]
    assert _parse(words, codec) == values
    mixed = [_TABLE_SIZE, 1, MAX_VALUE, _TABLE_SIZE - 1, 5000, 2, 2, 1 << 40, 300]
    assert _parse([word(x) for x in mixed], codec) == mixed
    assert _parse([word(x) for x in reversed(mixed)], codec) == mixed[::-1]
    assert _parse([], codec) == []
    # values in the table come back as its own objects
    again = _parse(words[255:_TABLE_SIZE - 1], codec)
    assert all(map(operator.is_, again, _parse(words[255:_TABLE_SIZE - 1], codec)))


def test_gamma_parse_through_the_word_table():
    _assert_parse_through_the_word_table("gamma")


@pytest.mark.parametrize("codec", ["delta", "vbyte"])
def test_parse_through_the_word_table(codec):
    _assert_parse_through_the_word_table(codec)


def test_zero_rejected_by_bit_codecs():
    with pytest.raises(ValidationError):
        gamma_encode(0)
    with pytest.raises(ValidationError):
        delta_encode(0)


@pytest.mark.parametrize("value,codec,encoded", VECTORS)
def test_conformance_vectors(value, codec, encoded):
    if codec == "vbyte":
        assert vbyte_encode(value).hex() == encoded
        assert vbyte_decode(bytes.fromhex(encoded)) == (value, len(encoded) // 2)
    elif codec == "gamma":
        assert gamma_encode(value) == encoded
        assert gamma_decode(encoded) == (value, len(encoded))
    else:
        assert delta_encode(value) == encoded
        assert delta_decode(encoded) == (value, len(encoded))


@pytest.mark.parametrize("value,codec,encoded", VECTORS)
def test_stream_codecs_match_string_codecs(value, codec, encoded):
    # the reference bitstream codecs must agree bit-for-bit with the frozen
    # vectors, so the differential test below compares against honest codes
    w = reference.BitWriter()
    reference.put_value(w, value, codec)
    if codec == "vbyte":
        assert w.getvalue().hex() == encoded
        assert w.bit_length == 4 * len(encoded)
    else:
        bits = "".join(format(b, "08b") for b in w.getvalue())[: w.bit_length]
        assert bits == encoded
    r = reference.BitReader(w.getvalue(), w.bit_length)
    assert reference.get_value(r, codec) == value
    assert r.pos == w.bit_length


def test_small_exhaustive_round_trips():
    for x in range(2048):
        assert vbyte_decode(vbyte_encode(x))[0] == x
    for x in range(1, 2048):
        assert gamma_decode(gamma_encode(x))[0] == x
        assert delta_decode(delta_encode(x))[0] == x


@given(st.integers(0, (1 << 64) - 1))
def test_vbyte_round_trip_random(x):
    data = vbyte_encode(x)
    assert vbyte_decode(data) == (x, len(data))


@given(st.integers(1, (1 << 64) - 1))
def test_gamma_delta_round_trip_random(x):
    assert gamma_decode(gamma_encode(x)) == (x, len(gamma_encode(x)))
    assert delta_decode(delta_encode(x)) == (x, len(delta_encode(x)))


@given(st.integers(1, (1 << 64) - 1))
def test_code_length_laws(x):
    n = x.bit_length() - 1  # floor(log2 x)
    assert len(gamma_encode(x)) == 2 * n + 1
    assert len(delta_encode(x)) == n + 2 * ((n + 1).bit_length() - 1) + 1


def test_vbyte_decode_errors():
    with pytest.raises(TruncationError):
        vbyte_decode(b"\x80\x80")
    with pytest.raises(CorruptionError):
        vbyte_decode(b"\xff" * 10 + b"\x01")
    with pytest.raises(CorruptionError):
        vbyte_decode(b"\x80" * 9 + b"\x7f")  # 10 bytes but > 2^64


# the values of one vbyte table: all of one byte (decode_vbytes' fast path)
# or any 64-bit values (its loop)
VBYTE_TABLES = st.lists(st.integers(0, 0x7F)) | st.lists(st.integers(0, MAX_VALUE))


@given(VBYTE_TABLES, st.binary(max_size=3), st.binary(max_size=3))
@example([], b"", b"")
@example([0, 127, 5], b"\x80", b"\xff")
@example([300, 1, MAX_VALUE], b"", b"")
def test_vbyte_pair_is_the_scalar_codec_in_bulk(xs, before, after):
    data = encode_vbytes(xs)
    assert data == b"".join(map(vbyte_encode, xs))
    values, end = decode_vbytes(before + data + after, len(xs), len(before))
    assert list(values) == xs and end == len(before) + len(data)
    assert isinstance(values, bytes) == all(x <= 0x7F for x in xs)  # the fast path returns the bytes


def _outcome(decode, data, offset):
    """decode(data, offset), or the type and message of the MtixError it raises."""
    try:
        return decode(data, offset)
    except MtixError as exc:
        return type(exc), str(exc)


# bytes rich in the edges: 0, 1, 2 and 127 end a value, 128 and 255 flag a next byte
VBYTE_BYTES = st.lists(st.sampled_from([0x00, 0x01, 0x02, 0x7F, 0x80, 0xFF]) | st.integers(0, 0xFF), max_size=13)


@given(VBYTE_BYTES.map(bytes), st.integers(0, 2))
@example(b"\x80\x80", 0)  # truncated
@example(b"\x80" * 10, 0)  # ten bytes that each flag a next byte, and no next byte
@example(b"\xff" * 10 + b"\x01", 0)  # an 11-byte value
@example(b"\x00" + b"\x80" * 9 + b"\x02", 1)  # 2^64, a 65-bit value
def test_vbyte_decode_errors_match_the_reference(data, offset):
    assert _outcome(vbyte_decode, data, offset) == _outcome(reference.vbyte_decode, data, offset)


def test_gamma_decode_errors():
    with pytest.raises(TruncationError):
        gamma_decode("000")
    with pytest.raises(TruncationError):
        gamma_decode("0011")  # body shorter than prefix promises
    with pytest.raises(CorruptionError):
        gamma_decode("0" * 80 + "1" + "0" * 80)


def test_delta_decode_errors():
    with pytest.raises(TruncationError):
        delta_decode("0010")  # gamma(4) promises 3 more bits
    with pytest.raises(CorruptionError):
        delta_decode("0" * 7 + "1" + "0" * 200)  # bit length >= 128


@given(st.integers(0, (1 << 64) - 1))
def test_code_bits_match_code_words(x):
    assert code_bits([x], "vbyte") == 8 * len(vbyte_encode(x))
    if x:
        assert code_bits([x], "gamma") == len(gamma_encode(x))
        assert code_bits([x], "delta") == len(delta_encode(x))


def test_sizing_rejects_values_past_64_bits():
    for codec in CODEC_NAMES:
        assert code_bits([MAX_VALUE], codec) > 0
        with pytest.raises(ValidationError):
            code_bits([MAX_VALUE + 1], codec)
        with pytest.raises(ValidationError):
            list_bit_lengths([((0, 1), (1, MAX_VALUE + 1))], "gamma", codec)
        with pytest.raises(ValidationError):
            list_bit_lengths([((0, MAX_VALUE + 1), (1, 1))], codec, "gamma")


# the doc universe of the posting lists below (rice codes against it)
DOCS = 501


def encode_posting_list(pl: PostingList, cfg: CodecConfig) -> bytes:
    """One posting list, coded as the only list of a section."""
    blob, _ = encode_lists([(pl.docs, pl.payloads)], cfg.doc_gap, cfg.payload, DOCS)
    return blob


def decode_posting_list(data: bytes, cfg: CodecConfig, term: int = 0) -> PostingList:
    """The one list of a section; the pad bits after it are not checked."""
    ((docs, payloads),) = decode_lists(data, 1, cfg.doc_gap, cfg.payload, "posting list", universe=DOCS)
    return PostingList._from_columns(term, docs, payloads)


def test_encode_posting_list_empty_is_single_gamma_one():
    cfg = CodecConfig("gamma", "gamma", "gamma")
    assert encode_posting_list(PostingList(0, (), ()), cfg) == b"\x80"  # "1" padded
    assert decode_posting_list(b"\x80", cfg).postings == ()


def test_encode_posting_list_matches_hand_layout():
    # docs [0,3,4] payloads [2,1,5]: gaps are [1,3,1]
    cfg = CodecConfig("gamma", "gamma", "gamma")
    pl = PostingList.from_pairs(7, [(0, 2), (3, 1), (4, 5)])
    expected_bits = (
        gamma_encode(4)  # count+1
        + gamma_encode(1) + gamma_encode(3) + gamma_encode(1)  # gaps
        + gamma_encode(2) + gamma_encode(1) + gamma_encode(5)  # payloads
    )
    blob = encode_posting_list(pl, cfg)
    got_bits = "".join(format(b, "08b") for b in blob)[: len(expected_bits)]
    assert got_bits == expected_bits
    assert decode_posting_list(blob, cfg, term=7) == pl


posting_lists = st.lists(
    st.tuples(st.integers(0, DOCS - 1), st.integers(1, 1 << 20)), max_size=30, unique_by=lambda p: p[0]
).map(lambda pairs: tuple(sorted(pairs)))
configs = st.builds(
    CodecConfig,
    st.sampled_from(["vbyte", "gamma", "delta", "rice"]),
    st.sampled_from(["vbyte", "gamma", "delta"]),
)


@given(posting_lists, configs)
def test_posting_list_round_trip(pairs, cfg):
    pl = PostingList.from_pairs(0, pairs)
    assert decode_posting_list(encode_posting_list(pl, cfg), cfg).postings == pl.postings


@given(st.lists(posting_lists, max_size=6), configs)
def test_concatenated_lists_are_prefix_free(lists, cfg):
    blob, offsets = encode_lists(map(unzip_pairs, lists), cfg.doc_gap, cfg.payload, DOCS)
    # each list starts where the one before it ends, with no separator
    lengths = list_bit_lengths(map(unzip_pairs, lists), cfg.doc_gap, cfg.payload, DOCS)
    assert offsets == list(accumulate(lengths, initial=0))[:-1]
    head = decode_vbytes(blob, rice_k(1, DOCS) + 1)[1] if cfg.doc_gap == "rice" else 0
    assert len(blob) - head == -(-sum(lengths) // 8)
    decoded = decode_lists(blob, len(offsets), cfg.doc_gap, cfg.payload, universe=DOCS)
    assert [tuple(zip(keys, values)) for keys, values in decoded] == lists


def test_bit_flip_fuzz_never_returns_invalid_structure():
    rng = random.Random(2024)
    cfg = CodecConfig("gamma", "vbyte", "gamma")
    pairs = tuple((d * 3, rng.randint(1, 50)) for d in range(12))
    blob = bytearray(encode_posting_list(PostingList.from_pairs(0, pairs), cfg))
    for _ in range(3000):
        i = rng.randrange(len(blob) * 8)
        blob[i // 8] ^= 1 << (7 - i % 8)
        try:
            decoded = decode_posting_list(bytes(blob), cfg)
        except MtixError:
            pass
        else:
            # success is allowed, but only with a structurally valid list
            # no longer than its declared count
            assert len(decoded.postings) <= len(pairs) * 8
            prev = -1
            for d, p in decoded.postings:
                assert d > prev and p >= 1
                prev = d
        blob[i // 8] ^= 1 << (7 - i % 8)


@given(st.lists(posting_lists, min_size=1, max_size=6), configs)
def test_decode_lists_round_trip(lists, cfg):
    blob, offsets = encode_lists(map(unzip_pairs, lists), cfg.doc_gap, cfg.payload, DOCS)
    decoded = decode_lists(blob, len(offsets), cfg.doc_gap, cfg.payload, universe=DOCS)
    assert [tuple(zip(keys, values)) for keys, values in decoded] == lists


# A word no codec reads: 128 zeros start no gamma or delta word, and eleven
# bytes that each flag a next byte start no vbyte word.
_JUNK_BITS = {"gamma": "0" * 128, "delta": "0" * 128, "vbyte": "1" * 88}


@pytest.mark.parametrize("gap_codec,val_codec", list(product(CODEC_NAMES, repeat=2)))
def test_decode_lists_corruption_raises_mtix_error(gap_codec, val_codec):
    # three lists, then empty lists, so that junk in the second list's
    # count is followed by far more words than any one code word has bits
    lists = [([0, 5], [3, 1]), ([2], [7]), ([1, 4, 9], [1, 1, 2])] + [([], [])] * 300
    count = len(lists)
    blob, (gap_at, val_at), _ = encode_streams(lists, gap_codec, val_codec)
    bits = _bits_of(blob)
    end = sum(list_bit_lengths(lists, gap_codec, val_codec))
    for starts in (None, (gap_at, val_at)):
        assert list(decode_lists(blob, count, gap_codec, val_codec, starts=starts)) == lists
    heads = len(gamma_encode(3) + gamma_encode(2) + gamma_encode(4))
    with pytest.raises(MtixError):  # cut off after the third list's count
        list(decode_lists(_bytes_of(bits[:heads]), count, gap_codec, val_codec))
    with pytest.raises(MtixError):  # cut off in the first list's values
        list(decode_lists(_bytes_of(bits[: val_at + 1]), count, gap_codec, val_codec, starts=(gap_at, val_at)))
    with pytest.raises(TruncationError, match="^bit stream ended mid-value$"):  # one list more than present
        list(decode_lists(blob, count + 1, gap_codec, val_codec, starts=(gap_at, val_at)))
    # junk where the second list's count, first gap or first value starts;
    # the streams after it start that much later
    first_gap = gap_at + code_bits([1, 5], gap_codec)
    first_value = val_at + code_bits([3, 1], val_codec)
    for at, codec, later in ((len(gamma_encode(3)), "gamma", (1, 1)), (first_gap, gap_codec, (0, 1)), (first_value, val_codec, (0, 0))):
        junk = _JUNK_BITS[codec]
        starts = (gap_at + later[0] * len(junk), val_at + later[1] * len(junk))
        data = _bytes_of(bits[:at] + junk + bits[at:end])
        with pytest.raises(CorruptionError, match=f"^no {codec} code word at bit {at}$"):
            list(decode_lists(data, count, gap_codec, val_codec, starts=starts))
        if codec == "gamma":  # found by reading the counts as well
            with pytest.raises(CorruptionError, match=f"^no gamma code word at bit {at}$"):
                list(decode_lists(data, count, gap_codec, val_codec))
    # each stream must end where the next starts, the last in the final byte
    with pytest.raises(CorruptionError, match=f"^list {count - 1} does not end at the end of the section$"):
        list(decode_lists(blob + b"\x00", count, gap_codec, val_codec))
    with pytest.raises(CorruptionError, match=f"^list {count - 2} does not end at the end of its count stream$"):
        list(decode_lists(blob, count - 1, gap_codec, val_codec, starts=(gap_at, val_at)))
    gaps = _WORD[gap_codec](1) + _WORD[gap_codec](5)  # two gaps for a list of one
    data = _bytes_of(gamma_encode(2) + gaps + _WORD[val_codec](3))
    with pytest.raises(CorruptionError, match="^list 0 does not end at the end of its gap stream$"):
        list(decode_lists(data, 1, gap_codec, val_codec, starts=(3, 3 + len(gaps))))
    for starts in ((val_at, gap_at), (gap_at, 8 * len(blob) + 1), (-1, val_at)):
        with pytest.raises(CorruptionError, match="^list streams start out of bounds$"):
            list(decode_lists(blob, count, gap_codec, val_codec, starts=starts))


def test_truncated_posting_list_stream():
    cfg = CodecConfig("gamma", "gamma", "gamma")
    blob = encode_posting_list(PostingList.from_pairs(0, [(0, 2), (9, 13)]), cfg)
    with pytest.raises(TruncationError):
        decode_posting_list(blob[:1], cfg)


def test_posting_list_with_trailing_bytes_is_corruption():
    cfg = CodecConfig("gamma", "vbyte", "gamma")
    blob = encode_posting_list(PostingList.from_pairs(0, [(0, 2), (9, 13)]), cfg)
    # the list must end in the blob's final byte, as every list in an index must
    with pytest.raises(CorruptionError):
        decode_posting_list(blob + b"\x00\x00\xff", cfg)
    with pytest.raises(CorruptionError):
        decode_posting_list(blob + b"\x00", cfg)


def test_list_end_corruption_messages():
    # The lists are read in sequence, so only the last one has an end to
    # check: the end of the section, or its start when there are no lists.
    lists = [((0, 5), (3, 1)), ((2,), (7,)), ((1, 4, 9), (1, 1, 2))]
    blob, offsets = encode_lists(lists, "gamma", "gamma")
    with pytest.raises(CorruptionError, match=r"^W row 2 does not end at the end of the section$"):
        list(decode_lists(blob + b"\x00", len(offsets), "gamma", "gamma", "W row"))
    with pytest.raises(CorruptionError, match=r"^W row section holds 8 bits but no W row$"):
        list(decode_lists(b"\x00", 0, "gamma", "gamma", "W row"))
    cfg = CodecConfig("gamma", "vbyte", "gamma")
    one = encode_posting_list(PostingList.from_pairs(0, [(0, 2), (9, 13)]), cfg)
    with pytest.raises(CorruptionError, match=r"^posting list 0 does not end at the end of the section$"):
        decode_posting_list(one + b"\x00\x00\xff", cfg)


def _bytes_of(bits: str) -> bytes:
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


def _bits_of(data: bytes) -> str:
    return "".join(format(b, "08b") for b in data)


def test_zero_gap_is_corruption():
    vbyte = [format(b, "08b") for b in b"".join(map(vbyte_encode, [1, 0, 5, 5]))]
    # count 2, doc 0, then a zero gap: impossible in a valid stream
    blob = _bytes_of(gamma_encode(3) + "".join(vbyte))
    with pytest.raises(CorruptionError):
        list(decode_lists(blob, 1, "vbyte", "vbyte"))


def _vbyte_word(groups):
    """The vbyte word of 7-bit `groups`, least significant first."""
    return bytes([g | 0x80 for g in groups[:-1]] + [groups[-1]])


# 1- to 10-byte words, canonical or with zero high groups, up to 70 bits;
# never 0, which a list rejects as a gap or a value
_vbyte_groups = st.lists(st.integers(0, 0x7F), min_size=1, max_size=10).filter(any)


@settings(max_examples=200, deadline=None)
@given(st.lists(_vbyte_groups, min_size=2, max_size=30))
@example([[0x7F] * 10, [1]])
@example([[1, 0, 0, 0, 0, 0, 0, 0, 0, 1], [5] * 10])
def test_vbyte_runs_match_reference(words):
    """A vbyte/vbyte list of words of every length decodes as the reference
    reads it one word at a time, or fails with the same message."""
    words = words[: len(words) // 2 * 2]
    w = reference.BitWriter()
    reference.put_value(w, len(words) // 2 + 1, "gamma")
    for byte in b"".join(map(_vbyte_word, words)):
        w.write_bits(byte, 8)
    blob = w.getvalue()
    try:
        expected = reference.read_lists(blob, 1, "vbyte", "vbyte")[0]
    except CorruptionError as exc:
        with pytest.raises(CorruptionError, match=f"^{exc}$"):
            list(decode_lists(blob, 1, "vbyte", "vbyte"))
    else:
        assert list(decode_lists(blob, 1, "vbyte", "vbyte")) == expected


def test_vbyte_value_past_64_bits_is_corruption():
    # 2^64, the smallest 65-bit value, as a gap after a one-byte one
    words = b"\x01" + _vbyte_word([0] * 9 + [2]) + b"\x01\x01"
    blob = _bytes_of(gamma_encode(3) + "".join(format(b, "08b") for b in words))
    with pytest.raises(CorruptionError, match="^vbyte value exceeds 64 bits$"):
        list(decode_lists(blob, 1, "vbyte", "vbyte"))


def test_bitwriter_value_width_guard():
    w = reference.BitWriter()
    with pytest.raises(ValidationError):
        w.write_bits(4, 2)


def _list_from_gaps(pairs):
    """The (keys, values) list whose key gaps and values are `pairs`."""
    pairs = list(pairs)
    return list(accumulate([g for g, _ in pairs], initial=-1))[1:], [v for _, v in pairs]


def _list_values(top):
    edges = [x for x in (1, 2, _TABLE_SIZE - 1, _TABLE_SIZE, _TABLE_SIZE + 1, MAX_VALUE - 1, MAX_VALUE) if x <= top]
    return st.one_of(st.sampled_from(edges), st.integers(1, top))


# A list takes its code words from the small-value table when all its gaps
# (or values) are below _TABLE_SIZE, so each side of a list draws below it or
# anywhere up to 64 bits.
_list_sides = st.sampled_from([_TABLE_SIZE - 1, MAX_VALUE])
kernel_lists = st.tuples(_list_sides, _list_sides).flatmap(
    lambda tops: st.lists(st.tuples(_list_values(tops[0]), _list_values(tops[1])), max_size=8)
).map(_list_from_gaps)

# Every small-value table word, and the smallest and largest value of every
# bit length, as gaps and as values.
_TABLE_LIST = _list_from_gaps(zip(range(1, _TABLE_SIZE), range(_TABLE_SIZE - 1, 0, -1)))
_WIDTHS = [x for b in range(64) for x in (1 << b, (2 << b) - 1)]
_WIDTHS_LIST = _list_from_gaps(zip(_WIDTHS, reversed(_WIDTHS)))


@pytest.mark.parametrize("gap_codec,val_codec", list(product(CODEC_NAMES, repeat=2)))
@given(st.lists(kernel_lists, max_size=5))
@example([_TABLE_LIST, _WIDTHS_LIST])
def test_list_kernels_match_reference(gap_codec, val_codec, lists):
    encoded = encode_streams(lists, gap_codec, val_codec)
    assert encoded == reference.write_lists(lists, gap_codec, val_codec)
    blob, starts, offsets = encoded
    assert encode_lists(lists, gap_codec, val_codec) == (blob, offsets)
    decoded = list(decode_lists(blob, len(offsets), gap_codec, val_codec, starts=starts))
    assert list(decode_lists(blob, len(offsets), gap_codec, val_codec)) == decoded
    assert reference.read_lists(blob, len(lists), gap_codec, val_codec) == (decoded, starts, offsets)
    assert decoded == lists


# Window edges fall every 8 * _WINDOW_BYTES bits from the start of each stream.
_EDGE = 8 * _WINDOW_BYTES
_PAIRS = list(product(CODEC_NAMES, repeat=2))
_STREAMS = ("count", "gap", "value")


def _stream_bits(lists, gap_codec, val_codec):
    """The bits of the lists' words in each stream: counts, gaps, values."""
    gaps = [k - p for keys, _ in lists for p, k in zip([-1, *keys], keys)]
    return (
        code_bits([len(keys) + 1 for keys, _ in lists], "gamma"),
        code_bits(gaps, gap_codec),
        code_bits([v for _, values in lists for v in values], val_codec),
    )


def _fill(nbits, stream, gap_codec, val_codec):
    """Lists whose words in `stream` come to `nbits` bits (less than a
    byte short under vbyte): empty lists, one count bit each, or lists of
    one posting whose gaps (values) are 64-bit words and then 1s."""
    if stream == "count":
        return [([], [])] * nbits
    codec = gap_codec if stream == "gap" else val_codec
    wide, one = code_bits([MAX_VALUE], codec), code_bits([1], codec)
    words = [MAX_VALUE] * (nbits // wide) + [1] * (nbits % wide // one)
    return [([x - 1], [1]) if stream == "gap" else ([0], [x]) for x in words]


def _assert_decodes(lists, gap_codec, val_codec):
    blob, starts, offsets = encode_streams(lists, gap_codec, val_codec)
    for given in (starts, None):
        assert list(decode_lists(blob, len(offsets), gap_codec, val_codec, starts=given)) == lists


@pytest.mark.parametrize("gap_codec,val_codec", _PAIRS)
def test_decode_lists_across_window_edges(gap_codec, val_codec):
    rng = random.Random(12)
    long_list = _list_from_gaps((rng.randint(1, 1 << 20), rng.randint(1, 1 << 20)) for _ in range(3000))
    # lists longer than a window of gaps and of values, among more empty
    # lists than a window of counts holds
    lists = [([], [])] * _EDGE + [long_list, ([], []), long_list, ([], [])]
    assert min(_stream_bits(lists, gap_codec, val_codec)) > _EDGE
    assert min(_stream_bits([long_list], gap_codec, val_codec)[1:]) > 2 * _EDGE
    _assert_decodes(lists, gap_codec, val_codec)
    # in each stream, lists that end exactly at its first window edge, then lists after them
    for i, stream in enumerate(_STREAMS):
        filler = _fill(_EDGE, stream, gap_codec, val_codec)
        assert _stream_bits(filler, gap_codec, val_codec)[i] == _EDGE
        _assert_decodes(filler + [([], []), ([3], [5]), long_list], gap_codec, val_codec)
    # no lists at all
    assert list(decode_lists(b"", 0, gap_codec, val_codec)) == []
    assert list(decode_lists(b"", 0, gap_codec, val_codec, starts=(0, 0))) == []


@pytest.mark.parametrize("gap_codec,val_codec", _PAIRS)
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 120), st.integers(1, MAX_VALUE), st.integers(MAX_VALUE >> 1, MAX_VALUE))
def test_decode_lists_word_straddles_window_edge(gap_codec, val_codec, before, gap, value):
    # in the gap stream, then in the value stream, a list whose words there
    # start about `before` bits ahead of the stream's edge, all but its
    # first gap 64-bit: some word of it straddles the edge
    last = ([gap - 1, gap - 1 + MAX_VALUE, gap - 1 + 2 * MAX_VALUE], [value] * 3)
    for i, stream in enumerate(_STREAMS[1:], 1):
        filler = _fill(_EDGE - before, stream, gap_codec, val_codec)
        _assert_decodes(filler + [last, ([0], [1])], gap_codec, val_codec)
        at, end = (_stream_bits(lists, gap_codec, val_codec)[i] for lists in (filler, filler + [last]))
        assert at <= _EDGE < end


@pytest.mark.parametrize("gap_codec,val_codec", _PAIRS)
@pytest.mark.parametrize("before", [0, 1, 12, 22])
def test_decode_lists_count_straddles_window_edge(gap_codec, val_codec, before):
    # the 23-bit count of a list of 3000 postings, `before` bits ahead of
    # the counts' edge
    filler = _fill(_EDGE - before, "count", gap_codec, val_codec)
    last = _list_from_gaps([(1, 1)] * 3000)
    _assert_decodes(filler + [last, ([0], [1])], gap_codec, val_codec)
    assert len(gamma_encode(3001)) == 23


@pytest.mark.parametrize("gap_codec,val_codec", [("gamma", "gamma"), ("delta", "delta"), ("delta", "gamma")])
def test_decode_lists_holds_a_bounded_window(gap_codec, val_codec):
    # a section of 4 MB or more: eight copies of one list code to a whole
    # number of bytes in each stream, so the section is each stream's bytes
    # repeated, and nothing big has to be encoded; wide words keep the word
    # count, and so the test's time, down
    rng = random.Random(5)
    one = _list_from_gaps((rng.randint(1, 1 << 60), rng.randint(1, 1 << 60)) for _ in range(200))
    lists = [one] * 8
    chunk, (gap_at, val_at), _ = encode_streams(lists, gap_codec, val_codec)
    assert gap_at % 8 == val_at % 8 == 0 and 8 * len(chunk) == sum(_stream_bits(lists, gap_codec, val_codec))
    copies = -(-(4 << 20) // len(chunk))
    parts = (chunk[: gap_at // 8], chunk[gap_at // 8 : val_at // 8], chunk[val_at // 8 :])
    blob = b"".join(part * copies for part in parts)
    for starts in ((gap_at * copies, val_at * copies), None):
        tracemalloc.start()
        try:
            decoded = 0
            for keys, values in decode_lists(blob, len(lists) * copies, gap_codec, val_codec, starts=starts):
                decoded += len(keys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decoded == copies * sum(len(keys) for keys, _ in lists)
        assert peak < 1 << 20


@pytest.mark.parametrize("gap_codec,val_codec", [("gamma", "gamma"), ("delta", "delta")])
def test_count_past_the_bits_left_fails_before_reading_on(gap_codec, val_codec):
    # a list that claims 2^40 postings, followed by 2^19 one-bit words: the
    # count alone shows that the blob cannot hold the list
    blob = _bytes_of(gamma_encode((1 << 40) + 1) + "1" * (1 << 19))
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match="^bit stream ended mid-value$"):
            list(decode_lists(blob, 1, gap_codec, val_codec))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# rice doc gaps


@pytest.mark.parametrize("gap,k,bits", RICE_VECTORS)
def test_rice_conformance_vectors(gap, k, bits):
    # the kernel's words and parse, and the bit-by-bit reference, against
    # the frozen words: k = 0, long quotients and 64-bit gaps among them
    assert _rice_format([gap], k) == [bits]
    assert _parse([bits], "rice", k) == [gap]
    w = reference.BitWriter()
    reference.put_rice(w, gap, k)
    assert "".join(format(b, "08b") for b in w.getvalue())[: w.bit_length] == bits
    r = reference.BitReader(w.getvalue(), w.bit_length)
    assert reference.get_rice(r, k) == gap and r.pos == len(bits)


@given(st.integers(1, MAX_VALUE), st.integers(0, 63))
@example(1, 0)
@example(MAX_VALUE, 63)
def test_rice_length_law(gap, k):
    assume((gap - 1) >> k < 1 << 12)  # the word's zeros stay few
    (word,) = _rice_format([gap], k)
    assert len(word) == ((gap - 1) >> k) + 1 + k
    assert _parse([word], "rice", k) == [gap]


def test_gap_lengths_are_the_words_lengths():
    # the dissolve pass's tables of gap code lengths, by the gap
    for top in (1, 2, 7, 300):
        for k in range(5):
            lengths = gap_lengths("rice", top, k)
            assert lengths[1 : top + 1] == [len(word) for word in _rice_format(range(1, top + 1), k)]
        for codec in CODEC_NAMES:
            assert gap_lengths(codec, top)[1 : top + 1] == [code_bits([g], codec) for g in range(1, top + 1)]


def test_rice_k_is_the_reference_rule():
    for universe in [*range(0, 300), 1000, 20000, 1 << 40, MAX_VALUE]:
        ns = range(1, min(universe, 300) + 1)
        ks = [rice_k(n, universe) for n in ns]
        assert ks == [reference.rice_k(n, universe) for n in ns]
        assert ks == sorted(ks, reverse=True)  # it falls as a list gets denser
    assert rice_k(1, 20000) == 13 and rice_k(100, 20000) == 7 and rice_k(10000, 20000) == 0


def test_rice_parse_through_the_word_table():
    # tables for k up to _RICE_TABLE_K, the words of 8 quotients each; the
    # misses past them, and every k past the tables, by int(word, 2)
    for k in (0, 1, 5, _RICE_TABLE_K, _RICE_TABLE_K + 1, 20):
        gaps = [*range(1, (9 << k) + 2, max(1, (1 << k) >> 4)), 1 << (k + 6), 1 << (k + 12)]
        assert _parse(_rice_format(gaps, k), "rice", k) == gaps
    again = _rice_format(range(256, 1024), 8)
    assert all(map(operator.is_, _parse(again, "rice", 8), _parse(again, "rice", 8)))


def test_rice_decode_tables_hold_fewer_words_than_one_delta_table():
    # loading a default index builds rice tables, not the delta table they
    # replace: all of them together hold fewer words than that one did
    sizes = [len(_rice_values(k)) for k in range(65)]
    assert sum(sizes) <= _TABLE_SIZE - 1
    assert sizes[: _RICE_TABLE_K + 1] == [8 << k for k in range(_RICE_TABLE_K + 1)] and not any(sizes[_RICE_TABLE_K + 1 :])


@st.composite
def rice_sections(draw):
    """A universe and (keys, values) lists of keys below it: dense and
    sparse lists, so that several rice parameters share a section."""
    universe = draw(st.one_of(st.integers(0, 40), st.integers(1, 5000), st.sampled_from([1 << 40, MAX_VALUE])))
    lists = []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.integers(0, min(universe, 60)))
        keys = sorted(draw(st.sets(st.integers(0, universe - 1), min_size=n, max_size=n))) if n else []
        lists.append((keys, draw(st.lists(_list_values(MAX_VALUE), min_size=n, max_size=n))))
    return universe, lists


@settings(max_examples=150, deadline=None)
@given(rice_sections(), st.sampled_from(CODEC_NAMES))
@example((1000, [([*range(0, 600, 2)], [1] * 300), ([999], [5]), ([], []), ([0, 998], [2, 3])]), "gamma")
@example((MAX_VALUE, [([0, MAX_VALUE - 1], [MAX_VALUE, 1])]), "delta")
def test_rice_kernels_match_reference(section, val_codec):
    universe, lists = section
    encoded = encode_streams(lists, "rice", val_codec, universe)
    assert encoded == reference.write_lists(lists, "rice", val_codec, universe)
    blob, starts, offsets = encoded
    assert encode_lists(lists, "rice", val_codec, universe) == (blob, offsets)
    lengths = list_bit_lengths(lists, "rice", val_codec, universe)
    assert offsets == list(accumulate(lengths, initial=0))[:-1]
    head = decode_vbytes(blob, rice_k(1, universe) + 1)[1]
    assert len(blob) - head == -(-sum(lengths) // 8)  # the table, then the lists' bits
    decoded = list(decode_lists(blob, len(lists), "rice", val_codec, starts=starts, universe=universe))
    assert list(decode_lists(blob, len(lists), "rice", val_codec, universe=universe)) == decoded
    assert reference.read_lists(blob, len(lists), "rice", val_codec, universe) == (decoded, starts, offsets)
    assert decoded == [(list(keys), list(values)) for keys, values in lists]


def _rice_blob(gaps, n, universe, tail=""):
    """A one-list section: count n, then `gaps` (a '0'/'1' string) as the
    gap stream of the list's k, then `tail` as its values."""
    lengths = [0] * (rice_k(1, universe) + 1)
    lengths[rice_k(n, universe)] = len(gaps)
    return encode_vbytes(lengths) + _bytes_of(gamma_encode(n + 1) + gaps + tail)


@pytest.mark.parametrize("universe,n", [(1000, 500), (1000, 3), (1 << 40, 1 << 16), (MAX_VALUE, 1)])
def test_rice_quotient_past_the_universe_is_corruption(universe, n):
    # A gap is at most the universe, so a word's quotient is at most
    # (universe - 1) >> k, which a run of zeros longer than a window can
    # reach: one zero more fails at once, holding about that run and no
    # more; exactly that many decode.
    k = rice_k(n, universe)
    top = (universe - 1) >> k
    for zeros in (top + 1, (universe >> k) + 1, top + 2):
        blob = _rice_blob("0" * zeros + "1" + "0" * k, n, universe)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(CorruptionError, match="^no rice code word at bit "):
                list(decode_lists(blob, 1, "rice", "gamma", universe=universe))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 2
        assert peak < 4 * (zeros + 8 * _WINDOW_BYTES) + (1 << 20)
    gaps = "0" * top + "1" + "0" * k + ("1" + "0" * k) * (n - 1)  # key0 = top << k, then gaps of 1
    blob = _rice_blob(gaps, n, universe, "1" * n)
    if (top << k) + n <= universe:
        ((keys, _),) = decode_lists(blob, 1, "rice", "gamma", universe=universe)
        assert keys == [*range(top << k, (top << k) + n)]
    else:  # the list's later keys pass the universe
        with pytest.raises(CorruptionError, match=f"^list 0 has a key past its universe of {universe}$"):
            list(decode_lists(blob, 1, "rice", "gamma", universe=universe))


def test_rice_word_longer_than_a_window():
    # k = 0 over a universe past a window's bits: one gap whose word is
    # longer than a window, then gaps of 1 across its end
    universe = 40000
    n = 20000
    assert rice_k(n, universe) == 0 and universe - n > 8 * _WINDOW_BYTES
    keys = [*range(n - 1), universe - 1]
    lists = [(keys, [1] * n), ([universe - n], [7])]
    blob, starts, _ = encode_streams(lists, "rice", "gamma", universe)
    for given in (starts, None):
        assert list(decode_lists(blob, 2, "rice", "gamma", starts=given, universe=universe)) == lists
    with pytest.raises(TruncationError, match="^bit stream ended mid-value$"):  # a gap stream that ends in a long word
        list(decode_lists(_rice_blob("0" * 30000, n, universe, "1" * n), 1, "rice", "gamma", universe=universe))


@pytest.mark.parametrize("val_codec", CODEC_NAMES)
def test_rice_streams_across_window_edges(val_codec):
    # lists of every density in one section, each k's stream longer than a
    # window, so every stream carries words over its windows' edges
    rng = random.Random(31)
    universe = 50000
    lists = []
    for n in [1, 3, 10, 40, 200, 1500, 9000, 30000] * 4:
        keys = sorted(rng.sample(range(universe), n))
        lists.append((keys, [rng.randint(1, 1 << rng.randint(1, 40)) for _ in keys]))
    blob, starts, _ = encode_streams(lists, "rice", val_codec, universe)
    for given in (starts, None):
        assert list(decode_lists(blob, len(lists), "rice", val_codec, starts=given, universe=universe)) == lists


def test_rice_decode_holds_a_bounded_window():
    # 4 MB of gaps in one k's stream: eight copies of one list code to
    # whole bytes in each stream, so the section is each stream's bytes
    # repeated behind a table that states the gap stream's new length
    rng = random.Random(5)
    universe = 1 << 60
    one = (sorted(rng.sample(range(universe), 200)), [rng.randint(1, 1 << 60) for _ in range(200)])
    lists = [one] * 8
    chunk, (gap_at, val_at), _ = encode_streams(lists, "rice", "gamma", universe)
    lengths, head = decode_vbytes(chunk, rice_k(1, universe) + 1)
    assert gap_at % 8 == val_at % 8 == 0 and sorted(lengths)[:-1] == [0] * (len(lengths) - 1)
    copies = -(-(4 << 20) // len(chunk))
    parts = (chunk[head : gap_at // 8], chunk[gap_at // 8 : val_at // 8], chunk[val_at // 8 :])
    table = encode_vbytes(x * copies for x in lengths)
    blob = table + b"".join(part * copies for part in parts)
    at = 8 * len(table)
    for starts in ((at + (gap_at - 8 * head) * copies, at + (val_at - 8 * head) * copies), None):
        tracemalloc.start()
        try:
            decoded = 0
            for keys, _ in decode_lists(blob, len(lists) * copies, "rice", "gamma", starts=starts, universe=universe):
                decoded += len(keys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decoded == copies * 8 * 200
        assert peak < 1 << 20


def test_rice_section_errors():
    universe = 1000
    lists = [([0, 5], [3, 1]), ([2], [7]), ([1, 4, 9], [1, 1, 2])] + [([], [])] * 30
    blob, starts, _ = encode_streams(lists, "rice", "gamma", universe)
    head = decode_vbytes(blob, rice_k(1, universe) + 1)[1]
    with pytest.raises(ValidationError, match="^rice gaps need the universe their keys lie below$"):
        encode_streams(lists, "rice", "gamma")
    with pytest.raises(ValidationError, match="^rice gaps need the universe their keys lie below$"):
        list(decode_lists(blob, len(lists), "rice", "gamma"))
    with pytest.raises(ValidationError, match="^key 9 outside the universe of 9 keys$"):
        encode_streams(lists, "rice", "gamma", 9)
    for name in ("payload", "coeff"):
        with pytest.raises(ValidationError, match="^codec 'rice' codes key gaps only"):
            CodecConfig(**{name: "rice"})
    # the table's lengths must add up to the gap streams' bits
    bad = bytearray(blob)
    bad[rice_k(3, universe)] += 1
    with pytest.raises(CorruptionError, match="^list gap streams take"):
        list(decode_lists(bytes(bad), len(lists), "rice", "gamma", starts=starts, universe=universe))
    # each stream must end where the next starts: two gaps for a list of one
    with pytest.raises(CorruptionError, match="^list 0 does not end at the end of its gap stream$"):
        list(decode_lists(_rice_blob(("1" + "0" * rice_k(1, universe)) * 2, 1, universe, "1"), 1, "rice", "gamma", universe=universe))
    with pytest.raises(CorruptionError, match=f"^list {len(lists) - 2} does not end at the end of its count stream$"):
        list(decode_lists(blob, len(lists) - 1, "rice", "gamma", starts=starts, universe=universe))
    with pytest.raises(CorruptionError, match="^list section holds 8 bits but no list$"):
        list(decode_lists(bytes(head + 1), 0, "rice", "gamma", universe=universe))  # a table of zeros, then a byte
    with pytest.raises(TruncationError):  # no whole table
        list(decode_lists(blob[: head - 1], len(lists), "rice", "gamma", universe=universe))
    assert list(decode_lists(encode_lists([], "rice", "gamma", universe)[0], 0, "rice", "gamma", universe=universe)) == []
