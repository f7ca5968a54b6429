"""Term-document payload matrix: ingestion, posting-list rows, GCD primitives.

The matrix V is stored row-major as posting lists. Payloads are opaque
positive integers (term frequencies or pre-quantized impact scores); a zero
payload is represented by absence and is never stored. All row arithmetic is
exact integer arithmetic, so "row a is a multiple of row b" is decidable via
GCD normalization with no floating-point tolerance anywhere.

Ingest appends each term's doc ids and payloads to two columns and builds
the term's row from them, with no per-cell dict. A triples file is read in
fixed-size blocks of whole lines, each checked by a few whole-block bytes
operations and parsed by one split() and map(int), so memory beyond the
matrix stays near one block; a file with a bad line is read again line by
line, to raise its first error with its line number. Each block's doc ids
are mapped through one table of ids, so a matrix holds one int object per
distinct doc id, not one per cell.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat
from math import gcd
from operator import itemgetter, lt, ne
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .errors import ParseError, ValidationError, utf8_error


class Posting(NamedTuple):
    doc: int
    payload: int


@dataclass(frozen=True)
class PostingList:
    """One row of V: the doc ids and payloads of a single term, as two
    columns of equal length.

    Doc ids are strictly ascending and payloads are >= 1. The columns are
    what the index codes, expands and scores; `postings` and iteration give
    the same row as Posting pairs, built on demand.
    """

    term: int
    docs: tuple[int, ...]
    payloads: tuple[int, ...]

    @classmethod
    def from_pairs(cls, term: int, pairs: Iterable[tuple[int, int]]) -> "PostingList":
        """The validating constructor: each doc and payload goes through
        int(), docs must be >= 0 and strictly ascending, payloads >= 1.

        A ValidationError names the first bad posting in list order, and
        within one posting a doc error before a payload error.
        """
        pairs = tuple(pairs)
        try:
            docs, payloads = zip(*pairs, strict=True)
        except (TypeError, ValueError):
            # no pairs, or an item that is not a pair
            return cls._from_pairs_in_order(term, pairs)
        return cls._from_columns(term, docs, payloads)

    @classmethod
    def _from_columns(cls, term: int, docs: Sequence[int], payloads: Sequence[int]) -> "PostingList":
        """from_pairs(term, zip(docs, payloads)), checked a column at a time.

        A failed check or conversion, or columns of unequal length, go to
        the ordered path, which raises the error from_pairs raises.
        """
        try:
            int_docs, int_payloads = _ints(docs), _ints(payloads)
        except (TypeError, ValueError):
            int_docs = int_payloads = ()
        if (
            int_docs
            and len(int_docs) == len(int_payloads)
            and int_docs[0] >= 0
            and all(map(lt, int_docs, islice(int_docs, 1, None)))
            and min(int_payloads) >= 1
        ):
            return cls(term, int_docs, int_payloads)
        return cls._from_pairs_in_order(term, zip(docs, payloads))

    @classmethod
    def _from_pairs_in_order(cls, term: int, pairs: Iterable[tuple[int, int]]) -> "PostingList":
        """from_pairs one posting at a time: the path that raises its errors."""
        postings = tuple((int(d), int(p)) for d, p in pairs)
        prev = -1
        for d, p in postings:
            if d <= prev:
                raise ValidationError(f"term {term}: doc ids not strictly ascending at {d}")
            if p < 1:
                raise ValidationError(f"term {term}: payload {p} for doc {d} must be >= 1")
            prev = d
        docs, payloads = zip(*postings) if postings else ((), ())
        return cls(term, docs, payloads)

    @property
    def postings(self) -> tuple[Posting, ...]:
        """The row as Posting pairs, built from the columns on each call."""
        return tuple(self)

    def __len__(self) -> int:
        return len(self.docs)

    def __iter__(self) -> Iterator[Posting]:
        return map(tuple.__new__, repeat(Posting), zip(self.docs, self.payloads))


def _ints(values: Sequence[int]) -> tuple[int, ...]:
    """The values through int(), as a tuple; int() returns an exact int as
    it is, so a tuple of exact ints comes back unchanged, without a copy."""
    return tuple(values) if set(map(type, values)) == {int} else tuple(map(int, values))


class Lexicon:
    """Bidirectional term-string <-> TermId map; ids assigned in first-seen order."""

    def __init__(self, terms: Iterable[str] = ()):
        self._terms: list[str] = []
        self._ids: dict[str, int] = {}
        for t in terms:
            self.intern(t)

    def intern(self, term: str) -> int:
        tid = self._ids.get(term)
        if tid is None:
            tid = len(self._terms)
            self._terms.append(term)
            self._ids[term] = tid
        return tid

    def id_of(self, term: str) -> int | None:
        return self._ids.get(term)

    def term_of(self, tid: int) -> str:
        return self._terms[tid]

    @property
    def terms(self) -> tuple[str, ...]:
        return tuple(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[str]:
        return iter(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lexicon) and self._terms == other._terms

    def __repr__(self) -> str:
        return f"Lexicon({len(self._terms)} terms)"


@dataclass
class TermDocMatrix:
    """Sparse nonnegative-integer matrix; rows indexed by TermId.

    Immutable by convention once constructed: ingestion is single-writer and
    readers may share a matrix freely.
    """

    rows: list[PostingList]
    num_docs: int
    lexicon: Lexicon
    doc_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.doc_names:
            self.doc_names = [str(d) for d in range(self.num_docs)]

    @property
    def num_terms(self) -> int:
        return len(self.rows)

    def same_cells(self, other: "TermDocMatrix") -> bool:
        """Cell-for-cell equality, ignoring lexicon and doc-name strings."""
        return self.num_docs == other.num_docs and [(r.docs, r.payloads) for r in self.rows] == [
            (r.docs, r.payloads) for r in other.rows
        ]


_TOKEN = re.compile(r"[0-9A-Za-z]+")


def primitive(payloads: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The primitive-form rule: (scale, base) with scale = gcd(*payloads) and
    base = payloads // scale, so base has gcd 1 and payloads = scale * base.

    Two positive vectors over the same columns are integer multiples of one
    base exactly when their bases are equal. Both factorizer stages,
    export_factors and the synth generators go through this function.
    """
    g = gcd(*payloads)
    if g == 1:
        return 1, tuple(payloads)
    return g, tuple([p // g for p in payloads])


def nnz(matrix: TermDocMatrix) -> int:
    """Total stored postings."""
    return sum(len(r) for r in matrix.rows)


# Term and doc ids index dense in-memory tables (one row per term id, one
# name per doc id), so the largest id, not the number of cells, sets their
# size. Past this limit a one-line triples file could ask for billions.
_ID_LIMIT = 1 << 20


def _check_id_limits(num_terms: int, num_docs: int) -> None:
    """Raise before a matrix with more than _ID_LIMIT terms or docs is built."""
    for what, ids in (("term", num_terms), ("doc", num_docs)):
        if ids > _ID_LIMIT:
            raise ValidationError(f"{what} id {ids - 1} past the limit: {what} ids must be below {_ID_LIMIT}")


def matrix_from_cells(
    cells: dict[int, dict[int, int]],
    num_terms: int | None = None,
    num_docs: int | None = None,
    lexicon: Lexicon | None = None,
    doc_names: list[str] | None = None,
) -> TermDocMatrix:
    """Build a matrix from {term: {doc: payload}}; terms/docs without cells get
    empty rows / unused columns up to the given counts.

    Term and doc ids must be below 2^20 (1,048,576), given counts at most
    that; past it, or for a negative term or doc id (the lowest is named), a
    ValidationError is raised before any per-id allocation.
    """
    min_term = min(cells, default=0)
    if min_term < 0:
        raise ValidationError(f"term id {min_term} is negative")
    max_term = max(cells, default=-1)
    if num_terms is None:
        num_terms = max_term + 1
    elif max_term >= num_terms:
        raise ValidationError(f"term {max_term} outside num_terms={num_terms}")
    ends = [(min(by_doc), max(by_doc)) for by_doc in cells.values() if by_doc]
    min_doc = min((low for low, _ in ends), default=0)
    if min_doc < 0:
        raise ValidationError(f"doc id {min_doc} is negative")
    max_doc = max((high for _, high in ends), default=-1)
    if num_docs is None:
        num_docs = max_doc + 1
    elif max_doc >= num_docs:
        raise ValidationError(f"doc {max_doc} outside num_docs={num_docs}")
    _check_id_limits(num_terms, num_docs)
    rows = [
        PostingList.from_pairs(t, sorted(cells.get(t, {}).items())) for t in range(num_terms)
    ]
    if lexicon is None:
        lexicon = Lexicon(str(t) for t in range(num_terms))
    return TermDocMatrix(rows, num_docs, lexicon, doc_names or [])


def ingest_tsv(path: str | Path) -> TermDocMatrix:
    """Read a corpus of "docname<TAB>body" lines into V.

    A body's tokens are its [0-9A-Za-z]+ runs after lower-casing. Payload(t, d)
    is the frequency of t in d; TermIds are assigned in first-seen order and
    DocIds in line order. An empty file yields an empty matrix; a line
    without a tab, or a byte that is not UTF-8, raises ParseError with its
    line number. Each term's docs and frequencies are appended to its two
    columns, in which docs ascend because lines are read in doc order.
    """
    lexicon = Lexicon()
    doc_names: list[str] = []
    columns: list[tuple[list[int], list[int]]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if "\t" not in line:
                    raise ParseError("expected 'docname<TAB>body'", line_no)
                name, body = line.split("\t", 1)
                doc = len(doc_names)
                doc_names.append(name)
                # a Counter keeps first-seen order, so terms are interned as
                # they first occur in the body
                for token, freq in Counter(_TOKEN.findall(body.lower())).items():
                    tid = lexicon.intern(token)
                    if tid == len(columns):
                        columns.append(([], []))
                    docs, freqs = columns[tid]
                    docs.append(doc)
                    freqs.append(freq)
    except UnicodeDecodeError:
        raise utf8_error(Path(path).read_bytes()) from None
    _check_id_limits(len(lexicon), len(doc_names))
    rows = [PostingList(t, tuple(docs), tuple(freqs)) for t, (docs, freqs) in enumerate(columns)]
    return TermDocMatrix(rows, len(doc_names), lexicon, doc_names)


# Triples files are read in blocks of this many bytes, so ingest never holds
# more of the file than one block and the line it ends in.
_BLOCK = 1 << 16

# A byte as the block check sees it: \n ends a line (so does \r), a space is
# a blank as bytes.split() cuts fields, and x is a byte of a field.
_SHAPE = bytes(10 if c in b"\n\r" else 32 if c in b" \t\v\f" else 120 for c in range(256))


def _three_fields_per_line(block: bytes) -> bool:
    """Whether each line is blank or of three fields, as bytes.split() cuts
    them: once each field is one ^ and the blanks are gone, a line of k
    fields is k ^s and a \\n, and taking one ^^^\\n out of each line leaves
    no ^ exactly when every k is 0 or 3. int() then checks each field."""
    shape = b"\n" + block.translate(_SHAPE) + b"\n"
    starts = shape.replace(b" x", b"^").replace(b"\nx", b"\n^").translate(None, b" x")
    return b"^" not in starts.replace(b"^^^\n", b"")


def _blocks(fh: IO[bytes]) -> Iterator[bytes]:
    """The file in pieces of whole lines, read _BLOCK bytes at a time: each
    piece ends at its last \\n or \\r, and the bytes after it start the next.

    A \\r\\n cut in two leaves a blank line, which read_triples skips.
    """
    head: list[bytes] = []  # the line that continues into the next read
    while block := fh.read(_BLOCK):
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
        if cut:
            yield b"".join([*head, block[:cut]])
            head = [block[cut:]]
        else:
            head.append(block)
    yield b"".join(head)


def shared_ints(table: list[int], keys: Sequence[int]) -> tuple[int, ...]:
    """The table's own int objects for `keys`, which index it: with
    table[j] == j, every key of one value comes back as one object."""
    return itemgetter(*keys)(table) if len(keys) > 1 else tuple(map(table.__getitem__, keys))


def _ascending(values: Sequence[int]) -> bool:
    return all(map(lt, values, islice(values, 1, None)))


def _block_columns(fh: IO[bytes]) -> dict[int, tuple[list[int], list[int]]] | None:
    """read_triples' cells as {row: (cols, values)} in file order, or None
    when a line is not three integers, an id is negative or a cell repeats.

    Each block's lines are checked by a few whole-block bytes operations,
    its fields parsed by one split() and map(int), and its column ids
    mapped to the id table's own int objects; each run of lines with the
    same row id is appended to that row's two columns by slice.
    """
    columns: dict[int, tuple[list[int], list[int]]] = {}
    ids: list[int] = []  # ids[j] is j: one int object per column id
    for block in _blocks(fh):
        if not _three_fields_per_line(block):
            return None
        try:
            ints = list(map(int, block.split()))
        except ValueError:
            return None
        rows, block_cols, block_values = ints[::3], ints[1::3], ints[2::3]
        if not rows:
            continue
        if min(rows) < 0 or min(block_cols) < 0:
            return None
        try:
            block_cols = shared_ints(ids, block_cols)
        except IndexError:  # an id past the table; one past _ID_LIMIT is left to _check_id_limits
            if (top := max(block_cols)) < _ID_LIMIT:
                ids += range(len(ids), top + 1)
                block_cols = shared_ints(ids, block_cols)
        starts = [0, *compress(count(1), map(ne, rows, islice(rows, 1, None))), len(rows)]
        for a, b in zip(starts, islice(starts, 1, None)):
            cols, values = columns.get(rows[a]) or columns.setdefault(rows[a], ([], []))
            cols += block_cols[a:b]
            values += block_values[a:b]
    for cols, _ in columns.values():
        if not _ascending(cols) and len(set(cols)) < len(cols):
            return None
    return columns


def _line_columns(path: str | Path) -> dict[int, tuple[list[int], list[int]]]:
    """_block_columns one line at a time: the path that raises read_triples'
    errors, the first in file order, with their line numbers."""
    cells: dict[int, dict[int, int]] = {}
    with open(path, "rb") as fh:
        lines = chain.from_iterable(map(bytes.splitlines, fh))
        for line_no, line in enumerate(lines, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ParseError("expected 'row col value'", line_no)
            try:
                i, j, v = map(int, parts)
            except ValueError:
                raise ParseError("non-integer field", line_no) from None
            if i < 0 or j < 0:
                raise ValidationError(f"line {line_no}: negative id in ({i}, {j})")
            row = cells.setdefault(i, {})
            if j in row:
                raise ValidationError(f"line {line_no}: duplicate cell ({i}, {j})")
            row[j] = v
    return {i: (list(row), list(row.values())) for i, row in cells.items()}


def _triple_columns(path: str | Path) -> dict[int, tuple[list[int], list[int]]]:
    """The cells of a triples file (see read_triples) as {row: (cols,
    values)}: rows in first-seen order, each row's cells in file order."""
    with open(path, "rb") as fh:
        columns = _block_columns(fh)
    return _line_columns(path) if columns is None else columns


def read_triples(path: str | Path) -> dict[int, dict[int, int]]:
    """Read "row col value" lines (space-separated decimal integers) into
    {row: {col: value}}; values may be any integer.

    Blank lines are skipped. A line without three integer fields raises
    ParseError with its line number; a negative row or column id and a
    duplicated (row, col) cell are validation errors. The file is read as
    bytes, split into lines as universal newlines do, so a non-ASCII byte is
    a non-integer field. Lines may come in any order; the file is read in
    blocks of bounded size.
    """
    return {i: dict(zip(cols, values)) for i, (cols, values) in _triple_columns(path).items()}


def ingest_triples(path: str | Path) -> TermDocMatrix:
    """Read "term doc payload" triples (see read_triples) into V.

    The matrix has exactly the listed non-zeros; a zero or negative payload
    and a duplicated (term, doc) cell are validation errors, and ids must be
    below 2^20 as in matrix_from_cells. Each term's postings are built from
    its columns, sorted by doc only when its lines were not in doc order.
    """
    columns = _triple_columns(path)
    num_terms = max(columns, default=-1) + 1
    num_docs = max((max(docs) for docs, _ in columns.values()), default=-1) + 1
    _check_id_limits(num_terms, num_docs)
    rows = []
    for t in range(num_terms):
        # popped, so each term's lists are freed as its row is built
        docs, payloads = columns.pop(t, ((), ()))
        if not _ascending(docs):
            docs, payloads = zip(*sorted(zip(docs, payloads)))
        if payloads and min(payloads) < 1:
            PostingList.from_pairs(t, zip(docs, payloads))  # raises the first bad payload's error
        rows.append(PostingList(t, tuple(docs), tuple(payloads)))
    return TermDocMatrix(rows, num_docs, Lexicon(str(t) for t in range(num_terms)), [])


def export_triples(matrix: TermDocMatrix, out: str | Path | IO[str]) -> None:
    """Write V as canonical "term doc payload" lines: rows in TermId order,
    postings in DocId order (bit-exact output for identical matrices)."""

    def _write(fh: IO[str]) -> None:
        for row in matrix.rows:
            for d, p in zip(row.docs, row.payloads):
                fh.write(f"{row.term} {d} {p}\n")

    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="ascii") as fh:
            _write(fh)
    else:
        _write(out)
