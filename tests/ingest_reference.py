"""read_triples, ingest_triples and ingest_tsv as they were before ingest
went to columns read in blocks, kept verbatim as the reference the
differential tests in test_ingest compare mtix.matrix against. Not used by
mtix: it reads line by line and hands {term: {doc: payload}} dicts to
matrix_from_cells on purpose.
"""

from __future__ import annotations

import re
from itertools import chain
from pathlib import Path

from mtix.errors import ParseError, ValidationError, utf8_error
from mtix.matrix import Lexicon, TermDocMatrix, matrix_from_cells

_TOKEN = re.compile(r"[0-9A-Za-z]+")


def ingest_tsv(path: str | Path) -> TermDocMatrix:
    """Read a corpus of "docname<TAB>body" lines into V.

    A body's tokens are its [0-9A-Za-z]+ runs after lower-casing. Payload(t, d)
    is the frequency of t in d; TermIds are assigned in first-seen order and
    DocIds in line order. An empty file yields an empty matrix; a line
    without a tab, or a byte that is not UTF-8, raises ParseError with its
    line number.
    """
    lexicon = Lexicon()
    doc_names: list[str] = []
    cells: dict[int, dict[int, int]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if "\t" not in line:
                    raise ParseError("expected 'docname<TAB>body'", line_no)
                name, body = line.split("\t", 1)
                doc = len(doc_names)
                doc_names.append(name)
                for token in _TOKEN.findall(body.lower()):
                    tid = lexicon.intern(token)
                    by_doc = cells.setdefault(tid, {})
                    by_doc[doc] = by_doc.get(doc, 0) + 1
    except UnicodeDecodeError:
        raise utf8_error(Path(path).read_bytes()) from None
    return matrix_from_cells(
        cells, num_terms=len(lexicon), num_docs=len(doc_names), lexicon=lexicon, doc_names=doc_names
    )


def read_triples(path: str | Path) -> dict[int, dict[int, int]]:
    """Read "row col value" lines (space-separated decimal integers) into
    {row: {col: value}}; values may be any integer.

    Blank lines are skipped. A line without three integer fields raises
    ParseError with its line number; a negative row or column id and a
    duplicated (row, col) cell are validation errors. The file is read as
    bytes, split into lines as universal newlines do, so a non-ASCII byte is
    a non-integer field.
    """
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
    return cells


def ingest_triples(path: str | Path) -> TermDocMatrix:
    """Read "term doc payload" triples (see read_triples) into V.

    The matrix has exactly the listed non-zeros; a zero or negative payload
    and a duplicated (term, doc) cell are validation errors.
    """
    return matrix_from_cells(read_triples(path))
