"""Real English text from the running interpreter's own install, as a
corpus for the factoring claim: the pydoc topics (`pydoc_data.topics`,
under the PSF licence). Nothing is downloaded or committed, so the corpus
follows the installed Python version; tests bound what they measure on it
and pin no digest.

topics_tsv() writes the corpus as `ingest_tsv` reads it: the topics in
sorted key order, each split at blank lines, each paragraph of at least 5
whitespace tokens kept with its whitespace collapsed, one `d<i><TAB>body`
line per paragraph from d0. Under Python 3.11.7 that is 1,977 docs, 3,266
terms and 45,049 postings, and the text's sha256 starts cbc9056ebadc.
"""

from __future__ import annotations

import re

MIN_TOKENS = 5


def topics_tsv() -> str:
    """The pydoc topics corpus as TSV text. Raises ModuleNotFoundError where
    the install has no pydoc_data."""
    from pydoc_data.topics import topics

    paragraphs = (para.split() for key in sorted(topics) for para in re.split(r"\n\s*\n", topics[key]))
    docs = [" ".join(tokens) for tokens in paragraphs if len(tokens) >= MIN_TOKENS]
    return "".join(f"d{i}\t{body}\n" for i, body in enumerate(docs))
