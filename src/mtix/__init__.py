"""mtix: lossless inverted-index compression by exact bicluster factorization.

The payload matrix V of an inverted index is factored exactly into sparse
integer factors W and H by discovering disjoint biclusters whose rows are
integer multiples of a primitive base vector; the factors are serialized with
standard posting-list codecs, queried losslessly, and optionally combined
with lossy static pruning.
"""

from .codec import (
    CodecConfig,
    delta_decode,
    delta_encode,
    gamma_decode,
    gamma_encode,
    vbyte_decode,
    vbyte_encode,
)
from .errors import (
    CorruptionError,
    FormatError,
    InvariantError,
    MtixError,
    ParseError,
    TruncationError,
    ValidationError,
)
from .factorize import (
    Bicluster,
    FactorParams,
    Factorization,
    MetaTerm,
    brute_force_optimal,
    expand_term,
    export_factors,
    factor,
    factor_whole_rows,
    gain,
    reconstruct,
    refine_partial,
    total_size,
)
from .matrix import (
    Lexicon,
    Posting,
    PostingList,
    TermDocMatrix,
    export_triples,
    ingest_triples,
    ingest_tsv,
    matrix_from_cells,
    nnz,
)
from .query import Query, ScoredDoc, overlap_at_k, prune, top_k
from .store import IndexStats, LoadedIndex, index_sections, load_index, save_index, stats

__version__ = "0.1.0"

__all__ = [
    "Bicluster",
    "CodecConfig",
    "CorruptionError",
    "FactorParams",
    "Factorization",
    "FormatError",
    "IndexStats",
    "InvariantError",
    "Lexicon",
    "LoadedIndex",
    "MetaTerm",
    "MtixError",
    "ParseError",
    "Posting",
    "PostingList",
    "Query",
    "ScoredDoc",
    "TermDocMatrix",
    "TruncationError",
    "ValidationError",
    "brute_force_optimal",
    "delta_decode",
    "delta_encode",
    "expand_term",
    "export_factors",
    "export_triples",
    "factor",
    "factor_whole_rows",
    "gain",
    "gamma_decode",
    "gamma_encode",
    "index_sections",
    "ingest_triples",
    "ingest_tsv",
    "load_index",
    "matrix_from_cells",
    "nnz",
    "overlap_at_k",
    "prune",
    "reconstruct",
    "refine_partial",
    "save_index",
    "stats",
    "top_k",
    "total_size",
    "vbyte_decode",
    "vbyte_encode",
]
