"""The factoring claim on real English text: the pydoc topics of the
running interpreter (tests/real_text.py)."""

import pytest

import real_text
from mtix import CodecConfig, factor, ingest_tsv, reconstruct, stats


def test_factor_beats_direct_coding_on_pydoc_topics(tmp_path):
    try:
        tsv = real_text.topics_tsv()
    except ModuleNotFoundError as exc:
        pytest.fail(f"this Python install has no pydoc_data ({exc}), so the real-text claim is not measured")
    path = tmp_path / "topics.tsv"
    path.write_text(tsv, encoding="utf-8")
    V = ingest_tsv(path)
    assert V.num_docs >= 1000, "the pydoc topics hold too few paragraphs to measure the claim on"
    cfg = CodecConfig()
    f = factor(V, cfg=cfg)
    assert stats(V, f, cfg).ratio < 1
    assert reconstruct(f).same_cells(V)
