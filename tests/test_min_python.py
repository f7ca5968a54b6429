"""The package on the oldest Python that pyproject.toml declares (3.10) and
on the newest one installed beside the running interpreter: import,
save_index, load_index and the CLI's build and query run there and print
the same output and write the same index content as under the interpreter
running the tests. The files are compared with their name tables inflated,
since the interpreters may link different zlib builds."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import inflated_image

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
from pathlib import Path

from mtix import CodecConfig, factor, ingest_tsv, load_index, save_index
from mtix.cli import main

out = Path(sys.argv[1])
V = ingest_tsv(out / "corpus.tsv")
f = factor(V)
save_index(f, V.lexicon, CodecConfig("delta", "gamma", "vbyte"), out / "api.idx", V.doc_names)
idx = load_index(out / "api.idx")
assert idx.factorization == f and idx.lexicon == V.lexicon and idx.doc_names == V.doc_names
assert main(["build", str(out / "corpus.tsv"), str(out / "cli.idx"), "--tsv"]) == 0
assert main(["query", str(out / "cli.idx"), str(out / "queries.txt"), "--tsv"]) == 0
"""

CORPUS = "".join(
    f"doc-{d:02d}-{name}\t{' '.join(words)}\n"
    for d, (name, words) in enumerate(
        [
            ("été", ["a", "a", "b", "été", "c"]),
            ("été", ["a", "a", "b", "été", "c", "日本"]),
            ("x", ["b", "b", "日本語", "c"]),
            ("\U0001f99c", ["a", "a", "b", "été", "c", "\U0001f99c"]),
            ("y", ["d", "e", "f"]),
        ]
        * 3
    )
)


def _runs(python):
    """Whether the interpreter at `python` starts."""
    return subprocess.run([python, "--version"], capture_output=True).returncode == 0


def _python_3_10():
    """A runnable Python 3.10 interpreter, or None."""
    found = shutil.which("python3.10")
    if found and _runs(found):
        return found
    for candidate in sorted(Path(sys.base_prefix).parent.glob("3.10.*/bin/python")):
        if _runs(str(candidate)):
            return str(candidate)
    return None


def _newest_python():
    """The newest runnable CPython installed beside the running one (an
    X.Y.Z directory next to sys.base_prefix, as pyenv lays them out) if it
    is newer than the running one, else None."""
    installed = []
    for candidate in Path(sys.base_prefix).parent.glob("3.*/bin/python"):
        version = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", candidate.parent.parent.name)
        if version:
            installed.append((tuple(map(int, version.groups())), str(candidate)))
    for version, candidate in sorted(installed, reverse=True):
        if version <= sys.version_info[:3]:
            return None
        if _runs(candidate):
            return candidate
    return None


def _run(python, out):
    """Run SCRIPT under `python` in `out`; its stdout and the two files'
    content (conftest.inflated_image)."""
    out.mkdir()
    (out / "corpus.tsv").write_text(CORPUS, encoding="utf-8")
    (out / "queries.txt").write_text("a b\n日本 c\n\U0001f99c été\nz\n", encoding="utf-8")
    done = subprocess.run(
        [python, "-c", SCRIPT, str(out)],
        capture_output=True,
        env={"PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8", "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout, inflated_image((out / "api.idx").read_bytes()), inflated_image((out / "cli.idx").read_bytes())


def test_python_3_10_writes_and_reads_the_same_index(tmp_path):
    python = _python_3_10()
    if python is None:
        pytest.skip("no runnable Python 3.10 interpreter found")
    oldest = _run(python, tmp_path / "oldest")
    current = _run(sys.executable, tmp_path / "current")
    assert oldest == current
    stdout, _, _ = current
    assert len(stdout.splitlines()) > 4


def test_newest_python_writes_and_reads_the_same_index(tmp_path):
    python = _newest_python()
    if python is None:
        pytest.skip("no runnable CPython newer than the running one found beside it")
    assert _run(python, tmp_path / "newest") == _run(sys.executable, tmp_path / "current")
