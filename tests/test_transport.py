"""How documents reach the workers.

In-memory documents ride the pickled task message; file-backed corpora
ship paths, and each worker reads its documents with
:func:`~repro.runtime.backends.worker.read_document` (huge files decoded
straight from ``mmap``).  The contract:

* the ``mmap`` read path decodes files identically to a plain read;
* the task pipe carries large payloads (a ~200 KiB chunk, a document
  over 1 MiB) and hostile text (empty documents, NUL, astral characters,
  a lone surrogate) losslessly, so single-query and fused multi-query
  ``submit`` on every backend are byte-identical to the serial engine;
* no submission creates a ``/dev/shm`` segment or a session directory.
"""

from __future__ import annotations

import glob
import tempfile

import pytest

from repro.runtime import CompiledSpanner, SpannerService
from repro.runtime.backends.worker import read_document

#: Content-sensitive and cheap: one tuple, the final ``Z``, so a
#: document that lost or gained any character moves the span.
TAIL = ".*x{Z}"
#: Dies on the first character of every document below (none starts
#: with ``Q``): a second fusable member that costs next to nothing.
PROBE = "Q.*y{[0-9]+}.*"
#: Enumerates many tuples per document, for the small hostile chunk.
WORD = "(ε|.*[^a-z])x{[a-z]+}([^a-z].*|ε)"

#: Astral characters only: four UTF-8 bytes each, so the byte sizes
#: below cost a quarter of the characters (and of the per-character
#: sweep) an ASCII text of the same size would.
_UNIT = "😀😁\U0010fffd\U00020000"


def _text(utf8_bytes: int) -> str:
    """A document of at least ``utf8_bytes`` UTF-8 bytes ending in Z."""
    units = utf8_bytes // len(_UNIT.encode("utf-8")) + 1
    return _UNIT * units + "Z"


#: case -> (documents, chunk_size, members): ``submit`` serves the
#: first member alone, then fuses them all.
CASES = {
    # Four ~50 KiB documents in one chunk: a ~200 KiB task message.
    "chunk_200k": ([_text(50 * 1024) for _ in range(4)], 4, (TAIL, PROBE)),
    # One document over 1 MiB, in UTF-8 and in the pickled message.
    # The solo submission is the cheap probe; the fused one sweeps it.
    "doc_1mib": ([_text(1024 * 1024 + 16)], 1, (PROBE, TAIL)),
    # Empty, NUL, astral and lone-surrogate text in one chunk.
    "hostile": (
        ["", "\x00", "a\x00bZ", "😀 x😀Z", "\ud800", "ab \ud800cd Z",
         "\U0010ffff", "Z"],
        8,
        (TAIL, WORD),
    ),
}


@pytest.fixture(scope="module")
def serial():
    """{(case, formula): the serial engine's output}, computed once."""
    chunk, big = CASES["chunk_200k"][0], CASES["doc_1mib"][0][0]
    assert sum(len(d.encode("utf-8")) for d in chunk) >= 190 * 1024
    assert len(big.encode("utf-8")) > 1024 * 1024
    out = {}
    for case, (docs, _size, members) in CASES.items():
        for formula in members:
            out[case, formula] = list(
                CompiledSpanner(formula).evaluate_many(docs)
            )
    return out


# Only the process backend pickles documents into a pipe.  The serial
# backend hands them over by reference and runs the cheaper cases too,
# to pin that the substrate never shows in the bytes; the 1 MiB sweep
# (seconds per pass) is spent only where a pipe carries it.
@pytest.mark.parametrize(
    "backend, case",
    [("serial", c) for c in ("chunk_200k", "hostile")]
    + [("process", case) for case in CASES],
)
def test_pipe_payload_parity(backend, case, serial):
    docs, chunk_size, members = CASES[case]
    with SpannerService(
        workers=2, backend=backend, chunk_size=chunk_size
    ) as service:
        qids = [service.register(formula) for formula in members]
        # Both submissions in flight at once: on two process workers
        # the solo and the fused task run side by side.
        solo = service.submit(docs, queries=qids[0])
        fused = service.submit(docs, queries=qids)
        assert solo.result(timeout=300) == serial[case, members[0]]
        for qid, formula in zip(qids, members):
            assert fused[qid].result(timeout=300) == serial[case, formula]


def test_process_fleet_creates_no_shared_memory(tmp_path, monkeypatch):
    """A process-fleet submit of a chunk well past 64 KiB (the size the
    removed shared-memory transport used to claim) leaves no segment in
    ``/dev/shm`` and no session directory under the temp dir."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)

    def segments() -> set[str]:
        return set(glob.glob("/dev/shm/sjdoc-*"))

    before = segments()
    docs = [_text(40 * 1024) for _ in range(4)]
    with SpannerService(workers=2, backend="process", chunk_size=2) as svc:
        qid = svc.register(PROBE)
        svc.submit(docs, queries=qid).result(timeout=300)
        assert segments() == before
    assert segments() == before
    assert not (tmp_path / "sjdoc-sessions").exists()


class TestReadDocument:
    def test_mmap_and_plain_reads_agree(self, tmp_path):
        path = tmp_path / "doc.txt"
        text = "läne one\nline two\n" * 500
        path.write_text(text, encoding="utf-8")
        plain = read_document(str(path), mmap_threshold=10**9)
        mapped = read_document(str(path), mmap_threshold=1)
        assert plain == mapped == text

    def test_latin1_and_error_handlers(self, tmp_path):
        path = tmp_path / "legacy.txt"
        path.write_bytes(b"caf\xe9 society")
        with pytest.raises(UnicodeDecodeError):
            read_document(str(path))
        assert read_document(str(path), encoding="latin-1") == "café society"
        assert (
            read_document(str(path), errors="replace") == "caf� society"
        )
        # The mmap path honors the same codec knobs.
        assert (
            read_document(str(path), encoding="latin-1", mmap_threshold=1)
            == "café society"
        )

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_document(str(tmp_path / "absent.txt"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert read_document(str(path), mmap_threshold=0) == ""
