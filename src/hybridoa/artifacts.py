"""Artifact layout, canonical serialization, and run manifests.

Every stage writes its outputs under a fixed directory layout plus a
machine-readable manifest (input digests, config digest, row counts).
Serialization is canonical: sorted keys, fixed float formats, "\n" line
endings. Reruns with identical inputs produce byte-identical artifacts
regardless of worker count.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import io
import itertools
import json
import mmap
import os
import re
import tempfile
from contextlib import ExitStack, contextmanager
from contextvars import ContextVar
from datetime import date
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import DependencyError
from .identifiers import ROR_SCHEME, make_org_id, org_value
from .model import (
    GROUP_GLOBAL,
    GROUP_PUBLISHER,
    Agreement,
    AttributionRecord,
    Authorship,
    ClassifiedArticle,
    CrosswalkEntry,
    IndicatorRow,
    Institution,
    IntersectionSet,
    Journal,
    LicenseStatement,
    membership_key,
)

STAGES = ("ingest", "classify", "reconcile", "attribute", "aggregate", "compare")


class Layout:
    """Paths of every artifact under one output directory."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def manifest(self, stage: str) -> str:
        return os.path.join(self.out_dir, "manifests", f"{stage}.json")

    def reject_log(self, stem: str) -> str:
        return os.path.join(self.out_dir, "rejects", f"{stem}.csv")

    def articles(self, source: str) -> str:
        return os.path.join(self.out_dir, "ingest", f"articles_{source}.ndjson")

    @property
    def agreements(self) -> str:
        return os.path.join(self.out_dir, "ingest", "agreements.json")

    @property
    def journals(self) -> str:
        return os.path.join(self.out_dir, "ingest", "journals.csv")

    @property
    def institutions(self) -> str:
        return os.path.join(self.out_dir, "ingest", "institutions.csv")

    def classified(self, source: str) -> str:
        return os.path.join(self.out_dir, "classify", f"articles_{source}.ndjson")

    def attributable(self, source: str) -> str:
        return os.path.join(self.out_dir, "classify", f"attributable_{source}.ndjson")

    def doi_stream(self, source: str) -> str:
        return os.path.join(self.out_dir, "classify", f"dois_{source}.ndjson")

    def journal_summary(self, source: str) -> str:
        return os.path.join(self.out_dir, "classify", f"journals_{source}.ndjson")

    @property
    def doi_index(self) -> str:
        return os.path.join(self.out_dir, "classify", "doi_index.ndjson")

    @property
    def crosswalk(self) -> str:
        return os.path.join(self.out_dir, "reconcile", "crosswalk.csv")

    @property
    def audit(self) -> str:
        return os.path.join(self.out_dir, "reconcile", "audit_sample.csv")

    def attributions(self, role: str) -> str:
        return os.path.join(self.out_dir, "attribute", f"attributions_{role}.csv")

    @property
    def indicators(self) -> str:
        return os.path.join(self.out_dir, "aggregate", "indicators.csv")

    @property
    def coverage(self) -> str:
        return os.path.join(self.out_dir, "aggregate", "coverage.csv")

    @property
    def intersections(self) -> str:
        return os.path.join(self.out_dir, "compare", "intersections.csv")

    @property
    def intersections_publisher(self) -> str:
        return os.path.join(self.out_dir, "compare", "intersections_publisher.csv")

    @property
    def journal_volumes(self) -> str:
        return os.path.join(self.out_dir, "compare", "journal_volumes.csv")

    @property
    def correlations(self) -> str:
        return os.path.join(self.out_dir, "compare", "correlations.csv")

    @property
    def uptake_global(self) -> str:
        return os.path.join(self.out_dir, "compare", "uptake_global.csv")

    @property
    def uptake_publisher(self) -> str:
        return os.path.join(self.out_dir, "compare", "uptake_publisher.csv")

    @property
    def country_scatter(self) -> str:
        return os.path.join(self.out_dir, "compare", "country_scatter.csv")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class HashedFile(io.RawIOBase):
    """A file opened for reading or writing whose bytes are hashed as they
    pass, so no second read is needed. Written lines are counted; a file
    read to its end reports its digest to the enclosing `reading` block."""

    def __init__(self, path: str, mode: str):
        self._file = io.FileIO(path, mode)
        self.path = os.path.abspath(path)
        self.sha256 = hashlib.sha256()
        self._lines = 0
        self._last = b"\n"

    def readable(self) -> bool:
        return self._file.readable()

    def writable(self) -> bool:
        return self._file.writable()

    def readinto(self, buffer) -> int:
        n = self._file.readinto(buffer)
        if n:
            self.sha256.update(memoryview(buffer)[:n])
        elif len(buffer):
            note_reads({self.path: self.sha256.hexdigest()})
        return n

    def write(self, data) -> int:
        data = bytes(data)
        n = self._file.write(data)
        self._count(data[:n])
        return n

    def _count(self, data: bytes) -> None:
        if data:
            self.sha256.update(data)
            self._lines += data.count(b"\n")
            self._last = data[-1:]

    def close(self) -> None:
        self._file.close()
        super().close()

    @property
    def lines(self) -> int:
        """Lines written so far; an unterminated last line counts."""
        return self._lines + (self._last != b"\n")


# Absolute path -> sha256 of each file `open_input` read to its end inside
# a `reading` block; None outside one.
_read: ContextVar[dict[str, str] | None] = ContextVar("read", default=None)


@contextmanager
def reading() -> Iterator[dict[str, str]]:
    """Absolute path -> sha256 of each file read to its end in the block,
    through `open_input`, or in a worker whose record `note_reads` added."""
    read: dict[str, str] = {}
    token = _read.set(read)
    try:
        yield read
    finally:
        _read.reset(token)


def note_reads(digests: dict[str, str]) -> None:
    """Add the digests of files read to their end, here or in a worker, to
    the enclosing `reading` block's record."""
    read = _read.get()
    if read is None:
        return
    for path, digest in digests.items():
        if read.setdefault(path, digest) != digest:
            raise DependencyError(f"{path} changed between two reads of it in one stage")


def open_input(path: str) -> io.RawIOBase:
    """A stage input opened as a raw binary file; inside a `reading` block
    its bytes are hashed as they are read, and nowhere else."""
    if _read.get() is None:
        return io.FileIO(path)
    return HashedFile(path, "r")


def open_input_text(path: str, errors: str = "strict", newline: str | None = None) -> TextIO:
    """`open_input(path)` as UTF-8 text, with `open`'s `errors` and `newline`."""
    return io.TextIOWrapper(
        io.BufferedReader(open_input(path)), encoding="utf-8", errors=errors, newline=newline
    )


# Non-blank lines per chunk: ingest parses, and classify classifies and
# writes, a source's lines this many at a time, in the process that reads
# them.
CHUNK_LINES = 500


def line_chunks(path: str) -> Iterator[tuple[list[int], list[str]]]:
    """(line numbers, lines) of the non-blank lines of the input `path`,
    CHUNK_LINES at a time.

    Bytes that are not UTF-8 reach their line as lone surrogates, for the
    line's parser to reject.
    """
    linenos: list[int] = []
    lines: list[str] = []
    with open_input_text(path, errors="surrogateescape") as text:
        for lineno, line in enumerate(text, 1):
            if not line.strip():
                continue
            linenos.append(lineno)
            lines.append(line)
            if len(lines) >= CHUNK_LINES:
                yield linenos, lines
                linenos, lines = [], []
    if lines:
        yield linenos, lines


# Inside a `recording` or `holding` block: absolute path -> (sha256, lines)
# of each file `open_artifact` wrote, and target -> temp file of each file
# waiting to be published. None outside one.
Held = tuple[dict[str, tuple[str, int]], dict[str, str]]
_recorded: ContextVar[Held | None] = ContextVar("recorded", default=None)


@contextmanager
def holding() -> Iterator[Held]:
    """(path -> (sha256, lines), target -> temp file) of each file written
    in the block, which stays a temp file when the block exits cleanly,
    for `note_writes` to hand on; an exception deletes every one."""
    held: Held = ({}, {})
    token = _recorded.set(held)
    try:
        yield held
    except BaseException:
        for tmp in held[1].values():
            os.unlink(tmp)
        raise
    finally:
        _recorded.reset(token)


@contextmanager
def recording() -> Iterator[dict[str, tuple[str, int]]]:
    """Absolute path -> (sha256, lines) of each file written in the block,
    here or in a worker whose `holding` record `note_writes` added.

    The files stay temp files until the block exits: cleanly, and each
    replaces its target, in the order they were finished; by an
    exception, and every one is deleted, so the targets keep what they
    held before the block.
    """
    with holding() as (written, pending):
        yield written
    for path, tmp in pending.items():
        os.replace(tmp, path)


def note_writes(held: Held) -> None:
    """Hand the files of a `holding` block, here or in a worker, to the
    enclosing `recording` or `holding` block, which publishes or deletes
    them with its own; outside one they are published now."""
    recorded = _recorded.get()
    if recorded is None:
        for path, tmp in held[1].items():
            os.replace(tmp, path)
        return
    recorded[0].update(held[0])
    recorded[1].update(held[1])


@contextmanager
def open_artifact(path: str) -> Iterator[TextIO]:
    """The one way a file is written: UTF-8 text, each "\n" written as given.

    Creates the parent directory when it is missing. The text goes to a
    temp file beside `path` that replaces `path` when the block exits
    cleanly, or inside a `recording` block when that block does (inside a
    `holding` block, when `note_writes` says); on an exception the temp
    file is deleted and whatever was at `path` stays. Inside either block
    the bytes are hashed and their lines counted as they are written, for
    the stage manifest.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    recorded = _recorded.get()
    if recorded is None:
        fh = open(tmp, "w", encoding="utf-8", newline="")
    else:
        raw = HashedFile(tmp, "w")
        fh = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        os.unlink(tmp)
        raise
    if recorded is None:
        os.replace(tmp, path)
        return
    written, pending = recorded
    written[os.path.abspath(path)] = (raw.sha256.hexdigest(), raw.lines)
    pending[path] = tmp


# `json.dumps` with these options would build this encoder on every call.
dump_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def format_share(value: float | None) -> str:
    """Shares as ratios with 6 decimal places; undefined renders empty."""
    return "" if value is None else f"{value:.6f}"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    count = 0
    with open_artifact(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def write_ndjson(path: str, objects: Iterable) -> None:
    """One canonical JSON line per object."""
    with open_artifact(path) as fh:
        for obj in objects:
            fh.write(dump_canonical(obj))
            fh.write("\n")


def write_manifest(
    layout: Layout,
    stage: str,
    config_digest: str,
    inputs: list[dict],
    outputs: list[str],
    counters: dict,
    written: dict[str, tuple[str, int]],
) -> None:
    """Write the stage manifest; every path is stored out_dir-relative.

    Each output's sha256 and line count come from `written`, what
    `recording` took while the stage wrote it.
    """
    described = []
    for path in outputs:
        digest, lines = written[os.path.abspath(path)]
        entry = {"path": os.path.relpath(path, layout.out_dir), "sha256": digest}
        # rows: data lines of a text artifact, the CSV header not counted
        if path.endswith((".csv", ".ndjson", ".json")):
            entry["rows"] = max(0, lines - 1) if path.endswith(".csv") else lines
        described.append(entry)
    described.sort(key=lambda e: e["path"])
    # so are the inputs, external files included: a corpus and its output
    # tree moved together keep their manifest bytes
    for entry in inputs:
        entry["path"] = os.path.relpath(entry["path"], layout.out_dir)
    payload = {
        "stage": stage,
        "config_digest": config_digest,
        "inputs": sorted(inputs, key=lambda e: e["path"]),
        "outputs": described,
        "counters": dict(sorted(counters.items())),
    }
    write_ndjson(layout.manifest(stage), [payload])


def read_manifest(layout: Layout, stage: str) -> dict:
    with open(layout.manifest(stage), encoding="utf-8") as fh:
        return json.load(fh)


# --- article / classification serialization -------------------------------

def _iso(day: date | None) -> str | None:
    return None if day is None else day.isoformat()


_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _date(text: str | None) -> date | None:
    """An artifact's date: `YYYY-MM-DD` only, a form every interpreter reads alike."""
    if not text:
        return None
    if not _ISO_DAY.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


def _license(obj: dict) -> LicenseStatement:
    return LicenseStatement(
        url=obj["url"],
        applies_to_vor=obj["applies_to_vor"],
        start_date=_date(obj.get("start_date")),
    )


def _authorship(obj: dict) -> Authorship:
    return Authorship(
        position=obj["position"],
        is_corresponding=obj.get("corresponding"),
        org_ids=frozenset(obj.get("org_ids") or ()),
        countries=frozenset(obj.get("countries") or ()),
    )


class IngestRow:
    """One ingest line, decoded, as classify reads it.

    The line is the record's canonical JSON, as
    `ingest.parse_article_line` wrote it, and is kept: the classified
    line copies the record's text from it. What the classification rules
    read is an attribute, the publication date a `date`; licenses are
    built only when asked for. No rule reads the authors, so their run of
    the line is cut out before it is decoded.
    """

    __slots__ = (
        "source", "native_id", "journal_issn_l", "pub_date", "document_class", "title",
        "pagination", "article_number", "line", "_record",
    )

    def __init__(self, line: str, source: str):
        # canonical key order puts authors between article_number and
        # document_class, and `,"` and a key's name start only that key
        authors = line.index(',"authors":')
        obj = _decode_object(line[:authors] + line[line.index(',"document_class":', authors):])[0]
        self.source = source
        self.native_id = obj["native_id"]
        self.journal_issn_l = obj["issn"]
        self.pub_date = _date(obj["pub_date"])
        self.document_class = obj["document_class"]
        self.title = obj["title"]
        self.pagination = obj["pagination"]
        self.article_number = obj["article_number"]
        self.line = line
        self._record = obj

    @property
    def doi(self) -> str | None:
        return self._record["doi"]

    @property
    def licenses(self) -> tuple[LicenseStatement, ...]:
        return tuple(map(_license, self._record["licenses"]))


# A JSON string, and null, false or true, as `dump_canonical` writes them,
# without the encoder's per-call set-up: ingest writes one line, and
# classify one classified line and one DOI index entry, per record.
json_string = json.encoder.encode_basestring_ascii
JSON_LITERAL = {None: "null", False: "false", True: "true"}


def classified_to_line(article: ClassifiedArticle) -> str:
    """The article's classified line: `dump_canonical` of its flags, year,
    publisher and the record keys the later stages read (authors, doi,
    issn, licenses, native_id, pub_date), without encoding the record again.

    The record's text is copied from its ingest line, which is canonical
    JSON: its top-level keys come in sorted order, and inside a string
    every `"` is escaped, so `,"` followed by a key's name and `":` occurs
    only where that key starts, unless a nested object has a key of that
    name; no author or license has one. In that order (article_number,
    authors, document_class, doi, issn, licenses, native_id, pagination,
    pub_date, source, title) the kept keys are three runs.
    """
    line = article.record.line
    authors = line.index(',"authors":')
    document_class = line.index(',"document_class":', authors)
    doi = line.index(',"doi":', document_class)
    pagination = line.index(',"pagination":', doi)
    pub_date = line.index(',"pub_date":', pagination)
    source = line.index(',"source":', pub_date)
    return (
        f'{{"countable":{JSON_LITERAL[article.countable]}'
        f',"in_regular_issue":{JSON_LITERAL[article.in_regular_issue]}'
        f',"is_hybrid_oa":{JSON_LITERAL[article.is_hybrid_oa]}'
        f',"is_original":{JSON_LITERAL[article.is_original]}'
        f',"is_paratext":{JSON_LITERAL[article.is_paratext]}'
        f',"journal_is_hybrid":{JSON_LITERAL[article.journal_is_hybrid]}'
        f',"publisher":{json_string(article.publisher)}'
        f',"record":{{{line[authors + 1:document_class]}{line[doi:pagination]}'
        f'{line[pub_date:source]}}}'
        f',"year":{article.year}}}'
    )


# A countable article is in a regular issue, and canonical key order puts
# these three flags first: the line of every countable hybrid OA article,
# and of no other, starts with this text.
_ATTRIBUTABLE_PREFIX = '{"countable":true,"in_regular_issue":true,"is_hybrid_oa":true,'


def is_attributable(line: str) -> bool:
    """Whether a classified line is countable hybrid OA, told without decoding it."""
    return line.startswith(_ATTRIBUTABLE_PREFIX)


# Inside a JSON string every `"` is escaped, so a key's name between quotes
# and its `:` occur only where that key is written. Only the classified
# object has a journal_is_hybrid key, and only an author a corresponding key.

def in_hybrid_journal(line: str) -> bool:
    """Whether a classified line's journal is hybrid, told without decoding it."""
    return ',"journal_is_hybrid":true,' in line


def has_corresponding_data(line: str) -> bool:
    """Whether any author of a classified line carries a corresponding
    flag, true or false; told without decoding the line."""
    return '"corresponding":true' in line or '"corresponding":false' in line


def _first_author(first: dict | None) -> dict | None:
    """The first author of a record, given the first object of its
    authors: that object when its position is 1, else None. Ingest sorts
    authors by position, and a position is at least 1, so no later
    author can be at position 1 when the first one is not."""
    return first if first is not None and first["position"] == 1 else None


class ClassifiedRow:
    """One decoded classified line, as the stages after classify read it.

    The flags, year, publisher and the record's keys are attributes; the
    publication date, licenses and authors are built only when asked for.
    The first-author rule is `_first_author`.
    """

    __slots__ = (
        "source", "native_id", "doi", "journal_issn_l", "year", "publisher", "is_original",
        "is_paratext", "in_regular_issue", "is_hybrid_oa", "countable", "journal_is_hybrid",
        "_record",
    )

    def __init__(self, obj: dict, source: str):
        record = obj["record"]
        self.source = source
        self.native_id = record["native_id"]
        self.doi = record["doi"]
        self.journal_issn_l = record["issn"]
        self.year = obj["year"]
        self.publisher = obj["publisher"]
        self.is_original = obj["is_original"]
        self.is_paratext = obj["is_paratext"]
        self.in_regular_issue = obj["in_regular_issue"]
        self.is_hybrid_oa = obj["is_hybrid_oa"]
        self.countable = obj["countable"]
        self.journal_is_hybrid = obj["journal_is_hybrid"]
        self._record = record

    @property
    def pub_date(self) -> date | None:
        return _date(self._record["pub_date"])

    @property
    def licenses(self) -> tuple[LicenseStatement, ...]:
        return tuple(map(_license, self._record["licenses"]))

    def first_author(self) -> Authorship | None:
        """The first author (`_first_author`), or None."""
        authors = self._record["authors"]
        author = _first_author(authors[0] if authors else None)
        return _authorship(author) if author is not None else None

    def corresponding_authors(self) -> tuple[Authorship, ...]:
        return tuple(_authorship(a) for a in self._record["authors"] if a["corresponding"] is True)


# Ingest and classified lines are each one canonical JSON object: decoded
# without the whitespace checks of json.loads.
_decode_object = json.JSONDecoder().raw_decode


def ingest_from_line(line: str, source: str) -> IngestRow:
    return IngestRow(line, source)


def classified_from_line(line: str, source: str) -> ClassifiedRow:
    return ClassifiedRow(_decode_object(line)[0], source)


# --- external sort --------------------------------------------------------------

# Memory one sorted run may take before it spills to a temp file: each
# line counted as CPython holds it, its characters plus LINE_OVERHEAD
# bytes of str header and list slot. A classify task sorts its DOI stream
# and its DOI index entries, so its sorting holds about twice this, plus a
# chunk of lines, whatever the size of the corpus. At 10k works a source
# has about 1 MB of each, and nothing spills.
SORT_RUN_BYTES = 2 << 20
LINE_OVERHEAD = 57


class SortedRuns:
    """Lines sorted as text in bounded memory: an external merge sort
    (Knuth, TAOCP vol. 3, section 5.4).

    Each line is added with its "\n", a chunk of lines at a time. Lines
    gather in one run in memory; a run that reaches SORT_RUN_BYTES is
    sorted and spills to a temp file in `spill_dir` (the system's temp
    directory when None). `merged()` yields every line in text order,
    merging the spilled runs with the one in memory. A line here is
    printable ASCII, so its "\n" sorts it as the line alone would sort.
    """

    def __init__(self, spill_dir: str | None = None):
        self.spill_dir = spill_dir
        self.files: list[str] = []
        self._run: list[str] = []
        self._size = 0

    def extend(self, lines: list[str]) -> None:
        """Add the lines; a run that reached SORT_RUN_BYTES spills after them."""
        self._run.extend(lines)
        self._size += sum(map(len, lines)) + LINE_OVERHEAD * len(lines)
        if self._size >= SORT_RUN_BYTES:
            self.spill()

    def spill(self) -> None:
        """Sort the run in memory and write it to a temp file of its own."""
        self._run.sort()
        fd, path = tempfile.mkstemp(suffix=".run", dir=self.spill_dir)
        with open(fd, "w", encoding="ascii", newline="") as fh:
            fh.writelines(self._run)
        self.files.append(path)
        self._run, self._size = [], 0

    def settle(self) -> None:
        """Spill the run in memory when an earlier one spilled: handed to
        another process, runs that spilled then carry their paths only."""
        if self.files and self._run:
            self.spill()

    def merged(self) -> Iterable[str]:
        return merge_runs([self])

    def close(self) -> None:
        """Delete the spilled runs."""
        for path in self.files:
            os.unlink(path)
        self.files = []


def merge_runs(runs: Sequence[SortedRuns]) -> Iterable[str]:
    """Every line of the runs, in text order: the runs in memory sorted
    together, merged with the spilled ones when there are any."""
    in_memory = sorted(itertools.chain.from_iterable(r._run for r in runs))
    paths = [path for r in runs for path in r.files]
    return _merge_files(paths, in_memory) if paths else in_memory


def _merge_files(paths: list[str], in_memory: list[str]) -> Iterator[str]:
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, encoding="ascii", newline="")) for path in paths]
        yield from heapq.merge(*files, in_memory)


# --- DOI streams and journal summaries --------------------------------------------
# Besides its classified file, classify writes two small files per source,
# which are what reconcile and compare read:
#   * `classify/dois_<source>.ndjson`: one canonical JSON array per record
#     that has a DOI, [doi, ISSN-L, countable in the year window, the first
#     author's org IDs], its lines sorted as text, so the lines of one DOI
#     are adjacent, and every stream's lines come in the same DOI order
#     (a DOI's JSON string is never a prefix of another's);
#   * `classify/journals_<source>.ndjson`: one array per journal seen,
#     [ISSN-L, the publisher of its first article in file order, whether
#     it has a hybrid OA article in the window], in ISSN-L order.

# Distinct first-author texts one `SourceStreams` memo holds, each of at
# most FIRST_AUTHOR_CHARS characters; a full memo is emptied.
FIRST_AUTHOR_TEXTS = 1 << 15
FIRST_AUTHOR_CHARS = 256
_AUTHORS = ',"authors":['
_POSITION = ',"position":'


def author_org_ids(author: str) -> str:
    """The canonical JSON array of the first author's org IDs, given the
    text of a record's first author object; `[]` when that object is not
    at position 1 (`_first_author`) or there is none."""
    found = _first_author(_decode_object(author)[0] if author else None)
    return dump_canonical(found["org_ids"] if found is not None else [])


class SourceStreams:
    """What classify writes of one source besides its classified file,
    gathered as it classifies the source's records in file order: the DOI
    stream and the DOI index entries, each as sorted runs, and the journal
    summary.

    The first author is read from the record's ingest line: an author's
    position is its last key and an integer, and inside a string every
    `"` is escaped, so the first author object ends at the first `}` after
    its first `,"position":`. Each distinct text of that object is decoded
    once (`author_org_ids`).
    """

    def __init__(self, source: str, years: tuple[int, int], spill_dir: str | None = None):
        self.label = json_string(source)
        self.years = years
        self.dois = SortedRuns(spill_dir)
        self.index = SortedRuns(spill_dir)
        self.journals: dict[str, list] = {}
        self._offset = 0  # of the next classified line in its file
        self._org_ids: dict[str, str] = {}

    def add(self, articles: Sequence[ClassifiedArticle], lines: Sequence[str]) -> None:
        """Add a chunk of the source's articles, in file order, with their
        classified lines. A classified line is ASCII, so its bytes are its
        characters, and one more for its "\n"."""
        lo, hi = self.years
        journals, org_ids, label = self.journals, self._org_ids, self.label
        dois, index = [], []
        for article, classified in zip(articles, lines):
            offset = self._offset
            self._offset += len(classified) + 1
            record = article.record
            issn_l = record.journal_issn_l
            in_window = lo <= article.year <= hi
            journal = journals.get(issn_l)
            if journal is None:
                journal = journals[issn_l] = [article.publisher, False]
            if article.is_hybrid_oa and in_window:
                journal[1] = True
            doi = record.doi
            if not doi:
                continue
            line = record.line
            at = line.index(_AUTHORS) + len(_AUTHORS)
            end = at if line[at] == "]" else line.index("}", line.index(_POSITION, at)) + 1
            author = line[at:end]
            ids = org_ids.get(author)
            if ids is None:
                ids = author_org_ids(author)
                if len(author) <= FIRST_AUTHOR_CHARS:
                    if len(org_ids) >= FIRST_AUTHOR_TEXTS:
                        org_ids.clear()
                    org_ids[author] = ids
            doi = json_string(doi)
            index.append(f"[{doi},{label},{offset}]\n")
            dois.append(
                f"[{doi},{json_string(issn_l)},{JSON_LITERAL[article.countable and in_window]}"
                f",{ids}]\n"
            )
        self.dois.extend(dois)
        self.index.extend(index)

    def journal_lines(self) -> list[str]:
        return [
            f"[{json_string(issn_l)},{json_string(publisher)},{JSON_LITERAL[hybrid_oa]}]\n"
            for issn_l, (publisher, hybrid_oa) in sorted(self.journals.items())
        ]


def json_rows(lines: Iterable[str]) -> Iterator:
    """The JSON value of each line of a DOI stream or journal summary."""
    for line in lines:
        yield _decode_object(line)[0]


DoiEntry = tuple[int, str, bool, list]


def doi_groups(streams: Sequence[Iterable[str]]) -> Iterator[tuple[str, list[DoiEntry]]]:
    """(DOI, its entries) of every DOI in the DOI streams, one merge over
    them all, in their line order.

    An entry is (the index of its stream in `streams`, ISSN-L, countable in
    the window, first author's org IDs); a DOI's entries come in line
    order, and equal lines in stream order. One line of each stream is
    held at a time.
    """
    ranked = [zip(stream, itertools.repeat(rank)) for rank, stream in enumerate(streams)]
    entries = ((_decode_object(line)[0], rank) for line, rank in heapq.merge(*ranked))
    for doi, group in itertools.groupby(entries, key=lambda entry: entry[0][0]):
        yield doi, [(rank, *entry[1:]) for entry, rank in group]


# --- DOI index ----------------------------------------------------------------
# `classify/doi_index.ndjson` holds one canonical JSON array per classified
# record that has a DOI: [doi, source, byte offset of the record's line in
# its classified file]. Its lines are sorted as text, so the entries of one
# DOI are adjacent and all start with `[`, the DOI's JSON string and `,`;
# a DOI that is a prefix of another stops short of the other's closing
# quote. Classify makes each source's entries (`SourceStreams.index`) and
# merges them into the index (`merge_runs`).

def doi_index_hits(path: str, doi: str) -> list[tuple[str, int]]:
    """(source, offset) of every index entry of `doi`, in index order.

    Bisects the index for its first line not below the DOI's prefix, then
    reads on while lines hold that prefix: O(log n) lines read, not n.
    """
    prefix = f"[{json_string(doi)},".encode("ascii")
    fd = os.open(path, os.O_RDONLY)
    try:
        if os.fstat(fd).st_size == 0:
            return []  # no record has a DOI; an empty file cannot be mapped
        with mmap.mmap(fd, 0, access=mmap.ACCESS_READ) as index:
            # lines starting before lo sort below the prefix; lines
            # starting at or after hi do not. Both are line starts. An
            # unterminated last line ends at the end of the file: `find`
            # gives -1 there, and `% (size + 1)` turns that into `size`.
            size = len(index)
            lo, hi = 0, size
            while lo < hi:
                start = index.rfind(b"\n", 0, (lo + hi) // 2) + 1
                end = index.find(b"\n", start) % (size + 1)
                if index[start:end] < prefix:
                    lo = end + 1
                else:
                    hi = start
            hits = []
            while index[lo:lo + len(prefix)] == prefix:
                end = index.find(b"\n", lo) % (size + 1)
                _, source, offset = json.loads(index[lo:end])
                hits.append((source, offset))
                lo = end + 1
    finally:
        os.close(fd)
    return hits


def classified_at(path: str, source: str, offset: int) -> ClassifiedRow:
    """The row whose classified line starts at byte `offset` of `path`."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        return classified_from_line(fh.readline().decode("utf-8"), source)


# --- tabular artifacts ------------------------------------------------------

def write_agreements(path: str, agreements: Iterable[Agreement]) -> None:
    payload = (
        {
            "agreement_id": a.agreement_id,
            "publisher": a.publisher,
            "journal_issn_ls": sorted(a.journal_issn_ls),
            "institution_ids": sorted(a.institution_ids),
            "start_date": _iso(a.start_date),
            "end_date": _iso(a.end_date),
        }
        for a in sorted(agreements, key=lambda a: a.agreement_id)
    )
    write_ndjson(path, payload)


def read_agreements(path: str) -> list[Agreement]:
    out = []
    with open_input_text(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            out.append(
                Agreement(
                    agreement_id=obj["agreement_id"],
                    publisher=obj["publisher"],
                    journal_issn_ls=frozenset(obj["journal_issn_ls"]),
                    institution_ids=frozenset(obj["institution_ids"]),
                    start_date=_date(obj["start_date"]),
                    end_date=_date(obj["end_date"]),
                )
            )
    return out


def write_journals(path: str, journals: Iterable[Journal]) -> None:
    rows = [
        (j.issn_l, j.publisher, str(j.is_hybrid).lower(), "|".join(sorted(j.issn_variants)))
        for j in sorted(journals, key=lambda j: j.issn_l)
    ]
    write_csv(path, ("issn_l", "publisher", "is_hybrid", "issn_variants"), rows)


def read_journals(path: str) -> dict[str, Journal]:
    with open_input_text(path, newline="") as fh:
        return {
            row["issn_l"]: Journal(
                issn_l=row["issn_l"],
                issn_variants=frozenset(v for v in row["issn_variants"].split("|") if v),
                publisher=row["publisher"],
                is_hybrid=row["is_hybrid"] == "true",
            )
            for row in csv.DictReader(fh)
        }


def write_institutions(path: str, institutions: Iterable[Institution]) -> None:
    rows = [
        (inst.org_id, inst.country, "|".join(sorted(inst.associated_ids)))
        for inst in sorted(institutions, key=lambda i: i.org_id)
    ]
    write_csv(path, ("org_id", "country", "associated_ids"), rows)


def read_institutions(path: str) -> list[Institution]:
    out = []
    with open_input_text(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(
                Institution(
                    org_id=row["org_id"],
                    country=row["country"],
                    associated_ids=frozenset(
                        a for a in (row["associated_ids"] or "").split("|") if a
                    ),
                )
            )
    return out


CROSSWALK_HEADER = ("open_id", "scheme", "proprietary_id", "support")


def _crosswalk_row(e: CrosswalkEntry) -> tuple:
    return (org_value(e.open_id), e.scheme, org_value(e.proprietary_id), e.support)


def write_crosswalk(path: str, entries: Iterable[CrosswalkEntry]) -> None:
    rows = [_crosswalk_row(e) for e in sorted(entries, key=lambda e: (e.scheme, e.open_id))]
    write_csv(path, CROSSWALK_HEADER, rows)


def write_audit(path: str, sample: Iterable[CrosswalkEntry], examples: dict) -> None:
    """Sampled crosswalk entries with their example DOIs, `|`-joined."""
    rows = [
        _crosswalk_row(e) + ("|".join(examples.get((e.open_id, e.proprietary_id), ())),)
        for e in sample
    ]
    write_csv(path, CROSSWALK_HEADER + ("example_dois",), rows)


def read_crosswalk(path: str) -> list[CrosswalkEntry]:
    out = []
    with open_input_text(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(
                CrosswalkEntry(
                    open_id=make_org_id(ROR_SCHEME, row["open_id"]),
                    scheme=row["scheme"],
                    proprietary_id=make_org_id(row["scheme"], row["proprietary_id"]),
                    support=int(row["support"]),
                )
            )
    return out


ATTRIBUTION_HEADER = (
    "source", "native_id", "doi", "year", "role", "ta_enabled", "agreement_ids",
    "matched_institution",
)


def attribution_row(row: ClassifiedRow, role: str, match: AttributionRecord | None) -> tuple:
    """One row of `attributions_<role>.csv`; `match` is None when no agreement matched."""
    out = (row.source, row.native_id, row.doi or "", row.year, role)
    if match is None:
        return out + ("false", "", "")
    return out + ("true", "|".join(match.agreement_ids), match.matched_institution)


def write_attributions(path: str, rows: Iterable[tuple]) -> int:
    """Write `attribution_row` rows in (source, native_id) order; returns
    the number of TA-enabled rows."""
    ordered = sorted(rows, key=lambda r: (r[0], r[1]))
    write_csv(path, ATTRIBUTION_HEADER, ordered)
    return sum(1 for r in ordered if r[5] == "true")


def read_ta_keys(path: str) -> set[tuple[str, str]]:
    """(source, native_id) of every TA-enabled attribution row."""
    with open_input_text(path, newline="") as fh:
        return {
            (row["source"], row["native_id"])
            for row in csv.DictReader(fh)
            if row["ta_enabled"] == "true"
        }


def write_indicators(path: str, rows: Iterable[IndicatorRow]) -> int:
    ordered = sorted(rows, key=lambda r: (r.role, r.group_kind, r.source, r.year, r.group_key))
    header = (
        "year", "source", "role", "group_kind", "group_key", "n_total", "n_original", "n_oa",
        "n_ta_oa", "oa_share", "ta_share_of_oa",
    )
    return write_csv(
        path,
        header,
        [
            (
                r.year, r.source, r.role, r.group_kind, r.group_key, r.n_total, r.n_original,
                r.n_oa, r.n_ta_oa, format_share(r.oa_share), format_share(r.ta_share_of_oa),
            )
            for r in ordered
        ],
    )


def read_indicators(path: str) -> list[IndicatorRow]:
    with open_input_text(path, newline="") as fh:
        return [
            IndicatorRow(
                year=int(row["year"]),
                source=row["source"],
                role=row["role"],
                group_kind=row["group_kind"],
                group_key=row["group_key"],
                n_total=int(row["n_total"]),
                n_original=int(row["n_original"]),
                n_oa=int(row["n_oa"]),
                n_ta_oa=int(row["n_ta_oa"]),
            )
            for row in csv.DictReader(fh)
        ]


# --- analysis tables ----------------------------------------------------------

def write_intersections(path: str, sets: Iterable[IntersectionSet]) -> None:
    rows = [
        (membership_key(s.membership), s.n_journals, s.n_articles_shared, s.n_articles_surplus_open)
        for s in sets
    ]
    header = ("membership", "n_journals", "n_articles_shared", "n_articles_surplus_open")
    write_csv(path, header, rows)


def write_uptake(global_path: str, publisher_path: str, rows: Sequence[IndicatorRow]) -> None:
    """GLOBAL indicator rows to one table, PUBLISHER rows (keyed by publisher) to the other."""
    header = (
        "year", "source", "role", "n_original", "n_oa", "oa_share", "n_ta_oa", "ta_share_of_oa"
    )

    def uptake(r: IndicatorRow) -> tuple:
        return (
            r.year, r.source, r.role, r.n_original, r.n_oa, format_share(r.oa_share), r.n_ta_oa,
            format_share(r.ta_share_of_oa),
        )

    write_csv(global_path, header, [uptake(r) for r in rows if r.group_kind == GROUP_GLOBAL])
    write_csv(
        publisher_path,
        ("publisher",) + header,
        [(r.group_key,) + uptake(r) for r in rows if r.group_kind == GROUP_PUBLISHER],
    )


# Headers of the tables whose rows `analytics` builds, by file name.
TABLE_HEADERS = {
    "coverage.csv": ("source", "measure", "value"),
    "journal_volumes.csv": ("membership", "issn_l", "publisher", "n_articles_shared"),
    "intersections_publisher.csv": ("membership", "publisher", "n_journals", "n_articles_shared"),
    "correlations.csv": (
        "metric", "x_source", "x_role", "y_source", "y_role", "filter_threshold", "n", "rho",
    ),
    "country_scatter.csv": (
        "metric", "country", "x_source", "x_role", "x_value", "y_source", "y_role", "y_value",
    ),
}


def write_table(path: str, rows: Iterable[Sequence]) -> int:
    return write_csv(path, TABLE_HEADERS[os.path.basename(path)], rows)
