"""Parsers for every external file format the engine consumes.

All loaders share the same error discipline: structural problems (missing
header columns, unreadable files) raise, data problems reject the
offending row into a sidecar log and never abort the run. Reject logs
carry line number, reason code, and the raw text so every dropped row is
auditable.

An article line is validated straight into the text of its ingest
artifact line (`parse_article_line`): each field is written as canonical
JSON as it is checked, with no record dict built and no JSON encoder run.
A list field (licenses, authors, an author's org IDs or countries) that
holds anything but a list is rejected like any other mistyped field, and
so is a line that is not UTF-8. Article streams are read in chunks of
non-blank lines (`artifacts.line_chunks`); the lines of a chunk can be
parsed anywhere (`article_outcomes`), and an `ArticleLedger` takes the
outcomes back in input order. Memory stays constant in file length:
exact duplicate detection over (source, native_id) uses a disk-backed
index.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import sqlite3
import tempfile
from collections import Counter, defaultdict
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from datetime import date
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from . import artifacts
from .errors import ChecksumFailure, MalformedIssn, MissingColumn, SchemaViolation
from .identifiers import is_org_id, normalize_doi, validate_issn
from .model import (
    Agreement,
    Institution,
    Journal,
    majority_label,
    normalize_publisher,
    parse_date_pinned,
)

log = logging.getLogger(__name__)

# Reject reason codes written to sidecar logs.
REJECT_MALFORMED_ISSN = "malformed_issn"
REJECT_CHECKSUM = "checksum_failure"
REJECT_INVERTED_WINDOW = "inverted_window"
REJECT_CONFLICTING_LINK = "conflicting_link"
REJECT_CONFLICTING_WINDOW = "conflicting_window"
REJECT_SELF_ASSOCIATION = "self_association"
REJECT_SCHEMA = "schema_violation"
REJECT_DUPLICATE = "duplicate_record"
REJECT_BAD_DATE = "bad_date"
REJECT_BAD_FIELD = "bad_field"


@dataclass
class CorpusManifest:
    """Reconciliation totals for one parsed input.

    record_count + reject_count always equals the number of countable
    input lines (header and blank lines excluded).
    """

    record_count: int = 0
    reject_count: int = 0

    @property
    def total_lines(self) -> int:
        return self.record_count + self.reject_count


class RejectLog:
    """Sidecar writer for rejected rows: line number, reason, raw text.

    The log is an artifact: it appears at `path` when the writer is closed,
    and a `with` block that raises discards it.
    """

    def __init__(self, path: str | None):
        self.path = path
        self.count = 0
        self._writer = None
        self._file = ExitStack()
        if path:
            fh = self._file.enter_context(artifacts.open_artifact(path))
            self._writer = csv.writer(fh, lineterminator="\n")
            self._writer.writerow(["line", "reason", "raw"])

    def reject(self, lineno: int, reason: str, raw: str):
        self.count += 1
        if self._writer:
            raw = raw.rstrip("\n")
            if not raw.isascii():
                # bytes that were not UTF-8, read as lone surrogates, as \xNN
                raw = raw.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
            self._writer.writerow([lineno, reason, raw])

    def close(self):
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.__exit__(*exc)


class DedupeIndex:
    """Exact seen-key index backed by a temporary sqlite database.

    Grows on disk, not in RAM, so streaming ingestion keeps a flat memory
    profile no matter how many records pass through.
    """

    def __init__(self):
        fd, self._path = tempfile.mkstemp(suffix=".dedupe.sqlite")
        os.close(fd)
        self._conn = sqlite3.connect(self._path)
        self._conn.execute("PRAGMA journal_mode=OFF")
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.execute("CREATE TABLE seen (k TEXT PRIMARY KEY) WITHOUT ROWID")
        self._cur = self._conn.cursor()
        self._cur.execute("BEGIN")

    def add(self, key: str) -> bool:
        """Insert the key; True when it was not seen before."""
        self._cur.execute("INSERT OR IGNORE INTO seen VALUES (?)", (key,))
        return self._cur.rowcount == 1

    def close(self):
        if self._conn is not None:
            self._conn.commit()
            self._conn.close()
            self._conn = None
            os.unlink(self._path)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def resolve_issn_l(issn: str, links: dict[str, str]) -> str:
    """Map an ISSN variant to its linking ISSN; unlisted ISSNs self-link."""
    return links.get(issn, issn)


def _checked_issn(raw: str) -> str:
    """`validate_issn`, with its failures raised as reject-coded SchemaViolations."""
    try:
        return validate_issn(raw)
    except MalformedIssn as exc:
        raise SchemaViolation(REJECT_MALFORMED_ISSN, str(exc)) from None
    except ChecksumFailure as exc:
        raise SchemaViolation(REJECT_CHECKSUM, str(exc)) from None


# Distinct texts one `TextChecks` memo holds; a full memo is emptied. Only
# a text of at most MEMO_AUTHOR_CHARS characters is kept, so a memo's
# memory is bounded whatever the length of its input's lines.
MEMO_TEXTS = 1 << 16

# Distinct authors the author memo holds; a full memo is emptied. Only an
# author of at most MEMO_AUTHOR_IDS countries and org IDs, of at most
# MEMO_AUTHOR_CHARS characters in all, whose text has at most
# MEMO_AUTHOR_CHARS characters, is kept. An entry then takes at most about
# 2.4 KB on 64-bit CPython (the key's strings at most 8 x 76 B of header
# plus 4 B a character, the text at most 305 B, two tuples, a position of
# at most 250 digits and the dict slot), so a full memo takes at most
# about 80 MB. A fixture author (at most 4 IDs of 24 characters in all)
# takes about 0.45 KB.
MEMO_AUTHORS = 1 << 15
MEMO_AUTHOR_IDS = 8
MEMO_AUTHOR_CHARS = 256


class _Rejected(NamedTuple):
    """A memoized check's failure, raised again as a SchemaViolation on each hit."""

    code: str
    detail: str


class TextChecks:
    """The checks that ingest repeats on the same values, each distinct
    value checked once: ISSN validation with ISSN-L resolution, date
    parsing, the org-ID shape, and whole author objects.

    A text's verdict, its value or the reject it raises, is kept in a memo
    of at most MEMO_TEXTS texts, when the text has at most
    MEMO_AUTHOR_CHARS characters; a longer one is checked again each
    time, to the same verdict. An author's verdict is kept only when the
    author is accepted, in a memo of at most MEMO_AUTHORS authors, so a
    rejected author is checked again each time and keeps its own reject
    detail. One instance lives for one ingest stage, with the ISSN link
    table it resolves through; a worker process gets its own copy.
    """

    def __init__(self, links: dict[str, str] | None = None):
        self.links = links or {}
        self._issns: dict[str, tuple[str, str] | _Rejected] = {}
        self._dates: dict[str, date | _Rejected] = {}
        self._orgs: dict[str, bool] = {}
        self._authors: dict[tuple, tuple[int, str]] = {}

    def issn(self, raw: str) -> tuple[str, str]:
        """(ISSN, ISSN-L) of a raw ISSN text; raises its reject."""
        return _memoized(self._issns, self._resolve, raw)

    def _resolve(self, raw: str) -> tuple[str, str]:
        issn = _checked_issn(raw)
        return issn, resolve_issn_l(issn, self.links)

    def date(self, text) -> date:
        """`parse_date_pinned(text)`; a date that is not a string is a bad_date."""
        if type(text) is not str:
            raise SchemaViolation(REJECT_BAD_DATE, repr(text))
        return _memoized(self._dates, parse_date_pinned, text)

    def org_id(self, text: str) -> bool:
        """`is_org_id(text)`."""
        return _memoized(self._orgs, is_org_id, text)

    def author(self, author) -> tuple[int, str]:
        """(position, canonical text) of an author object; raises its reject.

        Only an author with a memo key (`_author_key`) is looked up, and
        only an accepted one of at most MEMO_AUTHOR_IDS IDs and
        MEMO_AUTHOR_CHARS characters is kept.
        """
        key = _author_key(author)
        if key is None:
            return self._check_author(author)
        try:
            return self._authors[key]
        except KeyError:
            pass
        except TypeError:  # a country or org ID that is a list or object
            return self._check_author(author)
        entry = self._check_author(author)
        ids = key[3:]  # an accepted author's countries and org IDs: strings
        if (
            len(ids) <= MEMO_AUTHOR_IDS
            and len(entry[1]) <= MEMO_AUTHOR_CHARS
            and sum(map(len, ids)) <= MEMO_AUTHOR_CHARS
        ):
            if len(self._authors) >= MEMO_AUTHORS:
                self._authors.clear()
            self._authors[key] = entry
        return entry

    def _check_author(self, author) -> tuple[int, str]:
        """(position, canonical text) of an author object, checked in full."""
        if not isinstance(author, dict):
            raise SchemaViolation("bad_author", repr(author))
        position = author.get("position")
        if type(position) is not int or position < 1:
            raise SchemaViolation("bad_author", f"position {position!r}")
        org_ids = _list_field(author, "org_ids", "bad_org_id")
        for org in org_ids:
            if not isinstance(org, str) or not self.org_id(org):
                raise SchemaViolation("bad_org_id", repr(org))
        corresponding = author.get("corresponding")
        if corresponding is not None and not isinstance(corresponding, bool):
            raise SchemaViolation("bad_author", f"corresponding {corresponding!r}")
        countries = _list_field(author, "countries", "bad_author")
        try:
            codes = {c.strip().upper() for c in countries if c.strip()}
        except AttributeError:  # an element that is not a string
            raise SchemaViolation("bad_author", f"countries {countries!r}") from None
        return position, (
            f'{{"corresponding":{_JSON[corresponding]}'
            f',"countries":[{",".join(map(_string, sorted(codes)))}]'
            f',"org_ids":[{",".join(map(_string, sorted(set(org_ids))))}]'
            f',"position":{position}}}'
        )


def _author_key(author) -> tuple | None:
    """The author memo's key, for an author whose parse the key fixes, else
    None: its position, corresponding flag and number of countries, then
    its countries and org IDs, in one flat tuple.

    Values that compare equal but parse apart are kept out: the position
    must be an `int` (`True` and `1.0` equal 1 but are rejected), the
    corresponding flag a `bool` or absent (`1` equals `True`), and the
    countries and org IDs lists (`_list_field` reads `false` or `""` as
    none, and the tuple of `"AU"` equals that of `["A", "U"]`). Keys that
    the parse ignores play no part.
    """
    if type(author) is not dict:
        return None
    position = author.get("position")
    corresponding = author.get("corresponding")
    countries = author.get("countries")
    org_ids = author.get("org_ids")
    if (
        type(position) is int
        and (corresponding is None or type(corresponding) is bool)
        and type(countries) is list
        and type(org_ids) is list
    ):
        return position, corresponding, len(countries), *countries, *org_ids
    return None


def _memoized(memo: dict, check: Callable, text: str):
    """check(text), looked up in `memo` first; a SchemaViolation it raises
    is memoized too, and raised afresh on every hit. A text of more than
    MEMO_AUTHOR_CHARS characters is not kept."""
    try:
        verdict = memo[text]
    except KeyError:
        try:
            verdict = check(text)
        except SchemaViolation as exc:
            verdict = _Rejected(exc.code, exc.detail)
        if len(text) <= MEMO_AUTHOR_CHARS:
            if len(memo) >= MEMO_TEXTS:
                memo.clear()
            memo[text] = verdict
    if type(verdict) is _Rejected:
        raise SchemaViolation(verdict.code, verdict.detail)
    return verdict


def _text_checks(links: dict[str, str] | TextChecks | None) -> TextChecks:
    """`links` when it is a TextChecks already, else a new one over the table."""
    return links if isinstance(links, TextChecks) else TextChecks(links)


def _is_utf8(text: str) -> bool:
    """False when `text` holds bytes that were not UTF-8, read as lone surrogates."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _csv_rows(
    path: str, columns: tuple[str, ...], rejects: RejectLog
) -> Iterator[tuple[int, tuple[str, ...]]]:
    """(line number, its `columns`' values) of each data row of a CSV input,
    a field the row lacks as "".

    The header must name every one of `columns`, else MissingColumn; a
    column named twice is read from its last place. Blank lines are
    skipped. A row that holds bytes that are not UTF-8, in any field,
    extra fields included, is rejected here, as a schema violation, before
    any of its fields is checked. A row's reject text is its values
    comma-joined.
    """
    with artifacts.open_input_text(path, errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MissingColumn(f"{path}: empty file, header row required")
        missing = [c for c in columns if c not in header]
        if missing:
            raise MissingColumn(f"{path}: missing column(s) {', '.join(missing)}")
        place = {name: k for k, name in enumerate(header)}
        pick = itemgetter(*(place[c] for c in columns))
        width = max(place[c] for c in columns) + 1
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                row += [""] * (width - len(row))
            if not _is_utf8("".join(row)):
                rejects.reject(reader.line_num, REJECT_SCHEMA, ",".join(pick(row)))
                continue
            yield reader.line_num, pick(row)


def load_issn_link_table(path: str, rejects: RejectLog | None = None) -> dict[str, str]:
    """Load the ISSN -> ISSN-L link table.

    Identity entries are fine; a key mapped to two distinct values keeps
    the first mapping and rejects the later row as a conflicting link.
    """
    rejects = rejects or RejectLog(None)
    links: dict[str, str] = {}
    for lineno, row in _csv_rows(path, ("issn", "issn_l"), rejects):
        try:
            issn = _checked_issn(row[0])
            issn_l = _checked_issn(row[1])
        except SchemaViolation as exc:
            rejects.reject(lineno, exc.code, ",".join(row))
            continue
        if issn in links and links[issn] != issn_l:
            rejects.reject(lineno, REJECT_CONFLICTING_LINK, ",".join(row))
            continue
        links[issn] = issn_l
    return links


def load_fully_oa_lists(
    paths: Iterable[str],
    links: dict[str, str] | None = None,
    rejects: RejectLog | None = None,
) -> set[str]:
    """Union of fully-open-access journal lists, resolved to ISSN-L.

    Each file holds one ISSN per line; '#' starts a comment.
    """
    rejects = rejects or RejectLog(None)
    links = links or {}
    out: set[str] = set()
    for path in paths:
        with artifacts.open_input_text(path, errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                try:
                    if not _is_utf8(line):
                        raise SchemaViolation(REJECT_SCHEMA, "line is not UTF-8")
                    issn = _checked_issn(text)
                except SchemaViolation as exc:
                    rejects.reject(lineno, exc.code, line)
                    continue
                out.add(resolve_issn_l(issn, links))
    return out


@dataclass
class AgreementDump:
    """Grouped agreement rows plus the journal/publisher facts they imply."""

    agreements: set[Agreement] = field(default_factory=set)
    # issn_l -> publisher label counts, used to pick each journal's publisher
    publisher_votes: dict[str, Counter] = field(default_factory=dict)
    # issn_l -> observed variant ISSNs
    variants: dict[str, set[str]] = field(default_factory=dict)


def load_agreement_dump(
    path: str,
    links: dict[str, str] | TextChecks | None = None,
    aliases: dict[str, str] | None = None,
    rejects: RejectLog | None = None,
) -> AgreementDump:
    """Parse the journal x institution x agreement dump.

    Rows sharing an agreement_id merge into one undated Agreement with the
    union of journals (resolved to ISSN-L) and institutions. Validity
    windows are attached later by `load_durations`. `links` is the ISSN
    link table, or a `TextChecks` over it whose memos the article parser
    shares.
    """
    rejects = rejects or RejectLog(None)
    checks = _text_checks(links)
    names: dict[str, str] = {}  # publisher label -> normalized name
    normalize = partial(normalize_publisher, aliases=aliases)
    journals: defaultdict[str, set[str]] = defaultdict(set)
    orgs: defaultdict[str, set[str]] = defaultdict(set)
    publishers: defaultdict[str, Counter] = defaultdict(Counter)
    votes: defaultdict[str, Counter] = defaultdict(Counter)
    variants: defaultdict[str, set[str]] = defaultdict(set)
    columns = ("agreement_id", "issn", "org_id", "publisher")
    for lineno, row in _csv_rows(path, columns, rejects):
        raw_agreement_id, raw_issn, raw_org, raw_publisher = row
        agreement_id = raw_agreement_id.strip()
        org = raw_org.strip()
        if not agreement_id or not checks.org_id(org):
            rejects.reject(lineno, REJECT_SCHEMA, ",".join(row))
            continue
        try:
            issn, issn_l = checks.issn(raw_issn)
        except SchemaViolation as exc:
            rejects.reject(lineno, exc.code, ",".join(row))
            continue
        publisher = _memoized(names, normalize, raw_publisher)
        journals[agreement_id].add(issn_l)
        orgs[agreement_id].add(org)
        publishers[agreement_id][publisher] += 1
        votes[issn_l][publisher] += 1  # one vote per row
        variants[issn_l].add(issn)
    agreements = {
        Agreement(
            agreement_id=agreement_id,
            publisher=majority_label(publishers[agreement_id]),
            journal_issn_ls=frozenset(journals[agreement_id]),
            institution_ids=frozenset(orgs[agreement_id]),
        )
        for agreement_id in journals
    }
    return AgreementDump(agreements, dict(votes), dict(variants))


def build_journals(
    publisher_votes: dict[str, Counter],
    variants: dict[str, set[str]],
    fully_oa_set: set[str],
) -> dict[str, Journal]:
    """Assemble the journal table from agreement-dump facts.

    Publisher per journal is the `majority_label` of its dump rows;
    hybrid status is the absence of the journal's ISSN-L from every
    fully-OA list.
    """
    return {
        issn_l: Journal(
            issn_l=issn_l,
            issn_variants=frozenset(variants.get(issn_l, ())),
            publisher=majority_label(votes),
            is_hybrid=issn_l not in fully_oa_set,
        )
        for issn_l, votes in publisher_votes.items()
    }


def load_durations(
    path: str,
    agreements: Iterable[Agreement],
    rejects: RejectLog | None = None,
) -> set[Agreement]:
    """Attach validity windows; agreements without a duration row are dropped.

    A row without an agreement ID is a schema violation, and one with
    start after end an inverted window. An agreement ID given two distinct
    windows keeps the first and rejects the later row as a conflicting
    window; an identical repeat is fine.
    """
    rejects = rejects or RejectLog(None)
    windows: dict[str, tuple[date, date]] = {}
    for lineno, row in _csv_rows(path, ("agreement_id", "start_date", "end_date"), rejects):
        agreement_id = row[0].strip()
        if not agreement_id:
            rejects.reject(lineno, REJECT_SCHEMA, ",".join(row))
            continue
        try:
            start = parse_date_pinned(row[1])
            end = parse_date_pinned(row[2])
        except SchemaViolation:
            rejects.reject(lineno, REJECT_BAD_DATE, ",".join(row))
            continue
        if start > end:
            rejects.reject(lineno, REJECT_INVERTED_WINDOW, ",".join(row))
            continue
        if windows.setdefault(agreement_id, (start, end)) != (start, end):
            rejects.reject(lineno, REJECT_CONFLICTING_WINDOW, ",".join(row))
    dated: set[Agreement] = set()
    for agreement in agreements:
        window = windows.get(agreement.agreement_id)
        if window is None:
            log.info("agreement %s has no duration row, dropped", agreement.agreement_id)
            continue
        dated.add(replace(agreement, start_date=window[0], end_date=window[1]))
    return dated


def load_publisher_aliases(path: str, rejects: RejectLog | None = None) -> dict[str, str]:
    """Alias table mapping publisher labels (imprints) to canonical names.

    Keys are casefolded for lookup through `normalize_publisher`.
    """
    rejects = rejects or RejectLog(None)
    aliases: dict[str, str] = {}
    for lineno, row in _csv_rows(path, ("alias", "canonical"), rejects):
        alias = " ".join(row[0].split()).casefold()
        canonical = " ".join(row[1].split())
        if not alias or not canonical:
            rejects.reject(lineno, REJECT_SCHEMA, ",".join(row))
            continue
        aliases[alias] = canonical
    return aliases


def load_institutions(path: str, rejects: RejectLog | None = None) -> set[Institution]:
    """Parse institutions with their associated organization IDs.

    The `associated_ids` column is pipe-separated. An organization listing
    itself as its own associate is rejected.
    """
    rejects = rejects or RejectLog(None)
    out: set[Institution] = set()
    for lineno, row in _csv_rows(path, ("org_id", "country", "associated_ids"), rejects):
        raw_org, country, raw_associated = row
        org = raw_org.strip()
        if not is_org_id(org):
            rejects.reject(lineno, REJECT_SCHEMA, ",".join(row))
            continue
        associated = frozenset(a.strip() for a in raw_associated.split("|") if a.strip())
        if org in associated:
            rejects.reject(lineno, REJECT_SELF_ASSOCIATION, ",".join(row))
            continue
        out.add(
            Institution(
                org_id=org,
                country=country.strip().upper(),
                associated_ids=associated,
            )
        )
    return out


def institution_index(institutions: Iterable[Institution]) -> dict[str, str]:
    """Map every institution and associated ID to its parent institution."""
    index: dict[str, str] = {}
    for inst in sorted(institutions, key=lambda i: i.org_id):
        index[inst.org_id] = inst.org_id
        for assoc in inst.associated_ids:
            index.setdefault(assoc, inst.org_id)
    return index


def _list_field(obj: dict, name: str, code: str) -> list:
    """`obj[name]` as a list. Absent, or a false value such as null,
    false, 0, "" or {}, is []; any other value that is not a list raises
    SchemaViolation with `code`."""
    value = obj.get(name) or []
    if not isinstance(value, list):
        raise SchemaViolation(code, f"{name} {value!r}")
    return value


# The ingest line's values, written as `artifacts.dump_canonical` writes them.
_string = artifacts.json_string
_JSON = artifacts.JSON_LITERAL


def _optional(text: str | None) -> str:
    """A JSON string, or null for None."""
    return "null" if text is None else _string(text)


def parse_article_line(
    text: str, source: str, links: dict[str, str] | TextChecks | None = None
) -> tuple[str, str]:
    """Parse one interchange line into (native ID, the ingest artifact's line).

    The line is the record's canonical form: the ISSN resolved to its
    ISSN-L, the DOI normalized, the earliest pinned publication date and
    each license start date as ISO text, authors in position order with
    sorted, de-duplicated org IDs and country codes. Each field is written
    to text as it is checked, keys in sorted order, giving the bytes
    `artifacts.dump_canonical` would make of the record's dict.

    `links` is the ISSN link table, or a `TextChecks` over it, which keeps
    its verdicts on ISSNs, dates, org IDs and authors from one line to the
    next.

    Raises SchemaViolation with a reason code on any deviation from the
    documented schema; callers turn that into a reject-log entry.
    """
    checks = _text_checks(links)
    if not _is_utf8(text):
        raise SchemaViolation("bad_json", "line is not UTF-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation("bad_json", str(exc)) from None
    if not isinstance(obj, dict):
        raise SchemaViolation("bad_json", "line is not an object")

    line_source = obj.get("source")
    if line_source != source:
        raise SchemaViolation("source_mismatch", f"{line_source!r} != {source!r}")
    native_id = obj.get("native_id")
    if not native_id or not isinstance(native_id, str):
        raise SchemaViolation("missing_field", "native_id")

    raw_issn = obj.get("issn")
    if not raw_issn:
        raise SchemaViolation("missing_field", "issn")
    if not isinstance(raw_issn, str):
        raise SchemaViolation(REJECT_MALFORMED_ISSN, repr(raw_issn))
    _, issn_l = checks.issn(raw_issn)

    raw_dates = obj.get("pub_date")
    if raw_dates is None or raw_dates == [] or raw_dates == "":
        raise SchemaViolation("missing_field", "pub_date")
    if isinstance(raw_dates, list):
        pub_date = min(map(checks.date, raw_dates))
    else:
        pub_date = checks.date(raw_dates)

    document_class = obj.get("document_class")
    if not document_class or not isinstance(document_class, str):
        raise SchemaViolation("missing_field", "document_class")
    for name in ("doi", "pagination", "title"):
        value = obj.get(name)
        if value is not None and not isinstance(value, str):
            raise SchemaViolation(REJECT_BAD_FIELD, f"{name} {value!r}")
    article_number = obj.get("article_number")
    if isinstance(article_number, bool) or not isinstance(article_number, (str, int, type(None))):
        raise SchemaViolation(REJECT_BAD_FIELD, f"article_number {article_number!r}")

    licenses = []
    for lic in _list_field(obj, "licenses", "bad_license"):
        if not isinstance(lic, dict) or not lic.get("url") or not isinstance(lic["url"], str):
            raise SchemaViolation("bad_license", repr(lic))
        applies_to_vor = lic.get("applies_to_vor", False)
        if not isinstance(applies_to_vor, bool):
            raise SchemaViolation("bad_license", f"applies_to_vor {applies_to_vor!r}")
        start = lic.get("start_date")
        start = "null" if start is None or start == "" else f'"{checks.date(start).isoformat()}"'
        licenses.append(
            f'{{"applies_to_vor":{_JSON[applies_to_vor]},"start_date":{start}'
            f',"url":{_string(lic["url"])}}}'
        )

    authors = list(map(checks.author, _list_field(obj, "authors", "bad_author")))
    authors.sort(key=itemgetter(0))  # stable: authors sharing a position keep their order

    return native_id, (
        f'{{"article_number":{_optional(str(article_number) if article_number else None)}'
        f',"authors":[{",".join(author for _, author in authors)}]'
        f',"document_class":{_string(document_class)}'
        f',"doi":{_optional(normalize_doi(obj.get("doi")))}'
        f',"issn":{_string(issn_l)}'
        f',"licenses":[{",".join(licenses)}]'
        f',"native_id":{_string(native_id)}'
        f',"pagination":{_optional(obj.get("pagination") or None)}'
        f',"pub_date":"{pub_date.isoformat()}"'
        f',"source":{_string(source)}'
        f',"title":{_string(obj.get("title") or "")}}}'
    )


def article_outcomes(
    lines: Iterable[str], source: str, links: dict[str, str] | TextChecks | None
) -> list:
    """Each line parsed: (native_id, ingest line), or the reject code of a
    line that fails."""
    checks = _text_checks(links)
    out: list = []
    for line in lines:
        try:
            out.append(parse_article_line(line, source, checks))
        except SchemaViolation as exc:
            out.append(exc.code)
    return out


class ArticleLedger:
    """The in-order half of reading one article stream.

    It takes each chunk's `article_outcomes` back in input order. The
    first record of each native ID passes and a later one is a duplicate.
    Duplicates and failed lines go to the reject log with their line
    number and raw text, and `manifest` counts both.
    """

    def __init__(self, rejects: RejectLog, manifest: CorpusManifest):
        self.rejects = rejects
        self.manifest = manifest
        self._seen = DedupeIndex()

    def admit(self, linenos: list[int], lines: list[str], outcomes: list) -> Iterator[str]:
        """The ingest line of each passing record, in input order."""
        for lineno, line, outcome in zip(linenos, lines, outcomes):
            if isinstance(outcome, str):
                code = outcome
            elif self._seen.add(outcome[0]):
                self.manifest.record_count += 1
                yield outcome[1]
                continue
            else:
                code = REJECT_DUPLICATE
            self.manifest.reject_count += 1
            self.rejects.reject(lineno, code, line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._seen.close()


def load_article_stream(
    path: str,
    source: str,
    links: dict[str, str] | None = None,
    rejects: RejectLog | None = None,
) -> tuple[Iterator[dict], CorpusManifest]:
    """Stream parsed records from a newline-delimited interchange file,
    each the decoded object of its ingest line (see `parse_article_line`).

    Malformed lines and duplicate (source, native_id) keys are rejected
    and the stream continues. Memory stays constant in file length; the
    returned manifest is complete once the iterator is exhausted.
    """
    rejects = rejects or RejectLog(None)
    manifest = CorpusManifest()
    checks = _text_checks(links)

    def generate() -> Iterator[dict]:
        with ArticleLedger(rejects, manifest) as ledger:
            for linenos, lines in artifacts.line_chunks(path):
                outcomes = article_outcomes(lines, source, checks)
                yield from map(json.loads, ledger.admit(linenos, lines, outcomes))

    return generate(), manifest
