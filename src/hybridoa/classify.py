"""Article- and journal-level classification rules.

Covers hybrid-journal status, original-article filtering, paratext
detection, regular-issue detection, publication-year assignment, and
open access status. Everything here is a pure function of the record
plus static configuration, so classification can run data-parallel over
record streams. A record is an `artifacts.IngestRow`, read by attribute.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import timedelta
from importlib import resources

from . import artifacts
from .errors import NoDate
from .artifacts import ClassifiedRow, IngestRow
from .model import ClassifiedArticle, Journal, LicenseStatement

DOC_MODE_ALLOWLIST = "allowlist"
DOC_MODE_HEURISTIC = "heuristic"

DEFAULT_ALLOWLIST = ("article", "review")
DEFAULT_JOURNAL_ARTICLE_CLASSES = ("journal-article",)

# Non-original labels we recognize; anything else outside the allowlist is
# an unknown document class (still treated as not original), counted in the
# classify manifest.
KNOWN_NOT_ORIGINAL = frozenset(
    {
        "editorial",
        "letter",
        "meeting abstract",
        "correction",
        "erratum",
        "book review",
        "news item",
        "note",
        "retraction",
        "proceedings paper",
        "biographical-item",
    }
)

DEFAULT_CC_LICENSE_PATTERN = r"creativecommons\.org/(?:licenses|publicdomain)/"
# Publisher "open archive" style user licenses, only consulted when a
# source emulates lenient hybrid-OA labelling.
DEFAULT_USER_LICENSE_PATTERN = r"(?:user-?license|open-?archive)"

# After a paratext pattern, titles may carry issue/volume designations.
_SUFFIX_TOKEN = (
    r"(?:issue|iss|volume|vol|number|no|part|pages?|pp|toc"
    r"|[0-9]+(?:[-–/][0-9]+)?|[ivxlcdm]+)\.?"
)
_SUFFIX = rf"(?:[\s\-–—:,.;()]+{_SUFFIX_TOKEN})*[\s\-–—:,.;()]*"


def load_paratext_patterns(path: str | None = None) -> tuple[re.Pattern, ...]:
    """Compile the paratext pattern file (default: the packaged one).

    Each line is a regex fragment matched against the whole normalized
    title, with optional trailing issue/volume designations. A blank line
    is skipped, and so is a comment: a line whose first non-blank
    character is `#`, as in `.gitignore`. A `#` later in a line is part of
    its fragment; a fragment that starts with one is written `\\#`.
    The fragments without groups are joined into one alternation, first
    in the tuple, so a title is matched once for all of them. A fragment
    with groups keeps a pattern of its own, since joined its groups would
    be renumbered and its names merged; so does one with global inline
    flags, which would apply to every fragment, and one that is no regex
    on its own.
    """
    if path is None:
        text = (
            resources.files("hybridoa").joinpath("data/paratext_patterns.txt").read_text("utf-8")
        )
    else:
        with artifacts.open_input_text(path) as fh:
            text = fh.read()
    joined, alone = [], []
    for line in text.splitlines():
        fragment = line.strip()
        if fragment and not fragment.startswith("#"):
            (joined if _joinable(fragment) else alone).append(fragment)
    if joined:
        alone.insert(0, "|".join(f"(?:{fragment})" for fragment in joined))
    return tuple(re.compile(rf"^(?:{f}){_SUFFIX}$", re.IGNORECASE) for f in alone)


def _joinable(fragment: str) -> bool:
    try:
        pattern = re.compile(fragment)
    except re.error:
        return False
    return pattern.groups == 0 and pattern.flags == re.UNICODE


@dataclass(frozen=True)
class SourcePolicy:
    """Per-source rule for deciding whether a record is an original article.

    Allowlist mode trusts the source's document types; heuristic mode (for
    open metadata with thin typing) additionally requires a non-paratext
    title and a regular-issue position.
    """

    mode: str = DOC_MODE_ALLOWLIST
    allowlist: frozenset[str] = frozenset(DEFAULT_ALLOWLIST)
    journal_article_classes: frozenset[str] = frozenset(DEFAULT_JOURNAL_ARTICLE_CLASSES)


@dataclass(frozen=True)
class ClassifierConfig:
    """Static configuration shared by all classification calls."""

    policies: dict[str, SourcePolicy]
    paratext_patterns: tuple[re.Pattern, ...]
    cc_license_re: re.Pattern = field(
        default_factory=lambda: re.compile(DEFAULT_CC_LICENSE_PATTERN, re.IGNORECASE)
    )
    user_license_re: re.Pattern = field(
        default_factory=lambda: re.compile(DEFAULT_USER_LICENSE_PATTERN, re.IGNORECASE)
    )
    license_grace_days: int = 31
    # Sources that label delayed / user-license content as hybrid OA.
    lenient_oa_sources: frozenset[str] = frozenset()


def assign_year(record: IngestRow) -> int:
    """Publication year: the year of the earliest known date."""
    if record.pub_date is None:
        raise NoDate(f"{record.source}/{record.native_id}")
    return record.pub_date.year


def detect_paratext(title: str, patterns: tuple[re.Pattern, ...]) -> bool:
    """True when the whole normalized title matches a paratext pattern."""
    normalized = " ".join(title.split())
    if not normalized:
        return False
    return any(p.match(normalized) for p in patterns)


# Numerical pagination: its first character that is not a separator is
# an ASCII digit. A regular-issue article number is ASCII digits only.
_NUMERICAL_PAGINATION = re.compile(r"[\s,;\-–]*[0-9]")
_NUMERICAL_ARTICLE_NUMBER = re.compile(r"\s*[0-9]+\s*")


def in_regular_issue(record: IngestRow) -> bool:
    """Numerical pagination, or an all-digit article number when unpaginated.

    Alphabetic page prefixes (S12, e103) signal supplements or special
    content; electronic article numbers count as numerical pagination.
    Digits are ASCII: "②-5", "²" or "١٢٣" is not numerical.
    """
    if record.pagination:
        return _NUMERICAL_PAGINATION.match(record.pagination) is not None
    if record.article_number:
        return _NUMERICAL_ARTICLE_NUMBER.fullmatch(record.article_number) is not None
    return False


def is_original(
    record: IngestRow,
    policy: SourcePolicy,
    *,
    paratext: bool,
    regular_issue: bool,
) -> bool:
    """Decide original-article status under the source's policy, given the
    record's `detect_paratext` and `in_regular_issue` verdicts."""
    doc_class = record.document_class.strip().casefold()
    if policy.mode == DOC_MODE_HEURISTIC:
        if doc_class not in policy.journal_article_classes:
            return False
        return not paratext and regular_issue
    return doc_class in policy.allowlist


def is_unknown_class(record: IngestRow, policy: SourcePolicy) -> bool:
    """An allowlist source's document class that is neither allowed nor a
    known non-original label."""
    if policy.mode != DOC_MODE_ALLOWLIST:
        return False
    doc_class = record.document_class.strip().casefold()
    return doc_class not in policy.allowlist and doc_class not in KNOWN_NOT_ORIGINAL


def license_failure(
    lic: LicenseStatement, record: IngestRow | ClassifiedRow, cfg: ClassifierConfig
) -> str | None:
    """Why one license statement does not make the record OA; None when it does.

    Of `record` only `source` and `pub_date` are read, so a classified
    row serves as well.

    A statement qualifies when it applies to the VOR, its URL matches the
    CC pattern, and its start date (when present) is at most
    `license_grace_days` after publication; a start date on a record with
    no publication date cannot be bounded and fails. Bronze
    (publisher-specific license) and delayed (late start) content counts
    as closed.

    Sources listed in `lenient_oa_sources` emulate the divergent
    labelling some databases apply: user-license URLs also qualify and
    the start-date bound is waived.
    """
    if not lic.applies_to_vor:
        return "not version of record"
    is_cc = bool(cfg.cc_license_re.search(lic.url))
    if record.source in cfg.lenient_oa_sources:
        if is_cc or cfg.user_license_re.search(lic.url):
            return None
        return "no CC or user license"
    if not is_cc:
        return "no CC license"
    if lic.start_date is None:
        return None
    if record.pub_date is None:
        return "start date but no publication date"
    if lic.start_date > record.pub_date + timedelta(days=cfg.license_grace_days):
        return "starts after grace window: delayed OA"
    return None


def oa_status(record: IngestRow, cfg: ClassifierConfig) -> bool:
    """Open access when any license statement passes `license_failure`."""
    return any(license_failure(lic, record, cfg) is None for lic in record.licenses)


def classify_article(
    record: IngestRow,
    journal: Journal | None,
    cfg: ClassifierConfig,
) -> ClassifiedArticle:
    """Derive every classification flag for one record.

    `journal` is None when the record's ISSN-L is not in the loaded
    journal table; such records are never countable.
    """
    year = assign_year(record)
    paratext = detect_paratext(record.title, cfg.paratext_patterns)
    regular = in_regular_issue(record)
    policy = cfg.policies[record.source]
    original = is_original(record, policy, paratext=paratext, regular_issue=regular)
    hybrid = journal is not None and journal.is_hybrid
    countable = original and not paratext and regular and hybrid
    hybrid_oa = countable and oa_status(record, cfg)
    return ClassifiedArticle(
        record=record,
        year=year,
        is_original=original,
        is_paratext=paratext,
        in_regular_issue=regular,
        is_hybrid_oa=hybrid_oa,
        countable=countable,
        journal_is_hybrid=hybrid,
        publisher=journal.publisher if journal is not None else "",
    )

