"""Shared domain types for the hybrid open access engine.

All values are immutable after construction and safe to share across
threads or pickle into worker processes. Source labels are plain strings;
the set of sources and which one is the open baseline comes from the
pipeline configuration. Organization identifiers are scheme-tagged
strings ("ror:...", "srcA:...") handled by helpers in `identifiers`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from typing import TYPE_CHECKING, Mapping

from .errors import SchemaViolation

if TYPE_CHECKING:
    from .artifacts import IngestRow

ROLE_FIRST = "first"
ROLE_CORRESPONDING = "corresponding"
ROLES = (ROLE_FIRST, ROLE_CORRESPONDING)

GROUP_GLOBAL = "GLOBAL"
GROUP_PUBLISHER = "PUBLISHER"
GROUP_COUNTRY = "COUNTRY"
GROUP_KINDS = (GROUP_GLOBAL, GROUP_PUBLISHER, GROUP_COUNTRY)

# YYYY, YYYY-MM or YYYY-MM-DD in ASCII digits; no other form, on any interpreter
_DATE = re.compile(r"([0-9]{4})(?:-([0-9]{2})(?:-([0-9]{2}))?)?")


def parse_date_pinned(text: str) -> date:
    """Parse a `YYYY`, `YYYY-MM` or `YYYY-MM-DD` date, pinning truncated
    precision early.

    Year-only values become January 1, year-month values day 1. Pinning
    early is deterministic and biases toward inclusion at agreement
    window boundaries. Any other form is a `bad_date`.
    """
    text = text.strip()
    m = _DATE.fullmatch(text)
    if m is None:
        raise SchemaViolation("bad_date", text)
    year, month, day = m.groups()
    try:
        return date(int(year), int(month or 1), int(day or 1))
    except ValueError as exc:
        raise SchemaViolation("bad_date", text) from exc


def normalize_publisher(name: str, aliases: dict[str, str] | None = None) -> str:
    """Collapse whitespace and map a publisher label through the alias table.

    Alias keys are compared case-insensitively; unmapped names pass
    through with whitespace normalized only.
    """
    cleaned = " ".join(name.split())
    if aliases:
        return aliases.get(cleaned.casefold(), cleaned)
    return cleaned


def majority_label(votes: Mapping[str, int]) -> str:
    """Most frequent label; ties break to the lexicographically smallest."""
    top = max(votes.values())
    return min(k for k, v in votes.items() if v == top)


def in_window(year: int, years: tuple[int, int]) -> bool:
    """Whether `year` lies in the year window, both ends included."""
    return years[0] <= year <= years[1]


@dataclass(frozen=True, slots=True)
class Journal:
    """A venue keyed by its linking ISSN."""

    issn_l: str
    issn_variants: frozenset[str] = frozenset()
    publisher: str = ""
    is_hybrid: bool = True


@dataclass(frozen=True, slots=True)
class LicenseStatement:
    """One license assertion attached to an article."""

    url: str
    applies_to_vor: bool
    start_date: date | None = None


@dataclass(frozen=True, slots=True)
class Authorship:
    """One author slot on an article.

    `is_corresponding` is None when the source does not carry
    corresponding-author data at all; that absence matters downstream
    (no silent substitution of first authors).
    """

    position: int
    is_corresponding: bool | None = None
    org_ids: frozenset[str] = frozenset()
    countries: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class Institution:
    """An agreement-participating organization with its associated IDs.

    Associated identifiers (hospitals, institutes of umbrella
    organizations) resolve to this institution during matching.
    """

    org_id: str
    country: str = ""
    associated_ids: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.org_id in self.associated_ids:
            raise SchemaViolation("self_association", self.org_id)


@dataclass(frozen=True, slots=True)
class Agreement:
    """A read-and-publish deal: journals x institutions x validity window."""

    agreement_id: str
    publisher: str
    journal_issn_ls: frozenset[str]
    institution_ids: frozenset[str]
    start_date: date | None = None
    end_date: date | None = None

    def __post_init__(self):
        if (
            self.start_date is not None
            and self.end_date is not None
            and self.start_date > self.end_date
        ):
            raise SchemaViolation(
                "inverted_window", f"{self.agreement_id}: {self.start_date} > {self.end_date}"
            )

    @property
    def is_dated(self) -> bool:
        return self.start_date is not None and self.end_date is not None

    def covers(self, day: date) -> bool:
        """Inclusive validity check at both window ends."""
        return self.is_dated and self.start_date <= day <= self.end_date


@dataclass(frozen=True, slots=True)
class CrosswalkEntry:
    """Reconciled identifier pair: one open org ID to one proprietary ID."""

    open_id: str
    scheme: str
    proprietary_id: str
    support: int


@dataclass(frozen=True, slots=True)
class AttributionRecord:
    """An article credited to one or more agreements for a given role."""

    source: str
    native_id: str
    doi: str | None
    year: int
    role: str
    agreement_ids: tuple[str, ...]
    matched_institution: str

    def __post_init__(self):
        if not self.agreement_ids:
            raise SchemaViolation("empty_attribution", f"{self.source}/{self.native_id}")

    @property
    def ta_enabled(self) -> bool:
        return bool(self.agreement_ids)


@dataclass(frozen=True, slots=True)
class ClassifiedArticle:
    """An article with every classification flag the pipeline derives.

    `countable` articles are the denominator of all indicator shares:
    original, non-paratext, regular-issue articles in hybrid journals.
    OA status is only ever asserted on countable articles. `record` is
    the decoded ingest line the flags were derived from. Classify writes
    the article as one classified line; the later stages read that line
    back as an `artifacts.ClassifiedRow`.
    """

    record: IngestRow
    year: int
    is_original: bool
    is_paratext: bool
    in_regular_issue: bool
    is_hybrid_oa: bool
    countable: bool
    journal_is_hybrid: bool
    publisher: str = ""


@dataclass(frozen=True, slots=True)
class IndicatorRow:
    """Aggregated counts and shares for one (year, source, role, group) cell."""

    year: int
    source: str
    role: str
    group_kind: str
    group_key: str
    n_total: int
    n_original: int
    n_oa: int
    n_ta_oa: int

    @property
    def oa_share(self) -> float | None:
        if self.n_original == 0:
            return None
        return self.n_oa / self.n_original

    @property
    def ta_share_of_oa(self) -> float | None:
        if self.n_oa == 0:
            return None
        return self.n_ta_oa / self.n_oa


@dataclass(frozen=True, slots=True)
class IntersectionSet:
    """One exclusive membership combination of the journal universe."""

    membership: frozenset[str]
    n_journals: int
    n_articles_shared: int
    n_articles_surplus_open: int


def membership_key(membership: frozenset[str]) -> str:
    return "|".join(sorted(membership))


@dataclass(frozen=True, slots=True)
class CorrelationResult:
    """Spearman rank correlation over paired per-key metrics."""

    rho: float
    n: int

