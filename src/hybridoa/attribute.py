"""Agreement attribution: was an article enabled by a transformative agreement?

Only open access articles are evaluated. An article matches an agreement
when its journal is in the agreement's journal set, the role author's
resolved organizations intersect the participating institutions, and the
publication date lies inside the validity window (inclusive at both
ends). Matching several agreements still yields one attribution record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .artifacts import ClassifiedRow
from .errors import PipelineError
from .identifiers import ROR_SCHEME, org_scheme
from .model import Agreement, AttributionRecord, Authorship, ROLE_CORRESPONDING, ROLE_FIRST


def agreements_by_journal(agreements: Iterable[Agreement]) -> dict[str, tuple[Agreement, ...]]:
    """Index dated agreements by journal ISSN-L, agreement_id-sorted."""
    index: dict[str, list[Agreement]] = {}
    for agreement in agreements:
        if not agreement.is_dated:
            continue
        for issn_l in agreement.journal_issn_ls:
            index.setdefault(issn_l, []).append(agreement)
    return {
        issn_l: tuple(sorted(members, key=lambda a: a.agreement_id))
        for issn_l, members in index.items()
    }


def role_author(article: ClassifiedRow, role: str) -> Authorship | None:
    """Pick the author the role refers to; None when the data is absent.

    CORRESPONDING over a source without corresponding-author metadata
    returns None: no silent substitution of the first author. Several
    flagged corresponding authors merge into one synthetic authorship.
    """
    if role == ROLE_FIRST:
        return article.first_author()
    if role == ROLE_CORRESPONDING:
        flagged = article.corresponding_authors()
        if not flagged:
            return None
        if len(flagged) == 1:
            return flagged[0]
        org_ids: set[str] = set()
        countries: set[str] = set()
        for author in flagged:
            org_ids |= author.org_ids
            countries |= author.countries
        return Authorship(
            position=flagged[0].position,
            is_corresponding=True,
            org_ids=frozenset(org_ids),
            countries=frozenset(countries),
        )
    raise PipelineError(f"unknown role {role!r}")


def resolve_org(
    author: Authorship,
    crosswalk_inverse: Mapping[str, frozenset[str]],
    institution_index: Mapping[str, str],
    diagnostics: dict | None = None,
) -> frozenset[str]:
    """Resolve an author's identifiers to open parent-institution IDs.

    Open-scheme IDs pass through; proprietary IDs translate via the
    inverted crosswalk (possibly one-to-many); associated-institution IDs
    collapse onto their parent. Unresolvable proprietary IDs are dropped
    and counted in `diagnostics` when given.
    """
    resolved: set[str] = set()
    for org_id in author.org_ids:
        if org_scheme(org_id) == ROR_SCHEME:
            resolved.add(org_id)
            continue
        translated = crosswalk_inverse.get(org_id)
        if translated:
            resolved |= translated
        elif diagnostics is not None:
            diagnostics["unresolved_org_ids"] = diagnostics.get("unresolved_org_ids", 0) + 1
    return frozenset(institution_index.get(org_id, org_id) for org_id in resolved)


@dataclass(frozen=True, slots=True)
class AgreementVerdict:
    """The checks of one agreement that covers an article's journal.

    `institutions` holds the role author's resolved organizations among
    the agreement's participants; `in_window` tells whether the
    publication date lies inside the agreement's validity window.
    """

    agreement: Agreement
    institutions: frozenset[str]
    in_window: bool

    @property
    def matched(self) -> bool:
        return self.in_window and bool(self.institutions)


def agreement_verdicts(
    article: ClassifiedRow,
    orgs: frozenset[str],
    journal_agreements: Mapping[str, tuple[Agreement, ...]],
) -> list[AgreementVerdict]:
    """Check every agreement of the article's journal, in agreement_id order.

    The journal check passes by construction: the candidates are the
    agreements indexed under the article's journal.
    """
    pub_date = article.pub_date
    return [
        AgreementVerdict(
            agreement=agreement,
            institutions=orgs & agreement.institution_ids,
            in_window=agreement.covers(pub_date),
        )
        for agreement in journal_agreements.get(article.journal_issn_l, ())
    ]


def match_agreements(
    article: ClassifiedRow,
    role: str,
    journal_agreements: Mapping[str, tuple[Agreement, ...]],
    crosswalk_inverse: Mapping[str, frozenset[str]],
    institution_index: Mapping[str, str],
    diagnostics: dict | None = None,
) -> AttributionRecord | None:
    """Attribute one OA article to the agreements that enabled it.

    Returns None when the article is not eligible (not countable hybrid
    OA), the role author is unavailable, or no agreement matches. All
    matching agreement IDs are recorded once; the first match in
    agreement_id order supplies the matched institution (its smallest
    intersecting organization, for stable output under permutation).
    """
    if not article.countable or not article.is_hybrid_oa:
        return None
    author = role_author(article, role)
    if author is None:
        return None
    if not journal_agreements.get(article.journal_issn_l):
        return None
    orgs = resolve_org(author, crosswalk_inverse, institution_index, diagnostics)
    matched = [v for v in agreement_verdicts(article, orgs, journal_agreements) if v.matched]
    if not matched:
        return None
    return AttributionRecord(
        source=article.source,
        native_id=article.native_id,
        doi=article.doi,
        year=article.year,
        role=role,
        agreement_ids=tuple(v.agreement.agreement_id for v in matched),
        matched_institution=min(matched[0].institutions),
    )
