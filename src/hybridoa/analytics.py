"""Aggregation of classified articles into indicators, coverage
intersections, and rank correlations.

Counting rules:
  * n_total counts every article in a hybrid journal, scholarly or not.
  * n_original counts countable articles (original, non-paratext,
    regular issue).
  * n_oa counts countable OA articles; n_ta_oa those attributed to an
    agreement for the requested role.
  * GLOBAL and PUBLISHER groupings count each article once; COUNTRY uses
    full counting over the role author's distinct country codes.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Container, Iterable, Mapping

from .attribute import role_author
from .errors import InsufficientPairs
from .model import (
    Authorship,
    ClassifiedArticle,
    CorrelationResult,
    GROUP_GLOBAL,
    GROUP_KINDS,
    GROUP_PUBLISHER,
    IndicatorRow,
    IntersectionSet,
    ROLE_FIRST,
)


def in_window(year: int, years: tuple[int, int]) -> bool:
    return years[0] <= year <= years[1]


def journal_universe(
    corpora: Mapping[str, Iterable[ClassifiedArticle]],
    years: tuple[int, int],
) -> dict[str, frozenset[str]]:
    """Journal ISSN-L -> set of sources with >=1 countable OA article in window."""
    membership: dict[str, set[str]] = defaultdict(set)
    for source, articles in corpora.items():
        for article in articles:
            if article.is_hybrid_oa and in_window(article.year, years):
                membership[article.record.journal_issn_l].add(source)
    return {issn_l: frozenset(sources) for issn_l, sources in membership.items()}


def journal_doi_sets(
    corpora: Mapping[str, Iterable[ClassifiedArticle]],
    years: tuple[int, int],
) -> dict[tuple[str, str], set[str]]:
    """(source, issn_l) -> DOIs of countable articles in the window."""
    out: dict[tuple[str, str], set[str]] = defaultdict(set)
    for source, articles in corpora.items():
        for article in articles:
            if article.countable and article.record.doi and in_window(article.year, years):
                out[(source, article.record.journal_issn_l)].add(article.record.doi)
    return dict(out)


def upset_sets(
    universe: Mapping[str, frozenset[str]],
    doi_sets: Mapping[tuple[str, str], set[str]],
    open_source: str,
) -> list[IntersectionSet]:
    """Exclusive intersection decomposition of the journal universe.

    Per occupied membership combination: the number of journals, the
    shared-DOI corpus (DOIs present in every member source), and the
    open-source surplus (DOIs present in no other member source). All
    occupied combinations are emitted; display thresholds are a rendering
    concern, not a data one.
    """
    journals_by_membership: dict[frozenset[str], list[str]] = defaultdict(list)
    for issn_l, membership in universe.items():
        journals_by_membership[membership].append(issn_l)
    out: list[IntersectionSet] = []
    for membership, journals in journals_by_membership.items():
        shared = 0
        surplus = 0
        for issn_l in journals:
            per_source = {s: doi_sets.get((s, issn_l), set()) for s in membership}
            shared += len(set.intersection(*per_source.values())) if per_source else 0
            if open_source in membership:
                others = [dois for s, dois in per_source.items() if s != open_source]
                open_dois = per_source[open_source]
                surplus += len(open_dois.difference(*others) if others else open_dois)
        out.append(
            IntersectionSet(
                membership=membership,
                n_journals=len(journals),
                n_articles_shared=shared,
                n_articles_surplus_open=surplus if open_source in membership else 0,
            )
        )
    out.sort(key=lambda s: (-len(s.membership), sorted(s.membership)))
    return out


# Coverage measures in output order: journal activity tiers, then
# article volumes, DOI coverage, OA volume and role-author affiliation
# availability, all restricted to hybrid journals inside the window.
_JOURNAL_MEASURES = (
    "journals_active",
    "journals_active_original",
    "journals_active_original_oa",
)
_ARTICLE_MEASURES = (
    "articles_total",
    "articles_original",
    "articles_with_doi",
    "articles_original_with_doi",
    "articles_original_oa",
    "articles_original_first_affiliation",
    "articles_original_corresponding_affiliation",
)


def _tally_coverage(
    article: ClassifiedArticle, journals: dict[str, set[str]], totals: dict[str, int]
) -> None:
    record = article.record
    issn_l = record.journal_issn_l
    journals["journals_active"].add(issn_l)
    totals["articles_total"] += 1
    if record.doi:
        totals["articles_with_doi"] += 1
    if not article.countable:
        return
    journals["journals_active_original"].add(issn_l)
    totals["articles_original"] += 1
    if record.doi:
        totals["articles_original_with_doi"] += 1
    if article.is_hybrid_oa:
        journals["journals_active_original_oa"].add(issn_l)
        totals["articles_original_oa"] += 1
    first = record.first_author()
    if first is not None and first.org_ids:
        totals["articles_original_first_affiliation"] += 1
    if any(a.org_ids for a in record.corresponding_authors()):
        totals["articles_original_corresponding_affiliation"] += 1


@dataclass
class SourceFold:
    """Everything aggregate derives from one pass over one source.

    `rows` holds the indicator rows of every role the source carries
    author data for; `skipped_roles` lists the others. `coverage` is the
    source's (measure, value) pairs in output order.
    """

    source: str
    rows: list[IndicatorRow]
    skipped_roles: tuple[str, ...]
    coverage: list[tuple[str, int]]


def _group_keys(kind: str, article: ClassifiedArticle, author: Authorship | None) -> Iterable[str]:
    if kind == GROUP_GLOBAL:
        return ("",)
    if kind == GROUP_PUBLISHER:
        return (article.publisher,)
    return author.countries if author is not None else ()


def aggregate(
    source: str,
    articles: Iterable[ClassifiedArticle],
    ta_keys: Mapping[str, Container[tuple[str, str]]],
    years: tuple[int, int],
) -> SourceFold:
    """Fold one source's classified articles into indicators and coverage.

    `ta_keys` maps each role to the (source, native_id) keys attributed
    to an agreement for it. Each article is read once and feeds every
    (role, group kind) cell and the coverage tallies. Articles in
    non-hybrid or unknown journals, or outside the window, are out of
    scope. COUNTRY cells count once per distinct country of the role
    author, so one multi-country article adds a full count to several
    countries. A role other than FIRST is skipped, with no rows, when no
    record of the source carries corresponding-author data: no silent
    substitution of the first author.
    """
    counts: dict[tuple[str, str, int, str], list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    journals = {measure: set() for measure in _JOURNAL_MEASURES}
    totals = dict.fromkeys(_ARTICLE_MEASURES, 0)
    has_corresponding_data = False

    for article in articles:
        record = article.record
        if not has_corresponding_data:
            has_corresponding_data = record.has_corresponding_data()
        if not article.journal_is_hybrid or not in_window(article.year, years):
            continue
        _tally_coverage(article, journals, totals)
        key = (record.source, record.native_id)
        for role, enabled in ta_keys.items():
            ta_enabled = key in enabled
            author = role_author(article, role)
            for kind in GROUP_KINDS:
                for group_key in _group_keys(kind, article, author):
                    cell = counts[(role, kind, article.year, group_key)]
                    cell[0] += 1
                    if article.countable:
                        cell[1] += 1
                        if article.is_hybrid_oa:
                            cell[2] += 1
                            if ta_enabled:
                                cell[3] += 1

    skipped = tuple(
        role for role in ta_keys if role != ROLE_FIRST and not has_corresponding_data
    )
    rows = [
        IndicatorRow(
            year=year,
            source=source,
            role=role,
            group_kind=kind,
            group_key=group_key,
            n_total=cell[0],
            n_original=cell[1],
            n_oa=cell[2],
            n_ta_oa=cell[3],
        )
        for (role, kind, year, group_key), cell in counts.items()
        if role not in skipped
    ]
    rows.sort(key=lambda r: (r.role, r.group_kind, r.year, r.group_key))
    coverage = [(m, len(journals[m])) for m in _JOURNAL_MEASURES]
    coverage += list(totals.items())
    return SourceFold(source=source, rows=rows, skipped_roles=skipped, coverage=coverage)


def _average_ranks(values: list[float]) -> list[float]:
    """Ranks 1..n with ties receiving the average of their rank positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(
    x: Mapping[str, float],
    y: Mapping[str, float],
    min_count: float | None = None,
) -> CorrelationResult:
    """Spearman rank correlation of two per-key metrics.

    Keys missing on either side are dropped; when `min_count` is given,
    keys whose value falls below it on either side are filtered out. Ties
    get average ranks; the coefficient is the Pearson correlation of the
    rank vectors.
    """
    keys = sorted(
        k
        for k in x.keys() & y.keys()
        if min_count is None or (x[k] >= min_count and y[k] >= min_count)
    )
    if len(keys) < 2:
        raise InsufficientPairs(f"{len(keys)} paired observations after filtering")
    rx = _average_ranks([x[k] for k in keys])
    ry = _average_ranks([y[k] for k in keys])
    n = len(keys)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        raise InsufficientPairs("constant ranking on one side")
    rho = cov / math.sqrt(vx * vy)
    return CorrelationResult(
        rho=rho, n=n, filter_threshold=min_count if min_count is not None else 0.0
    )


def coverage_summary(folds: Iterable[SourceFold]) -> list[tuple[str, str, int]]:
    """Per-source coverage accounting as (source, measure, value) triples."""
    return [
        (fold.source, measure, value)
        for fold in sorted(folds, key=lambda f: f.source)
        for measure, value in fold.coverage
    ]
