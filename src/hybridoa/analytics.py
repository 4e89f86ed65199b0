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

Compare reads no classified line. The journal universe and publishers
come from classify's per-source journal summaries (`journal_index`), and
each journal's shared and surplus DOI counts from one pass over its DOI
file (`journal_overlaps`), so its memory grows with the journals, not
with the records.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Container, Iterable, Mapping

from . import artifacts
from .artifacts import ClassifiedRow, DoiEntry
from .attribute import role_author
from .errors import InsufficientPairs
from .model import (
    Authorship,
    CorrelationResult,
    GROUP_COUNTRY,
    GROUP_GLOBAL,
    GROUP_KINDS,
    GROUP_PUBLISHER,
    IndicatorRow,
    IntersectionSet,
    ROLE_CORRESPONDING,
    ROLE_FIRST,
    ROLES,
    in_window,
    membership_key,
)


@dataclass
class JournalIndex:
    """What compare needs of the journals, read from classify's journal
    summaries.

    `universe` maps each journal ISSN-L to the sources with at least one
    hybrid OA article in the window; `publishers` maps every journal to
    the publisher of its first article seen, sources in mapping order.
    """

    universe: dict[str, frozenset[str]]
    publishers: dict[str, str]


def journal_index(summaries: Mapping[str, Iterable[list]]) -> JournalIndex:
    """Build the journal index from each source's journal summary rows,
    [ISSN-L, publisher, hybrid OA in the window]: O(journals)."""
    membership: dict[str, set[str]] = defaultdict(set)
    publishers: dict[str, str] = {}
    for source, journals in summaries.items():
        for issn_l, publisher, hybrid_oa in journals:
            publishers.setdefault(issn_l, publisher)
            if hybrid_oa:
                membership[issn_l].add(source)
    return JournalIndex(
        universe={issn_l: frozenset(sources) for issn_l, sources in membership.items()},
        publishers=publishers,
    )


def journal_overlaps(
    universe: Mapping[str, frozenset[str]],
    groups: Iterable[tuple[str, list[DoiEntry]]],
    open_source: str,
) -> dict[str, tuple[int, int]]:
    """Journal ISSN-L -> (shared DOIs, open-source surplus DOIs), counted
    in one pass over the DOI file's groups (`artifacts.doi_groups`).

    A source holds a DOI in a journal when one of its countable records in
    the window has the DOI and the journal. Shared DOIs are held by every
    member source of the journal; the surplus are held by the open source
    and by no other member, and is 0 when the open source is not a member.
    Memory grows with the journals, not the DOIs.
    """
    cells = {issn_l: [0, 0] for issn_l in universe}
    for _, entries in groups:
        holders: dict[str, set[str]] = {}
        for source, _, issn_l, countable, _ in entries:
            if countable and issn_l in cells:
                holders.setdefault(issn_l, set()).add(source)
        for issn_l, held in holders.items():
            membership = universe[issn_l]
            cell = cells[issn_l]
            cell[0] += membership <= held
            cell[1] += open_source in membership and held & membership == {open_source}
    return {issn_l: (shared, surplus) for issn_l, (shared, surplus) in cells.items()}


def upset_sets(
    universe: Mapping[str, frozenset[str]],
    overlaps: Mapping[str, tuple[int, int]],
) -> list[IntersectionSet]:
    """Exclusive intersection decomposition of the journal universe.

    Per occupied membership combination: the number of journals and the
    sums of their `journal_overlaps`. All occupied combinations are
    emitted; display thresholds are a rendering concern, not a data one.
    """
    cells: dict[frozenset[str], list[int]] = defaultdict(lambda: [0, 0, 0])
    for issn_l, membership in universe.items():
        shared, surplus = overlaps[issn_l]
        cell = cells[membership]
        cell[0] += 1
        cell[1] += shared
        cell[2] += surplus
    out = [IntersectionSet(membership, *cell) for membership, cell in cells.items()]
    out.sort(key=lambda s: (-len(s.membership), sorted(s.membership)))
    return out


def journal_volumes(
    index: JournalIndex, overlaps: Mapping[str, tuple[int, int]]
) -> tuple[list[tuple[str, str, str, int]], list[tuple[str, str, int, int]]]:
    """Shared-DOI volumes per journal and per (membership, publisher).

    Returns (membership, issn_l, publisher, n_articles_shared) rows in
    ISSN-L order and (membership, publisher, n_journals,
    n_articles_shared) rows in key order.
    """
    per_journal = []
    by_publisher: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
    for issn_l in sorted(index.universe):
        membership = membership_key(index.universe[issn_l])
        publisher = index.publishers[issn_l]
        shared = overlaps[issn_l][0]
        per_journal.append((membership, issn_l, publisher, shared))
        cell = by_publisher[(membership, publisher)]
        cell[0] += 1
        cell[1] += shared
    return per_journal, [
        (membership, publisher, n_journals, shared)
        for (membership, publisher), (n_journals, shared) in sorted(by_publisher.items())
    ]


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
# Countable articles whose role author has an affiliation, by role.
_AFFILIATION_MEASURES = {
    ROLE_FIRST: "articles_original_first_affiliation",
    ROLE_CORRESPONDING: "articles_original_corresponding_affiliation",
}


def _tally_coverage(
    article: ClassifiedRow,
    authors: Mapping[str, Authorship | None],
    journals: dict[str, set[str]],
    totals: dict[str, int],
) -> None:
    """Add one in-scope article; `authors` maps each role to its `role_author`."""
    issn_l = article.journal_issn_l
    journals["journals_active"].add(issn_l)
    totals["articles_total"] += 1
    if article.doi:
        totals["articles_with_doi"] += 1
    if not article.countable:
        return
    journals["journals_active_original"].add(issn_l)
    totals["articles_original"] += 1
    if article.doi:
        totals["articles_original_with_doi"] += 1
    if article.is_hybrid_oa:
        journals["journals_active_original_oa"].add(issn_l)
        totals["articles_original_oa"] += 1
    for role, measure in _AFFILIATION_MEASURES.items():
        author = authors[role]
        if author is not None and author.org_ids:
            totals[measure] += 1


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


def _group_keys(kind: str, article: ClassifiedRow, author: Authorship | None) -> Iterable[str]:
    if kind == GROUP_GLOBAL:
        return ("",)
    if kind == GROUP_PUBLISHER:
        return (article.publisher,)
    return author.countries if author is not None else ()


def aggregate(
    source: str,
    lines: Iterable[str],
    ta_keys: Mapping[str, Container[tuple[str, str]]],
    years: tuple[int, int],
) -> SourceFold:
    """Fold one source's classified lines into indicators and coverage.

    `ta_keys` maps each role to the (source, native_id) keys attributed
    to an agreement for it. Articles in non-hybrid or unknown journals,
    or outside the window, are out of scope; a line in a non-hybrid
    journal is skipped before it is decoded (`artifacts.in_hybrid_journal`).
    Each other line is decoded once and feeds every (role, group kind)
    cell and the coverage tallies. COUNTRY cells count once per distinct
    country of the role author, so one multi-country article adds a full
    count to several countries.

    A role other than FIRST is skipped, with no rows, when no record of
    the source carries corresponding-author data: no silent substitution
    of the first author. Whether one does, in or out of scope, is told
    from the text of every line (`artifacts.has_corresponding_data`).
    """
    counts: dict[tuple[str, str, int, str], list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    journals = {measure: set() for measure in _JOURNAL_MEASURES}
    totals = dict.fromkeys(_ARTICLE_MEASURES, 0)
    flagged = False

    for line in lines:
        flagged = flagged or artifacts.has_corresponding_data(line)
        if not artifacts.in_hybrid_journal(line):
            continue
        article = artifacts.classified_from_line(line, source)
        if not in_window(article.year, years):
            continue
        authors = {role: role_author(article, role) for role in ROLES}
        _tally_coverage(article, authors, journals, totals)
        key = (article.source, article.native_id)
        for role, enabled in ta_keys.items():
            ta_enabled = key in enabled
            author = authors[role]
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

    skipped = tuple(role for role in ta_keys if role != ROLE_FIRST and not flagged)
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


def spearman(x: Mapping[str, float], y: Mapping[str, float]) -> CorrelationResult:
    """Spearman rank correlation of two per-key metrics.

    Keys missing on either side are dropped. Ties get average ranks; the
    coefficient is the Pearson correlation of the rank vectors.
    """
    keys = sorted(x.keys() & y.keys())
    if len(keys) < 2:
        raise InsufficientPairs(f"{len(keys)} paired observations")
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
    return CorrelationResult(rho=cov / math.sqrt(vx * vy), n=n)


# Correlated country metrics in output order, each with the count metric
# whose threshold gates it.
METRIC_GATES = {
    "article_volume": "article_volume",
    "oa_share": "article_volume",
    "ta_oa_volume": "ta_oa_volume",
    "ta_oa_share": "ta_oa_volume",
}


def _country_metrics(
    rows: Iterable[IndicatorRow],
) -> dict[tuple[str, str], dict[str, dict[str, float]]]:
    """(source, role) -> metric name -> country -> value over the window.

    Shares are left out for a country whose denominator is zero.
    """
    sums: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
    for r in rows:
        if r.group_kind != GROUP_COUNTRY:
            continue
        cell = sums[(r.source, r.role)][r.group_key]
        cell[0] += r.n_original
        cell[1] += r.n_oa
        cell[2] += r.n_ta_oa
    out: dict = {}
    for combo, by_country in sums.items():
        metrics: dict[str, dict[str, float]] = {metric: {} for metric in METRIC_GATES}
        for country, (orig, oa, ta) in by_country.items():
            metrics["article_volume"][country] = float(orig)
            metrics["ta_oa_volume"][country] = float(ta)
            if orig > 0:
                metrics["oa_share"][country] = oa / orig
            if oa > 0:
                metrics["ta_oa_share"][country] = ta / oa
        out[combo] = metrics
    return out


def gated_keys(
    x: Mapping[str, float],
    y: Mapping[str, float],
    x_gate: Mapping[str, float],
    y_gate: Mapping[str, float],
    threshold: float,
) -> list[str]:
    """Sorted keys of both metrics whose gate value reaches `threshold` on both sides."""
    return sorted(
        k
        for k in x.keys() & y.keys()
        if x_gate.get(k, 0) >= threshold and y_gate.get(k, 0) >= threshold
    )


def country_correlations(
    rows: Iterable[IndicatorRow],
    base: tuple[str, str],
    thresholds: Mapping[str, float],
) -> tuple[list[tuple], list[tuple]]:
    """Correlation and scatter rows of every (source, role) against `base`.

    `thresholds` maps each gate metric of METRIC_GATES to its minimum.
    Each metric pair keeps the `gated_keys` countries; it yields one
    scatter row per kept country and one correlation row (metric, x
    source, x role, y source, y role, threshold, n, rho) unless fewer
    than two pairs or a constant ranking remain.
    """
    metrics = _country_metrics(rows)
    x_metrics = metrics.get(base)
    correlations: list[tuple] = []
    scatter: list[tuple] = []
    if not x_metrics:
        return correlations, scatter
    for combo in sorted(metrics):
        if combo == base:
            continue
        y_metrics = metrics[combo]
        for metric, gate in METRIC_GATES.items():
            x, y = x_metrics[metric], y_metrics[metric]
            threshold = thresholds[gate]
            keys = gated_keys(x, y, x_metrics[gate], y_metrics[gate], threshold)
            scatter.extend(
                (metric, k, *base, f"{x[k]:.6f}", *combo, f"{y[k]:.6f}") for k in keys
            )
            try:
                result = spearman({k: x[k] for k in keys}, {k: y[k] for k in keys})
            except InsufficientPairs:
                continue
            correlations.append(
                (metric, *base, *combo, threshold, result.n, f"{result.rho:.6f}")
            )
    return correlations, scatter


def coverage_summary(folds: Iterable[SourceFold]) -> list[tuple[str, str, int]]:
    """Per-source coverage accounting as (source, measure, value) triples."""
    return [
        (fold.source, measure, value)
        for fold in sorted(folds, key=lambda f: f.source)
        for measure, value in fold.coverage
    ]
