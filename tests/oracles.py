"""Independent brute-force oracles used by unit and acceptance tests.

These re-derive expected behavior from the rules directly (triple loops,
plain set algebra) without touching the engine's indexes, so they stay
independent of the implementation paths they check.
"""

import csv
import json
import math
import os
import random
import re
from collections import defaultdict
from dataclasses import dataclass, replace
from datetime import date, timedelta

from hybridoa.artifacts import (
    IngestRow,
    SourceStreams,
    classified_from_line,
    classified_to_line,
    dump_canonical,
)
from hybridoa.classify import (
    DEFAULT_ALLOWLIST,
    DEFAULT_CC_LICENSE_PATTERN,
    DEFAULT_JOURNAL_ARTICLE_CLASSES,
    DEFAULT_USER_LICENSE_PATTERN,
    DOC_MODE_ALLOWLIST,
    _SUFFIX,
    classify_article,
    is_unknown_class,
)
from hybridoa.config import PipelineConfig, SourceConfig
from hybridoa.errors import MissingColumn, SchemaViolation
from hybridoa.identifiers import is_org_id, normalize_doi
from hybridoa.ingest import _checked_issn, resolve_issn_l
from hybridoa.model import (
    Agreement,
    AttributionRecord,
    Authorship,
    ClassifiedArticle,
    CrosswalkEntry,
    GROUP_COUNTRY,
    GROUP_GLOBAL,
    GROUP_PUBLISHER,
    IndicatorRow,
    LicenseStatement,
    ROLE_CORRESPONDING,
    ROLE_FIRST,
    ROLES,
    parse_date_pinned,
)


# --- the record tree: ingest and classify over ArticleRecord objects -------------

@dataclass(frozen=True, slots=True)
class ArticleRecord:
    """One article as reported by one source, as a tree of values.

    `pub_date` is the earliest known publication date; when the input
    carries several dates the minimum (after pinning) is kept. Authors are
    kept in position order, as ingest writes them: authors sharing a
    position keep the order they were given in.
    """

    source: str
    native_id: str
    journal_issn_l: str
    pub_date: date | None
    document_class: str
    doi: str | None = None
    pagination: str | None = None
    article_number: str | None = None
    title: str = ""
    licenses: tuple[LicenseStatement, ...] = ()
    authors: tuple[Authorship, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "authors", tuple(sorted(self.authors, key=lambda a: a.position))
        )


def _oracle_list(value, code, what):
    """An absent or empty list field is (); any other non-list rejects."""
    if not value:
        return ()
    if not isinstance(value, list):
        raise SchemaViolation(code, f"{what} {value!r}")
    return value


def _oracle_date_text(value):
    """A date is a JSON string, in every position; anything else is a bad date."""
    if not isinstance(value, str):
        raise SchemaViolation("bad_date", repr(value))
    return value


def oracle_parse_article_line(text, source, links=None):
    """The interchange line as an ArticleRecord tree, every field checked
    as the interchange schema says; raises SchemaViolation with the reject
    code of the first check that fails."""
    links = links or {}
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation("bad_json", str(exc)) from None
    if not isinstance(obj, dict):
        raise SchemaViolation("bad_json", "line is not an object")
    if obj.get("source") != source:
        raise SchemaViolation("source_mismatch", repr(obj.get("source")))
    native_id = obj.get("native_id")
    if not native_id or not isinstance(native_id, str):
        raise SchemaViolation("missing_field", "native_id")
    if not obj.get("issn"):
        raise SchemaViolation("missing_field", "issn")
    if not isinstance(obj["issn"], str):
        raise SchemaViolation("malformed_issn", repr(obj["issn"]))
    issn = _checked_issn(obj["issn"])
    raw_dates = obj.get("pub_date")
    if raw_dates is None or raw_dates == [] or raw_dates == "":
        raise SchemaViolation("missing_field", "pub_date")
    if not isinstance(raw_dates, list):
        raw_dates = [raw_dates]
    pub_date = min(parse_date_pinned(_oracle_date_text(d)) for d in raw_dates)
    document_class = obj.get("document_class")
    if not document_class or not isinstance(document_class, str):
        raise SchemaViolation("missing_field", "document_class")
    for name in ("doi", "pagination", "title"):
        if obj.get(name) is not None and not isinstance(obj[name], str):
            raise SchemaViolation("bad_field", name)
    article_number = obj.get("article_number")
    if isinstance(article_number, bool) or not isinstance(article_number, (str, int, type(None))):
        raise SchemaViolation("bad_field", "article_number")

    licenses = []
    for lic in _oracle_list(obj.get("licenses"), "bad_license", "licenses"):
        if not isinstance(lic, dict) or not lic.get("url") or not isinstance(lic["url"], str):
            raise SchemaViolation("bad_license", repr(lic))
        if not isinstance(lic.get("applies_to_vor", False), bool):
            raise SchemaViolation("bad_license", "applies_to_vor")
        start = lic.get("start_date")
        licenses.append(
            LicenseStatement(
                url=lic["url"],
                applies_to_vor=lic.get("applies_to_vor", False),
                start_date=None if start in (None, "") else parse_date_pinned(
                    _oracle_date_text(start)
                ),
            )
        )

    authors = []
    for author in _oracle_list(obj.get("authors"), "bad_author", "authors"):
        if not isinstance(author, dict):
            raise SchemaViolation("bad_author", repr(author))
        position = author.get("position")
        if type(position) is not int or position < 1:
            raise SchemaViolation("bad_author", "position")
        org_ids = _oracle_list(author.get("org_ids"), "bad_org_id", "org_ids")
        for org in org_ids:
            if not isinstance(org, str) or not is_org_id(org):
                raise SchemaViolation("bad_org_id", repr(org))
        corresponding = author.get("corresponding")
        if corresponding is not None and not isinstance(corresponding, bool):
            raise SchemaViolation("bad_author", "corresponding")
        countries = _oracle_list(author.get("countries"), "bad_author", "countries")
        if not all(isinstance(c, str) for c in countries):
            raise SchemaViolation("bad_author", "countries")
        authors.append(
            Authorship(
                position=position,
                is_corresponding=corresponding,
                org_ids=frozenset(org_ids),
                countries=frozenset(c.strip().upper() for c in countries if c.strip()),
            )
        )
    authors.sort(key=lambda a: a.position)

    return ArticleRecord(
        source=source,
        native_id=native_id,
        journal_issn_l=resolve_issn_l(issn, links),
        pub_date=pub_date,
        document_class=document_class,
        doi=normalize_doi(obj.get("doi")),
        pagination=obj.get("pagination") or None,
        article_number=str(article_number) if article_number else None,
        title=obj.get("title") or "",
        licenses=tuple(licenses),
        authors=tuple(authors),
    )


def _iso(day):
    return None if day is None else day.isoformat()


def _day(text):
    return date.fromisoformat(text) if text else None


def record_to_dict(record):
    """The ingest artifact's object for a record tree."""
    return {
        "source": record.source,
        "native_id": record.native_id,
        "issn": record.journal_issn_l,
        "pub_date": _iso(record.pub_date),
        "document_class": record.document_class,
        "doi": record.doi,
        "pagination": record.pagination,
        "article_number": record.article_number,
        "title": record.title,
        "licenses": [
            {
                "url": lic.url,
                "applies_to_vor": lic.applies_to_vor,
                "start_date": _iso(lic.start_date),
            }
            for lic in record.licenses
        ],
        "authors": [
            {
                "position": author.position,
                "corresponding": author.is_corresponding,
                "org_ids": sorted(author.org_ids),
                "countries": sorted(author.countries),
            }
            for author in record.authors
        ],
    }


def record_from_dict(obj, source):
    """The record tree of an ingest artifact's object."""
    return ArticleRecord(
        source=source,
        native_id=obj["native_id"],
        journal_issn_l=obj["issn"],
        pub_date=_day(obj.get("pub_date")),
        document_class=obj["document_class"],
        doi=obj.get("doi"),
        pagination=obj.get("pagination"),
        article_number=obj.get("article_number"),
        title=obj.get("title") or "",
        licenses=tuple(
            LicenseStatement(lic["url"], lic["applies_to_vor"], _day(lic.get("start_date")))
            for lic in obj.get("licenses") or ()
        ),
        authors=tuple(
            Authorship(
                position=a["position"],
                is_corresponding=a.get("corresponding"),
                org_ids=frozenset(a.get("org_ids") or ()),
                countries=frozenset(a.get("countries") or ()),
            )
            for a in obj.get("authors") or ()
        ),
    )


def oracle_classified_line(article):
    """The classified line of an article whose record is a record tree."""
    return encoded_classified_line(article, record_to_dict(article.record))


def encoded_classified_line(article, record):
    """The classified line encoded whole: `dump_canonical` of the dict of
    the article's flags, year and publisher, and the keys of the ingest
    object `record` that the later stages read."""
    keys = ("authors", "doi", "issn", "licenses", "native_id", "pub_date")
    return dump_canonical(
        {
            "record": {key: record[key] for key in keys},
            "year": article.year,
            "is_original": article.is_original,
            "is_paratext": article.is_paratext,
            "in_regular_issue": article.in_regular_issue,
            "is_hybrid_oa": article.is_hybrid_oa,
            "countable": article.countable,
            "journal_is_hybrid": article.journal_is_hybrid,
            "publisher": article.publisher,
        }
    )


def oracle_ingest_and_classify(text, source, links, journals, cfg):
    """Ingest line, classified line and unknown-class flag of one
    interchange line, through record trees: parse, dump, rebuild the tree
    from the dumped line, classify, dump again."""
    ingest_line = dump_canonical(record_to_dict(oracle_parse_article_line(text, source, links)))
    record = record_from_dict(json.loads(ingest_line), source)
    article = classify_article(record, journals.get(record.journal_issn_l), cfg)
    unknown = is_unknown_class(record, cfg.policies[source])
    return ingest_line, oracle_classified_line(article), unknown


# --- the full-record path: rules over ArticleRecord's Authorship tuple ---------

def oracle_first_author(record):
    """The first author in the tuple at position 1, or None."""
    for author in record.authors:
        if author.position == 1:
            return author
    return None


def oracle_role_author(record, role):
    """The role's author: several flagged corresponding authors merge into
    one, with the first one's position and the union of their IDs and
    countries; None when no author fits."""
    if role == ROLE_FIRST:
        return oracle_first_author(record)
    assert role == ROLE_CORRESPONDING, role
    flagged = [a for a in record.authors if a.is_corresponding is True]
    if len(flagged) <= 1:
        return flagged[0] if flagged else None
    return Authorship(
        position=flagged[0].position,
        is_corresponding=True,
        org_ids=frozenset().union(*(a.org_ids for a in flagged)),
        countries=frozenset().union(*(a.countries for a in flagged)),
    )


def oracle_has_corresponding_data(record):
    return any(a.is_corresponding is not None for a in record.authors)


def written_line(article):
    """The engine's classified line for an article whose record is a
    record tree, passed to the writer as the row of the ingest line that
    ingest's writer makes of the record's dict."""
    line = dump_canonical(record_to_dict(article.record))
    return classified_to_line(replace(article, record=IngestRow(line, article.record.source)))


def as_row(article):
    """`article` as the stages after classify read it: through the classified line."""
    return classified_from_line(written_line(article), article.record.source)


def bare_article(record):
    """A bare record as a classified article; every flag false, year from
    the publication date."""
    return ClassifiedArticle(
        record=record,
        year=record.pub_date.year,
        is_original=False,
        is_paratext=False,
        in_regular_issue=False,
        is_hybrid_oa=False,
        countable=False,
        journal_is_hybrid=False,
    )


def record_row(record):
    """A bare record as a row (`bare_article`)."""
    return as_row(bare_article(record))


def oracle_match(article, role, agreements, inverse, index):
    """Triple-loop attribution: articles x agreements x role-author orgs."""
    if not article.countable or not article.is_hybrid_oa:
        return None
    if role == ROLE_FIRST:
        authors = [a for a in article.record.authors if a.position == 1]
    else:
        authors = [a for a in article.record.authors if a.is_corresponding is True]
    if not authors:
        return None
    resolved = set()
    for author in authors:
        for org in author.org_ids:
            if org.startswith("ror:"):
                resolved.add(index.get(org, org))
            else:
                for open_id in inverse.get(org, ()):
                    resolved.add(index.get(open_id, open_id))
    if not resolved:
        return None
    matched = []
    matched_institution = ""
    for agreement in sorted(agreements, key=lambda a: a.agreement_id):
        journal_ok = article.record.journal_issn_l in agreement.journal_issn_ls
        window_ok = agreement.start_date <= article.record.pub_date <= agreement.end_date
        hit = resolved & agreement.institution_ids
        if journal_ok and window_ok and hit:
            if not matched:
                matched_institution = min(hit)
            matched.append(agreement.agreement_id)
    if not matched:
        return None
    return AttributionRecord(
        source=article.record.source,
        native_id=article.record.native_id,
        doi=article.record.doi,
        year=article.year,
        role=role,
        agreement_ids=tuple(matched),
        matched_institution=matched_institution,
    )


def oracle_crosswalk(open_corpus, proprietary_corpora, min_support, examples_per_pair=3):
    """Record-level DOI bridge, per-source tallies, summed, then argmax.

    `proprietary_corpora` maps source label -> records. Returns the
    crosswalk entries, the number of distinct pairs, the bridged DOI count
    per source, and up to `examples_per_pair` distinct DOIs per pair: the
    first ones seen, source by source in the given order, each source's
    bridged DOIs in sorted order.
    """
    open_corpus = list(open_corpus)

    def unique_by_doi(corpus):
        unique, ambiguous = {}, set()
        for record in corpus:
            if record.doi is None or record.doi in ambiguous:
                continue
            if record.doi in unique:
                ambiguous.add(record.doi)
                del unique[record.doi]
                continue
            unique[record.doi] = record
        return unique

    shards, bridged, examples = [], {}, {}
    for label, prop_corpus in proprietary_corpora.items():
        open_side, prop_side = unique_by_doi(open_corpus), unique_by_doi(prop_corpus)
        bridge = {doi: (open_side[doi], prop_side[doi]) for doi in open_side if doi in prop_side}
        bridged[label] = len(bridge)
        counts = defaultdict(int)
        for doi in sorted(bridge):
            open_first = oracle_first_author(bridge[doi][0])
            prop_first = oracle_first_author(bridge[doi][1])
            if open_first is None or prop_first is None:
                continue
            for o in sorted(o for o in open_first.org_ids if o.startswith("ror:")):
                for p in sorted(p for p in prop_first.org_ids if not p.startswith("ror:")):
                    counts[(o, p)] += 1
                    bucket = examples.setdefault((o, p), [])
                    if len(bucket) < examples_per_pair and doi not in bucket:
                        bucket.append(doi)
        shards.append(counts)

    merged = defaultdict(int)
    for shard in shards:
        for pair, count in shard.items():
            merged[pair] += count
    grouped = defaultdict(list)
    for (o, p), count in merged.items():
        grouped[(o, p.split(":", 1)[0])].append((p, count))
    entries = []
    for (o, scheme), candidates in grouped.items():
        top = max(count for _, count in candidates)
        if top >= min_support:
            winner = min(p for p, count in candidates if count == top)
            entries.append(CrosswalkEntry(o, scheme, winner, top))
    entries.sort(key=lambda e: (e.scheme, e.open_id))
    return entries, len(merged), bridged, examples


def random_world(rng: random.Random, n_articles: int, n_agreements: int):
    """A random classified corpus plus agreements, crosswalk, and index."""
    issns = [f"{i:04d}-000{i % 10}" for i in range(12)]  # shape-only keys
    orgs = [f"ror:r{i}" for i in range(10)]
    props = [f"srcA:p{i}" for i in range(10)]
    inverse = {}
    for prop in props:
        if rng.random() < 0.8:
            inverse[prop] = frozenset(rng.sample(orgs, rng.randint(1, 2)))
    index = {org: org for org in orgs}
    for h in range(5):
        index[f"ror:h{h}"] = rng.choice(orgs)
    agreements = []
    for a in range(n_agreements):
        start = date(2019, 1, 1) + timedelta(days=rng.randrange(1200))
        agreements.append(
            Agreement(
                agreement_id=f"ta-{a:02d}",
                publisher="Pub",
                journal_issn_ls=frozenset(rng.sample(issns, rng.randint(1, 5))),
                institution_ids=frozenset(rng.sample(orgs, rng.randint(1, 4))),
                start_date=start,
                end_date=start + timedelta(days=rng.randrange(200, 1500)),
            )
        )
    articles = []
    for i in range(n_articles):
        pool = orgs + props + [f"ror:h{h}" for h in range(5)]
        corresponding = rng.choice([None, True, False])
        record = ArticleRecord(
            source="srcA",
            native_id=f"A{i}",
            journal_issn_l=rng.choice(issns),
            pub_date=date(2019, 1, 1) + timedelta(days=rng.randrange(1800)),
            document_class="Article",
            doi=f"10.1/{i}",
            authors=(
                Authorship(
                    position=1,
                    is_corresponding=corresponding,
                    org_ids=frozenset(rng.sample(pool, rng.randint(0, 3))),
                ),
                Authorship(
                    position=2,
                    is_corresponding=(corresponding is False and rng.random() < 0.5) or None,
                    org_ids=frozenset(rng.sample(pool, rng.randint(0, 2))),
                ),
            ),
        )
        countable = rng.random() < 0.9
        articles.append(
            ClassifiedArticle(
                record=record,
                year=record.pub_date.year,
                is_original=countable,
                is_paratext=False,
                in_regular_issue=countable,
                is_hybrid_oa=countable and rng.random() < 0.5,
                countable=countable,
                journal_is_hybrid=True,
                publisher="Pub",
            )
        )
    return articles, agreements, inverse, index


def oracle_upset(universe, doi_sets, open_source):
    """Plain set algebra per exclusive membership combination."""
    combos = {}
    for issn_l, membership in universe.items():
        combos.setdefault(membership, []).append(issn_l)
    expected = {}
    for membership, journals in combos.items():
        shared = surplus = 0
        for issn_l in journals:
            per = {s: doi_sets.get((s, issn_l), set()) for s in membership}
            inter = None
            for dois in per.values():
                inter = dois if inter is None else inter & dois
            shared += len(inter or set())
            if open_source in membership:
                only_open = set(per[open_source])
                for source, dois in per.items():
                    if source != open_source:
                        only_open -= dois
                surplus += len(only_open)
        expected[membership] = (
            len(journals),
            shared,
            surplus if open_source in membership else 0,
        )
    return expected


def _in_window(year, years):
    return years[0] <= year <= years[1]


def oracle_aggregate(stream, group_kind, role, years):
    """Indicator rows of one (role, group kind) from (article, ta_enabled) pairs."""
    counts = defaultdict(lambda: [0, 0, 0, 0])
    for article, ta_enabled in stream:
        if not article.journal_is_hybrid or not _in_window(article.year, years):
            continue
        if group_kind == GROUP_GLOBAL:
            keys = ("",)
        elif group_kind == GROUP_PUBLISHER:
            keys = (article.publisher,)
        elif group_kind == GROUP_COUNTRY:
            author = oracle_role_author(article.record, role)
            keys = tuple(sorted(author.countries)) if author is not None else ()
        else:
            raise ValueError(f"unknown group kind {group_kind!r}")
        for key in keys:
            cell = counts[(article.year, article.record.source, key)]
            cell[0] += 1
            if article.countable:
                cell[1] += 1
                if article.is_hybrid_oa:
                    cell[2] += 1
                    if ta_enabled:
                        cell[3] += 1
    rows = [
        IndicatorRow(
            year=year,
            source=source,
            role=role,
            group_kind=group_kind,
            group_key=key,
            n_total=cell[0],
            n_original=cell[1],
            n_oa=cell[2],
            n_ta_oa=cell[3],
        )
        for (year, source, key), cell in counts.items()
    ]
    rows.sort(key=lambda r: (r.source, r.year, r.group_key))
    return rows


def oracle_indicators(corpora, ta_keys, years):
    """One rescan per role x source x group kind, as a per-kind loop would.

    `corpora` maps source -> classified articles and `ta_keys` maps role
    -> TA-enabled (source, native_id) keys. Returns the indicator rows in
    output order and the skipped (source, role) pairs: a role other than
    FIRST is skipped for a source none of whose records carries
    corresponding-author data.
    """
    rows = []
    skipped = set()
    for role, keys in ta_keys.items():
        for source, articles in corpora.items():
            has_role = role == ROLE_FIRST or any(
                oracle_has_corresponding_data(art.record) for art in articles
            )
            if not has_role:
                skipped.add((source, role))
                continue
            for kind in (GROUP_GLOBAL, GROUP_PUBLISHER, GROUP_COUNTRY):
                stream = [
                    (art, (source, art.record.native_id) in keys) for art in articles
                ]
                rows.extend(oracle_aggregate(stream, kind, role, years))
    rows.sort(key=lambda r: (r.role, r.group_kind, r.source, r.year, r.group_key))
    return rows, skipped


def oracle_coverage_summary(corpora, years):
    """Per-source coverage (source, measure, value) triples, one rescan per source."""
    out = []
    for source in sorted(corpora):
        journals_active = set()
        journals_original = set()
        journals_oa = set()
        totals = defaultdict(int)
        for article in corpora[source]:
            if not article.journal_is_hybrid or not _in_window(article.year, years):
                continue
            issn_l = article.record.journal_issn_l
            journals_active.add(issn_l)
            totals["articles_total"] += 1
            if article.record.doi:
                totals["articles_with_doi"] += 1
            if article.countable:
                journals_original.add(issn_l)
                totals["articles_original"] += 1
                if article.record.doi:
                    totals["articles_original_with_doi"] += 1
                if article.is_hybrid_oa:
                    journals_oa.add(issn_l)
                    totals["articles_original_oa"] += 1
                first = oracle_first_author(article.record)
                if first is not None and first.org_ids:
                    totals["articles_original_first_affiliation"] += 1
                flagged = [a for a in article.record.authors if a.is_corresponding is True]
                if any(a.org_ids for a in flagged):
                    totals["articles_original_corresponding_affiliation"] += 1
        measures = [
            ("journals_active", len(journals_active)),
            ("journals_active_original", len(journals_original)),
            ("journals_active_original_oa", len(journals_oa)),
            ("articles_total", totals["articles_total"]),
            ("articles_original", totals["articles_original"]),
            ("articles_with_doi", totals["articles_with_doi"]),
            ("articles_original_with_doi", totals["articles_original_with_doi"]),
            ("articles_original_oa", totals["articles_original_oa"]),
            ("articles_original_first_affiliation", totals["articles_original_first_affiliation"]),
            (
                "articles_original_corresponding_affiliation",
                totals["articles_original_corresponding_affiliation"],
            ),
        ]
        out.extend((source, measure, value) for measure, value in measures)
    return out


def oracle_journal_index(corpora, years):
    """One rescan of every corpus per fact: universe, DOI sets, publishers.

    `corpora` maps source -> classified articles (lists, read three times).
    """
    universe = defaultdict(set)
    for source, articles in corpora.items():
        for article in articles:
            if article.is_hybrid_oa and _in_window(article.year, years):
                universe[article.record.journal_issn_l].add(source)
    doi_sets = defaultdict(set)
    for source, articles in corpora.items():
        for article in articles:
            if article.countable and article.record.doi and _in_window(article.year, years):
                doi_sets[(source, article.record.journal_issn_l)].add(article.record.doi)
    publishers = {}
    for source, articles in corpora.items():
        for article in articles:
            publishers.setdefault(article.record.journal_issn_l, article.publisher)
    return (
        {issn_l: frozenset(sources) for issn_l, sources in universe.items()},
        dict(doi_sets),
        publishers,
    )


def _membership_key(membership):
    return "|".join(sorted(membership))


def oracle_journal_volumes(universe, doi_sets, publishers):
    """Per-journal shared DOIs and their (membership, publisher) sums."""
    per_journal = []
    by_pub = defaultdict(lambda: [0, 0])
    for issn_l in sorted(universe):
        membership = universe[issn_l]
        per_source = {s: doi_sets.get((s, issn_l), set()) for s in membership}
        shared = len(set.intersection(*per_source.values())) if per_source else 0
        publisher = publishers.get(issn_l, "")
        per_journal.append((_membership_key(membership), issn_l, publisher, shared))
        cell = by_pub[(_membership_key(membership), publisher)]
        cell[0] += 1
        cell[1] += shared
    return per_journal, [
        (membership, publisher, cell[0], cell[1])
        for (membership, publisher), cell in sorted(by_pub.items())
    ]


def _oracle_country_metrics(rows):
    sums = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
    for r in rows:
        if r.group_kind != GROUP_COUNTRY:
            continue
        cell = sums[(r.source, r.role)][r.group_key]
        cell[0] += r.n_original
        cell[1] += r.n_oa
        cell[2] += r.n_ta_oa
    out = {}
    for combo, by_country in sums.items():
        metrics = {"article_volume": {}, "oa_share": {}, "ta_oa_volume": {}, "ta_oa_share": {}}
        for country, (orig, oa, ta) in by_country.items():
            metrics["article_volume"][country] = float(orig)
            metrics["ta_oa_volume"][country] = float(ta)
            if orig > 0:
                metrics["oa_share"][country] = oa / orig
            if oa > 0:
                metrics["ta_oa_share"][country] = ta / oa
        out[combo] = metrics
    return out


def _oracle_rho(x, y):
    """Spearman's rho from average ranks; None below two pairs or on a constant side."""
    if len(x) < 2:
        return None

    def ranks(values):
        return [
            sum(1 for w in values if w < v) + (sum(1 for w in values if w == v) + 1) / 2
            for v in values
        ]

    rx, ry = ranks(x), ranks(y)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return None
    return sum((a - mx) * (b - my) for a, b in zip(rx, ry)) / math.sqrt(vx * vy)


def oracle_country_correlations(rows, open_label, min_articles, min_ta_oa):
    """Correlation and scatter rows of each (source, role) against (open, FIRST).

    Volumes and shares of articles are gated by the article volume on both
    sides; TA-OA volumes and shares by the TA-OA volume.
    """
    gates = {
        "article_volume": ("article_volume", min_articles),
        "oa_share": ("article_volume", min_articles),
        "ta_oa_volume": ("ta_oa_volume", min_ta_oa),
        "ta_oa_share": ("ta_oa_volume", min_ta_oa),
    }
    metrics = _oracle_country_metrics(rows)
    base = metrics.get((open_label, ROLE_FIRST), {})
    correlation_rows = []
    scatter_rows = []
    for combo in sorted(metrics):
        if combo == (open_label, ROLE_FIRST) or not base:
            continue
        for metric in ("article_volume", "oa_share", "ta_oa_volume", "ta_oa_share"):
            x_all = base[metric]
            y_all = metrics[combo][metric]
            gate_metric, threshold = gates[metric]
            keys = sorted(
                k
                for k in x_all.keys() & y_all.keys()
                if base[gate_metric].get(k, 0) >= threshold
                and metrics[combo][gate_metric].get(k, 0) >= threshold
            )
            scatter_rows.extend(
                (metric, k, open_label, ROLE_FIRST, f"{x_all[k]:.6f}", *combo, f"{y_all[k]:.6f}")
                for k in keys
            )
            rho = _oracle_rho([x_all[k] for k in keys], [y_all[k] for k in keys])
            if rho is None:
                continue
            correlation_rows.append(
                (metric, open_label, ROLE_FIRST, *combo, threshold, len(keys), f"{rho:.6f}")
            )
    return correlation_rows, scatter_rows


def oracle_load_config(path):
    """Config loading with every default written out: a missing key takes
    the value stated here, paths resolve against the file's directory."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        if p is None:
            return None
        return p if os.path.isabs(p) else os.path.normpath(os.path.join(base, p))

    sources = tuple(
        SourceConfig(
            label=s["label"],
            articles=resolve(s["articles"]),
            scheme=s["scheme"],
            open_baseline=bool(s.get("open_baseline", False)),
            doc_class_mode=s.get("doc_class_mode", DOC_MODE_ALLOWLIST),
            doc_class_allowlist=tuple(s.get("doc_class_allowlist", DEFAULT_ALLOWLIST)),
            journal_article_classes=tuple(
                s.get("journal_article_classes", DEFAULT_JOURNAL_ARTICLE_CLASSES)
            ),
            lenient_oa=bool(s.get("lenient_oa", False)),
        )
        for s in raw["sources"]
    )
    return PipelineConfig(
        sources=sources,
        agreement_dump=resolve(raw["agreement_dump"]),
        durations=resolve(raw["durations"]),
        issn_links=resolve(raw["issn_links"]),
        institutions=resolve(raw["institutions"]),
        fully_oa_lists=tuple(resolve(p) for p in raw.get("fully_oa_lists", ())),
        publisher_aliases=resolve(raw.get("publisher_aliases")),
        paratext_patterns=resolve(raw.get("paratext_patterns")),
        cc_license_pattern=raw.get("cc_license_pattern", DEFAULT_CC_LICENSE_PATTERN),
        user_license_pattern=raw.get("user_license_pattern", DEFAULT_USER_LICENSE_PATTERN),
        license_grace_days=int(raw.get("license_grace_days", 31)),
        years=tuple(raw.get("years", (2019, 2023))),
        roles=tuple(raw.get("roles", ROLES)),
        min_support=int(raw.get("min_support", 1)),
        correlation_min_articles=int(raw.get("correlation_min_articles", 10000)),
        correlation_min_ta_oa=int(raw.get("correlation_min_ta_oa", 1000)),
        audit_sample_size=int(raw.get("audit_sample_size", 50)),
        seed=int(raw.get("seed", 42)),
        workers=raw.get("workers"),
        out_dir=resolve(raw.get("out_dir", "out")),
    )


# --- tabular inputs, as csv.DictReader reads them ------------------------------------

def dictreader_csv_rows(path, columns, rejects):
    """`ingest._csv_rows` through `csv.DictReader`: a dict per row, a field
    the row lacks as None, fields beyond the header in a list under the key
    None. A row holding bytes that are not UTF-8 in any of its values is a
    schema violation; every other row goes on as its `columns`' values, a
    missing one as ""."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise MissingColumn(f"{path}: empty file, header row required")
        missing = [c for c in columns if c not in reader.fieldnames]
        if missing:
            raise MissingColumn(f"{path}: missing column(s) {', '.join(missing)}")
        for row in reader:
            values = tuple(row.get(c) or "" for c in columns)
            fields = [v for k, v in row.items() if k is not None and v] + row.get(None, [])
            try:
                "".join(fields).encode("utf-8")
            except UnicodeEncodeError:
                rejects.reject(reader.line_num, "schema_violation", ",".join(values))
                continue
            yield reader.line_num, values


# --- identifiers and titles, one rule at a time ------------------------------------

ORACLE_DOI_PREFIXES = (
    "https://doi.org/", "http://doi.org/", "https://dx.doi.org/", "http://dx.doi.org/",
    "https://www.doi.org/", "doi.org/", "dx.doi.org/", "doi:", "info:doi/",
)


def oracle_normalize_doi(raw):
    """A DOI with every resolver prefix stripped, each time one is found,
    and lowercased; None unless it starts with "10." and has a suffix."""
    if not raw:
        return None
    doi = raw.strip()
    found = True
    while found:
        found = False
        for prefix in ORACLE_DOI_PREFIXES:
            if doi.lower().startswith(prefix):
                doi = doi[len(prefix):].lstrip()
                found = True
                break
    doi = doi.lower()
    return doi if doi.startswith("10.") and len(doi) > 3 else None


def oracle_paratext_patterns(text):
    """Each fragment of a paratext pattern file as a pattern of its own; a
    line whose first non-blank character is `#` is a comment."""
    fragments = (line.strip() for line in text.splitlines())
    return [
        re.compile(rf"^(?:{f}){_SUFFIX}$", re.IGNORECASE)
        for f in fragments
        if f and not f.startswith("#")
    ]


def oracle_detect_paratext(title, patterns):
    """Whether any one fragment's pattern matches the whole normalized title."""
    normalized = " ".join(title.split())
    return bool(normalized) and any(p.match(normalized) for p in patterns)


# --- classify's DOI streams and journal summaries ---------------------------------

def ingested(article):
    """`article` with its record tree replaced by the row of the ingest
    line that ingest's writer makes of it: the article as classify holds it."""
    line = dump_canonical(record_to_dict(article.record))
    return replace(article, record=IngestRow(line, article.record.source))


def filled_streams(source, articles, years, spill_dir=None):
    """The `SourceStreams` classify fills from articles as it holds them
    (`ingested`), one article at a time."""
    streams = SourceStreams(source, years, spill_dir)
    for article in articles:
        streams.add([article], [classified_to_line(article)])
    return streams


def _compact(value):
    return json.dumps(value, separators=(",", ":")) + "\n"


def oracle_doi_stream(lines, source, years):
    """A source's DOI stream recounted from its classified lines, each
    decoded whole: [doi, ISSN-L, countable in the window, the first
    author's org IDs] per record with a DOI, sorted as text."""
    out = []
    for line in lines:
        row = classified_from_line(line, source)
        if row.doi:
            first = row.first_author()
            countable = row.countable and _in_window(row.year, years)
            ids = sorted(first.org_ids) if first is not None else []
            out.append(_compact([row.doi, row.journal_issn_l, countable, ids]))
    return sorted(out)


def oracle_attributable(lines):
    """A source's attributable file recounted from its classified lines,
    each decoded whole: the lines whose countable, in_regular_issue and
    is_hybrid_oa are all true, in file order."""
    out = []
    for line in lines:
        obj = json.loads(line)
        if obj["countable"] and obj["in_regular_issue"] and obj["is_hybrid_oa"]:
            out.append(line)
    return out


def oracle_journal_summary(lines, source, years):
    """A source's journal summary recounted from its classified lines:
    [ISSN-L, publisher of its first line, any hybrid OA line in the window]
    per journal, in ISSN-L order."""
    journals = {}
    for line in lines:
        row = classified_from_line(line, source)
        publisher, hybrid_oa = journals.get(row.journal_issn_l, (row.publisher, False))
        hybrid_oa = hybrid_oa or (row.is_hybrid_oa and _in_window(row.year, years))
        journals[row.journal_issn_l] = (publisher, hybrid_oa)
    return [_compact([issn_l, *summary]) for issn_l, summary in sorted(journals.items())]


# --- the dict-based reconcile and compare the streams replaced ---------------------

def dict_projection(rows, open_side):
    """DOI -> sorted first-author org IDs of one side, for the DOIs that
    occur once among the rows: reconcile's projection before the streams."""
    projection, ambiguous = {}, set()
    for row in rows:
        doi = row.doi
        if not doi or doi in ambiguous:
            continue
        if doi in projection:
            ambiguous.add(doi)
            del projection[doi]
            continue
        first = row.first_author()
        ids = first.org_ids if first is not None else ()
        projection[doi] = tuple(sorted(o for o in ids if o.startswith("ror:") == open_side))
    return projection


def dict_reconcile(open_rows, proprietary, examples_per_pair=3):
    """Reconcile over projections: each proprietary source, in mapping
    order, bridged with the open one and its sorted bridge tallied in turn.
    Returns (bridged DOIs per label, pair counts, pair examples)."""
    open_ids = dict_projection(open_rows, True)
    bridged, counts, examples = {}, defaultdict(int), {}
    for label, rows in proprietary.items():
        prop_ids = dict_projection(rows, False)
        bridge = sorted(open_ids.keys() & prop_ids.keys())
        bridged[label] = len(bridge)
        for doi in bridge:
            for open_id in open_ids[doi]:
                for prop_id in prop_ids[doi]:
                    pair = (open_id, prop_id)
                    counts[pair] += 1
                    bucket = examples.setdefault(pair, [])
                    if len(bucket) < examples_per_pair and doi not in bucket:
                        bucket.append(doi)
    return bridged, dict(counts), examples


def dict_journal_overlaps(universe, doi_sets, open_source):
    """Journal -> (shared DOIs, open surplus DOIs) by set algebra over
    (source, ISSN-L) -> DOI sets: compare's count before the streams."""
    out = {}
    for issn_l, membership in universe.items():
        per_source = {s: doi_sets.get((s, issn_l), set()) for s in membership}
        shared = len(set.intersection(*per_source.values()))
        surplus = 0
        if open_source in membership:
            others = [dois for s, dois in per_source.items() if s != open_source]
            surplus = len(per_source[open_source].difference(*others))
        out[issn_l] = (shared, surplus)
    return out
