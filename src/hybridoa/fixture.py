"""Synthetic corpus generator with planted ground truth.

Builds a three-source fixture (one open baseline plus two proprietary
sources) whose journals, institutions, agreements, licenses, and author
affiliations are all known, so pipeline output can be scored exactly:
classification labels, the true identifier crosswalk, and per-role
attribution truth are emitted alongside the input files.

Scenario knobs reproduce effects observed on real data: withholding CC
license metadata from the open source for one publisher (journals then
appear only in proprietary coverage sets), and planting delayed-OA
licenses for one publisher (a leniently labelling source then shows
inflated early uptake that converges over time).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import accumulate

from . import artifacts
from .identifiers import issn_check_digit, make_org_id
from .model import parse_date_pinned

OPEN = "open"
SRC_A = "srcA"
SRC_B = "srcB"
SOURCES = (OPEN, SRC_A, SRC_B)

PUBLISHERS = ("Aurora", "Boreal", "Cypress", "Danube", "Elbe", "Fjord")

CC_BY = "https://creativecommons.org/licenses/by/4.0/"
USER_LICENSE = "https://publisher.example/user-license"

# Presence of one work across the three sources, roughly shaped like the
# coverage overlaps seen across real databases.
_PRESENCE_CHOICES = (
    (frozenset(SOURCES), 62),
    (frozenset({OPEN, SRC_A}), 20),
    (frozenset({OPEN, SRC_B}), 4),
    (frozenset({OPEN}), 6),
    (frozenset({SRC_A, SRC_B}), 4),
    (frozenset({SRC_A}), 3),
    (frozenset({SRC_B}), 1),
)

_PARATEXT_TITLES = ("Editorial Board", "Issue Information", "Front Matter", "Table of Contents")

_COUNTRIES = (
    "DE", "GB", "NL", "SE", "US", "CN", "FR", "CH", "ZA", "IN",
    "AT", "FI", "HU", "DK", "NO", "IT", "ES", "PL", "JP", "AU",
)


@dataclass(frozen=True)
class FixtureParams:
    seed: int = 7
    n_articles: int = 4000
    n_journals: int = 50
    n_fully_oa: int = 5
    n_institutions: int = 20
    n_agreements: int = 5
    noise_rate: float = 0.10
    paratext_rate: float = 0.03
    supplement_rate: float = 0.03
    bronze_rate: float = 0.04
    affiliation_gap_rate: float = 0.0
    year_lo: int = 2019
    year_hi: int = 2023
    withhold_cc_publisher: str | None = None
    delayed_oa_publisher: str | None = None

    def oa_rate(self, year: int) -> float:
        return 0.06 + 0.035 * (year - self.year_lo)

    def delayed_rate(self, year: int) -> float:
        return max(0.0, 0.12 - 0.03 * (year - self.year_lo))


def _issn(body_base: int, j: int) -> str:
    body = f"{(body_base + 13 * j) % 10_000_000:07d}"
    return f"{body[:4]}-{body[4:]}{issn_check_digit(body)}"


@dataclass
class _Journal:
    index: int
    issn_l: str
    variant: str
    publisher: str
    fully_oa: bool
    uses_article_numbers: bool
    title: str


@dataclass
class _Institution:
    index: int
    ror: str
    country: str
    hospitals: tuple[str, ...]
    prop_ids: dict[str, str]


@dataclass
class _AgreementSpec:
    agreement_id: str
    publisher: str
    journals: list[_Journal]
    institutions: list[_Institution]
    start: date
    end: date


@dataclass
class _Work:
    index: int
    journal: _Journal
    kind: str  # article | review | data-paper | paratext | supplement
    pub_date: date
    date_text: str
    doi: str | None
    presence: frozenset[str]
    title: str
    first_insts: list[_Institution]
    extra_insts: list[_Institution]
    corresponding_pick: int  # author position holding the flag, proprietary only
    open_first_org_ids: list[str]
    noise_free: bool
    open_affiliation_gap: bool
    oa: bool = False
    bronze: bool = False
    delayed: bool = False


def generate(params: FixtureParams, out_dir: str) -> dict:
    """Write a complete fixture into `out_dir`; returns summary counts."""
    rng = random.Random(params.seed)

    journals = _make_journals(params, rng)
    institutions = _make_institutions(params)
    agreements = _make_agreements(params, rng, journals, institutions)
    works = _make_works(params, rng, journals, institutions)
    dump_journals = {j.index for spec in agreements for j in spec.journals}
    _assign_licenses(params, rng, works, dump_journals)

    tables = _input_tables(journals, institutions, agreements)
    tables.update(_truth_tables(params, works, institutions, agreements, dump_journals))
    for name, (header, rows) in tables.items():
        artifacts.write_csv(os.path.join(out_dir, name), header, rows)
    _write_fully_oa(out_dir, journals)
    counts = _write_articles(params, out_dir, works)
    _write_config(params, out_dir)

    counts.update(
        {
            "journals": len(journals),
            "institutions": len(institutions),
            "agreements": len(agreements),
            "works": len(works),
        }
    )
    return counts


def _make_journals(params: FixtureParams, rng: random.Random) -> list[_Journal]:
    fully_oa = set(rng.sample(range(params.n_journals), params.n_fully_oa))
    out = []
    for j in range(params.n_journals):
        out.append(
            _Journal(
                index=j,
                issn_l=_issn(1_200_000, j),
                variant=_issn(3_400_000, j),
                publisher=PUBLISHERS[j % len(PUBLISHERS)],
                fully_oa=j in fully_oa,
                uses_article_numbers=j % 7 == 3,
                title=f"Journal of Synthetic Studies {j:02d}",
            )
        )
    return out


def _make_institutions(params: FixtureParams) -> list[_Institution]:
    out = []
    for i in range(params.n_institutions):
        hospitals = ()
        if i % 3 == 0:
            hospitals = tuple(
                make_org_id("ror", f"0h{i:03d}{k}") for k in range(1 + i % 2)
            )
        out.append(
            _Institution(
                index=i,
                ror=make_org_id("ror", f"0r{i:03d}"),
                country=_COUNTRIES[i % len(_COUNTRIES)],
                hospitals=hospitals,
                prop_ids={
                    SRC_A: make_org_id(SRC_A, f"A{i:04d}"),
                    SRC_B: make_org_id(SRC_B, f"B{i:04d}"),
                },
            )
        )
    return out


_WINDOWS = (
    (date(2019, 7, 1), date(2023, 12, 31)),
    (date(2019, 1, 1), date(2021, 12, 31)),
    (date(2020, 1, 1), date(2023, 12, 31)),
    (date(2021, 6, 1), date(2022, 5, 31)),
    (date(2022, 1, 1), date(2023, 12, 31)),
)


def _make_agreements(
    params: FixtureParams,
    rng: random.Random,
    journals: list[_Journal],
    institutions: list[_Institution],
) -> list[_AgreementSpec]:
    out = []
    for k in range(params.n_agreements):
        publisher = PUBLISHERS[k % (len(PUBLISHERS) - 1)]
        # fully-OA journals stay in the dump on purpose: the engine must
        # exclude them via the fully-OA lists, not via absence
        portfolio = [j for j in journals if j.publisher == publisher]
        take = max(1, round(len(portfolio) * 0.8))
        members = rng.sample(sorted(institutions, key=lambda i: i.index), rng.randint(5, 10))
        if k < len(_WINDOWS):
            start, end = _WINDOWS[k]
        else:
            start = date(2019 + k % 3, 1 + k % 12, 1)
            end = start + timedelta(days=365 * (1 + k % 3))
        out.append(
            _AgreementSpec(
                agreement_id=f"ta-{publisher.lower()}-{k}",
                publisher=publisher,
                journals=sorted(rng.sample(portfolio, take), key=lambda j: j.index),
                institutions=sorted(members, key=lambda i: i.index),
                start=start,
                end=end,
            )
        )
    return out


def _random_date_text(rng: random.Random, year: int) -> tuple[str, date]:
    day = date(year, 1, 1) + timedelta(days=rng.randrange(365))
    roll = rng.random()
    if roll < 0.01:
        text = str(year)
    elif roll < 0.03:
        text = f"{day.year}-{day.month:02d}"
    else:
        text = day.isoformat()
    return text, parse_date_pinned(text)


def _make_works(
    params: FixtureParams,
    rng: random.Random,
    journals: list[_Journal],
    institutions: list[_Institution],
) -> list[_Work]:
    # cumulative weights computed once draw exactly what per-call weights draw
    weights = list(accumulate(1 + (j.index % 5) for j in journals))
    presence_sets = [c for c, _ in _PRESENCE_CHOICES]
    presence_weights = list(accumulate(w for _, w in _PRESENCE_CHOICES))
    works = []
    for idx in range(params.n_articles):
        journal = rng.choices(journals, cum_weights=weights)[0]
        year = params.year_lo + idx % (params.year_hi - params.year_lo + 1)
        date_text, pub_date = _random_date_text(rng, year)
        presence = rng.choices(presence_sets, cum_weights=presence_weights)[0]

        roll = rng.random()
        if roll < params.paratext_rate:
            kind = "paratext"
            presence = frozenset({OPEN})
        elif roll < params.paratext_rate + params.supplement_rate:
            kind = "supplement"
        else:
            kind_roll = rng.random()
            kind = "article" if kind_roll < 0.85 else ("review" if kind_roll < 0.97 else "data-paper")

        first = rng.choice(institutions)
        noisy = kind not in ("paratext",) and rng.random() < params.noise_rate
        first_insts = [first]
        if noisy:
            other = rng.choice([i for i in institutions if i.index != first.index])
            first_insts.append(other)
        extra_insts = rng.sample(institutions, rng.randint(0, 3))
        corresponding_pick = 1 if rng.random() < 0.7 else rng.randint(1, 1 + len(extra_insts))

        open_ids = []
        for inst in first_insts:
            if inst.hospitals and rng.random() < 0.25:
                open_ids.append(rng.choice(inst.hospitals))
            else:
                open_ids.append(inst.ror)

        doi = f"10.5555/j{journal.index:02d}.{idx:06d}" if rng.random() >= 0.01 else None
        title = (
            rng.choice(_PARATEXT_TITLES)
            if kind == "paratext"
            else f"Findings on topic {idx % 97} in context {idx % 13}"
        )
        works.append(
            _Work(
                index=idx,
                journal=journal,
                kind=kind,
                pub_date=pub_date,
                date_text=date_text,
                doi=doi,
                presence=presence,
                title=title,
                first_insts=first_insts,
                extra_insts=extra_insts,
                corresponding_pick=corresponding_pick,
                open_first_org_ids=open_ids,
                noise_free=not noisy,
                open_affiliation_gap=rng.random() < params.affiliation_gap_rate,
            )
        )
    return works


def _largest_remainder(sizes: dict, total: int) -> dict:
    """Split `total` across strata proportionally to their sizes.

    Integer apportionment with largest remainders, deterministic
    tie-break by the sorted members of each key (a frozenset's repr
    follows string hashing), so realized rates track target rates within
    one unit per stratum.
    """
    n = sum(sizes.values())
    if n == 0 or total <= 0:
        return {key: 0 for key in sizes}
    total = min(total, n)
    exact = {key: total * size / n for key, size in sizes.items()}
    alloc = {key: min(int(exact[key]), sizes[key]) for key in sizes}
    left = total - sum(alloc.values())
    order = sorted(sizes, key=lambda k: (-(exact[k] - int(exact[k])), sorted(k)))
    for key in order:
        if left <= 0:
            break
        if alloc[key] < sizes[key]:
            alloc[key] += 1
            left -= 1
    return alloc


def _mark_quota(rng: random.Random, pools: dict, rate: float, attr: str) -> None:
    """Mark a `rate` share of each pool, stratified and rounded fairly."""
    sizes = {key: len(pool) for key, pool in pools.items()}
    total = round(rate * sum(sizes.values()))
    alloc = _largest_remainder(sizes, total)
    for key in sorted(pools, key=sorted):
        for work in rng.sample(pools[key], alloc[key]):
            setattr(work, attr, True)


def _assign_licenses(
    params: FixtureParams,
    rng: random.Random,
    works: list[_Work],
    dump_journals: set[int],
) -> None:
    """Quota-based OA assignment so uptake grows monotonically by year.

    Quotas apply per (year, publisher) and are spread across source
    presence combinations, so every source sees the same uptake curve up
    to integer rounding rather than up to sampling noise. Only articles
    that can count toward indicators (agreement-dump journals, not fully
    OA) receive licenses.
    """
    candidates = [
        w
        for w in works
        if w.kind in ("article", "review")
        and not w.journal.fully_oa
        and w.journal.index in dump_journals
    ]
    by_year_pub: dict[tuple[int, str], dict[frozenset, list[_Work]]] = {}
    for w in candidates:
        pools = by_year_pub.setdefault((w.pub_date.year, w.journal.publisher), {})
        pools.setdefault(w.presence, []).append(w)

    for (year, publisher), pools in sorted(by_year_pub.items()):
        _mark_quota(rng, pools, params.oa_rate(year), "oa")
        closed_pools = {
            key: [w for w in pool if not w.oa] for key, pool in pools.items()
        }
        _mark_quota(rng, closed_pools, params.bronze_rate, "bronze")
        if params.delayed_oa_publisher == publisher:
            still_closed = {
                key: [w for w in pool if not w.bronze]
                for key, pool in closed_pools.items()
            }
            _mark_quota(rng, still_closed, params.delayed_rate(year), "delayed")


def _licenses_for(work: _Work, source: str, params: FixtureParams) -> list[dict]:
    if source == OPEN and params.withhold_cc_publisher == work.journal.publisher:
        return []
    if work.oa:
        return [
            {
                "url": CC_BY,
                "applies_to_vor": True,
                "start_date": (work.pub_date + timedelta(days=work.index % 21)).isoformat(),
            }
        ]
    if work.bronze:
        return [{"url": USER_LICENSE, "applies_to_vor": True, "start_date": None}]
    if work.delayed:
        return [
            {
                "url": CC_BY,
                "applies_to_vor": True,
                "start_date": (work.pub_date + timedelta(days=400)).isoformat(),
            }
        ]
    return []


def _doc_class(work: _Work, source: str) -> str:
    if source == OPEN:
        return "journal-article"
    return {
        "article": "Article",
        "review": "Review",
        "data-paper": "Data Paper",
        "supplement": "Meeting Abstract",
        "paratext": "Article",
    }[work.kind]


def _pagination(work: _Work, source: str) -> tuple[str | None, str | None]:
    """(pagination, article_number) for one record."""
    if work.kind == "supplement":
        base = 1 + work.index % 400
        return f"S{base}-S{base + 7}", None
    if work.kind == "paratext":
        return "1-2", None
    if work.journal.uses_article_numbers:
        return None, str(100000 + work.index)
    base = 1 + work.index % 900
    return f"{base}-{base + 11}", None


def _author_entries(work: _Work, source: str, params: FixtureParams) -> list[dict]:
    authors = []
    gap = source == OPEN and work.open_affiliation_gap
    if source == OPEN:
        first_orgs = [] if gap else list(work.open_first_org_ids)
    else:
        first_orgs = [inst.prop_ids[source] for inst in work.first_insts]
    entry = {
        "position": 1,
        "org_ids": first_orgs,
        "countries": [] if gap else sorted({inst.country for inst in work.first_insts}),
    }
    if source != OPEN:
        entry["corresponding"] = work.corresponding_pick == 1
    authors.append(entry)
    for offset, inst in enumerate(work.extra_insts, start=2):
        org = inst.ror if source == OPEN else inst.prop_ids[source]
        entry = {"position": offset, "org_ids": [org], "countries": [inst.country]}
        if source != OPEN:
            entry["corresponding"] = work.corresponding_pick == offset
        authors.append(entry)
    return authors


_NATIVE_PREFIX = {OPEN: "W", SRC_A: "A", SRC_B: "B"}


def _native_id(work: _Work, source: str) -> str:
    return f"{_NATIVE_PREFIX[source]}{work.index:06d}"


def _record(work: _Work, source: str, params: FixtureParams) -> dict:
    pagination, article_number = _pagination(work, source)
    return {
        "source": source,
        "native_id": _native_id(work, source),
        "issn": work.journal.variant if work.index % 3 == 0 else work.journal.issn_l,
        "pub_date": work.date_text,
        "document_class": _doc_class(work, source),
        "doi": work.doi,
        "pagination": pagination,
        "article_number": article_number,
        "title": work.title,
        "licenses": _licenses_for(work, source, params),
        "authors": _author_entries(work, source, params),
    }


def _write_articles(params: FixtureParams, out_dir: str, works: list[_Work]) -> dict:
    counts = {}
    # json.dumps(sort_keys=True) would build this encoder once per record
    encode = json.JSONEncoder(sort_keys=True).encode
    for source in SOURCES:
        n = 0
        with artifacts.open_artifact(os.path.join(out_dir, f"articles_{source}.ndjson")) as fh:
            for work in works:
                if source not in work.presence:
                    continue
                fh.write(encode(_record(work, source, params)))
                fh.write("\n")
                n += 1
        counts[f"records_{source}"] = n
    return counts


def _write_fully_oa(out_dir: str, journals: list[_Journal]) -> None:
    with artifacts.open_artifact(os.path.join(out_dir, "fully_oa.txt")) as fh:
        fh.write("# fully open access journals (synthetic)\n")
        for j in journals:
            if j.fully_oa:
                # listing the variant exercises ISSN-L resolution
                fh.write(f"{j.variant if j.index % 2 else j.issn_l}\n")


def _input_tables(
    journals: list[_Journal], institutions: list[_Institution], agreements: list[_AgreementSpec]
) -> dict[str, tuple]:
    """File name -> (header, rows) of each CSV input."""
    first = agreements[0]
    return {
        "issn_links.csv": (
            ("issn", "issn_l"),
            [(issn, j.issn_l) for j in journals for issn in (j.issn_l, j.variant)],
        ),
        "agreements.csv": (
            ("agreement_id", "issn", "org_id", "publisher"),
            [
                (spec.agreement_id, journal.variant if journal.index % 2 else journal.issn_l,
                 inst.ror, spec.publisher)
                for spec in agreements
                for journal in spec.journals
                for inst in spec.institutions
            ]
            # an agreement with no duration row: dropped and logged downstream
            + [("ta-orphan-undated", first.journals[0].issn_l, first.institutions[0].ror,
                first.publisher)],
        ),
        "durations.csv": (
            ("agreement_id", "start_date", "end_date"),
            [(s.agreement_id, s.start.isoformat(), s.end.isoformat()) for s in agreements]
            # inverted window: rejected by the loader
            + [("ta-ghost-inverted", "2023-01-01", "2022-01-01")],
        ),
        "institutions.csv": (
            ("org_id", "country", "associated_ids"),
            [(inst.ror, inst.country, "|".join(inst.hospitals)) for inst in institutions],
        ),
    }


def _truth_oa(work: _Work, source: str, params: FixtureParams) -> bool:
    if not work.oa:
        return False
    if source == OPEN and params.withhold_cc_publisher == work.journal.publisher:
        return False
    return True


def _truth_countable(work: _Work, source: str, dump_journals: set[int]) -> bool:
    if work.journal.index not in dump_journals:
        return False
    if work.journal.fully_oa:
        return False
    if work.kind in ("paratext", "supplement"):
        return False
    if work.kind == "data-paper" and source != OPEN:
        return False
    return True


def _truth_role_insts(work: _Work, source: str, role: str) -> list[_Institution] | None:
    """Institutions of the role author as emitted, None when role data absent."""
    if role == "first":
        if source == OPEN and work.open_affiliation_gap:
            return []
        return list(work.first_insts)
    if source == OPEN:
        return None
    pick = work.corresponding_pick
    if pick == 1:
        return list(work.first_insts)
    return [work.extra_insts[pick - 2]]


def _truth_tables(
    params: FixtureParams,
    works: list[_Work],
    institutions: list[_Institution],
    agreements: list[_AgreementSpec],
    dump_journals: set[int],
) -> dict[str, tuple]:
    """File name -> (header, rows) of each planted-truth table."""
    crosswalk = (
        (open_id.split(":", 1)[1], scheme, inst.prop_ids[scheme].split(":", 1)[1])
        for inst in institutions
        for scheme in (SRC_A, SRC_B)
        for open_id in (inst.ror, *inst.hospitals)
    )
    labels = (
        (
            source, _native_id(work, source), work.doi or "", work.pub_date.year,
            work.journal.issn_l, work.journal.publisher, work.kind,
            str(work.kind == "paratext").lower(), str(work.kind == "supplement").lower(),
            str(work.bronze).lower(), str(work.delayed).lower(),
            str(_truth_oa(work, source, params)).lower(),
            str(_truth_countable(work, source, dump_journals)).lower(),
            str(work.noise_free).lower(),
        )
        for work in works
        for source in SOURCES
        if source in work.presence
    )

    # (agreement ID, journal indexes, institution indexes, start, end) of each agreement
    specs = [
        (
            spec.agreement_id, {j.index for j in spec.journals},
            {i.index for i in spec.institutions}, spec.start, spec.end,
        )
        for spec in agreements
    ]

    def attributions():
        for work in works:
            for source in SOURCES:
                if not (
                    source in work.presence
                    and _truth_countable(work, source, dump_journals)
                    and _truth_oa(work, source, params)
                ):
                    continue
                for role in ("first", "corresponding"):
                    insts = _truth_role_insts(work, source, role)
                    if insts is None:
                        continue
                    inst_indexes = {i.index for i in insts}
                    matched = sorted(
                        agreement_id
                        for agreement_id, journal_indexes, member_indexes, start, end in specs
                        if work.journal.index in journal_indexes
                        and not inst_indexes.isdisjoint(member_indexes)
                        and start <= work.pub_date <= end
                    )
                    yield (
                        source, _native_id(work, source), work.doi or "", role,
                        "|".join(matched), str(work.noise_free).lower(),
                    )

    return {
        "truth/crosswalk.csv": (("open_id", "scheme", "proprietary_id"), crosswalk),
        "truth/labels.csv": (
            ("source", "native_id", "doi", "year", "issn_l", "publisher", "kind", "is_paratext",
             "is_supplement", "is_bronze", "is_delayed", "is_oa", "countable", "noise_free"),
            labels,
        ),
        "truth/attributions.csv": (
            ("source", "native_id", "doi", "role", "agreement_ids", "noise_free"),
            attributions(),
        ),
    }


def _write_config(params: FixtureParams, out_dir: str) -> None:
    config = {
        "sources": [
            {
                "label": OPEN,
                "articles": "articles_open.ndjson",
                "scheme": "ror",
                "open_baseline": True,
                "doc_class_mode": "heuristic",
            },
            {
                "label": SRC_A,
                "articles": f"articles_{SRC_A}.ndjson",
                "scheme": SRC_A,
                "doc_class_mode": "allowlist",
                "doc_class_allowlist": ["article", "review"],
            },
            {
                "label": SRC_B,
                "articles": f"articles_{SRC_B}.ndjson",
                "scheme": SRC_B,
                "doc_class_mode": "allowlist",
                "doc_class_allowlist": ["article", "review"],
            },
        ],
        "agreement_dump": "agreements.csv",
        "durations": "durations.csv",
        "issn_links": "issn_links.csv",
        "institutions": "institutions.csv",
        "fully_oa_lists": ["fully_oa.txt"],
        "years": [params.year_lo, params.year_hi],
        "roles": ["first", "corresponding"],
        "min_support": 2,
        "correlation_min_articles": 100,
        "correlation_min_ta_oa": 10,
        "seed": params.seed,
        "out_dir": "out",
    }
    with artifacts.open_artifact(os.path.join(out_dir, "config.json")) as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- bulk interchange files ---------------------------------------------------

_BULK_LINE = (
    '{"source":"open","native_id":"W%09d","issn":"%s","pub_date":"%d-0%d-1%d",'
    '"document_class":"journal-article","doi":"10.5555/bulk.%d","title":"Bulk record %d",'
    '"pagination":"%d-%d","licenses":[{"url":"https://creativecommons.org/licenses/by/4.0/",'
    '"applies_to_vor":true,"start_date":"%d-0%d-1%d"}],'
    '"authors":[{"position":1,"org_ids":["ror:0r%03d"],"countries":["DE"]}]}\n'
)

_BULK_ISSNS = ("0378-5955", "0024-9319", "0002-9327", "0003-200X")


def write_bulk_articles(path: str, n_lines: int) -> None:
    """Write `n_lines` well-formed open-source interchange lines.

    The lines cycle four journals and carry no planted truth; they size
    ingest throughput and memory checks, where every line must parse.
    """
    with artifacts.open_artifact(path) as fh:
        for i in range(n_lines):
            year, month, day = 2019 + i % 5, 1 + i % 9, i % 9
            page = 1 + i % 400
            fh.write(
                _BULK_LINE
                % (i, _BULK_ISSNS[i % 4], year, month, day, i, i, page, page + 9,
                   year, month, day, i % 200)
            )
