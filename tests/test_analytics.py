import math
import random
from dataclasses import replace
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridoa.analytics import (
    aggregate,
    country_correlations,
    coverage_summary,
    gated_keys,
    journal_index,
    journal_overlaps,
    journal_volumes,
    spearman,
    upset_sets,
)
from hybridoa.artifacts import head_row
from hybridoa.errors import InsufficientPairs
from hybridoa.model import (
    Authorship,
    ClassifiedArticle,
    GROUP_COUNTRY,
    GROUP_GLOBAL,
    GROUP_PUBLISHER,
    IndicatorRow,
    ROLE_CORRESPONDING,
    ROLE_FIRST,
)

from oracles import (
    ArticleRecord,
    oracle_country_correlations,
    oracle_coverage_summary,
    oracle_indicators,
    oracle_journal_index,
    oracle_journal_volumes,
    oracle_upset,
    written_line,
)

YEARS = (2019, 2023)


def rows_of(corpora):
    """Source -> the rows of its articles' classified lines, as compare
    reads them (`head_row`)."""
    return {
        source: [head_row(written_line(a)) for a in articles]
        for source, articles in corpora.items()
    }


def fold_of(source, articles, ta_keys):
    """`aggregate` over the articles' classified lines."""
    return aggregate(source, [written_line(a) for a in articles], ta_keys, YEARS)


def cls(
    source="open",
    native_id="W1",
    issn_l="0378-5955",
    year=2021,
    oa=False,
    countable=True,
    doi="10.1/a",
    publisher="Pub",
    countries=("DE",),
    hybrid=True,
):
    record = ArticleRecord(
        source=source,
        native_id=native_id,
        journal_issn_l=issn_l,
        pub_date=date(year, 3, 1),
        document_class="Article",
        doi=doi,
        authors=(
            Authorship(position=1, org_ids=frozenset({"ror:r1"}), countries=frozenset(countries)),
        ),
    )
    return ClassifiedArticle(
        record=record,
        year=year,
        is_original=countable,
        is_paratext=False,
        in_regular_issue=countable,
        is_hybrid_oa=oa and countable and hybrid,
        countable=countable and hybrid,
        journal_is_hybrid=hybrid,
        publisher=publisher,
    )


# --- journal universe -----------------------------------------------------------

def test_universe_membership_is_oa_activity():
    corpora = {
        "open": [cls(source="open", oa=True)],
        "srcA": [cls(source="srcA", native_id="A1", oa=True)],
        "srcB": [cls(source="srcB", native_id="B1", oa=False)],
    }
    universe = journal_index(rows_of(corpora), YEARS).universe
    assert universe == {"0378-5955": frozenset({"open", "srcA"})}


def test_universe_ignores_articles_outside_window():
    corpora = {"open": [cls(oa=True, year=2018)]}
    assert journal_index(rows_of(corpora), YEARS).universe == {}


def test_universe_empty_when_no_oa():
    corpora = {"open": [cls(oa=False)]}
    assert journal_index(rows_of(corpora), YEARS).universe == {}


# --- upset sets --------------------------------------------------------------------

def test_upset_partition_of_membership_combinations():
    universe = {
        "j1": frozenset({"open", "srcA", "srcB"}),
        "j2": frozenset({"open", "srcA"}),
        "j3": frozenset({"open"}),
    }
    sets = upset_sets(universe, journal_overlaps(universe, {}, "open"))
    got = {frozenset(s.membership): s.n_journals for s in sets}
    assert got == {
        frozenset({"open", "srcA", "srcB"}): 1,
        frozenset({"open", "srcA"}): 1,
        frozenset({"open"}): 1,
    }


def test_upset_shared_and_surplus_fixture():
    """DERIVED: expected values computed with the set-algebra oracle."""
    universe = {"j1": frozenset({"open", "srcA", "srcB"})}
    doi_sets = {
        ("open", "j1"): {"d1", "d2", "d3"},
        ("srcA", "j1"): {"d1", "d2"},
        ("srcB", "j1"): {"d1"},
    }
    expected = oracle_upset(universe, doi_sets, "open")
    assert expected[frozenset({"open", "srcA", "srcB"})] == (1, 1, 1)
    (result,) = upset_sets(universe, journal_overlaps(universe, doi_sets, "open"))
    assert (result.n_journals, result.n_articles_shared, result.n_articles_surplus_open) == (1, 1, 1)


def test_upset_empty_universe():
    assert upset_sets({}, journal_overlaps({}, {}, "open")) == []


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_upset_equals_oracle_on_random_universes(seed):
    rng = random.Random(seed)
    sources = ["open", "srcA", "srcB"]
    universe = {}
    doi_sets = {}
    for j in range(rng.randint(1, 12)):
        members = frozenset(rng.sample(sources, rng.randint(1, 3)))
        universe[f"j{j}"] = members
        for source in members:
            doi_sets[(source, f"j{j}")] = {
                f"d{j}.{d}" for d in range(rng.randint(0, 6))
                if rng.random() < 0.7
            }
    results = upset_sets(universe, journal_overlaps(universe, doi_sets, "open"))
    got = {
        s.membership: (s.n_journals, s.n_articles_shared, s.n_articles_surplus_open)
        for s in results
    }
    assert got == oracle_upset(universe, doi_sets, "open")
    # partition: exclusive sets cover the universe exactly
    assert sum(s.n_journals for s in results) == len(universe)


# --- aggregation ---------------------------------------------------------------------

def indicator_rows(stream, kind, role=ROLE_FIRST, source="open"):
    """Rows of one group kind from (article, ta_enabled) pairs via the one-pass fold."""
    stream = list(stream)
    enabled = {(a.record.source, a.record.native_id) for a, ta in stream if ta}
    fold = fold_of(source, [a for a, _ in stream], {role: enabled})
    return [r for r in fold.rows if r.group_kind == kind]


def test_aggregate_counts_and_shares():
    stream = []
    for i in range(200):
        oa = i < 50
        stream.append((cls(native_id=f"W{i}", oa=oa), oa and i < 30))
    rows = indicator_rows(stream, GROUP_GLOBAL)
    (row,) = rows
    assert (row.n_total, row.n_original, row.n_oa, row.n_ta_oa) == (200, 200, 50, 30)
    assert row.oa_share == pytest.approx(0.25)
    assert row.ta_share_of_oa == pytest.approx(0.60)


def test_aggregate_full_counting_by_country():
    stream = [(cls(countries=("DE", "CH"), oa=True), True)]
    rows = indicator_rows(stream, GROUP_COUNTRY)
    assert {r.group_key for r in rows} == {"DE", "CH"}
    for row in rows:
        assert (row.n_total, row.n_oa, row.n_ta_oa) == (1, 1, 1)


def test_aggregate_zero_oa_share_undefined():
    rows = indicator_rows([(cls(oa=False), False)], GROUP_GLOBAL)
    assert rows[0].ta_share_of_oa is None


def test_aggregate_skips_non_hybrid_journals():
    rows = indicator_rows([(cls(hybrid=False), False)], GROUP_GLOBAL)
    assert rows == []


def test_aggregate_publisher_rows_sum_to_global():
    rng = random.Random(3)
    stream = []
    for i in range(300):
        publisher = rng.choice(["P1", "P2", "P3"])
        oa = rng.random() < 0.3
        stream.append((cls(native_id=f"W{i}", publisher=publisher, oa=oa), oa and rng.random() < 0.5))
    by_publisher = indicator_rows(iter(stream), GROUP_PUBLISHER)
    global_rows = indicator_rows(iter(stream), GROUP_GLOBAL)
    for field in ("n_total", "n_original", "n_oa", "n_ta_oa"):
        assert sum(getattr(r, field) for r in by_publisher) == sum(
            getattr(r, field) for r in global_rows
        )


def test_aggregate_counter_ordering_invariant():
    rng = random.Random(4)
    stream = []
    for i in range(400):
        countable = rng.random() < 0.8
        oa = countable and rng.random() < 0.4
        stream.append(
            (cls(native_id=f"W{i}", countable=countable, oa=oa, year=2019 + i % 5),
             oa and rng.random() < 0.5)
        )
    for kind in (GROUP_GLOBAL, GROUP_PUBLISHER, GROUP_COUNTRY):
        for row in indicator_rows(iter(stream), kind):
            assert row.n_ta_oa <= row.n_oa <= row.n_original <= row.n_total


def test_coverage_summary_totals():
    corpora = {
        "open": [cls(native_id="W1", oa=True), cls(native_id="W2", countable=False)],
    }
    folds = [fold_of(s, articles, {ROLE_FIRST: set()}) for s, articles in corpora.items()]
    rows = dict(((s, m), v) for s, m, v in coverage_summary(folds))
    assert rows[("open", "articles_total")] == 2
    assert rows[("open", "articles_original")] == 1
    assert rows[("open", "articles_original_oa")] == 1
    assert rows[("open", "journals_active")] == 1


def random_article(rng, source, i, **overrides):
    """A classified article with random flags, authors and window position."""
    fields = dict(
        year=rng.randint(2017, 2025),
        hybrid=rng.random() < 0.8,
        countable=rng.random() < 0.8,
        has_corresponding=source != "open",
    )
    fields.update(overrides)
    authors = []
    for position in range(1, rng.randint(1, 3) + 1):
        corresponding = rng.random() < 0.4 if fields["has_corresponding"] else None
        authors.append(
            Authorship(
                position=position,
                is_corresponding=corresponding,
                org_ids=frozenset(rng.sample(["ror:r1", "ror:r2", "srcA:p1"], rng.randint(0, 2))),
                countries=frozenset(rng.sample(["DE", "CH", "NL", "US"], rng.randint(0, 3))),
            )
        )
    record = ArticleRecord(
        source=source,
        native_id=f"{source}{i}",
        journal_issn_l=rng.choice(["j1", "j2", "j3", "j4"]),
        pub_date=date(fields["year"], 3, 1),
        document_class="Article",
        doi=f"10.1/{source}{i}" if rng.random() < 0.8 else None,
        authors=tuple(authors),
    )
    countable = fields["countable"] and fields["hybrid"]
    return ClassifiedArticle(
        record=record,
        year=fields["year"],
        is_original=countable,
        is_paratext=False,
        in_regular_issue=countable,
        is_hybrid_oa=countable and rng.random() < 0.5,
        countable=countable,
        journal_is_hybrid=fields["hybrid"],
        publisher=rng.choice(["P1", "P2"]),
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_fold_equals_per_kind_oracle(seed):
    """The one-pass fold gives the same rows, skips and coverage as one
    rescan per role x source x group kind. Every corpus holds a source
    without corresponding-author data ("open"), a multi-country author,
    an out-of-window record and a non-hybrid record."""
    rng = random.Random(seed)
    corpora = {}
    for source in ("open", "srcA", "srcB"):
        corpora[source] = [random_article(rng, source, i) for i in range(rng.randint(0, 30))]
    srcA = corpora["srcA"]
    srcA.append(random_article(rng, "srcA", 900, year=2021, hybrid=True, countable=True))
    srcA[-1] = replace(
        srcA[-1],
        record=replace(
            srcA[-1].record,
            authors=(
                Authorship(position=1, is_corresponding=True, countries=frozenset({"DE", "CH"})),
                Authorship(position=2, is_corresponding=True, countries=frozenset({"NL"})),
            ),
        ),
    )
    srcA.append(random_article(rng, "srcA", 901, year=2018))
    srcA.append(random_article(rng, "srcA", 902, hybrid=False))
    keys = [(a.record.source, a.record.native_id) for arts in corpora.values() for a in arts]
    ta_keys = {
        role: {k for k in keys if rng.random() < 0.5} for role in (ROLE_FIRST, ROLE_CORRESPONDING)
    }

    folds = [fold_of(source, articles, ta_keys) for source, articles in corpora.items()]
    rows = sorted(
        (r for fold in folds for r in fold.rows),
        key=lambda r: (r.role, r.group_kind, r.source, r.year, r.group_key),
    )
    skipped = {(fold.source, role) for fold in folds for role in fold.skipped_roles}

    expected_rows, expected_skipped = oracle_indicators(corpora, ta_keys, YEARS)
    assert rows == expected_rows
    assert skipped == expected_skipped
    assert ("open", ROLE_CORRESPONDING) in skipped
    assert coverage_summary(reversed(folds)) == oracle_coverage_summary(corpora, YEARS)


# --- spearman -------------------------------------------------------------------------

def keyed(values):
    return {f"k{i}": float(v) for i, v in enumerate(values)}


def test_spearman_identity():
    result = spearman(keyed([1, 2, 3, 4, 5]), keyed([10, 20, 30, 40, 50]))
    assert abs(result.rho - 1.0) < 1e-12


def test_spearman_reversal():
    result = spearman(keyed([1, 2, 3, 4, 5]), keyed([50, 40, 30, 20, 10]))
    assert abs(result.rho + 1.0) < 1e-12


def test_spearman_tied_ranks_hand_computed():
    """DERIVED: x=(1,2,2,4) ranks (1, 2.5, 2.5, 4); y=(1,3,2,4) ranks
    (1,3,2,4). cov=4.5, var_x=4.5, var_y=5.0, rho = 4.5/sqrt(22.5) =
    3/sqrt(10), computed by hand before implementation."""
    result = spearman(keyed([1, 2, 2, 4]), keyed([1, 3, 2, 4]))
    assert abs(result.rho - 3 / math.sqrt(10)) < 1e-9
    assert result.n == 4


def test_spearman_drops_unshared_keys():
    x = {"a": 1.0, "b": 2.0, "c": 3.0}
    y = {"b": 5.0, "c": 9.0, "d": 1.0}
    assert spearman(x, y).n == 2


def test_spearman_min_count_filter():
    """Counts gated by themselves: keys below the threshold on either side drop out."""
    x = {"a": 5.0, "b": 100.0, "c": 200.0}
    y = {"a": 7.0, "b": 150.0, "c": 90.0}
    keys = gated_keys(x, y, x, y, 50)
    result = spearman({k: x[k] for k in keys}, {k: y[k] for k in keys})
    assert result.n == 2
    assert keys == ["b", "c"]


def test_spearman_insufficient_pairs():
    with pytest.raises(InsufficientPairs):
        spearman({"a": 1.0}, {"a": 2.0})


def test_spearman_constant_side_raises():
    with pytest.raises(InsufficientPairs):
        spearman(keyed([1, 1, 1]), keyed([1, 2, 3]))


@st.composite
def paired_metrics(draw):
    n = draw(st.integers(3, 30))
    xs = draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n))
    return keyed(xs), keyed(ys)


@settings(max_examples=150, deadline=None)
@given(paired_metrics())
def test_spearman_symmetric_and_bounded(pair):
    x, y = pair
    try:
        forward = spearman(x, y)
        backward = spearman(y, x)
    except InsufficientPairs:
        return
    assert abs(forward.rho) <= 1 + 1e-12
    assert abs(forward.rho - backward.rho) < 1e-12


@settings(max_examples=150, deadline=None)
@given(paired_metrics())
def test_spearman_invariant_under_monotone_transform(pair):
    x, y = pair
    cubed = {k: v**3 for k, v in x.items()}
    try:
        base = spearman(x, y)
    except InsufficientPairs:
        return
    transformed = spearman(cubed, y)
    assert abs(base.rho - transformed.rho) < 1e-12


# --- compare: one pass over one-shot streams ------------------------------------------

class OneShot:
    """An iterable that allows a single pass; a second pass fails the test."""

    def __init__(self, items):
        self._items = list(items)
        self._used = False

    def __iter__(self):
        assert not self._used, "second pass over a one-shot stream"
        self._used = True
        return iter(self._items)


def random_corpora(rng):
    """Per source: articles over few journals and DOIs, so overlaps are common.

    Each article draws its own publisher, so the first-seen publisher of a
    journal depends on the order of sources and articles.
    """
    corpora = {}
    for source in ("open", "srcA", "srcB"):
        corpora[source] = [
            cls(
                source=source,
                native_id=f"{source}{i}",
                issn_l=f"j{rng.randrange(8)}",
                year=rng.randint(2017, 2025),
                oa=rng.random() < 0.6,
                countable=rng.random() < 0.8,
                doi=rng.choice([None] + [f"10.1/{d}" for d in range(20)]),
                publisher=rng.choice(("Pub1", "Pub2", "Pub3")),
                hybrid=rng.random() < 0.9,
            )
            for i in range(rng.randint(0, 30))
        ]
    return corpora


def random_indicator_rows(rng):
    """Country rows for a few (source, role) combinations, plus GLOBAL rows."""
    rows = []
    combos = [("open", ROLE_FIRST), ("srcA", ROLE_FIRST), ("srcA", ROLE_CORRESPONDING)]
    combos += [("srcB", ROLE_FIRST)] * rng.randint(0, 1)
    for source, role in combos:
        for year in (2020, 2021):
            for country in rng.sample(("BR", "DE", "FR", "IN", "JP", "US"), rng.randint(0, 6)):
                n_original = rng.randint(0, 60)
                n_oa = rng.randint(0, n_original)
                n_ta_oa = rng.randint(0, n_oa)
                for kind, key in ((GROUP_COUNTRY, country), (GROUP_GLOBAL, "")):
                    rows.append(
                        IndicatorRow(
                            year=year,
                            source=source,
                            role=role,
                            group_kind=kind,
                            group_key=key,
                            n_total=n_original,
                            n_original=n_original,
                            n_oa=n_oa,
                            n_ta_oa=n_ta_oa,
                        )
                    )
    return rows


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_compare_equals_oracle_on_random_corpora(seed):
    rng = random.Random(seed)
    corpora = random_corpora(rng)
    index = journal_index({s: OneShot(a) for s, a in rows_of(corpora).items()}, YEARS)
    universe, doi_sets, publishers = oracle_journal_index(corpora, YEARS)
    assert (index.universe, index.doi_sets, index.publishers) == (universe, doi_sets, publishers)

    overlaps = journal_overlaps(index.universe, index.doi_sets, "open")
    got = {
        s.membership: (s.n_journals, s.n_articles_shared, s.n_articles_surplus_open)
        for s in upset_sets(index.universe, overlaps)
    }
    assert got == oracle_upset(universe, doi_sets, "open")
    assert journal_volumes(index, overlaps) == oracle_journal_volumes(
        universe, doi_sets, publishers
    )

    rows = random_indicator_rows(rng)
    min_articles, min_ta_oa = rng.randint(0, 60), rng.randint(0, 20)
    thresholds = {"article_volume": min_articles, "ta_oa_volume": min_ta_oa}
    assert country_correlations(
        OneShot(rows), ("open", ROLE_FIRST), thresholds
    ) == oracle_country_correlations(rows, "open", min_articles, min_ta_oa)
