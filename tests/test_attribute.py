import random
from dataclasses import replace
from datetime import date, timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from hybridoa.attribute import (
    agreements_by_journal,
    match_agreements,
    resolve_org,
    role_author,
)
from hybridoa.model import (
    Agreement,
    Authorship,
    ClassifiedArticle,
    ROLE_CORRESPONDING,
    ROLE_FIRST,
)
from oracles import ArticleRecord, as_row, oracle_match, random_world

ISSN = "0378-5955"


def classified(
    org_ids=("ror:r1",),
    pub_date=date(2021, 6, 1),
    issn_l=ISSN,
    corresponding=None,
    oa=True,
    countable=True,
    extra_authors=(),
):
    authors = [
        Authorship(position=1, is_corresponding=corresponding, org_ids=frozenset(org_ids),
                   countries=frozenset({"DE"}))
    ]
    authors.extend(extra_authors)
    record = ArticleRecord(
        source="srcA",
        native_id="A1",
        journal_issn_l=issn_l,
        pub_date=pub_date,
        document_class="Article",
        doi="10.1/a",
        authors=tuple(authors),
    )
    return as_row(
        ClassifiedArticle(
            record=record,
            year=pub_date.year,
            is_original=countable,
            is_paratext=False,
            in_regular_issue=countable,
            is_hybrid_oa=oa and countable,
            countable=countable,
            journal_is_hybrid=True,
            publisher="Pub",
        )
    )


def agreement(agreement_id="ta-1", issns=(ISSN,), orgs=("ror:r1",),
              start=date(2019, 7, 1), end=date(2023, 12, 31)):
    return Agreement(
        agreement_id=agreement_id,
        publisher="Pub",
        journal_issn_ls=frozenset(issns),
        institution_ids=frozenset(orgs),
        start_date=start,
        end_date=end,
    )


EMPTY_XW: dict = {}
EMPTY_IDX: dict = {}


# --- org resolution -----------------------------------------------------------

def test_resolve_open_ids_pass_through():
    author = Authorship(position=1, org_ids=frozenset({"ror:r1"}))
    assert resolve_org(author, EMPTY_XW, EMPTY_IDX) == {"ror:r1"}


def test_resolve_proprietary_via_inverted_crosswalk():
    author = Authorship(position=1, org_ids=frozenset({"srcA:p9"}))
    inverse = {"srcA:p9": frozenset({"ror:r1"})}
    assert resolve_org(author, inverse, EMPTY_IDX) == {"ror:r1"}


def test_resolve_crosswalk_can_be_one_to_many():
    author = Authorship(position=1, org_ids=frozenset({"srcA:p9"}))
    inverse = {"srcA:p9": frozenset({"ror:r1", "ror:r2"})}
    assert resolve_org(author, inverse, EMPTY_IDX) == {"ror:r1", "ror:r2"}


def test_resolve_associated_id_maps_to_parent():
    author = Authorship(position=1, org_ids=frozenset({"ror:h1"}))
    assert resolve_org(author, EMPTY_XW, {"ror:h1": "ror:r1"}) == {"ror:r1"}


def test_resolve_unmatched_proprietary_id_dropped_and_counted():
    author = Authorship(position=1, org_ids=frozenset({"srcA:unknown"}))
    diagnostics = {}
    assert resolve_org(author, EMPTY_XW, EMPTY_IDX, diagnostics) == frozenset()
    assert diagnostics["unresolved_org_ids"] == 1


# --- role selection -------------------------------------------------------------

def test_corresponding_absent_means_no_author():
    article = classified(corresponding=None)
    assert role_author(article, ROLE_CORRESPONDING) is None


def test_corresponding_flagged_author_used():
    extra = Authorship(position=2, is_corresponding=True, org_ids=frozenset({"ror:r2"}))
    article = classified(corresponding=False, extra_authors=(extra,))
    author = role_author(article, ROLE_CORRESPONDING)
    assert author.org_ids == frozenset({"ror:r2"})


def test_multiple_corresponding_authors_merge():
    extra = Authorship(position=2, is_corresponding=True, org_ids=frozenset({"ror:r2"}))
    article = classified(corresponding=True, extra_authors=(extra,))
    author = role_author(article, ROLE_CORRESPONDING)
    assert author.org_ids == frozenset({"ror:r1", "ror:r2"})


def test_first_author_is_position_one():
    article = classified()
    assert role_author(article, ROLE_FIRST).position == 1


# --- matching ----------------------------------------------------------------------

def match(article, agreements, role=ROLE_FIRST, inverse=None, index=None):
    return match_agreements(
        article, role, agreements_by_journal(agreements), inverse or {}, index or {}
    )


def test_basic_match():
    result = match(classified(), [agreement()])
    assert result is not None
    assert result.agreement_ids == ("ta-1",)
    assert result.matched_institution == "ror:r1"
    assert result.ta_enabled


def test_day_before_window_start_no_match():
    result = match(classified(pub_date=date(2019, 6, 30)), [agreement()])
    assert result is None


def test_window_bounds_inclusive():
    assert match(classified(pub_date=date(2019, 7, 1)), [agreement()]) is not None
    assert match(classified(pub_date=date(2023, 12, 31)), [agreement()]) is not None


def test_two_overlapping_agreements_one_record():
    agreements = [agreement("ta-b"), agreement("ta-a")]
    result = match(classified(), agreements)
    assert result.agreement_ids == ("ta-a", "ta-b")


def test_non_oa_article_never_attributed():
    assert match(classified(oa=False), [agreement()]) is None


def test_not_countable_never_attributed():
    assert match(classified(countable=False), [agreement()]) is None


def test_journal_outside_agreement_no_match():
    assert match(classified(issn_l="0024-9319"), [agreement()]) is None


def test_institution_outside_agreement_no_match():
    assert match(classified(org_ids=("ror:other",)), [agreement()]) is None


def test_match_through_crosswalk_and_hospital_index():
    inverse = {"srcA:p9": frozenset({"ror:h1"})}
    index = {"ror:h1": "ror:r1"}
    result = match(classified(org_ids=("srcA:p9",)), [agreement()], inverse=inverse, index=index)
    assert result is not None and result.matched_institution == "ror:r1"


def test_matched_institution_from_first_agreement_in_id_order():
    agreements = [
        agreement("ta-z", orgs=("ror:r1", "ror:r9")),
        agreement("ta-a", orgs=("ror:r9",)),
    ]
    article = classified(org_ids=("ror:r1", "ror:r9"))
    result = match(article, agreements)
    assert result.agreement_ids == ("ta-a", "ta-z")
    assert result.matched_institution == "ror:r9"


# --- oracle equivalence and monotonicity ------------------------------------------------

def test_matches_bruteforce_oracle_on_random_corpora():
    for trial in range(20):
        rng = random.Random(500 + trial)
        articles, agreements, inverse, index = random_world(rng, 200, rng.randint(1, 20))
        journal_index = agreements_by_journal(agreements)
        for article in articles:
            for role in (ROLE_FIRST, ROLE_CORRESPONDING):
                got = match_agreements(as_row(article), role, journal_index, inverse, index)
                want = oracle_match(article, role, agreements, inverse, index)
                assert got == want


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 400))
def test_adding_agreement_never_removes_attribution(seed, extra_days):
    rng = random.Random(seed)
    articles, agreements, inverse, index = random_world(rng, 40, 5)
    new_agreement = Agreement(
        agreement_id="ta-new",
        publisher="Pub",
        journal_issn_ls=frozenset({articles[0].record.journal_issn_l}),
        institution_ids=frozenset({"ror:r0"}),
        start_date=date(2019, 1, 1),
        end_date=date(2019, 1, 1) + timedelta(days=extra_days),
    )
    before = agreements_by_journal(agreements)
    after = agreements_by_journal(agreements + [new_agreement])
    for article in map(as_row, articles):
        old = match_agreements(article, ROLE_FIRST, before, inverse, index)
        new = match_agreements(article, ROLE_FIRST, after, inverse, index)
        if old is not None:
            assert new is not None
            assert set(old.agreement_ids) <= set(new.agreement_ids)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 600))
def test_widening_window_never_removes_attribution(seed, widen_days):
    rng = random.Random(seed)
    articles, agreements, inverse, index = random_world(rng, 40, 5)
    widened = [
        replace(
            a,
            start_date=a.start_date - timedelta(days=widen_days),
            end_date=a.end_date + timedelta(days=widen_days),
        )
        for a in agreements
    ]
    before = agreements_by_journal(agreements)
    after = agreements_by_journal(widened)
    for article in map(as_row, articles):
        old = match_agreements(article, ROLE_FIRST, before, inverse, index)
        new = match_agreements(article, ROLE_FIRST, after, inverse, index)
        if old is not None:
            assert new is not None
            assert set(old.agreement_ids) <= set(new.agreement_ids)
