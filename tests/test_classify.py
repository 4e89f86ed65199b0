import functools
import os
import tempfile
from collections import Counter
from datetime import date
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridoa.classify import (
    ClassifierConfig,
    DOC_MODE_ALLOWLIST,
    DOC_MODE_HEURISTIC,
    SourcePolicy,
    assign_year,
    classify_article,
    detect_paratext,
    in_regular_issue,
    is_original,
    license_failure,
    load_paratext_patterns,
    oa_status,
)
from hybridoa.errors import NoDate
from hybridoa.ingest import build_journals
from hybridoa.model import Authorship, Journal, LicenseStatement
from oracles import ArticleRecord, oracle_detect_paratext, oracle_paratext_patterns

PATTERNS = load_paratext_patterns()

CC_BY = "https://creativecommons.org/licenses/by/4.0/"


def record(**overrides):
    fields = dict(
        source="open",
        native_id="W1",
        journal_issn_l="0378-5955",
        pub_date=date(2021, 3, 4),
        document_class="journal-article",
        doi="10.5555/x1",
        pagination="10-19",
        article_number=None,
        title="A study of hybrid journals",
        licenses=(),
        authors=(Authorship(position=1, org_ids=frozenset({"ror:r1"})),),
    )
    fields.update(overrides)
    return ArticleRecord(**fields)


def config(**overrides):
    fields = dict(
        policies={
            "open": SourcePolicy(mode=DOC_MODE_HEURISTIC),
            "srcA": SourcePolicy(mode=DOC_MODE_ALLOWLIST),
        },
        paratext_patterns=PATTERNS,
    )
    fields.update(overrides)
    return ClassifierConfig(**fields)


JOURNAL = Journal(issn_l="0378-5955", publisher="Pub", is_hybrid=True)


# --- hybrid status ------------------------------------------------------------

def is_hybrid_journal(journal, fully_oa_set):
    """Hybrid status as `build_journals` assigns it to the journal's ISSN-L."""
    journals = build_journals({journal.issn_l: Counter({journal.publisher: 1})}, {}, fully_oa_set)
    return journals[journal.issn_l].is_hybrid


def test_journal_on_fully_oa_list_not_hybrid():
    assert not is_hybrid_journal(JOURNAL, {"0378-5955"})


def test_journal_absent_from_lists_is_hybrid():
    assert is_hybrid_journal(JOURNAL, {"0024-9319"})


def test_variant_listings_resolve_before_lookup():
    # fully-OA sets are keyed by ISSN-L: a variant listing lands on the
    # journal's ISSN-L at load time (see ingest tests), so membership is
    # checked on issn_l only
    assert not is_hybrid_journal(JOURNAL, {JOURNAL.issn_l})


# --- year assignment ------------------------------------------------------------

def test_year_of_minimum_date():
    assert assign_year(record(pub_date=date(2021, 12, 30))) == 2021


def test_year_single_date():
    assert assign_year(record(pub_date=date(2020, 5, 1))) == 2020


def test_year_missing_date_raises():
    with pytest.raises(NoDate):
        assign_year(record(pub_date=None))


# --- paratext ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "title",
    [
        "Editorial Board",
        "EDITORIAL BOARD",
        "Issue Information",
        "Front Matter",
        "Table of Contents",
        "Editorial Board, Volume 12",
        "Issue Information - TOC",
        "Cover",
        "Masthead",
        "Reviewer Acknowledgement",
        "Index",
        "  Editorial   Board ",
    ],
)
def test_paratext_titles(title):
    assert detect_paratext(title, PATTERNS)


@pytest.mark.parametrize(
    "title",
    [
        "A study of hybrid journals",
        "",
        "Editorial boards in practice: a review",
        "The cover crops of northern Europe",
        "Indexing theory",
    ],
)
def test_non_paratext_titles(title):
    assert not detect_paratext(title, PATTERNS)


def test_paratext_pattern_file_override(tmp_path):
    path = tmp_path / "patterns.txt"
    path.write_text("announcements?\n")
    patterns = load_paratext_patterns(str(path))
    assert detect_paratext("Announcement", patterns)
    assert not detect_paratext("Editorial Board", patterns)


def test_packaged_fragments_without_groups_are_one_pattern():
    (pattern,) = PATTERNS
    assert pattern.groups == 0


PACKAGED_TEXT = resources.files("hybridoa").joinpath("data/paratext_patterns.txt").read_text(
    "utf-8"
)
# Fragments that must keep patterns of their own: groups (plain, with a
# backreference, named), and one that is a regex only inside the wrapper.
CONFIGURED_TEXT = (
    "announcements?\nerrat(a|um)\n(\\w+) \\1\n  # named\n(?P<w>[a-z]+)-(?P=w)\n"
    "cover\na)|(b\n"
)
TITLE_PIECES = [
    "Editorial", "Board", "issue information", "cover", "Index", "announcement", "erratum",
    "errata", "word", "Word", "x-x", "a", "b", "ab", ",", " ", "-", ":", "Vol.", "12", "iii",
    "(", ")", "toc", "No. 3", "é",
]


@functools.cache
def patterns_from_text(text):
    """`load_paratext_patterns` of a file holding `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "patterns.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return load_paratext_patterns(path)


titles = st.lists(st.sampled_from(TITLE_PIECES), max_size=6).map(" ".join) | st.lists(
    st.sampled_from(TITLE_PIECES), max_size=6
).map("".join)


@settings(max_examples=500, deadline=None)
@given(titles)
@example("word word, Vol. 12")
@example("x-x")
@example("Errata (iii)")
@example("a, 12")
@example("b")
@example("a word")
def test_detect_paratext_equals_one_pattern_per_fragment(title):
    """On the packaged file and on one with fragments that cannot be joined."""
    for text in (PACKAGED_TEXT, CONFIGURED_TEXT):
        patterns = patterns_from_text(text)
        expected = oracle_detect_paratext(title, oracle_paratext_patterns(text))
        assert detect_paratext(title, patterns) == expected, (text, title)


def test_only_a_line_starting_with_a_hash_is_a_comment():
    """A `#` after a line's first non-blank character belongs to its fragment."""
    patterns = patterns_from_text("# comment\n   # indented comment\nissue #[0-9]+\n")
    assert len(patterns) == 1
    assert detect_paratext("Issue #12", patterns)
    assert not detect_paratext("Issue", patterns)
    # the packaged file's three comment lines are no fragments
    assert len(oracle_paratext_patterns(PACKAGED_TEXT)) == 10
    assert len(load_paratext_patterns()) == 1


def test_configured_fragments_with_groups_keep_patterns_of_their_own():
    patterns = patterns_from_text(CONFIGURED_TEXT)
    assert len(patterns) == 5  # announcements? and cover joined, four alone
    assert detect_paratext("word word", patterns)
    assert detect_paratext("Errata", patterns)
    assert not detect_paratext("word other", patterns)


# --- regular issues -----------------------------------------------------------------

def test_numeric_pagination_is_regular():
    assert in_regular_issue(record(pagination="123-130"))


def test_supplement_pagination_is_not_regular():
    assert not in_regular_issue(record(pagination="S12-S20"))


def test_article_number_counts_as_regular():
    assert in_regular_issue(record(pagination=None, article_number="104832"))


def test_no_pagination_no_number_not_regular():
    assert not in_regular_issue(record(pagination=None, article_number=None))


def test_alphanumeric_article_number_not_regular():
    assert not in_regular_issue(record(pagination=None, article_number="e104832"))


@pytest.mark.parametrize(
    "pagination, article_number, regular",
    [
        # digits that are not ASCII are not numerical
        *((text, None, False) for text in ("②-5", "²", "١٢٣", " ٣-9")),
        *((None, text, False) for text in ("②-5", "²", "١٢٣", " ٣-9")),
        # pagination: its first character that is not a separator is a digit
        ("12", None, True), (" 12-19", None, True), ("-12", None, True), (";, 7", None, True),
        ("– 3", None, True),
        # an article number: digits only, once stripped
        (None, " 104832 ", True), (None, "1 2", False), (None, " ", False),
    ],
)
def test_regular_issue_digits_are_ascii(pagination, article_number, regular):
    assert in_regular_issue(record(pagination=pagination, article_number=article_number)) == regular


# --- original decision ---------------------------------------------------------------

def verdicts(rec):
    """The paratext and regular-issue verdicts `classify_article` passes to `is_original`."""
    return dict(paratext=detect_paratext(rec.title, PATTERNS), regular_issue=in_regular_issue(rec))


def test_allowlist_accepts_review():
    rec = record(source="srcA", document_class="Review")
    assert is_original(rec, SourcePolicy(mode=DOC_MODE_ALLOWLIST), **verdicts(rec))


def test_allowlist_rejects_meeting_abstract():
    rec = record(source="srcA", document_class="Meeting Abstract")
    assert not is_original(rec, SourcePolicy(mode=DOC_MODE_ALLOWLIST), **verdicts(rec))


def test_unknown_class_treated_as_not_original():
    rec = record(source="srcA", document_class="Dance Notation")
    assert not is_original(rec, SourcePolicy(mode=DOC_MODE_ALLOWLIST), **verdicts(rec))


def test_heuristic_rejects_paratext_title():
    rec = record(title="Front Matter")
    assert not is_original(rec, SourcePolicy(mode=DOC_MODE_HEURISTIC), **verdicts(rec))


def test_heuristic_rejects_non_journal_article_class():
    rec = record(document_class="posted-content")
    assert not is_original(rec, SourcePolicy(mode=DOC_MODE_HEURISTIC), **verdicts(rec))


def test_heuristic_accepts_regular_article():
    rec = record()
    assert is_original(rec, SourcePolicy(mode=DOC_MODE_HEURISTIC), **verdicts(rec))


# --- OA status ------------------------------------------------------------------------

def vor_license(url=CC_BY, start=None):
    return LicenseStatement(url=url, applies_to_vor=True, start_date=start)


def test_cc_license_on_vor_is_oa():
    rec = record(licenses=(vor_license(),))
    assert oa_status(rec, config())


def test_publisher_user_license_is_closed():
    rec = record(licenses=(vor_license(url="https://publisher.example/user-license"),))
    assert not oa_status(rec, config())


def test_delayed_cc_license_is_closed():
    rec = record(licenses=(vor_license(start=date(2023, 3, 4)),))
    assert not oa_status(rec, config())


def test_grace_window_boundary_inclusive():
    rec = record(licenses=(vor_license(start=date(2021, 4, 4)),))  # +31 days
    assert oa_status(rec, config())
    rec = record(licenses=(vor_license(start=date(2021, 4, 5)),))  # +32 days
    assert not oa_status(rec, config())


def test_non_vor_cc_license_is_closed():
    rec = record(licenses=(LicenseStatement(url=CC_BY, applies_to_vor=False),))
    assert not oa_status(rec, config())


def test_lenient_source_counts_delayed_and_user_licenses():
    cfg = config(lenient_oa_sources=frozenset({"open"}))
    delayed = record(licenses=(vor_license(start=date(2023, 3, 4)),))
    user = record(licenses=(vor_license(url="https://publisher.example/user-license"),))
    assert oa_status(delayed, cfg)
    assert oa_status(user, cfg)
    unrelated = record(licenses=(vor_license(url="https://publisher.example/terms"),))
    assert not oa_status(unrelated, cfg)


def test_license_start_date_without_pub_date_fails():
    rec = record(pub_date=None, licenses=(vor_license(start=date(2021, 3, 4)),))
    assert license_failure(rec.licenses[0], rec, config()) is not None
    assert not oa_status(rec, config())
    undated = record(pub_date=None, licenses=(vor_license(),))
    assert license_failure(undated.licenses[0], undated, config()) is None


def test_license_failure_reasons():
    cfg = config()
    cases = {
        LicenseStatement(url=CC_BY, applies_to_vor=False): "not version of record",
        vor_license(url="https://publisher.example/user-license"): "no CC license",
        vor_license(start=date(2023, 3, 4)): "starts after grace window: delayed OA",
        vor_license(): None,
    }
    for lic, reason in cases.items():
        rec = record(licenses=(lic,))
        assert license_failure(lic, rec, cfg) == reason
        assert oa_status(rec, cfg) == (reason is None)


# --- classified flags ---------------------------------------------------------------------

def test_countable_is_conjunction_of_flags():
    cls = classify_article(record(licenses=(vor_license(),)), JOURNAL, config())
    assert cls.is_original and not cls.is_paratext and cls.in_regular_issue
    assert cls.countable and cls.is_hybrid_oa


def test_unknown_journal_never_countable():
    cls = classify_article(record(licenses=(vor_license(),)), None, config())
    assert not cls.countable and not cls.is_hybrid_oa


def test_non_hybrid_journal_never_countable():
    journal = Journal(issn_l="0378-5955", publisher="Pub", is_hybrid=False)
    cls = classify_article(record(licenses=(vor_license(),)), journal, config())
    assert not cls.countable and not cls.is_hybrid_oa


def test_oa_only_asserted_on_countable():
    cls = classify_article(
        record(title="Editorial Board", licenses=(vor_license(),)), JOURNAL, config()
    )
    assert cls.is_paratext and not cls.countable and not cls.is_hybrid_oa


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_monotone_filter_chain(rnd):
    """countable implies original; OA implies countable."""
    rec = record(
        title=rnd.choice(["Editorial Board", "A study", "Issue Information", "Results"]),
        pagination=rnd.choice([None, "12-20", "S1-S9"]),
        article_number=rnd.choice([None, "1234", "e99"]),
        document_class=rnd.choice(["journal-article", "posted-content"]),
        licenses=(vor_license(),) if rnd.random() < 0.5 else (),
    )
    journal = rnd.choice([JOURNAL, Journal(issn_l="0378-5955", is_hybrid=False), None])
    cls = classify_article(rec, journal, config())
    if cls.countable:
        assert cls.is_original and not cls.is_paratext and cls.in_regular_issue
        assert cls.journal_is_hybrid
    if cls.is_hybrid_oa:
        assert cls.countable


def test_classification_is_pure():
    rec = record(licenses=(vor_license(),))
    first = classify_article(rec, JOURNAL, config())
    second = classify_article(rec, JOURNAL, config())
    assert first == second


def test_planted_labels_recovered_exactly(corpus_dir, pipeline_run):
    """Classifier precision and recall are 1.0 against generator labels."""
    import json

    from conftest import load_truth_labels

    layout, config_ = pipeline_run
    labels = load_truth_labels(corpus_dir)
    checked = 0
    for source in ("open", "srcA", "srcB"):
        with open(layout.classified(source), encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                truth = labels[(source, obj["record"]["native_id"])]
                assert obj["countable"] == (truth["countable"] == "true")
                assert obj["is_hybrid_oa"] == (
                    truth["is_oa"] == "true" and truth["countable"] == "true"
                )
                assert obj["is_paratext"] == (truth["is_paratext"] == "true")
                assert obj["year"] == int(truth["year"])
                checked += 1
    assert checked > 9000
