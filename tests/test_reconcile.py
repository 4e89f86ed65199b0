import random
from collections import Counter
from dataclasses import replace
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridoa import artifacts
from hybridoa.artifacts import IngestRow, classified_from_line, doi_groups, dump_canonical
from hybridoa.errors import SampleTooLarge
from hybridoa.model import Authorship
from hybridoa.reconcile import (
    audit_sample,
    build_bridge,
    invert_crosswalk,
    select_crosswalk,
    tally_pairs,
)
from oracles import (
    ArticleRecord,
    bare_article,
    filled_streams,
    ingested,
    oracle_crosswalk,
    record_to_dict,
    written_line,
)


def rec(source, native_id, doi, org_ids=("ror:r1",), position=1):
    return ArticleRecord(
        source=source,
        native_id=native_id,
        journal_issn_l="0378-5955",
        pub_date=date(2021, 1, 1),
        document_class="Article",
        doi=doi,
        authors=(Authorship(position=position, org_ids=frozenset(org_ids)),),
    )


def stream_of(records):
    """The DOI stream classify writes of the records (`bare_article`)."""
    articles = [ingested(bare_article(record)) for record in records]
    return list(filled_streams("srcA", articles, (2019, 2023)).dois.merged())


def bridge_of(*corpora):
    """`build_bridge` over the corpora's streams, the open one first:
    (DOI, rank) of each bridged DOI, and the bridged DOIs per rank."""
    bridged = Counter()
    bridge = build_bridge(doi_groups([stream_of(corpus) for corpus in corpora]), bridged)
    return [(doi, rank) for doi, rank, _, _ in bridge], bridged


def bridge_of_corpora(open_corpus, prop_corpus):
    return [doi for doi, _ in bridge_of(open_corpus, prop_corpus)[0]]


# --- bridging -------------------------------------------------------------------

def test_bridge_unique_doi_in_both():
    bridge = bridge_of_corpora([rec("open", "W1", "10.1/a")], [rec("srcA", "A1", "10.1/a")])
    assert set(bridge) == {"10.1/a"}


def test_bridge_skips_doi_repeated_in_one_corpus():
    bridge = bridge_of_corpora(
        [rec("open", "W1", "10.1/a"), rec("open", "W2", "10.1/a")],
        [rec("srcA", "A1", "10.1/a")],
    )
    assert bridge == []
    # repeated inside one proprietary source: it still bridges for the other
    bridge, bridged = bridge_of(
        [rec("open", "W1", "10.1/a")],
        [rec("srcA", "A1", "10.1/a"), rec("srcA", "A2", "10.1/a")],
        [rec("srcB", "B1", "10.1/a")],
    )
    assert bridge == [("10.1/a", 2)]
    assert bridged == {2: 1}


def test_bridge_requires_presence_on_both_sides():
    bridge = bridge_of_corpora([rec("open", "W1", "10.1/a")], [rec("srcA", "A1", "10.1/b")])
    assert bridge == []


def test_bridge_ignores_missing_dois():
    bridge = bridge_of_corpora([rec("open", "W1", None)], [rec("srcA", "A1", None)])
    assert bridge == []


def test_bridge_triple_occurrence_still_skipped():
    bridge = bridge_of_corpora(
        [rec("open", f"W{i}", "10.1/a") for i in range(3)],
        [rec("srcA", "A1", "10.1/a")],
    )
    assert bridge == []


# --- the first author, read from the text of the ingest line ------------------------------

# Text spelling what classify looks for in an ingest line, written inside
# org IDs and countries.
SPELLED = ["}", ',"position":', '"', ',"position":1}', "é", "x"]
spelled_text = st.lists(st.sampled_from(SPELLED), min_size=1, max_size=3).map("".join)
bridge_authors = st.lists(
    st.builds(
        Authorship,
        position=st.integers(1, 3),
        org_ids=st.frozensets(
            st.tuples(st.sampled_from(["ror", "srcA"]), spelled_text).map(":".join), max_size=3
        ),
        countries=st.frozensets(spelled_text, max_size=2),
    ),
    max_size=3,
)


def bridge_articles(articles):
    """Bare articles of (DOI, authors, re-escaped) triples, each as
    classify holds it, with its ingest line; a re-escaped line writes `é`
    as `\\u00E9`, not `\\u00e9`, and decodes alike."""
    out = []
    for i, (doi, authors, reescaped) in enumerate(articles):
        record = replace(rec("srcA", f"A{i}", doi), authors=tuple(authors))
        line = dump_canonical(record_to_dict(record))
        if reescaped:
            line = line.replace("\\u00e9", "\\u00E9")
        out.append(replace(bare_article(record), record=IngestRow(line, "srcA")))
    return out


def stream_projection(stream, open_side):
    """DOI -> the stream's first-author IDs of one side, for the DOIs the
    stream holds once."""
    return {
        doi: tuple(o for o in entries[0][3] if o.startswith("ror:") == open_side)
        for doi, entries in doi_groups([stream])
        if len(entries) == 1
    }


def decoded_projection(lines, open_side):
    """The projection of fully decoded classified lines: each line's first
    author (`ClassifiedRow.first_author`), its IDs of the side sorted, for
    the DOIs that occur once."""
    rows = [classified_from_line(line, "srcA") for line in lines]
    occurrences = Counter(row.doi for row in rows)
    projection = {}
    for row in rows:
        if row.doi is not None and occurrences[row.doi] == 1:
            first = row.first_author()
            ids = first.org_ids if first is not None else ()
            projection[row.doi] = tuple(sorted(o for o in ids if o.startswith("ror:") == open_side))
    return projection


E_ACUTE = Authorship(position=1, org_ids=frozenset({"ror:é}", "srcA:é"}))


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from([None, "10.1/a", "10.1/b", "10.1/c", "10.1/d"]), bridge_authors,
              st.booleans()),
    max_size=8,
))
@example([("10.1/a", [], False), ("10.1/b", [], True)])  # no authors
@example([  # no first author: the first object is at position 2
    ("10.1/a", [Authorship(position=2, org_ids=frozenset({"ror:r2", "srcA:p2"}))], False),
    ("10.1/b", [Authorship(position=1, org_ids=frozenset({"ror:r2"}))], False),
])
@example([  # the reader's marks spelled inside org IDs and countries
    ("10.1/a", [Authorship(
        position=1, org_ids=frozenset({'ror:},"position":2}', 'srcA:"}'}),
        countries=frozenset({',"position":1}', '"'}),
    )], False),
])
@example([("10.1/a", [E_ACUTE], False), ("10.1/b", [E_ACUTE], True)])  # two escapings
def test_the_text_keyed_projection_equals_the_decoded_lines(articles):
    """The DOI stream's first-author IDs, read from the text of each ingest
    line with each distinct text decoded once, give the projection of the
    fully decoded classified lines, on either side."""
    held = bridge_articles(articles)
    stream = list(filled_streams("srcA", held, (2019, 2023)).dois.merged())
    lines = [written_line(bare_article(replace(rec("srcA", "A", doi), authors=tuple(authors))))
             for doi, authors, _ in articles]
    for open_side in (True, False):
        assert stream_projection(stream, open_side) == decoded_projection(lines, open_side)


def test_each_distinct_first_author_text_is_decoded_once(monkeypatch):
    decoded = Counter()
    org_ids_of = artifacts.author_org_ids

    def counted(author):
        decoded[author] += 1
        return org_ids_of(author)

    monkeypatch.setattr(artifacts, "author_org_ids", counted)
    held = bridge_articles(
        [(f"10.1/{i}", [E_ACUTE], i % 2 == 1) for i in range(6)] + [("10.1/x", [], False)]
    )
    stream = filled_streams("srcA", held, (2019, 2023)).dois.merged()
    projection = stream_projection(list(stream), open_side=True)
    assert set(projection.values()) == {("ror:é}",), ()}
    # one text per escaping, and one for no authors
    assert sorted(decoded.values()) == [1, 1, 1]


# --- tallies ----------------------------------------------------------------------

def tally_of(articles, examples_per_pair=3):
    """articles: list of (doi, open org ids, prop org ids[, prop first-author position]).

    Returns (bridged DOIs, pair counts, pair examples).
    """
    streams = [
        stream_of(rec("open", f"W{doi}", doi, org_ids) for doi, org_ids, *_ in articles),
        stream_of(rec("srcA", f"A{doi}", doi, org_ids, *pos) for doi, _, org_ids, *pos in articles),
    ]
    bridge = list(build_bridge(doi_groups(streams), Counter()))
    counts: Counter = Counter()
    examples: dict = {}
    tally_pairs(iter(bridge), counts, examples, examples_per_pair)
    return [doi for doi, *_ in bridge], counts, examples


def test_tally_counts_articles():
    _, counts, _ = tally_of([(f"10.1/{i}", ("ror:r1",), ("srcA:p9",)) for i in range(3)])
    assert counts == {("ror:r1", "srcA:p9"): 3}


def test_tally_multi_affiliation_cross_product():
    _, counts, _ = tally_of([("10.1/a", ("ror:r1", "ror:r2"), ("srcA:p9",))])
    assert counts == {("ror:r1", "srcA:p9"): 1, ("ror:r2", "srcA:p9"): 1}


def test_tally_empty_proprietary_side_contributes_nothing():
    _, counts, _ = tally_of([("10.1/a", ("ror:r1",), ())])
    assert counts == {}
    # the proprietary first author is absent: the DOI bridges, adds no pair
    bridge, counts, _ = tally_of([("10.1/a", ("ror:r1",), ("srcA:p9",), 2)])
    assert bridge == ["10.1/a"]
    assert counts == {}


def test_tally_examples_capped():
    _, _, examples = tally_of(
        [(f"10.1/{i}", ("ror:r1",), ("srcA:p9",)) for i in range(9)], examples_per_pair=3
    )
    assert examples[("ror:r1", "srcA:p9")] == ["10.1/0", "10.1/1", "10.1/2"]


def test_tally_examples_follow_sorted_order_not_stream_order():
    """In a DOI stream `10.1/a!!!` comes first and `10.1/a` fourth, since
    `!` sorts below the closing quote of a DOI's JSON string. The examples
    keep sorted order, source by source, as the bridges of the sources
    tallied in turn would: srcB's smallest DOI, not its first in the
    stream, follows srcA's two."""
    dois = ["10.1/a", "10.1/a!", "10.1/a!!", "10.1/a!!!", "10.1/a\u00e9", "10.1/b"]
    streams = [
        stream_of(rec("open", f"W{i}", doi, ("ror:r1",)) for i, doi in enumerate(dois)),
        stream_of(rec("srcA", f"A{i}", doi, ("srcA:p9",)) for i, doi in enumerate(dois[4:])),
        stream_of(rec("srcB", f"B{i}", doi, ("srcA:p9",)) for i, doi in enumerate(dois)),
    ]
    texts = [line.split('"')[1] for line in streams[0]]
    assert texts == ["10.1/a!!!", "10.1/a!!", "10.1/a!", "10.1/a", "10.1/a\\u00e9", "10.1/b"]
    counts, examples = Counter(), {}
    tally_pairs(build_bridge(doi_groups(streams), Counter()), counts, examples)
    assert examples == {("ror:r1", "srcA:p9"): ["10.1/a\u00e9", "10.1/b", "10.1/a"]}
    assert counts == {("ror:r1", "srcA:p9"): 8}


# --- selection -------------------------------------------------------------------

def T(*tallies):
    """(open id, proprietary id, count) triples -> pair counts."""
    return {(open_id, prop_id): count for open_id, prop_id, count in tallies}


def test_select_majority_wins():
    entries = select_crosswalk(T(("ror:r1", "srcA:p9", 3), ("ror:r1", "srcA:p7", 1)))
    assert [(e.open_id, e.proprietary_id, e.support) for e in entries] == [
        ("ror:r1", "srcA:p9", 3)
    ]


def test_select_tie_breaks_lexicographically():
    entries = select_crosswalk(T(("ror:r1", "srcA:p9", 2), ("ror:r1", "srcA:p7", 2)))
    assert entries[0].proprietary_id == "srcA:p7"


def test_select_min_support_drops_entry():
    assert select_crosswalk(T(("ror:r1", "srcA:p9", 1)), min_support=2) == []


def test_select_keeps_schemes_separate():
    entries = select_crosswalk(T(("ror:r1", "srcA:p9", 1), ("ror:r1", "srcB:q3", 5)))
    assert {(e.scheme, e.proprietary_id) for e in entries} == {
        ("srcA", "srcA:p9"),
        ("srcB", "srcB:q3"),
    }


def oracle_select(counts, min_support):
    """Brute-force argmax with lexicographic tie-break."""
    out = {}
    keys = {(o, p.split(":", 1)[0]) for o, p in counts}
    for open_id, scheme in keys:
        candidates = [
            (p, c) for (o, p), c in counts.items() if o == open_id and p.startswith(scheme + ":")
        ]
        best = max(c for _, c in candidates)
        winner = min(p for p, c in candidates if c == best)
        if best >= min_support:
            out[(open_id, scheme)] = (winner, best)
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),  # open id
            st.sampled_from(["srcA", "srcB"]),
            st.integers(0, 4),  # prop id
            st.integers(1, 9),  # count
        ),
        min_size=1,
        max_size=30,
        unique_by=lambda t: (t[0], t[1], t[2]),
    ),
    st.integers(1, 4),
)
def test_select_equals_bruteforce_oracle(raw, min_support):
    counts = {(f"ror:r{o}", f"{s}:p{p}"): c for o, s, p, c in raw}
    got = {
        (e.open_id, e.scheme): (e.proprietary_id, e.support)
        for e in select_crosswalk(counts, min_support)
    }
    assert got == oracle_select(counts, min_support)


# --- engine vs record-level oracle ------------------------------------------------------

ORG_POOL = ("ror:r0", "ror:r1", "ror:r2", "srcA:p0", "srcA:p1", "srcB:q0", "srcB:q1")

corpus_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 7)),  # DOI; small pool, so DOIs repeat
        st.sampled_from([1, 1, 2]),  # position 2 only: no first author
        st.frozensets(st.sampled_from(ORG_POOL), max_size=3),
    ),
    max_size=14,
)


def corpus_of(source, raw):
    return [
        rec(source, f"{source}{i}", None if d is None else f"10.1/{d}", org_ids, position)
        for i, (d, position, org_ids) in enumerate(raw)
    ]


def engine_crosswalk(open_corpus, proprietary_corpora, min_support):
    """The reconcile stage's composition: one merge join over the streams."""
    labels = list(proprietary_corpora)
    streams = [stream_of(open_corpus)] + [stream_of(proprietary_corpora[l]) for l in labels]
    bridged: Counter = Counter()
    counts: Counter = Counter()
    examples: dict = {}
    tally_pairs(build_bridge(doi_groups(streams), bridged), counts, examples)
    by_label = {label: bridged[rank] for rank, label in enumerate(labels, 1)}
    return select_crosswalk(counts, min_support), len(counts), by_label, examples


SHARED_SCHEME_CASE = (
    [(d, 1, frozenset({"ror:r0"})) for d in range(4)],
    [(d, 1, frozenset({"srcA:p0"})) for d in (0, 1)],
    # srcB carries srcA's scheme: one pair gets support from both sources,
    # and its example DOIs come from both, srcA's first
    [(d, 1, frozenset({"srcA:p0"})) for d in (2, 3)],
    1,
)


@settings(max_examples=300, deadline=None)
@given(corpus_strategy, corpus_strategy, corpus_strategy, st.integers(1, 3))
@example(*SHARED_SCHEME_CASE)
def test_crosswalk_equals_record_level_oracle(raw_open, raw_a, raw_b, min_support):
    corpora = {
        "open": corpus_of("open", raw_open),
        "srcA": corpus_of("srcA", raw_a),
        "srcB": corpus_of("srcB", raw_b),
    }
    got = engine_crosswalk(
        iter(corpora["open"]),
        {label: iter(corpora[label]) for label in ("srcA", "srcB")},
        min_support,
    )
    want = oracle_crosswalk(
        corpora["open"], {label: corpora[label] for label in ("srcA", "srcB")}, min_support
    )
    assert got == want


def test_invert_crosswalk_is_non_injective():
    entries = select_crosswalk(T(("ror:r1", "srcA:p9", 3), ("ror:r2", "srcA:p9", 2)))
    inverse = invert_crosswalk(entries)
    assert inverse == {"srcA:p9": frozenset({"ror:r1", "ror:r2"})}


# --- audit sampling ----------------------------------------------------------------

def crosswalk_of(n):
    return select_crosswalk(T(*((f"ror:r{i}", f"srcA:p{i}", 2) for i in range(n))))


def test_audit_sample_reproducible():
    crosswalk = crosswalk_of(20)
    assert audit_sample(crosswalk, 5, seed=7) == audit_sample(crosswalk, 5, seed=7)


def test_audit_sample_whole_crosswalk():
    crosswalk = crosswalk_of(6)
    assert sorted(audit_sample(crosswalk, 6, seed=1), key=str) == sorted(crosswalk, key=str)


def test_audit_sample_too_large():
    with pytest.raises(SampleTooLarge):
        audit_sample(crosswalk_of(3), 4, seed=1)


def test_audit_sample_without_replacement():
    sample = audit_sample(crosswalk_of(30), 10, seed=3)
    assert len(set(map(str, sample))) == 10


# --- planted mapping recovery ---------------------------------------------------------

def test_planted_mapping_recovery_with_noise():
    """>= 95% of institutions recovered at min_support 2 under 10% noise."""
    rng = random.Random(99)
    n_inst = 40
    truth = {f"ror:r{i}": f"srcA:p{i}" for i in range(n_inst)}
    open_corpus, prop_corpus = [], []
    for article in range(1200):
        inst = rng.randrange(n_inst)
        open_ids = [f"ror:r{inst}"]
        prop_ids = [truth[open_ids[0]]]
        if rng.random() < 0.10:  # multi-affiliation noise
            other = rng.randrange(n_inst)
            open_ids.append(f"ror:r{other}")
            prop_ids.append(truth[f"ror:r{other}"])
        doi = f"10.1/{article}"
        open_corpus.append(rec("open", f"W{article}", doi, open_ids))
        prop_corpus.append(rec("srcA", f"A{article}", doi, prop_ids))
    streams = [stream_of(open_corpus), stream_of(prop_corpus)]
    counts: Counter = Counter()
    tally_pairs(build_bridge(doi_groups(streams), Counter()), counts, {})
    entries = select_crosswalk(counts, min_support=2)
    correct = sum(1 for e in entries if truth.get(e.open_id) == e.proprietary_id)
    assert len(entries) >= 0.95 * n_inst
    assert correct >= 0.95 * len(entries)
