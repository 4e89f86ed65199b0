"""Crosswalk construction between open and proprietary organization IDs.

Each corpus is read once into a projection: DOI -> the sorted org IDs of
its first author, ROR IDs on the open side and every other scheme on a
proprietary side, worked out once per distinct first-author text. DOIs
present in both projections bridge; their first authors' identifier
pairs are tallied, and per (open ID, scheme) the most frequent
proprietary partner wins. Multiple affiliations of single authors are
the main noise source, so a minimum-support threshold is the documented
mitigation knob.
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from typing import Iterable, Mapping

from . import artifacts
from .errors import SampleTooLarge
from .identifiers import ROR_SCHEME, org_scheme
from .model import CrosswalkEntry, majority_label

log = logging.getLogger(__name__)

Projection = dict[str, tuple[str, ...]]
Pair = tuple[str, str]


def first_author_ids(corpus: Iterable[tuple[str | None, str]], open_side: bool) -> Projection:
    """DOI -> sorted first-author org IDs of one side, for unambiguous DOIs.

    `corpus` holds each record's (DOI, text of its first author object),
    as `artifacts.bridge_row` reads them. Each distinct text is decoded
    and filtered once (`artifacts.first_author_org_ids`), and its DOIs
    share the one tuple; the memo holds at most one text per DOI read.
    Records without a DOI are skipped; DOIs that repeat within the corpus
    are logged and dropped. A DOI whose first author is missing or has no
    IDs of the side maps to an empty tuple: it bridges but adds no pair.
    """
    projection: Projection = {}
    ambiguous: set[str] = set()
    sides: dict[str, tuple[str, ...]] = {}  # author text -> its IDs of the side
    for doi, author in corpus:
        if doi is None or doi in ambiguous:
            continue
        if doi in projection:
            ambiguous.add(doi)
            del projection[doi]
            continue
        ids = sides.get(author)
        if ids is None:
            ids = sides[author] = tuple(sorted(
                o for o in artifacts.first_author_org_ids(author)
                if (org_scheme(o) == ROR_SCHEME) == open_side
            ))
        projection[doi] = ids
    if ambiguous:
        log.info("%d multi-occurrence DOIs skipped while bridging", len(ambiguous))
    return projection


def build_bridge(open_ids: Projection, proprietary_ids: Projection) -> list[str]:
    """The DOIs present in both projections, sorted."""
    return sorted(open_ids.keys() & proprietary_ids.keys())


def tally_pairs(
    bridge: Iterable[str],
    open_ids: Projection,
    proprietary_ids: Projection,
    counts: Counter,
    examples: dict[Pair, list[str]],
    examples_per_pair: int = 3,
) -> None:
    """Add the bridge's (open ID, proprietary ID) pairs to `counts`.

    Every combination on a bridged article counts once per article. Each
    pair's list in `examples` keeps its first `examples_per_pair` distinct
    supporting DOIs for audits; called once per source, in config order,
    the two accumulators cover every source alike.
    """
    for doi in bridge:
        for open_id in open_ids[doi]:
            for prop_id in proprietary_ids[doi]:
                pair = (open_id, prop_id)
                counts[pair] += 1
                bucket = examples.setdefault(pair, [])
                if len(bucket) < examples_per_pair and doi not in bucket:
                    bucket.append(doi)


def select_crosswalk(counts: Mapping[Pair, int], min_support: int = 1) -> list[CrosswalkEntry]:
    """Pick the `majority_label` proprietary ID per (open ID, scheme).

    Winners below `min_support` are dropped. The result is a function on
    (open_id, scheme) but may map many open IDs onto the same proprietary
    ID.
    """
    grouped: dict[Pair, dict[str, int]] = {}
    for (open_id, prop_id), count in counts.items():
        grouped.setdefault((open_id, org_scheme(prop_id)), {})[prop_id] = count
    entries: list[CrosswalkEntry] = []
    for (open_id, scheme), votes in grouped.items():
        winner = majority_label(votes)
        if votes[winner] >= min_support:
            entries.append(
                CrosswalkEntry(
                    open_id=open_id, scheme=scheme, proprietary_id=winner, support=votes[winner]
                )
            )
    entries.sort(key=lambda e: (e.scheme, e.open_id))
    return entries


def invert_crosswalk(entries: Iterable[CrosswalkEntry]) -> dict[str, frozenset[str]]:
    """Proprietary ID -> set of open IDs (non-injective by construction)."""
    inverse: dict[str, set[str]] = {}
    for entry in entries:
        inverse.setdefault(entry.proprietary_id, set()).add(entry.open_id)
    return {prop: frozenset(opens) for prop, opens in inverse.items()}


def audit_sample(
    crosswalk: list[CrosswalkEntry],
    k: int,
    seed: int,
) -> list[CrosswalkEntry]:
    """Uniform sample without replacement for human review, seed-reproducible."""
    if k > len(crosswalk):
        raise SampleTooLarge(f"k={k} exceeds crosswalk size {len(crosswalk)}")
    ordered = sorted(crosswalk, key=lambda e: (e.scheme, e.open_id, e.proprietary_id))
    rng = random.Random(seed)
    return rng.sample(ordered, k)
