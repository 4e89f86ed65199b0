"""Crosswalk construction between open and proprietary organization IDs.

Reconcile is one pass over classify's DOI file (`artifacts.doi_groups`),
where the lines of one DOI, from every source, are adjacent. A DOI held
once by the open source and once by a proprietary source bridges the
two; its first authors' identifier pairs, ROR IDs on the open side and
every other scheme on the proprietary side, are tallied, and per (open
ID, scheme) the most frequent proprietary partner wins. Memory grows
with the number of pairs, not of records. Multiple affiliations of
single authors are the main noise source, so a minimum-support threshold
is the documented mitigation knob.
"""

from __future__ import annotations

import bisect
import logging
import random
from collections import Counter
from typing import Iterable, Iterator, Mapping

from .artifacts import DoiEntry
from .errors import SampleTooLarge
from .identifiers import ROR_SCHEME, org_scheme
from .model import CrosswalkEntry, majority_label

log = logging.getLogger(__name__)

Pair = tuple[str, str]
# (DOI, rank of the proprietary source, the open first author's ROR IDs,
# the proprietary first author's other IDs)
Bridged = tuple[str, int, tuple[str, ...], tuple[str, ...]]


def build_bridge(
    groups: Iterable[tuple[str, list[DoiEntry]]], ranks: Mapping[str, int], bridged: Counter
) -> Iterator[Bridged]:
    """The bridged DOIs of the DOI file's groups, in line order, each
    source at its rank in `ranks`, the open source's 0: each DOI held once
    by the open source and once by the proprietary source of a rank, once
    per such source.

    A DOI that a source holds more than once is ambiguous there and
    dropped, for every source when that is the open one; such DOIs are
    logged. A DOI whose first author is missing or has no IDs of the side
    bridges with no IDs: it adds no pair. `bridged` counts each rank's
    bridged DOIs.
    """
    ambiguous = 0
    for doi, entries in groups:
        held: dict[int, list | None] = {}
        for source, _, _, _, org_ids in entries:
            rank = ranks[source]
            held[rank] = None if rank in held else org_ids
        ambiguous += sum(ids is None for ids in held.values())
        open_ids = held.pop(0, None)
        if open_ids is None:
            continue
        open_ror = tuple(o for o in open_ids if org_scheme(o) == ROR_SCHEME)
        for rank, prop_ids in held.items():
            if prop_ids is not None:
                bridged[rank] += 1
                yield doi, rank, open_ror, tuple(p for p in prop_ids if org_scheme(p) != ROR_SCHEME)
    if ambiguous:
        log.info("%d multi-occurrence DOIs skipped while bridging", ambiguous)


def tally_pairs(
    bridge: Iterable[Bridged],
    counts: Counter,
    examples: dict[Pair, list[str]],
    examples_per_pair: int = 3,
) -> None:
    """Add the bridge's (open ID, proprietary ID) pairs to `counts`.

    Every combination on a bridged article counts once per article. Each
    pair's list in `examples` gets its first `examples_per_pair` distinct
    supporting DOIs for audits: sources by rank, each source's DOIs in
    sorted order, as if each source's bridge were tallied in turn. The
    bridge comes in line order, which is not sorted order for every DOI,
    so each (pair, rank) keeps its `examples_per_pair` smallest DOIs until
    the bridge ends. That is enough: a rank's list is needed only while
    fewer than `examples_per_pair` DOIs came from the ranks before it,
    and each of those can repeat one of its own.
    """
    smallest: dict[Pair, dict[int, list[str]]] = {}
    for doi, rank, open_ids, prop_ids in bridge:
        for open_id in open_ids:
            for prop_id in prop_ids:
                pair = (open_id, prop_id)
                counts[pair] += 1
                kept = smallest.setdefault(pair, {}).setdefault(rank, [])
                if len(kept) < examples_per_pair:
                    bisect.insort(kept, doi)
                elif kept and doi < kept[-1]:
                    bisect.insort(kept, doi)
                    kept.pop()
    for pair, by_rank in smallest.items():
        bucket = examples.setdefault(pair, [])
        for rank in sorted(by_rank):
            for doi in by_rank[rank]:
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
