"""hybridoa: batch engine for measuring transformative-agreement-enabled
hybrid open access across bibliometric data sources."""

__version__ = "0.1.0"

from .analytics import aggregate, journal_index, spearman, upset_sets
from .attribute import match_agreements, resolve_org
from .classify import (
    assign_year,
    classify_article,
    detect_paratext,
    in_regular_issue,
    is_original,
    oa_status,
)
from .identifiers import normalize_doi, validate_issn
from .ingest import (
    load_agreement_dump,
    load_durations,
    load_fully_oa_lists,
    load_institutions,
    load_issn_link_table,
)
from .reconcile import audit_sample, build_bridge, select_crosswalk, tally_pairs

__all__ = [
    "__version__",
    "aggregate",
    "assign_year",
    "audit_sample",
    "build_bridge",
    "classify_article",
    "detect_paratext",
    "in_regular_issue",
    "is_original",
    "journal_index",
    "load_agreement_dump",
    "load_durations",
    "load_fully_oa_lists",
    "load_institutions",
    "load_issn_link_table",
    "match_agreements",
    "normalize_doi",
    "oa_status",
    "resolve_org",
    "select_crosswalk",
    "spearman",
    "tally_pairs",
    "upset_sets",
    "validate_issn",
]
