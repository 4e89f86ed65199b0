"""Identifier normalization: ISSN checksum validation and DOI cleanup.

Canonical forms used throughout the engine:
  * ISSN: "NNNN-NNNC" (8 characters plus one hyphen, check character
    uppercased), verified against the mod-11 weighted checksum.
  * DOI: lowercase handle starting with "10.", resolver prefixes stripped.
  * Organization identifiers: "scheme:value" strings, e.g. "ror:02jbv0t02"
    or "srcA:60021339".
"""

from __future__ import annotations

import re

from .errors import ChecksumFailure, MalformedIssn

_ISSN_BODY = re.compile(r"^[0-9]{7}[0-9X]$")

# Resolver prefixes seen in the wild, matched case-insensitively and
# stripped repeatedly ("doi:https://doi.org/10..." happens).
_DOI_PREFIXES = (
    "https://doi.org/",
    "http://doi.org/",
    "https://dx.doi.org/",
    "http://dx.doi.org/",
    "https://www.doi.org/",
    "doi.org/",
    "dx.doi.org/",
    "doi:",
    "info:doi/",
)


def issn_check_digit(body: str) -> str:
    """Check digit for a 7-digit ISSN body: weights 8..2, mod 11, 10 -> 'X'."""
    if len(body) != 7 or not body.isdigit():
        raise MalformedIssn(f"need 7 digits, got {body!r}")
    total = sum(int(d) * w for d, w in zip(body, range(8, 1, -1)))
    rem = total % 11
    check = 0 if rem == 0 else 11 - rem
    return "X" if check == 10 else str(check)


def validate_issn(raw: str) -> str:
    """Validate an ISSN and return its canonical hyphenated form.

    Accepts hyphenated or bare 8-character codes, lowercase 'x' allowed.
    Raises MalformedIssn for shape problems, ChecksumFailure when the
    check digit does not match.
    """
    compact = raw.strip().replace("-", "").upper()
    if not _ISSN_BODY.match(compact):
        raise MalformedIssn(f"not an ISSN: {raw!r}")
    expected = issn_check_digit(compact[:7])
    if compact[7] != expected:
        raise ChecksumFailure(f"{raw!r}: check digit {compact[7]}, expected {expected}")
    return f"{compact[:4]}-{compact[4:]}"


def normalize_doi(raw: str | None) -> str | None:
    """Normalize a DOI string, or return None when it is not a DOI.

    Strips resolver prefixes and whitespace, lowercases (DOI handles are
    case-insensitive), and requires the remainder to start with "10.".
    Idempotent: normalizing an already-normalized DOI is a no-op.
    """
    if not raw:
        return None
    doi = raw.strip()
    # no resolver prefix starts with a digit: a bare DOI has none to strip
    stripped = not doi.startswith("10.")
    while stripped:
        stripped = False
        low = doi.lower()
        for prefix in _DOI_PREFIXES:
            if low.startswith(prefix):
                doi = doi[len(prefix):].lstrip()
                stripped = True
                break
    doi = doi.lower()
    if not doi.startswith("10.") or len(doi) <= 3:
        return None
    return doi


ROR_SCHEME = "ror"


def make_org_id(scheme: str, value: str) -> str:
    return f"{scheme}:{value}"


def org_scheme(org_id: str) -> str:
    scheme, _, _ = org_id.partition(":")
    return scheme


def org_value(org_id: str) -> str:
    _, _, value = org_id.partition(":")
    return value


def is_org_id(token: str) -> bool:
    """True when the token carries a non-empty scheme tag and value."""
    scheme, sep, value = token.partition(":")
    return bool(sep) and bool(scheme.strip()) and bool(value.strip())
