import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hybridoa.errors import ChecksumFailure, MalformedIssn
from hybridoa.identifiers import (
    is_org_id,
    issn_check_digit,
    normalize_doi,
    org_scheme,
    org_value,
    validate_issn,
)
from oracles import oracle_normalize_doi


def oracle_check_digit(body):
    """Independent mod-11 oracle: weights 8..2 over the first seven digits."""
    total = 0
    for digit, weight in zip(body, (8, 7, 6, 5, 4, 3, 2)):
        total += int(digit) * weight
    remainder = total % 11
    value = (11 - remainder) % 11
    return "X" if value == 10 else str(value)


# hand-checked before implementation: 0*8+3*7+7*6+8*5+5*4+9*3+5*2 = 160,
# 160 mod 11 = 6, 11-6 = 5
def test_issn_known_checksum():
    assert oracle_check_digit("0378595") == "5"
    assert validate_issn("0378-5955") == "0378-5955"


def test_issn_hyphen_free_input():
    assert validate_issn("03785955") == "0378-5955"


def test_issn_bad_check_digit():
    with pytest.raises(ChecksumFailure):
        validate_issn("0378-5954")


def test_issn_lowercase_x():
    # 0003-200X is a classic valid code ending in X
    assert oracle_check_digit("0003200") == "X"
    assert validate_issn("0003-200x") == "0003-200X"


@pytest.mark.parametrize("bad", ["", "123", "12345678901", "0378-595A", "ABCD-EFGH"])
def test_issn_malformed(bad):
    with pytest.raises(MalformedIssn):
        validate_issn(bad)


@given(st.integers(min_value=0, max_value=9_999_999))
def test_issn_roundtrip(body_int):
    body = f"{body_int:07d}"
    issn = f"{body}{oracle_check_digit(body)}"
    canonical = validate_issn(issn)
    assert canonical == f"{body[:4]}-{body[4:]}{oracle_check_digit(body)}"
    # canonical form: one hyphen at position 4, revalidates to itself
    assert canonical.count("-") == 1 and canonical[4] == "-"
    assert validate_issn(canonical) == canonical


@given(st.integers(min_value=0, max_value=9_999_999), st.integers(min_value=1, max_value=10))
def test_issn_wrong_digit_rejected(body_int, bump):
    body = f"{body_int:07d}"
    good = oracle_check_digit(body)
    candidates = "0123456789X"
    wrong = candidates[(candidates.index(good) + bump) % 11]
    with pytest.raises(ChecksumFailure):
        validate_issn(f"{body}{wrong}")


def test_check_digit_needs_seven_digits():
    with pytest.raises(MalformedIssn):
        issn_check_digit("123")


def test_doi_resolver_prefix_and_case():
    assert normalize_doi("https://doi.org/10.1002/ASI.22709") == "10.1002/asi.22709"


def test_doi_doi_prefix():
    assert normalize_doi("doi:10.7717/peerj.4375") == "10.7717/peerj.4375"


def test_doi_not_a_doi():
    assert normalize_doi("hdl:1234/5678") is None


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("  10.1/ABC  ", "10.1/abc"),
        ("http://dx.doi.org/10.5555/x", "10.5555/x"),
        ("doi:https://doi.org/10.9/y", "10.9/y"),
        ("", None),
        (None, None),
        ("10.", None),
        ("https://example.org/paper", None),
    ],
)
def test_doi_cases(raw, expected):
    assert normalize_doi(raw) == expected


@given(st.text(max_size=60))
def test_doi_idempotent(raw):
    once = normalize_doi(raw)
    assert normalize_doi(once) == once


@given(st.from_regex(r"10\.[0-9]{4,5}/[a-z0-9./-]{1,20}", fullmatch=True))
def test_doi_accepts_plain_handles(handle):
    assert normalize_doi(handle) == handle
    assert normalize_doi(f"https://doi.org/{handle}") == handle


DOI_PIECES = [
    "10.", "10.1/", "10", ".", "/", "doi:", "DOI:", "https://doi.org/", "HTTPS://DOI.ORG/",
    "dx.doi.org/", "info:doi/", "Doi.Org/", " ", "\t", "\n", "x", "ABC", "1", "é",
]


@given(st.lists(st.sampled_from(DOI_PIECES), max_size=6).map("".join))
@example("  10.5555/ABC ")
@example("10.5555/MiXeD.Case")
@example("doi:https://doi.org/10.1/X")
@example(" \tDOI: https://DX.DOI.ORG/ 10.1/x\n")
@example("10.")
@example(" 10.1/doi:x ")
def test_normalize_doi_equals_the_prefix_loop_oracle(raw):
    """The fast path for text that already starts with "10." changes no result."""
    assert normalize_doi(raw) == oracle_normalize_doi(raw)


def test_org_id_helpers():
    assert is_org_id("ror:0abc")
    assert not is_org_id("0abc")
    assert not is_org_id(":x")
    assert not is_org_id("ror:")
    assert org_scheme("srcA:A12") == "srcA"
    assert org_value("srcA:A12") == "A12"
