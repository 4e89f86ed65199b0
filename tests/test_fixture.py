import csv
import filecmp
import os
import subprocess
import sys

from hybridoa.fixture import FixtureParams, generate
from hybridoa.identifiers import validate_issn


def test_generation_reproducible(tmp_path):
    params = FixtureParams(seed=21, n_articles=150)
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate(params, str(a))
    generate(params, str(b))
    for name in ("articles_open.ndjson", "agreements.csv", "truth/attributions.csv"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_generation_independent_of_hash_seed(tmp_path):
    """One --seed gives the same corpus in processes with different string hashing."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        command = [sys.executable, "-m", "hybridoa.cli", "gen-fixture", "--seed", "1"]
        command += ["--articles", "300", "--out", str(tmp_path / hash_seed)]
        subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
    names = sorted(
        os.path.relpath(os.path.join(d, f), tmp_path / "1")
        for d, _, files in os.walk(tmp_path / "1")
        for f in files
    )
    assert names
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "1", tmp_path / "2", names, shallow=False)
    assert (mismatch, errors) == ([], []), mismatch


def test_different_seeds_differ(tmp_path):
    generate(FixtureParams(seed=1, n_articles=150), str(tmp_path / "a"))
    generate(FixtureParams(seed=2, n_articles=150), str(tmp_path / "b"))
    assert not filecmp.cmp(
        tmp_path / "a" / "articles_open.ndjson",
        tmp_path / "b" / "articles_open.ndjson",
        shallow=False,
    )


def test_all_issns_valid(corpus_dir):
    with open(corpus_dir / "issn_links.csv", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            # validate_issn raises on a malformed ISSN or a failed checksum
            assert validate_issn(row["issn"]) == row["issn"]
            assert validate_issn(row["issn_l"]) == row["issn_l"]


def test_noise_rate_close_to_requested(corpus_dir):
    noisy = total = 0
    seen = set()
    with open(corpus_dir / "truth" / "labels.csv", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = row["doi"] or row["native_id"]
            if key in seen:
                continue
            seen.add(key)
            total += 1
            noisy += row["noise_free"] == "false"
    assert 0.07 < noisy / total < 0.13


def test_truth_attributions_exist_for_both_roles(corpus_dir):
    roles = set()
    sources = set()
    with open(corpus_dir / "truth" / "attributions.csv", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            roles.add(row["role"])
            sources.add((row["source"], row["role"]))
    assert roles == {"first", "corresponding"}
    # the open source lacks corresponding-author data by construction
    assert ("open", "corresponding") not in sources
    assert ("srcA", "corresponding") in sources


def test_config_is_loadable_and_valid(corpus_dir):
    from hybridoa.config import load_config

    config = load_config(str(corpus_dir / "config.json"))
    config.validate()
    assert config.open_source == "open"
    assert len(config.sources) == 3


def test_withheld_publisher_is_closed_in_open_source_only(tmp_path):
    params = FixtureParams(seed=5, n_articles=400, withhold_cc_publisher="Boreal")
    generate(params, str(tmp_path))
    labels = list(csv.DictReader(open(tmp_path / "truth" / "labels.csv")))
    boreal_open = [r for r in labels if r["publisher"] == "Boreal" and r["source"] == "open"]
    assert boreal_open and all(r["is_oa"] == "false" for r in boreal_open)
    boreal_prop = [r for r in labels if r["publisher"] == "Boreal" and r["source"] != "open"]
    assert any(r["is_oa"] == "true" for r in boreal_prop)
