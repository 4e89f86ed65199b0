import csv
import hashlib
import io
import json
import operator
import os
import pickle
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from datetime import date

import pytest

from hybridoa import artifacts, fixture, pipeline
from hybridoa.artifacts import Layout, read_manifest
from hybridoa.classify import KNOWN_NOT_ORIGINAL
from hybridoa.config import apply_overrides, load_config
from hybridoa.errors import ConfigError, DependencyError, UnknownDoi
from hybridoa.model import Authorship, ClassifiedArticle
from oracles import ArticleRecord, oracle_coverage_summary, oracle_indicators, written_line


def tree_digest(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def small_corpus(tmp_path, **params):
    corpus = tmp_path / "corpus"
    fixture.generate(fixture.FixtureParams(seed=3, n_articles=300, **params), str(corpus))
    config = replace(load_config(str(corpus / "config.json")), workers=1)
    return corpus, config


# --- orchestration ------------------------------------------------------------

def test_full_run_produces_all_artifacts(pipeline_run):
    layout, config = pipeline_run
    expected = [
        layout.agreements,
        layout.journals,
        layout.institutions,
        layout.crosswalk,
        layout.audit,
        layout.indicators,
        layout.coverage,
        layout.intersections,
        layout.intersections_publisher,
        layout.journal_volumes,
        layout.correlations,
        layout.uptake_global,
        layout.uptake_publisher,
        layout.country_scatter,
    ]
    expected += [layout.articles(s.label) for s in config.sources]
    expected += [layout.classified(s.label) for s in config.sources]
    expected += [layout.attributions(role) for role in config.roles]
    expected += [layout.manifest(stage) for stage in pipeline.artifacts.STAGES]
    for path in expected:
        assert os.path.exists(path), path


def test_stage_without_dependencies_fails(tmp_path):
    corpus, config = small_corpus(tmp_path)
    with pytest.raises(DependencyError):
        pipeline.run(config, ["aggregate"])


def test_unknown_stage_rejected(tmp_path):
    corpus, config = small_corpus(tmp_path)
    with pytest.raises(DependencyError):
        pipeline.run(config, ["reticulate"])


def test_a_stage_list_that_names_no_stage_is_rejected(tmp_path):
    """An empty stage list is an error and writes nothing; only None means
    every stage."""
    corpus, config = small_corpus(tmp_path)
    with pytest.raises(DependencyError, match="no stage named"):
        pipeline.run(config, [])
    assert not os.path.exists(config.out_dir)


@pytest.fixture(scope="module")
def full_tree(tmp_path_factory):
    """A complete small output tree, for tests that move its files aside."""
    corpus, config = small_corpus(tmp_path_factory.mktemp("boundary"))
    pipeline.run(config)
    return config


def raises_naming_each_missing(declared, action):
    """Move each path aside in turn: `action` must raise a DependencyError naming it."""
    for path in declared:
        os.rename(path, path + ".aside")
        try:
            with pytest.raises(DependencyError, match=re.escape(path)):
                action()
        finally:
            os.rename(path + ".aside", path)


def upstream(layout, config, stage):
    """The stages whose outputs `stage` reads, and theirs, and so on."""
    found, todo = set(), [stage]
    while todo:
        for path in pipeline.STAGE_INPUTS[todo.pop()](layout, config):
            producer = os.path.relpath(path, config.out_dir).split(os.sep)[0]
            if producer in pipeline.artifacts.STAGES and producer not in found:
                found.add(producer)
                todo.append(producer)
    return found


def test_stage_boundary_checks_and_records_declared_inputs(full_tree):
    config = full_tree
    layout = Layout(config.out_dir)
    assert pipeline.STAGE_INPUTS["ingest"](layout, config) == []
    external = [config.issn_links, *config.fully_oa_lists, config.agreement_dump]
    external += [config.durations, config.institutions] + [s.articles for s in config.sources]
    assert [e["path"] for e in read_manifest(layout, "ingest")["inputs"]] == sorted(
        os.path.relpath(p, config.out_dir) for p in external
    )
    for stage in pipeline.artifacts.STAGES[1:]:
        declared = pipeline.STAGE_INPUTS[stage](layout, config)
        recorded = [e["path"] for e in read_manifest(layout, stage)["inputs"]]
        assert recorded == sorted(os.path.relpath(p, config.out_dir) for p in declared), stage
        raises_naming_each_missing(declared, lambda: pipeline.run(config, [stage]))
    # the declared inputs suffice: a tree holding only them and the
    # manifests upstream, which the stage boundary walks, reproduces the
    # stage's outputs and manifest; it sits beside out_dir, so the external
    # inputs keep their out_dir-relative paths
    for stage in pipeline.artifacts.STAGES:
        alone = replace(config, out_dir=os.path.join(os.path.dirname(config.out_dir), stage))
        declared = pipeline.STAGE_INPUTS[stage](layout, config)
        for path in declared + [layout.manifest(p) for p in upstream(layout, config, stage)]:
            copy = os.path.join(alone.out_dir, os.path.relpath(path, config.out_dir))
            os.makedirs(os.path.dirname(copy), exist_ok=True)
            shutil.copyfile(path, copy)
        pipeline.run(alone, [stage])
        manifest = read_manifest(layout, stage)
        assert read_manifest(Layout(alone.out_dir), stage) == manifest
        for entry in manifest["outputs"]:
            with open(os.path.join(alone.out_dir, entry["path"]), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == entry["sha256"], entry["path"]


def test_stage_refuses_inputs_their_producer_did_not_record(tmp_path):
    """A stage runs only on inputs that match their producer's manifest,
    written under the same config: a config change, an edited input and a
    missing manifest each raise DependencyError, and the tree is left as
    it was."""
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config)
    layout = Layout(config.out_dir)
    before = files_under(config.out_dir)

    with pytest.raises(DependencyError, match="another config"):
        pipeline.run(replace(config, correlation_min_articles=5), ["aggregate"])
    assert files_under(config.out_dir) == before

    articles = layout.articles("open")
    with open(articles, "a", encoding="utf-8") as fh:
        fh.write(before[os.path.relpath(articles, config.out_dir)].decode().splitlines()[0] + "\n")
    with pytest.raises(DependencyError, match=re.escape(articles)):
        pipeline.run(config, ["classify"])
    with open(articles, "wb") as fh:
        fh.write(before[os.path.relpath(articles, config.out_dir)])
    assert files_under(config.out_dir) == before

    manifest = layout.manifest("reconcile")
    os.rename(manifest, manifest + ".aside")
    with pytest.raises(DependencyError, match=re.escape(manifest)):
        pipeline.run(config, ["attribute"])
    os.rename(manifest + ".aside", manifest)
    assert files_under(config.out_dir) == before

    # the same refusals through the command line, which exits with status 2
    from hybridoa.cli import main

    argv = ["run", "--config", str(corpus / "config.json"), "--workers", "1"]
    assert main(argv + ["--stages", "aggregate", "--seed", "5"]) == 2
    assert main(argv + ["--stages", "aggregate"]) == 0


def read_bytes_of_this_process():
    with open("/proc/self/io", encoding="ascii") as fh:
        return int(next(line for line in fh if line.startswith("rchar:")).split()[1])


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc/self/io")
def test_each_stage_reads_its_inputs_once(tmp_path):
    """At workers=1 a stage after ingest reads its declared inputs once and
    its producers' manifests: they are hashed from the bytes the stage
    consumes, not read again to be hashed."""
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config)  # the imports and caches of every stage, warmed
    layout = Layout(config.out_dir)
    for stage in pipeline.artifacts.STAGES[1:]:
        declared = pipeline.STAGE_INPUTS[stage](layout, config)
        producers = {os.path.relpath(p, config.out_dir).split(os.sep)[0] for p in declared}
        manifests = [layout.manifest(p) for p in producers & set(pipeline.artifacts.STAGES)]
        bound = sum(map(os.path.getsize, declared + manifests)) + (64 << 10)
        before = read_bytes_of_this_process()
        pipeline.run(config, [stage])
        read = read_bytes_of_this_process() - before
        assert sum(map(os.path.getsize, declared)) <= read <= bound, stage


class RewritingFile(artifacts.HashedFile):
    """An input that `edit` rewrites right after the stage's first read of it."""

    edit = None

    def readinto(self, buffer):
        n = super().readinto(buffer)
        edit, RewritingFile.edit = RewritingFile.edit, None
        if edit is not None:
            edit(self.path)
        return n


def append_first_line(path):
    with open(path, "rb") as fh:
        first = fh.readline()
    with open(path, "ab") as fh:
        fh.write(first)


def cut_last_line_in_half(path):
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        last = fh.read().rstrip(b"\n").rsplit(b"\n", 1)[-1]
    os.truncate(path, size - len(last) // 2)


@pytest.mark.parametrize("edit", [append_first_line, cut_last_line_in_half])
def test_an_input_rewritten_while_read_is_refused(tmp_path, monkeypatch, edit):
    """An ingest or classify output that changes after its stage began
    reading it raises DependencyError naming it, whether the stage then
    completes (a line appended) or breaks on it (a line cut in half), and
    the stage publishes nothing."""
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config)
    layout = Layout(config.out_dir)
    before = files_under(config.out_dir)
    monkeypatch.setattr(artifacts, "CHUNK_LINES", 20)  # classify's reads span chunks
    reads = {
        "classify": layout.articles("open"),
        "reconcile": layout.doi_stream("srcA"),
        "attribute": layout.attributable("open"),
        "aggregate": layout.classified("srcB"),
        "compare": layout.doi_stream("open"),
    }
    for stage, target in reads.items():
        def open_input(path, target=target):
            if os.path.abspath(path) != os.path.abspath(target):
                return artifacts.HashedFile(path, "r")
            RewritingFile.edit = edit
            return RewritingFile(path, "r")

        monkeypatch.setattr(artifacts, "open_input", open_input)
        with pytest.raises(DependencyError, match=re.escape(target)):
            pipeline.run(config, [stage])
        assert RewritingFile.edit is None, stage  # the edit was made
        with open(target, "wb") as fh:
            fh.write(before[os.path.relpath(target, config.out_dir)])
        assert files_under(config.out_dir) == before, stage


def test_a_failed_stage_publishes_none_of_its_outputs(tmp_path, monkeypatch):
    """Attribute fails after writing its first file: neither file nor its
    manifest changes, and no temp file is left."""
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config)
    before = files_under(config.out_dir)
    write_attributions = artifacts.write_attributions
    written = []

    def second_fails(path, rows):
        written.append(path)
        if len(written) == 2:
            raise RuntimeError("attribute failed")
        return write_attributions(path, rows[:1])  # not the file that is there

    monkeypatch.setattr(artifacts, "write_attributions", second_fails)
    with pytest.raises(RuntimeError, match="attribute failed"):
        pipeline.run(config, ["attribute"])
    assert len(written) == 2
    assert files_under(config.out_dir) == before


def test_an_input_not_read_to_its_end_is_hashed_whole(tmp_path, monkeypatch):
    """A declared input the stage stops reading early is hashed in full
    from the file, and only such an input: the manifest is as before."""
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config)
    layout = Layout(config.out_dir)
    before = files_under(config.out_dir)
    read_ta_keys = artifacts.read_ta_keys

    def first_line_only(path):
        with artifacts.reading():  # this read is kept from the stage's record
            keys = read_ta_keys(path)
        with artifacts.open_input_text(path) as fh:
            fh.readline()
        return keys

    hashed = []
    sha256_file = artifacts.sha256_file

    def counting(path):
        hashed.append(path)
        return sha256_file(path)

    monkeypatch.setattr(artifacts, "read_ta_keys", first_line_only)
    monkeypatch.setattr(artifacts, "sha256_file", counting)
    pipeline.run(config, ["aggregate"])
    assert sorted(hashed) == sorted(layout.attributions(role) for role in config.roles)
    assert files_under(config.out_dir) == before


def test_fold_stages_record_the_same_digests_at_every_worker_count(tmp_path, monkeypatch):
    """At workers=2 the per-source folds read the classified files in
    workers, and the digests come back with their results: no input of any
    stage is hashed apart from its read, and every manifest, input digests
    included, is as at workers=1."""
    corpus, config = small_corpus(tmp_path)

    def no_hash(path):
        raise AssertionError(f"{path} was hashed apart from its read")

    monkeypatch.setattr(artifacts, "sha256_file", no_hash)
    manifests = []
    for workers in (1, 2):
        out_dir = str(tmp_path / f"w{workers}")
        pipeline.run(replace(config, workers=workers, out_dir=out_dir))
        manifests.append({stage: read_manifest(Layout(out_dir), stage) for stage in artifacts.STAGES})
    assert manifests[0] == manifests[1]
    layout = Layout(str(tmp_path / "w2"))
    for stage in ("reconcile", "attribute", "aggregate"):
        for entry in manifests[1][stage]["inputs"]:
            with open(os.path.join(layout.out_dir, entry["path"]), "rb") as fh:
                assert entry["sha256"] == hashlib.sha256(fh.read()).hexdigest(), entry["path"]


def test_ingest_checks_each_distinct_text_once_per_stage(tmp_path, monkeypatch):
    """Ingest at workers=1 makes the same ISSN, date and org-ID checks when
    every article line and agreement-dump row comes twice: each distinct
    text is checked once per stage, not once per line."""
    calls = Counter()
    for name in ("validate_issn", "parse_date_pinned", "is_org_id"):
        def counted(text, check=getattr(pipeline.ingest, name), name=name):
            calls[name, text] += 1
            return check(text)

        monkeypatch.setattr(pipeline.ingest, name, counted)
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config, ["ingest"])
    once = Counter(calls)
    calls.clear()
    for path in [config.agreement_dump] + [s.articles for s in config.sources]:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        body = lines[1:] if path.endswith(".csv") else lines
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines + body) + "\n")
    pipeline.run(replace(config, out_dir=str(tmp_path / "twice")), ["ingest"])
    assert calls == once
    first = read_manifest(Layout(config.out_dir), "ingest")["counters"]
    second = read_manifest(Layout(str(tmp_path / "twice")), "ingest")["counters"]
    for source in config.sources:  # every second copy was parsed, then a duplicate
        label = source.label
        assert second[f"records_{label}"] == first[f"records_{label}"]
        assert second[f"rejects_{label}"] == 2 * first[f"rejects_{label}"] + first[f"records_{label}"]


def test_explain_checks_attribute_inputs_and_hashes_nothing(full_tree, monkeypatch):
    """Explain needs the registry attribute builds its indexes from, the
    DOI index and the classified files it seeks into, and names each that
    is missing; it reads no attributable file."""
    config = full_tree
    layout = Layout(config.out_dir)
    with open(layout.classified(config.open_source), encoding="utf-8") as fh:
        doi = json.loads(fh.readline())["record"]["doi"]
    needed = [layout.agreements, layout.crosswalk, layout.institutions, layout.doi_index]
    needed += [layout.classified(s.label) for s in config.sources]
    raises_naming_each_missing(needed, lambda: pipeline.explain_doi(config, doi))
    trace = pipeline.explain_doi(config, doi)
    for source in config.sources:
        path = layout.attributable(source.label)
        os.rename(path, path + ".aside")
    try:
        assert pipeline.explain_doi(config, doi) == trace
    finally:
        for source in config.sources:
            path = layout.attributable(source.label)
            os.rename(path + ".aside", path)

    def no_hash(path):
        raise AssertionError(f"explain hashed {path}")

    monkeypatch.setattr(pipeline.artifacts, "sha256_file", no_hash)
    assert pipeline.explain_doi(config, doi).startswith(f"DOI {doi}")


def test_explain_loads_no_paratext_patterns(full_tree, monkeypatch):
    """The license verdicts are all `explain` needs of the classifier
    settings; the paratext pattern file is read by classify only."""
    config = full_tree
    doi, _ = attributed_doi(Layout(config.out_dir))

    def no_patterns(path=None):
        raise AssertionError("explain loaded the paratext patterns")

    monkeypatch.setattr(pipeline.classify, "load_paratext_patterns", no_patterns)
    trace = pipeline.explain_doi(config, doi)
    assert "-> PASS" in trace and "TA-enabled via" in trace


def test_ingest_counts_publisher_alias_rejects(tmp_path):
    corpus, config = small_corpus(tmp_path)
    aliases = tmp_path / "aliases.csv"
    aliases.write_text("alias,canonical\nImprint GmbH,Parent\nOrphan Imprint,\n", encoding="utf-8")
    config = replace(config, publisher_aliases=str(aliases))
    pipeline.run(config, ["ingest"])
    manifest = read_manifest(Layout(config.out_dir), "ingest")
    assert manifest["counters"]["publisher_aliases_rejects"] == 1
    assert os.path.relpath(aliases, config.out_dir) in [e["path"] for e in manifest["inputs"]]


def test_rerun_is_byte_identical(tmp_path):
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config)
    first = tree_digest(config.out_dir)
    pipeline.run(config)
    assert tree_digest(config.out_dir) == first


# `sha256sum` of every file of the six-stage tree built from
# `gen-fixture --seed 7 --articles 300` at workers=1, manifests included.
PINNED_TREE = """
0519d4aecb37b5615912d33abf41bb48d4d407a031f1c96398e6a44b36342589  aggregate/coverage.csv
d3907fee02f445d04c49d90b1a2620c7523da26eda039d5f17b170121a20ab9d  aggregate/indicators.csv
7762674b559ab895ec15b2d326d59fe1d5599755fffd215749a7309bd9436db0  attribute/attributions_corresponding.csv
6bc6c4aa41421d325a3fed7ba167dd47fedba9ef4bd8e543448a792d223a5f9c  attribute/attributions_first.csv
800bfd756a9442378f9600a8e8ab129bd964ce11a479d4f1a131d9b7b4cfe31d  classify/articles_open.ndjson
e6dbad361943d1e7481d9ca8c825d12268bda9f874b766691f4e3611b4feacef  classify/articles_srcA.ndjson
8c919221d105204aee40311cc6f0d9b4a616da1457053a619493fdde8afe2471  classify/articles_srcB.ndjson
164b50163467e0c618a4a75de3a5a303d7b20e168464d6a0129c211326d00452  classify/attributable_open.ndjson
e87037545ae3924ac0b28ad389a49964b8c816b618191983f487674639d4bb42  classify/attributable_srcA.ndjson
14c338ba7d9df9775bf548fd55451ed4faddd3d92831df27d510a9b0eaeaf93e  classify/attributable_srcB.ndjson
0de0128c11f24144e38b39535b48b92383e59bd5202aa15864e73d58f27a02b5  classify/doi_index.ndjson
e78f8b978a2e5d4bc7c6c90961da7a31a6f4f9bb8972f4b1a29a1296ebab542b  classify/dois_open.ndjson
8d7da146b3fc69eb29189024592dd90695d4842b280d6b4c43bdbc42d772aa30  classify/dois_srcA.ndjson
61e2689eeb6215240cb764a7e2d7f4f45fed0c3d8013b95b1200df8d5ca07d02  classify/dois_srcB.ndjson
3bf010fbbacc6745deb04f7db0ce0e0cd6597586e5dd31535d9131ec92fd19b7  classify/journals_open.ndjson
c79c066799b3866aee23dffd5bb53cdd7d0a286d24c8a0a021ce704c65906395  classify/journals_srcA.ndjson
ec44481b7742e9fb633882490cd6df1680a0dbf21ed1f931c920155498bdbac1  classify/journals_srcB.ndjson
cdc042361c6fcf1160869f209e272230cd6579c958252aa546581924c0a1450e  compare/correlations.csv
f09bdd7ea1ea2172837bacc2159bb182201c6080edd3816a26ad77e023254b9d  compare/country_scatter.csv
bdc38b82175099c5f3fc8ee8d96690f4c68d3da63b1c9663f2a1433bc832c5aa  compare/intersections.csv
b2a6c6a5a5d5acf1b423b3a35055c22efaba1d61e209bc1cbb9b71576661c02c  compare/intersections_publisher.csv
b73d183ec1d98016ae9beb95ffb37199669ec3c31899b42993fd6dd09ed2f071  compare/journal_volumes.csv
fa7d829c9ca87d1e5399d02dba37896025e233986db2adcfeba0b3fd09e9c878  compare/uptake_global.csv
1cb61af4d0fbb2eb1dbb5670bf768aa072ae16a0d5d6e0c789bb0d1b26b6b5e9  compare/uptake_publisher.csv
ab9f62666e85ccf86af74e40e2aba934c4ec7ec047680b07d91f66664b112c0a  ingest/agreements.json
99b7ddae1f2c985d0d23b20ac38b83d614128488d3f2a83ab293e7bcea319669  ingest/articles_open.ndjson
f2621e6528275080ee5a31652741fbddb8bb5246d30150d84ac7ac518631e1fa  ingest/articles_srcA.ndjson
0e1fdddb0e811671e8fc8fe422815d1c6b85f2fa92bc687cc8584d896a5295df  ingest/articles_srcB.ndjson
51ce0017f7b7cbb86c07641f33928d2344b4961f85e9d663895029afa09881b0  ingest/institutions.csv
2a18cdd87cff43c5b65c884abaa92bb2d8b2e8b273c1d247615b82ad4e8dbd52  ingest/journals.csv
ab89d20508a1d5ae11fc545d9ac2da996457ae02da5180cc9079f4ff1ec1b1c6  manifests/aggregate.json
c57c36ce5a3502670ad0e8d3f7400b8047545dc36b7f9100c8812f37a093cc48  manifests/attribute.json
6bc7888df44287e7b6062ea795f6bcd6f4adcc03c569a75157064f2c8bfee95c  manifests/classify.json
0fb67b493069ef478fef3e3f231b9ebe74f2381a18b29abdeab5039f765cd41b  manifests/compare.json
aefa9914b8d54a477655c873c174a14505125dff25b0fcb4003a3a0af12d9821  manifests/ingest.json
cbf1579b681a207aa7309e4a36cef26e4f8716402787b99ca5f63ac5ce495a8f  manifests/reconcile.json
89fabf40e1d03bfa0bc2e6f014b2d3488954757d2673cd887d9f115e09a2412c  reconcile/audit_sample.csv
cef32a996a3e1dd7617240935522f3aa6106734c3d71fe1cdfd4d0a3d3748a64  reconcile/crosswalk.csv
aae92b401d6782ade65d2a98d64b1dcb0ea6b3368b70c939d0b52a01515b080b  rejects/agreement_dump.csv
aae92b401d6782ade65d2a98d64b1dcb0ea6b3368b70c939d0b52a01515b080b  rejects/articles_open.csv
aae92b401d6782ade65d2a98d64b1dcb0ea6b3368b70c939d0b52a01515b080b  rejects/articles_srcA.csv
aae92b401d6782ade65d2a98d64b1dcb0ea6b3368b70c939d0b52a01515b080b  rejects/articles_srcB.csv
0c082d28de03d94aed975849c308396e160de1b8c144d3d2c0ab9425e108b66b  rejects/durations.csv
aae92b401d6782ade65d2a98d64b1dcb0ea6b3368b70c939d0b52a01515b080b  rejects/fully_oa.csv
aae92b401d6782ade65d2a98d64b1dcb0ea6b3368b70c939d0b52a01515b080b  rejects/institutions.csv
aae92b401d6782ade65d2a98d64b1dcb0ea6b3368b70c939d0b52a01515b080b  rejects/issn_links.csv
"""


def test_artifact_tree_matches_pinned_digests(tmp_path):
    """Every byte of a small tree is pinned, so a refactor that must keep
    the artifacts identical gets a standing check.

    A change that means to alter an artifact format, a manifest counter or
    the fixture updates PINNED_TREE: regenerate it with `sha256sum` over
    the tree's files and say in the change log why the bytes moved.
    """
    from hybridoa.cli import main

    corpus = tmp_path / "c"
    assert main(["gen-fixture", "--out", str(corpus), "--seed", "7", "--articles", "300"]) == 0
    assert main(["run", "--config", str(corpus / "config.json"), "--workers", "1"]) == 0
    actual = {
        path: hashlib.sha256(content).hexdigest()
        for path, content in files_under(str(corpus / "out")).items()
    }
    pinned = dict(reversed(line.split("  ", 1)) for line in PINNED_TREE.split("\n") if line)
    assert actual == pinned


def test_one_corpus_in_two_places_gives_identical_trees(tmp_path):
    """Manifests included: input paths are stored out_dir-relative and stay
    out of the config digest."""
    trees = []
    for place in ("a", os.path.join("elsewhere", "deeper")):
        corpus, config = small_corpus(tmp_path / place)
        pipeline.run(config)
        trees.append(files_under(config.out_dir))
    assert trees[0] == trees[1]


def test_classify_counts_unknown_document_classes(tmp_path):
    """`unknown_doc_class_<source>` recounts the same on every run and at
    every worker count."""
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config, ["ingest"])
    layout = Layout(config.out_dir)
    expected = {}
    for source in config.sources:
        allowed = {c.casefold() for c in source.doc_class_allowlist}
        with open(layout.articles(source.label), encoding="utf-8") as fh:
            classes = [json.loads(line)["document_class"].strip().casefold() for line in fh]
        expected[f"unknown_doc_class_{source.label}"] = sum(
            source.doc_class_mode == "allowlist" and c not in allowed | KNOWN_NOT_ORIGINAL
            for c in classes
        )
    assert any(expected.values())
    for workers in (1, 1, 2):
        pipeline.run(replace(config, workers=workers), ["classify"])
        counters = read_manifest(layout, "classify")["counters"]
        assert {k: v for k, v in counters.items() if k.startswith("unknown")} == expected


def recount_unresolved(layout, config):
    """`unresolved_org_ids_<role>` recounted from the classified lines: the
    proprietary IDs of role authors on attributable articles in journals of
    dated agreements that the crosswalk lacks."""
    with open(layout.crosswalk, encoding="utf-8") as fh:
        known = {f"{row['scheme']}:{row['proprietary_id']}" for row in csv.DictReader(fh)}
    with open(layout.agreements, encoding="utf-8") as fh:
        covered = {
            issn for a in map(json.loads, fh) if a["start_date"] and a["end_date"]
            for issn in a["journal_issn_ls"]
        }
    expected = {"unresolved_org_ids_first": 0, "unresolved_org_ids_corresponding": 0}
    for source in config.sources:
        with open(layout.classified(source.label), encoding="utf-8") as fh:
            for obj in map(json.loads, fh):
                record = obj["record"]
                if not (obj["countable"] and obj["is_hybrid_oa"]) or record["issn"] not in covered:
                    continue
                first = [a for a in record["authors"] if a["position"] == 1][:1]
                flagged = [a for a in record["authors"] if a["corresponding"] is True]
                for role, authors in (("first", first), ("corresponding", flagged)):
                    ids = {o for a in authors for o in a["org_ids"]}
                    expected[f"unresolved_org_ids_{role}"] += sum(
                        not o.startswith("ror:") and o not in known for o in ids
                    )
    return expected


def unresolved_counters(layout):
    counters = read_manifest(layout, "attribute")["counters"]
    return {k: v for k, v in counters.items() if k.startswith("unresolved")}


def record_edit(layout, stage, path):
    """Record a hand-edited artifact's new sha256 in its producer's manifest,
    as if `stage` had written it so."""
    manifest = read_manifest(layout, stage)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    for entry in manifest["outputs"]:
        if entry["path"] == os.path.relpath(path, layout.out_dir):
            entry["sha256"] = digest
    with open(layout.manifest(stage), "w", encoding="utf-8") as fh:
        fh.write(artifacts.dump_canonical(manifest) + "\n")


def test_attribute_counts_unresolved_org_ids(tmp_path):
    """`unresolved_org_ids_<role>` counts the proprietary IDs of role authors
    on attributable articles in agreement journals that the crosswalk lacks,
    alike at every worker count."""
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config, ["ingest", "classify", "reconcile"])
    layout = Layout(config.out_dir)
    with open(layout.crosswalk, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(layout.crosswalk, "w", encoding="utf-8") as fh:
        fh.writelines(lines[: len(lines) // 2])  # header and the first half
    record_edit(layout, "reconcile", layout.crosswalk)
    expected = recount_unresolved(layout, config)
    assert all(expected.values())
    for workers in (1, 2):
        pipeline.run(replace(config, workers=workers), ["attribute"])
        assert unresolved_counters(layout) == expected


def test_unresolved_org_ids_counted_end_to_end(tmp_path):
    """First authors whose srcA IDs have no open partner, written into the
    corpus itself, are counted by a full run, alike at workers 1 and 2."""
    corpus, config = small_corpus(tmp_path)
    path = corpus / "articles_srcA.ndjson"
    lines = path.read_text(encoding="utf-8").splitlines()
    for k in range(0, len(lines), 3):
        obj = json.loads(lines[k])
        for author in obj["authors"]:
            if author["position"] == 1:
                # a fresh ID on one article: DOI bridging can give it a
                # support of 1 at most, below the fixture's min_support
                author["org_ids"] = [
                    f"srcA:unpaired{k}" if o.startswith("srcA:") else o for o in author["org_ids"]
                ]
        lines[k] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    counted = []
    for workers in (1, 2):
        run = replace(config, workers=workers, out_dir=str(tmp_path / f"workers{workers}"))
        assert pipeline.run(run) == list(pipeline.artifacts.STAGES)
        layout = Layout(run.out_dir)
        counted.append(unresolved_counters(layout))
    expected = recount_unresolved(layout, config)
    assert expected["unresolved_org_ids_first"] > 0
    assert counted == [expected, expected]


def other_interpreters():
    """Each `python3.X` (X >= 10) on PATH that starts and is not this
    interpreter's version; the first of a name on PATH, as a shell finds it."""
    paths = {}
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        try:
            names = os.listdir(directory or ".")
        except OSError:
            continue
        for name in names:
            match = re.fullmatch(r"python3\.(\d+)", name)
            if match and int(match.group(1)) >= 10 and name not in paths:
                paths[name] = os.path.join(directory, name)
    found = []
    for name, path in sorted(paths.items()):
        version = (3, int(name.split(".")[1]))
        if version == sys.version_info[:2]:
            continue
        try:
            probe = subprocess.run(
                [path, "-c", "import sys; print(tuple(sys.version_info[:2]))"],
                capture_output=True, text=True, timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        # a shim without that version installed exits non-zero
        if probe.returncode == 0 and probe.stdout.strip() == str(version):
            found.append(path)
    return found


def test_every_interpreter_on_path_builds_the_same_tree(tmp_path):
    """One corpus gives the same tree, manifests and reject logs included,
    on every installed interpreter; the corpus holds a compact date that
    must be a `bad_date` reject on each of them."""
    others = other_interpreters()
    if not others:
        pytest.skip("no other python3.X interpreter starts")
    corpus, config = small_corpus(tmp_path)
    path = corpus / "articles_open.ndjson"
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[3])
    obj["pub_date"] = "20210304"
    lines[3] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    digests = {}
    for python in [sys.executable] + others:
        out = tmp_path / f"out{len(digests)}"
        argv = ["-m", "hybridoa.cli", "run", "--config", str(corpus / "config.json")]
        subprocess.run(
            [python] + argv + ["--workers", "2", "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=600,
        )
        digests[python] = tree_digest(out)
    with open(Layout(str(tmp_path / "out0")).reject_log("articles_open"), encoding="utf-8") as fh:
        assert ("4", "bad_date") in [(row["line"], row["reason"]) for row in csv.DictReader(fh)]
    assert len(set(digests.values())) == 1, digests


def files_under(root):
    """Relative path -> bytes of every file under `root`."""
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_write_csv_that_raises_keeps_the_previous_file(tmp_path):
    path = str(tmp_path / "table.csv")
    pipeline.artifacts.write_csv(path, ("n",), [(1,), (2,)])
    before = files_under(tmp_path)

    def rows():
        yield (3,)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        pipeline.artifacts.write_csv(path, ("n",), rows())
    assert files_under(tmp_path) == before


def test_failed_classify_leaves_the_finished_tree_unchanged(tmp_path, monkeypatch):
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config)
    before = files_under(config.out_dir)
    classify_article = pipeline.classify.classify_article
    calls = []

    def fails_after_100(*args):
        calls.append(None)
        if len(calls) > 100:
            raise RuntimeError("classifier failed")
        return classify_article(*args)

    monkeypatch.setattr(pipeline.classify, "classify_article", fails_after_100)
    with pytest.raises(RuntimeError):
        pipeline.run(config, ["classify"])
    # every classify/ file and manifests/classify.json included; no temp file left
    assert files_under(config.out_dir) == before


def test_manifest_reconciliation(pipeline_run, corpus_dir):
    layout, config = pipeline_run
    manifest = read_manifest(layout, "ingest")
    for source in config.sources:
        records = manifest["counters"][f"records_{source.label}"]
        rejects = manifest["counters"][f"rejects_{source.label}"]
        with open(source.articles, encoding="utf-8") as fh:
            lines = sum(1 for line in fh if line.strip())
        assert records + rejects == lines
        # classify preserves row counts
        classify_manifest = read_manifest(layout, "classify")
        assert classify_manifest["counters"][f"classified_{source.label}"] == records


def test_ingest_logs_rejects_for_planted_bad_rows(pipeline_run):
    layout, config = pipeline_run
    with open(layout.reject_log("durations"), encoding="utf-8") as fh:
        content = fh.read()
    assert "inverted_window" in content
    manifest = read_manifest(layout, "ingest")
    # the orphan agreement (no duration row) is dropped, not an error
    assert manifest["counters"]["agreements"] == 5
    assert manifest["counters"]["agreements_undated"] == 6


def with_open_articles(config, tmp_path, data: bytes):
    """`config` with the open source's interchange file replaced by `data`."""
    articles = tmp_path / "articles_open_edited.ndjson"
    articles.write_bytes(data)
    sources = tuple(
        replace(s, articles=str(articles)) if s.open_baseline else s for s in config.sources
    )
    return replace(config, sources=sources)


def assert_bad_lines_rejected_not_fatal(tmp_path, cases):
    """Each `(overrides, code)` case, applied to a copy of the open source's
    first line, lands in its reject log with `code`; all six stages
    complete, and every other artifact is as without the bad lines."""
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config)
    clean = files_under(config.out_dir)

    open_source = next(s for s in config.sources if s.open_baseline)
    with open(open_source.articles, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    template = json.loads(lines[0])
    for k, (overrides, _) in enumerate(cases):
        lines.append(json.dumps({**template, "native_id": f"W-bad-{k}", **overrides}))
    config = replace(
        with_open_articles(config, tmp_path, ("\n".join(lines) + "\n").encode()),
        out_dir=str(tmp_path / "mistyped"),
    )
    assert pipeline.run(config) == list(pipeline.artifacts.STAGES)

    layout = Layout(config.out_dir)
    reject_log = layout.reject_log(f"articles_{open_source.label}")
    with open(reject_log, encoding="utf-8", newline="") as fh:
        logged = [(int(row["line"]), row["reason"]) for row in csv.DictReader(fh)]
    first_bad = len(lines) - len(cases) + 1
    assert logged == [(first_bad + k, code) for k, (_, code) in enumerate(cases)]
    # the good lines come out as before: only manifests and this reject log differ
    mistyped = files_under(config.out_dir)
    changed = {path for path in clean if clean[path] != mistyped[path]}
    assert mistyped.keys() == clean.keys()
    assert {p for p in changed if not p.startswith("manifests")} == {
        os.path.relpath(reject_log, config.out_dir)
    }


def test_mistyped_interchange_fields_are_rejected_not_fatal(tmp_path):
    assert_bad_lines_rejected_not_fatal(
        tmp_path,
        [
            ({"doi": 12}, "bad_field"),
            ({"pagination": 5}, "bad_field"),
            ({"title": 42}, "bad_field"),
            ({"licenses": [{"url": fixture.CC_BY, "applies_to_vor": "false"}]}, "bad_license"),
            ({"authors": [{"position": True, "org_ids": [], "countries": []}]}, "bad_author"),
            ({"authors": [{"position": 1, "org_ids": [], "countries": "DE"}]}, "bad_author"),
        ],
    )


def test_mistyped_lists_urls_and_issns_are_rejected_not_fatal(tmp_path):
    """A licenses, authors or org_ids value that is not a list, or a
    license URL or an ISSN that is not a string, is a reject, not a
    crashed run."""
    assert_bad_lines_rejected_not_fatal(
        tmp_path,
        [
            ({"licenses": 5}, "bad_license"),
            ({"licenses": True}, "bad_license"),
            ({"licenses": [{"url": 5, "applies_to_vor": True}]}, "bad_license"),
            ({"authors": 7}, "bad_author"),
            ({"authors": [{"position": 1, "org_ids": 5, "countries": []}]}, "bad_org_id"),
            ({"issn": 3785955}, "malformed_issn"),
        ],
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_non_utf8_line_is_a_bad_json_reject(tmp_path, workers):
    """One byte that is not UTF-8 rejects its line as `bad_json`, logged
    with a backslash escape, and the stream goes on."""
    corpus, config = small_corpus(tmp_path)
    open_source = next(s for s in config.sources if s.open_baseline)
    with open(open_source.articles, "rb") as fh:
        lines = fh.read().split(b"\n")
    assert b'"title": "' in lines[5]
    lines[5] = lines[5].replace(b'"title": "', b'"title": "\xff', 1)
    config = replace(
        with_open_articles(config, tmp_path, b"\n".join(lines)),
        workers=workers,
        out_dir=str(tmp_path / "out"),
    )
    assert pipeline.run(config, ["ingest"]) == ["ingest"]

    layout = Layout(config.out_dir)
    with open(layout.reject_log("articles_open"), encoding="utf-8", newline="") as fh:
        logged = list(csv.DictReader(fh))
    assert [(row["line"], row["reason"]) for row in logged] == [("6", "bad_json")]
    assert '"title": "\\xff' in logged[0]["raw"]
    counters = read_manifest(layout, "ingest")["counters"]
    countable = sum(1 for line in lines if line.strip())
    assert counters["rejects_open"] == 1
    assert counters["records_open"] == countable - 1


# input stem -> (file in the corpus, a row holding a byte that is not
# UTF-8, the raw text its reject log holds)
NON_UTF8_ROWS = {
    "institutions": ("institutions.csv", b"ror:0r999,D\xffE,", "ror:0r999,D\\xffE,"),
    "durations": (
        "durations.csv", b"ta-x\xff-9,2020-01-01,2020-12-31", "ta-x\\xff-9,2020-01-01,2020-12-31"
    ),
    "fully_oa": ("fully_oa.txt", b"\xff", "\\xff"),
}


@pytest.mark.parametrize("workers", [1, 2])
def test_non_utf8_tabular_rows_are_rejects_not_fatal(tmp_path, workers):
    """`run --stages ingest` completes when tabular and list inputs hold a
    row that is not UTF-8; each such row is a logged schema violation."""
    from hybridoa.cli import main

    corpus, config = small_corpus(tmp_path)
    for name, row, _ in NON_UTF8_ROWS.values():
        with open(corpus / name, "ab") as fh:
            fh.write(row + b"\n")
    out = tmp_path / "out"
    argv = ["run", "--config", str(corpus / "config.json"), "--stages", "ingest"]
    assert main(argv + ["--workers", str(workers), "--out", str(out)]) == 0

    layout = Layout(str(out))
    counters = read_manifest(layout, "ingest")["counters"]
    for stem, (_, _, raw) in NON_UTF8_ROWS.items():
        with open(layout.reject_log(stem), encoding="utf-8", newline="") as fh:
            logged = [(row["reason"], row["raw"]) for row in csv.DictReader(fh)]
        assert logged[-1] == ("schema_violation", raw)
        assert counters[f"{stem}_rejects"] == len(logged)


def test_ingest_is_identical_at_every_worker_count_across_chunks(tmp_path):
    """A source of more than four chunks of lines, with blank and malformed
    lines and one native ID whose two copies fall in different chunks,
    gives the same ingest and classify files, reject logs and manifests at
    1, 2 and 8 workers."""
    corpus, config = small_corpus(tmp_path)
    open_source = next(s for s in config.sources if s.open_baseline)
    with open(open_source.articles, encoding="utf-8") as fh:
        template = [json.loads(line) for line in fh if line.strip()]
    lines = []
    while len(lines) <= 4 * artifacts.CHUNK_LINES:
        for obj in template:
            copy = {**obj, "native_id": f"{obj['native_id']}-{len(lines)}"}
            lines.append(json.dumps(copy))
            if len(lines) % 97 == 0:
                lines.append("   ")
            if len(lines) % 131 == 0:
                lines.append("{not json")
    lines.append(lines[0])  # the first line's native ID again, thousands of lines on
    config = with_open_articles(config, tmp_path, ("\n".join(lines) + "\n").encode())

    trees = []
    for workers in (1, 2, 8):
        out_dir = str(tmp_path / f"w{workers}")
        pipeline.run(replace(config, workers=workers, out_dir=out_dir), ["ingest", "classify"])
        trees.append(files_under(out_dir))
    assert trees[0] == trees[1] == trees[2]

    counters = json.loads(trees[0][os.path.join("manifests", "ingest.json")])["counters"]
    countable = [k for k, line in enumerate(lines, 1) if line.strip()]
    assert counters["records_open"] + counters["rejects_open"] == len(countable)
    classified = json.loads(trees[0][os.path.join("manifests", "classify.json")])["counters"]
    assert classified["classified_open"] == counters["records_open"]
    assert trees[0][os.path.join("classify", "articles_open.ndjson")].count(b"\n") == (
        counters["records_open"]
    )
    reject_log = trees[0][os.path.join("rejects", "articles_open.csv")].decode()
    rows = list(csv.reader(reject_log.splitlines()))
    expected = [[str(k), "bad_json", "{not json"] for k in countable if lines[k - 1] == "{not json"]
    expected.append([str(len(lines)), "duplicate_record", lines[-1]])
    assert rows[1:] == expected
    assert counters["rejects_open"] == len(expected)


@pytest.mark.parametrize("workers", [1, 2])
def test_source_folds_yield_each_result_in_task_order(workers):
    """More tasks than the pool has processes come back as fn(ctx, task),
    in task order, inline or on a pool."""
    tasks = [(k,) for k in range(workers * 2 * 3 + 1)]
    pool = pipeline.ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        results = list(pipeline._source_folds(pool, operator.add, ("ctx",), tasks))
    finally:
        if pool is not None:
            pool.shutdown()
    assert results == [("ctx", *task) for task in tasks]


def test_a_pool_starts_no_more_processes_than_tasks(tmp_path, monkeypatch):
    """At workers=8 a run constructs one pool, which asks for one process
    per source and no more, for all its stages; at workers=1 it
    constructs none."""
    corpus, config = small_corpus(tmp_path)
    asked = []

    class SpyPool(pipeline.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            asked.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", SpyPool)
    pipeline.run(replace(config, workers=8))
    assert asked == [len(config.sources)]
    asked.clear()
    pipeline.run(replace(config, workers=1))
    assert asked == []


def test_unset_workers_are_the_cpus_this_process_may_run_on(tmp_path, monkeypatch):
    """With `workers` unset, a process allowed one CPU starts no pool,
    whatever the host's CPU count; one allowed five asks for a process
    per source."""
    corpus, config = small_corpus(tmp_path)
    config = replace(config, workers=None)
    asked = []

    class SpyPool(pipeline.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            asked.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    pipeline.run(config)
    assert asked == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)), raising=False)
    pipeline.run(config, ["ingest"])
    assert asked == [len(config.sources)]


def test_a_stale_tree_is_refused_until_its_stages_run_again(tmp_path):
    """The open source's input cut to 300 lines and ingest run again:
    classify's manifest still records the old ingest file, so reconcile,
    attribute, aggregate and compare each refuse, name that link and leave
    the tree as it is. Running classify and the stages after it again gives
    the tree of a clean run."""
    corpus = tmp_path / "corpus"
    fixture.generate(fixture.FixtureParams(seed=5, n_articles=500), str(corpus))
    config = replace(load_config(str(corpus / "config.json")), workers=1)
    pipeline.run(config)
    articles = config.sources[0].articles
    with open(articles, encoding="utf-8") as fh:
        lines = fh.readlines()
    assert len(lines) > 300
    with open(articles, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:300])
    pipeline.run(config, ["ingest"])
    before = files_under(config.out_dir)
    stale = (
        r"stage 'classify' was built from ingest/articles_open\.ndjson sha256"
        r" [0-9a-f]{12}\.\.\., but stage 'ingest' now records [0-9a-f]{12}\.\.\.;"
        r" run stage 'classify'"
    )
    for stage in ("reconcile", "attribute", "aggregate", "compare"):
        with pytest.raises(DependencyError, match=f"^stage '{stage}': {stale}"):
            pipeline.run(config, [stage])
        assert files_under(config.out_dir) == before, stage
    pipeline.run(config, list(pipeline.artifacts.STAGES[1:]))
    clean = replace(config, out_dir=str(corpus / "clean"))
    pipeline.run(clean)
    assert files_under(config.out_dir) == files_under(clean.out_dir)


def test_an_edited_attributable_file_is_refused(tmp_path):
    """An attributable file edited after classify wrote it is refused by
    attribute's producer check; once classify's manifest records the
    edited bytes too, the upstream walk of a later stage refuses the
    attribute outputs built from the old ones. Neither publishes anything."""
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config)
    layout = Layout(config.out_dir)
    path = layout.attributable(config.open_source)
    relative = os.path.relpath(path, config.out_dir)
    append_first_line(path)
    before = files_under(config.out_dir)
    with pytest.raises(
        DependencyError,
        match=f"^stage 'attribute': {re.escape(path)} is not what stage 'classify' recorded",
    ):
        pipeline.run(config, ["attribute"])
    assert files_under(config.out_dir) == before

    manifest = read_manifest(layout, "classify")
    (entry,) = [e for e in manifest["outputs"] if e["path"] == relative]
    entry["sha256"] = hashlib.sha256(before[relative]).hexdigest()
    artifacts.write_ndjson(layout.manifest("classify"), [manifest])
    before = files_under(config.out_dir)
    with pytest.raises(
        DependencyError,
        match=f"^stage 'aggregate': stage 'attribute' was built from {re.escape(relative)}",
    ):
        pipeline.run(config, ["aggregate"])
    assert files_under(config.out_dir) == before


def test_no_article_line_crosses_a_pipe(tmp_path, monkeypatch):
    """Every task that ingest and classify hand to `_source_folds` carries
    paths, not lines: each pickles to under 1 KiB."""
    corpus, config = small_corpus(tmp_path)
    sizes = {}
    folded = pipeline._source_folds

    def spy(pool, fn, ctx, sources):
        sizes[stage].extend(len(pickle.dumps(source)) for source in sources)
        return folded(pool, fn, ctx, sources)

    monkeypatch.setattr(pipeline, "_source_folds", spy)
    for stage in ("ingest", "classify"):
        sizes[stage] = []
        pipeline.run(config, [stage])
        assert len(sizes[stage]) == len(config.sources), stage
        assert max(sizes[stage]) < 1024, stage


def drop_open_policy(monkeypatch, config):
    """Make classify's task for the open source raise KeyError: the
    classifier config that every task gets has no policy for it."""
    classifier_config = pipeline._classifier_config

    def without_open(config):
        cfg = classifier_config(config)
        policies = {k: v for k, v in cfg.policies.items() if k != config.open_source}
        return replace(cfg, policies=policies)

    monkeypatch.setattr(pipeline, "_classifier_config", without_open)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("stage", ["ingest", "classify"])
def test_a_failed_source_task_publishes_nothing(tmp_path, monkeypatch, stage, workers):
    """When the first source's task raises, in ingest (its article file is
    gone) or classify (its policy is), the stage publishes nothing, the
    previous tree stays as it was, and no temp file is left: neither the
    failed task's nor those of its sibling tasks, which still ran."""
    corpus, config = small_corpus(tmp_path)
    config = replace(config, workers=workers)
    pipeline.run(config)
    before = files_under(config.out_dir)
    assert config.sources[0].label == config.open_source
    if stage == "ingest":
        os.remove(config.sources[0].articles)
        raised = FileNotFoundError
    else:
        drop_open_policy(monkeypatch, config)
        raised = KeyError
    with pytest.raises(raised):
        pipeline.run(config, [stage])
    after = files_under(config.out_dir)
    assert [p for p in after if p.endswith(".tmp")] == []
    assert after == before


def line_count(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return data.count(b"\n") + (not data.endswith(b"\n") and bool(data))


@pytest.mark.parametrize("workers", [1, 2])
def test_manifest_digests_and_rows_match_the_files(tmp_path, workers):
    """Each manifest's output sha256 and rows, taken while writing, equal a
    fresh read of the file; ingest's input digests, taken while reading,
    equal a fresh hash of each external input."""
    corpus, config = small_corpus(tmp_path)
    config = replace(config, workers=workers)
    pipeline.run(config)
    layout = Layout(config.out_dir)
    for stage in pipeline.artifacts.STAGES:
        manifest = read_manifest(layout, stage)
        for entry in manifest["outputs"]:
            path = os.path.join(config.out_dir, entry["path"])
            assert entry["sha256"] == pipeline.artifacts.sha256_file(path), path
            header = 1 if path.endswith(".csv") else 0
            assert entry["rows"] == line_count(path) - header, path
    for entry in read_manifest(layout, "ingest")["inputs"]:
        path = os.path.normpath(os.path.join(config.out_dir, entry["path"]))
        assert entry["sha256"] == pipeline.artifacts.sha256_file(path), path


def test_manifests_carry_config_digest_and_io(pipeline_run):
    layout, config = pipeline_run
    for stage in pipeline.artifacts.STAGES:
        manifest = read_manifest(layout, stage)
        assert manifest["config_digest"] == config.digest()
        assert manifest["inputs"] and manifest["outputs"]
        for entry in manifest["outputs"]:
            assert len(entry["sha256"]) == 64


def test_config_validation_errors(tmp_path):
    corpus, config = small_corpus(tmp_path)
    with pytest.raises(ConfigError):
        replace(config, sources=()).validate()
    with pytest.raises(ConfigError):
        replace(config, years=(2024, 2020)).validate()
    with pytest.raises(ConfigError):
        replace(config, roles=("middle",)).validate()
    with pytest.raises(ConfigError):
        replace(config, agreement_dump=str(corpus / "missing.csv")).validate()


def test_flag_overrides():
    from hybridoa.config import PipelineConfig, SourceConfig

    config = PipelineConfig(
        sources=(SourceConfig(label="open", articles="a", scheme="ror", open_baseline=True),),
        agreement_dump="b",
        durations="c",
        issn_links="d",
        institutions="e",
    )
    updated = apply_overrides(config, years="2020:2021", role="first", seed=9, workers=4, out_dir="x")
    assert updated.years == (2020, 2021)
    assert updated.roles == ("first",)
    assert updated.seed == 9 and updated.workers == 4 and updated.out_dir == "x"
    with pytest.raises(ConfigError):
        apply_overrides(config, years="2020-2021")


def test_config_defaults_come_from_the_dataclasses(tmp_path, corpus_dir):
    from hybridoa.config import PipelineConfig, SourceConfig
    from oracles import oracle_load_config

    minimal = {
        "sources": [{"label": "open", "articles": "a.ndjson", "scheme": "ror", "colour": "red"}],
        "agreement_dump": "agreements.csv",
        "durations": "durations.csv",
        "issn_links": "links.csv",
        "institutions": "/data/institutions.csv",
        "unknown_key": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal), encoding="utf-8")
    base = str(tmp_path)
    want = PipelineConfig(
        sources=(SourceConfig("open", os.path.join(base, "a.ndjson"), "ror"),),
        agreement_dump=os.path.join(base, "agreements.csv"),
        durations=os.path.join(base, "durations.csv"),
        issn_links=os.path.join(base, "links.csv"),
        institutions="/data/institutions.csv",
        out_dir=os.path.join(base, "out"),
    )
    assert load_config(str(path)) == want == oracle_load_config(str(path))
    fixture_config = str(corpus_dir / "config.json")
    assert load_config(fixture_config) == oracle_load_config(fixture_config)
    assert load_config(fixture_config).digest() == oracle_load_config(fixture_config).digest()


def test_config_values_keep_their_json_type(tmp_path, corpus_dir):
    raw = json.loads((corpus_dir / "config.json").read_text(encoding="utf-8"))
    cases = [
        ("lenient_oa", lambda r: r["sources"][0].update(lenient_oa="false")),
        ("years", lambda r: r.update(years=["2019", "2023"])),
        ("min_support", lambda r: r.update(min_support=True)),
    ]
    path = tmp_path / "config.json"
    for key, mistype in cases:
        mistyped = json.loads(json.dumps(raw))
        mistype(mistyped)
        path.write_text(json.dumps(mistyped), encoding="utf-8")
        with pytest.raises(ConfigError, match=key):
            load_config(str(path))


# --- attribution artifact ------------------------------------------------------

def test_attribution_rows_cover_all_eligible_articles(pipeline_run, corpus_dir):
    from conftest import load_truth_attributions

    layout, config = pipeline_run
    truth = load_truth_attributions(corpus_dir)
    for role in config.roles:
        with open(layout.attributions(role), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        keys = {(r["source"], r["native_id"], r["role"]) for r in rows}
        truth_keys = {k for k in truth if k[2] == role}
        assert keys == truth_keys
        for row in rows:
            enabled = row["ta_enabled"] == "true"
            assert enabled == bool(row["agreement_ids"])
            if enabled:
                assert row["matched_institution"].startswith("ror:")


def test_audit_sample_has_supporting_dois(pipeline_run):
    layout, config = pipeline_run
    with open(layout.audit, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert all(int(r["support"]) >= config.min_support for r in rows)
    assert any(r["example_dois"] for r in rows)


def indicator_rows(layout):
    with open(layout.indicators, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_denominators_independent_of_role(pipeline_run):
    """GLOBAL and PUBLISHER denominators match across FIRST and
    CORRESPONDING runs; only n_ta_oa may differ."""
    layout, config = pipeline_run
    by_key = {}
    for row in indicator_rows(layout):
        if row["group_kind"] not in ("GLOBAL", "PUBLISHER"):
            continue
        key = (row["source"], row["group_kind"], row["group_key"], row["year"])
        denominators = (row["n_total"], row["n_original"], row["n_oa"])
        by_key.setdefault(key, {})[row["role"]] = denominators
    both = [v for v in by_key.values() if len(v) == 2]
    assert both, "expected sources carrying both roles"
    for roles in both:
        assert roles["first"] == roles["corresponding"]


def test_country_full_counting_at_least_global(pipeline_run):
    """With full affiliation coverage, summed COUNTRY totals meet or
    exceed GLOBAL totals (multi-country authors count several times)."""
    layout, config = pipeline_run
    country_totals = {}
    global_totals = {}
    for row in indicator_rows(layout):
        if row["role"] != "first":
            continue
        key = (row["source"], row["year"])
        if row["group_kind"] == "COUNTRY":
            country_totals[key] = country_totals.get(key, 0) + int(row["n_total"])
        elif row["group_kind"] == "GLOBAL":
            global_totals[key] = int(row["n_total"])
    assert global_totals
    for key, total in global_totals.items():
        assert country_totals.get(key, 0) >= total


def counted_decodes(monkeypatch) -> list:
    """The source of each `artifacts.classified_from_line` call from now on."""
    decode = pipeline.artifacts.classified_from_line
    calls = []

    def counting(line, source):
        calls.append(source)
        return decode(line, source)

    monkeypatch.setattr(pipeline.artifacts, "classified_from_line", counting)
    return calls


def test_reconcile_and_compare_decode_no_classified_line(tmp_path, monkeypatch):
    """Reconcile and compare read classify's DOI streams and journal
    summaries, not its classified lines, and build no `ClassifiedRow`."""
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config, ["ingest", "classify", "reconcile", "attribute", "aggregate"])
    calls = counted_decodes(monkeypatch)
    for stage in ("reconcile", "compare"):
        pipeline.run(config, [stage])
        assert calls == [], stage


def test_attribute_and_aggregate_decode_each_record_once(tmp_path, monkeypatch):
    """Attribute decodes only the countable hybrid OA lines, and aggregate
    only the lines in hybrid journals."""
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config, ["ingest", "classify"])
    layout = Layout(config.out_dir)
    records = attributable = hybrid = 0
    for source in config.sources:
        with open(layout.classified(source.label), encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                records += 1
                attributable += obj["countable"] and obj["is_hybrid_oa"]
                hybrid += obj["journal_is_hybrid"]
    assert 0 < attributable < hybrid < records

    calls = counted_decodes(monkeypatch)
    pipeline.run(config, ["reconcile"])
    for stage, decodes in {"attribute": attributable, "aggregate": hybrid}.items():
        calls.clear()
        pipeline.run(config, [stage])
        assert len(calls) == decodes, stage


def aggregate_corpus(rng, source, flags):
    """A source's classified articles, in and out of hybrid journals and of
    the window. `flags` says where corresponding flags sit: "none" on no
    author, "non_hybrid" only on one author of a non-hybrid-journal
    article, "any" on authors anywhere."""
    articles = []
    for i in range(60):
        hybrid = i % 4 != 0
        countable = hybrid and rng.random() < 0.8
        year = rng.randint(2017, 2025)
        authors = tuple(
            Authorship(
                position=position,
                is_corresponding=rng.choice([None, True, False]) if flags == "any" else None,
                org_ids=frozenset(rng.sample(["ror:r1", "srcA:p1"], rng.randint(0, 2))),
                countries=frozenset(rng.sample(["DE", "CH", "NL"], rng.randint(0, 2))),
            )
            for position in range(1, rng.randint(1, 3) + 1)
        )
        if flags == "non_hybrid" and i == 8:
            authors = (replace(authors[0], is_corresponding=False),) + authors[1:]
        record = ArticleRecord(
            source=source, native_id=f"{source}{i}", journal_issn_l=rng.choice(["j1", "j2"]),
            pub_date=date(year, 3, 1), document_class="Article",
            doi=f"10.1/{source}{i}" if rng.random() < 0.8 else None, authors=authors,
        )
        articles.append(ClassifiedArticle(
            record=record, year=year, is_original=countable, is_paratext=False,
            in_regular_issue=countable, is_hybrid_oa=countable and rng.random() < 0.5,
            countable=countable, journal_is_hybrid=hybrid, publisher=rng.choice(["P1", "P2"]),
        ))
    return articles


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_aggregate_equals_the_full_decode_oracle(tmp_path, seed):
    """Aggregate decodes only hybrid-journal lines, yet writes the bytes of
    a fold over every record: for a source with no corresponding flag, one
    whose only flag sits on a non-hybrid-journal line, and one with flags
    anywhere."""
    rng = random.Random(seed)
    corpus, config = small_corpus(tmp_path)
    layout = Layout(str(tmp_path / "out"))
    config = replace(config, out_dir=layout.out_dir)
    corpora = {
        label: aggregate_corpus(rng, label, flags)
        for label, flags in zip(("open", "srcA", "srcB"), ("none", "non_hybrid", "any"))
    }
    assert [s.label for s in config.sources] == list(corpora)
    keys = [(a.record.source, a.record.native_id) for arts in corpora.values() for a in arts]
    ta_keys = {role: {k for k in keys if rng.random() < 0.5} for role in config.roles}
    for label, articles in corpora.items():
        with artifacts.open_artifact(layout.classified(label)) as fh:
            fh.writelines(f"{written_line(a)}\n" for a in articles)
    for role, enabled in ta_keys.items():
        rows = [(*key, "", 2021, role, "true", "ag", "ror:r1") for key in sorted(enabled)]
        artifacts.write_csv(layout.attributions(role), artifacts.ATTRIBUTION_HEADER, rows)

    _, counters = pipeline.run_aggregate(config, layout, [], None)

    rows, skipped = oracle_indicators(corpora, ta_keys, config.years)
    assert {k for k in counters if k.startswith("skipped_")} == {
        f"skipped_{source}_{role}" for source, role in skipped
    } == {"skipped_open_corresponding"}
    expected = Layout(str(tmp_path / "expected"))
    artifacts.write_indicators(expected.indicators, rows)
    artifacts.write_table(expected.coverage, oracle_coverage_summary(corpora, config.years))
    for path in ("indicators", "coverage"):
        with open(getattr(layout, path), "rb") as got, open(getattr(expected, path), "rb") as want:
            assert got.read() == want.read(), path


# --- explain ---------------------------------------------------------------------

def attributed_doi(layout):
    with open(layout.attributions("first"), encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["ta_enabled"] == "true" and row["doi"]:
                return row["doi"], row["agreement_ids"].split("|")[0]
    raise AssertionError("no attributed DOI in fixture")


def test_explain_attributed_doi(pipeline_run):
    layout, config = pipeline_run
    doi, agreement_id = attributed_doi(layout)
    trace = pipeline.explain_doi(config, doi)
    assert doi in trace
    assert f"TA-enabled via" in trace
    assert agreement_id in trace


def test_explain_closed_article_shows_license_failure(pipeline_run, corpus_dir):
    from conftest import load_truth_labels

    layout, config = pipeline_run
    labels = load_truth_labels(corpus_dir)
    bronze_doi = next(
        row["doi"]
        for row in labels.values()
        if row["is_bronze"] == "true" and row["doi"] and row["countable"] == "true"
    )
    trace = pipeline.explain_doi(config, bronze_doi)
    assert "FAIL (no CC license)" in trace
    assert "not eligible for attribution" in trace


def explain_blocks(trace):
    """Split an explain trace into one text block per source record."""
    blocks = []
    for line in trace.splitlines()[1:]:
        if line.startswith("["):
            blocks.append([])
        blocks[-1].append(line)
    return blocks


def test_explain_agrees_with_classified_artifact(tmp_path):
    """On every DOI, a countable record shows a passing license iff the
    classified artifact marks it hybrid OA, also for a source that labels
    user-license and delayed content as OA; and each role's agreement
    verdict names exactly the agreement ids of its attribution row."""
    corpus, config = small_corpus(tmp_path, delayed_oa_publisher="Elbe", n_agreements=11)
    sources = tuple(replace(s, lenient_oa=True) if s.label == "srcB" else s for s in config.sources)
    config = replace(config, sources=sources)
    pipeline.run(config)
    layout = Layout(config.out_dir)

    flags = {}
    for source in config.sources:
        with open(layout.classified(source.label), encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                if obj["record"]["doi"]:
                    key = (source.label, obj["record"]["native_id"])
                    flags[key] = (obj["record"]["doi"], obj["countable"], obj["is_hybrid_oa"])

    attributions = {}
    for role in config.roles:
        with open(layout.attributions(role), encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (row["source"], row["native_id"], role)
                attributions[key] = (row["ta_enabled"], row["agreement_ids"])

    lenient_user_license_passes = 0
    ta_enabled_traces = traced_agreement_ids = 0
    for doi in sorted({doi for doi, _, _ in flags.values()}):
        for block in explain_blocks(pipeline.explain_doi(config, doi)):
            label, native_id = block[0][1:].split("] native_id=")
            _, countable, hybrid_oa = flags[(label, native_id)]
            assert ("hybrid_oa=yes" in block[2]) == hybrid_oa
            passing = [line for line in block if line.endswith("-> PASS")]
            if countable:
                assert bool(passing) == hybrid_oa, block
            lenient_user_license_passes += sum(
                label == "srcB" and "user-license" in line for line in passing
            )
            # the agreement verdict of every role matches attribute/<role>.csv
            role = None
            for line in block:
                if line.startswith("  role "):
                    role = line.split()[1].rstrip(":")
                elif line.startswith("    TA-enabled via "):
                    ids = line[len("    TA-enabled via "):].split(", ")
                    assert attributions.get((label, native_id, role)) == (
                        "true",
                        "|".join(ids),
                    ), block
                    ta_enabled_traces += 1
                    traced_agreement_ids += len(ids)
                elif line == "    not TA-enabled":
                    assert attributions.get((label, native_id, role), ("false",))[0] == "false"
    assert lenient_user_license_passes > 0
    # some TA-enabled traces name several agreements
    assert traced_agreement_ids > ta_enabled_traces > 0


def test_explain_unknown_doi(pipeline_run):
    layout, config = pipeline_run
    with pytest.raises(UnknownDoi):
        pipeline.explain_doi(config, "10.9999/not-in-corpus")
    with pytest.raises(UnknownDoi):
        pipeline.explain_doi(config, "garbage")


def test_explain_decodes_only_the_lines_of_its_doi(full_tree, monkeypatch):
    config = full_tree
    layout = Layout(config.out_dir)
    holders: dict = {}
    for source in config.sources:
        with open(layout.classified(source.label), encoding="utf-8") as fh:
            for line in fh:
                doi = json.loads(line)["record"]["doi"]
                if doi:
                    holders.setdefault(doi, []).append(source.label)
    # one DOI per distinct set of holding sources
    sample = {tuple(labels): doi for doi, labels in sorted(holders.items())}
    assert len(sample) > 3

    decode = pipeline.artifacts.classified_from_line
    calls = []

    def counting(line, source):
        calls.append(source)
        return decode(line, source)

    monkeypatch.setattr(pipeline.artifacts, "classified_from_line", counting)
    for labels, doi in sample.items():
        calls.clear()
        assert pipeline.explain_doi(config, doi).startswith(f"DOI {doi}")
        assert calls == list(labels), doi
    calls.clear()
    with pytest.raises(UnknownDoi):
        pipeline.explain_doi(config, "10.9999/not-in-corpus")
    assert calls == []


def rewrite_dois(corpus, edits):
    """Give records new DOIs in the corpus itself: `edits` maps (source
    label, DOI) to the DOI every record of that source holding it gets."""
    for label in ("open", "srcA", "srcB"):
        path = corpus / f"articles_{label}.ndjson"
        lines = path.read_text(encoding="utf-8").splitlines()
        for k, line in enumerate(lines):
            obj = json.loads(line)
            if (label, obj["doi"]) in edits:
                obj["doi"] = edits[(label, obj["doi"])]
                lines[k] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def classified_holders(layout, config):
    """DOI -> (source, native_id) of each classified record holding it, in
    config source order, then file order."""
    holders: dict = {}
    for source in config.sources:
        with open(layout.classified(source.label), encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)["record"]
                if record["doi"]:
                    holder = (source.label, record["native_id"])
                    holders.setdefault(record["doi"], []).append(holder)
    return holders


def counting_decodes(monkeypatch):
    """The source label of each classified line decoded from now on."""
    decode = pipeline.artifacts.classified_from_line
    calls = []

    def counting(line, source):
        calls.append(source)
        return decode(line, source)

    monkeypatch.setattr(pipeline.artifacts, "classified_from_line", counting)
    return calls


def test_explain_finds_escaped_prefix_and_repeated_dois(tmp_path, monkeypatch):
    """DOIs that JSON escapes, a DOI that is a prefix of another, and a DOI
    one source holds twice: each trace shows exactly the records holding
    the DOI, and only their lines are decoded."""
    corpus, config = small_corpus(tmp_path)
    dois = {}
    for label in ("open", "srcA", "srcB"):
        with open(corpus / f"articles_{label}.ndjson", encoding="utf-8") as fh:
            dois[label] = [json.loads(line)["doi"] for line in fh]
    # DOIs all three sources hold, and one more of srcA's
    shared = [d for d in dois["open"] if d and d in dois["srcA"] and d in dois["srcB"]][:8]
    only_a = [d for d in dois["srcA"] if d and d not in shared][:1]
    wanted = [
        '10.5555/q"uote',
        "10.5555/back\\slash",
        "10.5555/tab\there",
        "10.5555/ümläut-日本",
        "10.5555/j00.0001",
        "10.5555/j00.00012",
        "10.5555/j00.000",
        "10.5555/twice",
    ]
    edits = {
        (label, old): new for old, new in zip(shared, wanted) for label in ("open", "srcA", "srcB")
    }
    edits[("srcA", only_a[0])] = "10.5555/twice"
    rewrite_dois(corpus, edits)
    pipeline.run(config)
    layout = Layout(config.out_dir)
    holders = classified_holders(layout, config)
    assert [label for label, _ in holders["10.5555/twice"]].count("srcA") == 2
    with open(layout.doi_index, encoding="ascii") as fh:
        index = fh.read().splitlines()
    assert index == sorted(index)
    assert index == [artifacts.dump_canonical(json.loads(line)) for line in index]

    calls = counting_decodes(monkeypatch)
    for doi in wanted:
        assert holders.get(doi), doi
        calls.clear()
        trace = pipeline.explain_doi(config, doi)
        assert trace.splitlines()[0] == f"DOI {doi}"
        shown = [tuple(block[0][1:].split("] native_id=")) for block in explain_blocks(trace)]
        assert shown == holders[doi], doi
        assert calls == [label for label, _ in holders[doi]], doi


def test_explain_without_any_doi_in_the_corpus(tmp_path, monkeypatch):
    """No record has a DOI, so the index is empty: every lookup is an
    UnknownDoi, and nothing is decoded."""
    corpus, config = small_corpus(tmp_path)
    for label in ("open", "srcA", "srcB"):
        path = corpus / f"articles_{label}.ndjson"
        objs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        lines = [json.dumps({**obj, "doi": None}) for obj in objs]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    pipeline.run(config)
    layout = Layout(config.out_dir)
    assert os.path.getsize(layout.doi_index) == 0
    calls = counting_decodes(monkeypatch)
    for doi in ("10.5555/j00.000000", "10.9999/not-in-corpus"):
        with pytest.raises(UnknownDoi):
            pipeline.explain_doi(config, doi)
    assert calls == []


def test_explain_refuses_a_tree_without_its_doi_index(full_tree):
    config = full_tree
    layout = Layout(config.out_dir)
    doi, _ = attributed_doi(layout)
    raises_naming_each_missing([layout.doi_index], lambda: pipeline.explain_doi(config, doi))


def traced_verdicts(trace):
    """(source, native_id, role) -> the agreement IDs a trace shows it
    TA-enabled by, or () for `not TA-enabled`."""
    verdicts = {}
    for block in explain_blocks(trace):
        label, native_id = block[0][1:].split("] native_id=")
        role = None
        for line in block:
            if line.startswith("  role "):
                role = line.split()[1].rstrip(":")
            elif line.startswith("    TA-enabled via "):
                verdicts[(label, native_id, role)] = tuple(line[19:].split(", "))
            elif line == "    not TA-enabled":
                verdicts[(label, native_id, role)] = ()
    return verdicts


def assert_trace_agrees_with_attributions(trace, layout, config):
    rows = {}
    for role in config.roles:
        with open(layout.attributions(role), encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                ids = tuple(row["agreement_ids"].split("|")) if row["ta_enabled"] == "true" else ()
                rows[(row["source"], row["native_id"], role)] = ids
    verdicts = traced_verdicts(trace)
    assert verdicts
    for key, ids in verdicts.items():
        assert rows[key] == ids, key


def rewrite_durations(path, windows):
    """Set the window of each agreement ID in `windows` in a durations file."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[1:3] = windows.get(row[0], row[1:3])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_explain_never_serves_a_stale_registry(tmp_path, monkeypatch):
    """`explain` builds the agreement, crosswalk and institution indexes
    once per state of their files, and again whenever their bytes change,
    also when a rewrite keeps every file's size."""
    corpus, config = small_corpus(tmp_path)
    pipeline.run(config)
    layout = Layout(config.out_dir)
    builds = []
    build = pipeline._attribution_indexes

    def counting(lay):
        builds.append(lay)
        return build(lay)

    monkeypatch.setattr(pipeline, "_attribution_indexes", counting)
    monkeypatch.setattr(pipeline, "_explain_registry", None)

    def explain(dois):
        """Each DOI's trace, and how often `explain` built the indexes."""
        built = len(builds)
        traces = {doi: pipeline.explain_doi(config, doi) for doi in dois}
        return traces, len(builds) - built

    doi, _ = attributed_doi(layout)
    first, built = explain([doi, doi])
    assert built == 1
    before = first[doi]
    enabled_by = {a for ids in traced_verdicts(before).values() for a in ids}
    assert enabled_by

    # every agreement that enabled the article now ends before it
    rewrite_durations(config.durations, {a: ["2010-01-01", "2010-12-31"] for a in enabled_by})
    pipeline.run(config, ["ingest", "classify", "reconcile", "attribute"])
    after, built = explain([doi])
    assert built == 1
    assert "TA-enabled via" not in after[doi] and "    not TA-enabled" in after[doi]
    assert_trace_agrees_with_attributions(after[doi], layout, config)

    # two agreement IDs of one length swap windows: agreements.json keeps its size
    with open(config.durations, encoding="utf-8", newline="") as fh:
        windows = {row[0]: row[1:3] for row in list(csv.reader(fh))[1:]}
    a, b = next(
        (a, b) for a in sorted(windows) for b in sorted(windows)
        if a < b and len(a) == len(b) and windows[a] != windows[b]
    )
    size = os.path.getsize(layout.agreements)
    rewrite_durations(config.durations, {a: windows[b], b: windows[a]})
    pipeline.run(config, ["ingest", "classify", "reconcile", "attribute"])
    assert os.path.getsize(layout.agreements) == size
    swapped, built = explain(sorted(classified_holders(layout, config)))
    assert built == 1
    monkeypatch.setattr(pipeline, "_explain_registry", None)
    assert explain(swapped)[0] == swapped  # as a process that never explained before
    naming = [trace for trace in swapped.values() if a in trace or b in trace]
    assert naming
    for trace in naming:
        assert_trace_agrees_with_attributions(trace, layout, config)


@pytest.mark.parametrize("works", [300, 1200])
def test_explain_reads_only_its_hit_lines(tmp_path, monkeypatch, works):
    """Per lookup, the bytes read from the classified files are the lines
    of the DOI's records, plus at most one read buffer each, whatever the
    size of the corpus."""
    corpus = tmp_path / "corpus"
    fixture.generate(fixture.FixtureParams(seed=3, n_articles=works), str(corpus))
    config = replace(load_config(str(corpus / "config.json")), workers=1)
    pipeline.run(config)
    layout = Layout(config.out_dir)
    classified = {layout.classified(s.label) for s in config.sources}
    line_bytes = {}
    for path in classified:
        with open(path, "rb") as fh:
            line_bytes[path] = {json.loads(line)["record"]["native_id"]: len(line) for line in fh}

    read = Counter()

    class CountingFileIO(io.FileIO):
        def readinto(self, buffer):
            n = super().readinto(buffer)
            read[self.name] += n or 0
            return n

        def readall(self):
            data = super().readall()
            read[self.name] += len(data)
            return data

    def counting_open(path, mode="r", **kwargs):
        if path not in classified:
            return open(path, mode, **kwargs)
        buffered = io.BufferedReader(CountingFileIO(path))
        return buffered if mode == "rb" else io.TextIOWrapper(buffered, **kwargs)

    monkeypatch.setattr(pipeline.artifacts, "open", counting_open, raising=False)
    holders = classified_holders(layout, config)
    for doi in sorted(holders)[:: max(1, len(holders) // 40)]:
        read.clear()
        pipeline.explain_doi(config, doi)
        hits = holders[doi]
        hit_bytes = sum(line_bytes[layout.classified(label)][nid] for label, nid in hits)
        assert hit_bytes <= sum(read.values()) <= hit_bytes + len(hits) * io.DEFAULT_BUFFER_SIZE


# --- CLI surface ------------------------------------------------------------------

def test_cli_end_to_end(tmp_path, capsys):
    from hybridoa.cli import main

    corpus = tmp_path / "c"
    rc = main(["gen-fixture", "--out", str(corpus), "--seed", "3", "--articles", "250"])
    assert rc == 0
    rc = main(["run", "--config", str(corpus / "config.json"), "--workers", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ingest" in out and "compare" in out
    layout = Layout(str(corpus / "out"))
    assert os.path.exists(layout.indicators)


def test_cli_single_stage_and_dependency_error(tmp_path, capsys):
    from hybridoa.cli import main

    corpus = tmp_path / "c"
    main(["gen-fixture", "--out", str(corpus), "--seed", "3", "--articles", "250"])
    rc = main(["aggregate", "--config", str(corpus / "config.json")])
    assert rc == 2
    err = capsys.readouterr().err
    report = json.loads(err.strip().splitlines()[-1])
    assert report["error"] == "DependencyError"
    rc = main(["ingest", "--config", str(corpus / "config.json"), "--workers", "1"])
    assert rc == 0


@pytest.mark.parametrize("stages", ["", ","])
def test_cli_stages_that_name_no_stage_exit_2_and_write_nothing(tmp_path, capsys, stages):
    from hybridoa.cli import main

    corpus = tmp_path / "c"
    main(["gen-fixture", "--out", str(corpus), "--seed", "3", "--articles", "50"])
    capsys.readouterr()
    rc = main(["run", "--config", str(corpus / "config.json"), "--stages", stages])
    assert rc == 2
    report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert report["error"] == "DependencyError"
    assert not os.path.exists(corpus / "out")


@pytest.mark.parametrize("workers", ["two", True, 2.5])
def test_cli_workers_that_is_not_an_integer_exits_2(tmp_path, capsys, workers):
    """`workers` in a config file is an integer or null: a string, a
    boolean or a float is a ConfigError, reported as JSON with exit 2."""
    from hybridoa.cli import main

    corpus = tmp_path / "c"
    main(["gen-fixture", "--out", str(corpus), "--seed", "3", "--articles", "50"])
    capsys.readouterr()
    raw = json.loads((corpus / "config.json").read_text(encoding="utf-8"))
    (corpus / "config.json").write_text(json.dumps({**raw, "workers": workers}), encoding="utf-8")
    rc = main(["run", "--config", str(corpus / "config.json")])
    assert rc == 2
    report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert report["error"] == "ConfigError" and "workers" in report["detail"]
    assert not os.path.exists(corpus / "out")


@pytest.mark.parametrize(
    "flag, in_config",
    [(["--workers", "0"], None), (["--workers", "-3"], None), ([], 0)],
    ids=["flag-0", "flag-minus-3", "config-0"],
)
def test_cli_workers_below_one_exits_2(tmp_path, capsys, flag, in_config):
    """A worker count below 1, from the flag or the config file, is a
    ConfigError, reported as JSON with exit 2, and nothing is written."""
    from hybridoa.cli import main

    corpus = tmp_path / "c"
    main(["gen-fixture", "--out", str(corpus), "--seed", "3", "--articles", "50"])
    capsys.readouterr()
    if in_config is not None:
        raw = json.loads((corpus / "config.json").read_text(encoding="utf-8"))
        (corpus / "config.json").write_text(
            json.dumps({**raw, "workers": in_config}), encoding="utf-8"
        )
    rc = main(["run", "--config", str(corpus / "config.json"), *flag])
    assert rc == 2
    report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert report["error"] == "ConfigError" and "workers" in report["detail"]
    assert not os.path.exists(corpus / "out")


@pytest.mark.parametrize(
    "key, value",
    [("years", [2019]), ("years", [2019, 2020, 2021]), ("roles", []), ("audit_sample_size", -5)],
    ids=["years-one", "years-three", "roles-empty", "audit-negative"],
)
def test_cli_config_shapes_a_run_cannot_use_exit_2(tmp_path, capsys, key, value):
    """A year window that is not two years, an empty role list and a
    negative audit sample size are ConfigErrors, reported as JSON with
    exit 2 before any stage runs: nothing is written."""
    from hybridoa.cli import main

    corpus = tmp_path / "c"
    main(["gen-fixture", "--out", str(corpus), "--seed", "3", "--articles", "100"])
    capsys.readouterr()
    raw = json.loads((corpus / "config.json").read_text(encoding="utf-8"))
    (corpus / "config.json").write_text(json.dumps({**raw, key: value}), encoding="utf-8")
    rc = main(["run", "--config", str(corpus / "config.json"), "--workers", "1"])
    assert rc == 2
    report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert report["error"] == "ConfigError" and key in report["detail"]
    assert not os.path.exists(corpus / "out")


def test_cli_explain(tmp_path, capsys):
    from hybridoa.cli import main

    corpus = tmp_path / "c"
    main(["gen-fixture", "--out", str(corpus), "--seed", "3", "--articles", "400"])
    main(["run", "--config", str(corpus / "config.json"), "--workers", "1"])
    capsys.readouterr()
    layout = Layout(str(corpus / "out"))
    doi, _ = attributed_doi(layout)
    rc = main(["explain", "--config", str(corpus / "config.json"), doi])
    assert rc == 0
    assert "TA-enabled via" in capsys.readouterr().out
