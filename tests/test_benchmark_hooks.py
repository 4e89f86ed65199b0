"""The engine attributes the benchmark's tracer replaces must exist, and
the engine must call them.

The traced benchmark wraps engine functions by module attribute (see
`benchmark/tracer.py`), so a refactor that renames or inlines one of them
breaks only the traced run, and one that stops calling it through that
attribute makes its traced figures read 0. These tests read the tracer's
table, without importing or changing the tracer, and fail first.
"""

import ast
import importlib
import json
import os
from collections import Counter
from dataclasses import replace

from hybridoa import artifacts, fixture, pipeline
from hybridoa.artifacts import Layout
from hybridoa.config import load_config

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmark", "tracer.py")


def wrapped_table():
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmark/tracer.py defines no WRAPPED table")


def test_every_wrapped_function_is_an_engine_module_attribute():
    table = wrapped_table()
    assert table
    for module_name, attr, _ in table:
        module = importlib.import_module(f"hybridoa.{module_name}")
        assert callable(getattr(module, attr, None)), f"hybridoa.{module_name}.{attr}"


def test_pool_and_hash_hooks_exist():
    assert isinstance(pipeline.ProcessPoolExecutor, type)
    assert callable(artifacts.sha256_file)


def counting(fn, key, calls):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return counted


def test_the_engine_calls_every_function_the_tracer_wraps(tmp_path, monkeypatch):
    """A batch at workers=1 and one `explain_doi` call each wrapped function
    through its module attribute. `artifacts.sha256_file` is the exception:
    it runs only for an input a stage did not read to its end."""
    calls = Counter()
    for module_name, attr, _ in wrapped_table():
        module = importlib.import_module(f"hybridoa.{module_name}")
        key = f"{module_name}.{attr}"
        monkeypatch.setattr(module, attr, counting(getattr(module, attr), key, calls))
    corpus = tmp_path / "corpus"
    fixture.generate(fixture.FixtureParams(seed=7, n_articles=300), str(corpus))
    config = replace(load_config(str(corpus / "config.json")), workers=1)
    pipeline.run(config)
    with open(Layout(config.out_dir).doi_index, encoding="utf-8") as fh:
        doi = json.loads(fh.readline())[0]
    pipeline.explain_doi(config, doi)

    expected = {f"{module_name}.{attr}" for module_name, attr, _ in wrapped_table()}
    assert expected - set(calls) <= {"artifacts.sha256_file"}
