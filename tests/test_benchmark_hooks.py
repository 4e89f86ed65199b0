"""The engine attributes the benchmark's tracer replaces must exist.

The traced benchmark wraps engine functions by module attribute (see
`benchmark/tracer.py`), so a refactor that renames or inlines one of them
breaks only the traced run. This test reads the tracer's table, without
importing or changing the tracer, and fails first.
"""

import ast
import importlib
import os

from hybridoa import artifacts, pipeline

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
