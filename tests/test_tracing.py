"""The benchmark tracer wraps module names the package must keep."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def wrapped_names():
    # read, not imported: the tracer is part of the benchmark, not the package
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {TRACING}")


def test_every_wrapped_name_resolves():
    names = wrapped_names()
    assert ("heuristic", "relax_starts", "scheduling.relax") in names
    for module_name, attr, _ in names:
        module = importlib.import_module(f"coptw.{module_name}")
        assert callable(getattr(module, attr, None)), f"coptw.{module_name}.{attr}"
