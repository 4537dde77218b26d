"""The benchmark tracer wraps module names the package must keep and reads
the shapes of their results."""

import ast
import importlib
from pathlib import Path

from coptw import SavingParams, build_arc_set, build_distance_matrix, calc_saving_pairs
from coptw.scheduling import TravelTimes, relax_starts

from conftest import make_instance

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


def test_observed_result_shapes():
    # the tracer counts savings.pairs with len(result) and unpacks
    # relax_starts as (status, s, returns, rounds)
    inst = make_instance(
        [
            (1.0, 0.0, 0.0, 5.0, 0.0, 900.0, 1),
            (0.0, 2.0, 0.0, 6.0, 0.0, 900.0, 1),
            (500.0, 0.0, 0.0, 50.0, 980.0, 990.0, 1),  # cannot return in time
        ],
        team_size=2,
        t_max=1000.0,
    )
    d = build_distance_matrix(inst)
    arcs = build_arc_set(inst, d)
    pairs = calc_saving_pairs(inst, d, arcs, SavingParams(0.7, 0.7, 0.7))
    feasible = [(i, j) for i in range(1, 4) for j in range(1, 4)
                if i != j and arcs.feasible[i, j]]
    assert type(pairs) is list
    assert len(pairs) == len(feasible) == 2
    assert sorted(pairs) == feasible

    result = relax_starts(TravelTimes(inst, d), [[1, 2], []])
    assert isinstance(result, tuple) and len(result) == 4
    status, s, returns, rounds = result
    assert status == "ok" and len(s) == inst.n_vertices
    assert len(returns) == inst.team_size and isinstance(rounds, int)
