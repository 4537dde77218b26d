"""Print one sha256 over the outputs of a benchmark workload.

Two trees whose digests are equal gave the same outputs, so a change meant
to keep every result can be checked against its parent:

    python3 tools/digest.py --workload desk --req-seed 1

``--req-seed`` also takes a comma list, ``--req-seed 1,2,3``, and then prints
the lines of each seed in turn, each in the single-seed format.

Run it from the root of each checkout; it imports the coptw sources of the
checkout it lives in.  The rows are the benchmark's own (``build`` and
``ROWS`` of ``perfbench/run.py``), run once in row order in this process.
A ``solve`` row (big, desk) contributes its ``triplet_scores``, best score,
``best_params``, routes and served set; an ``exact_solve`` row (oracle)
its score, routes, ``explored_nodes`` and whether it is proven, under the
benchmark's time limit per row.

For ``oracle`` a second line gives the sha256 of the same records without
``explored_nodes``: a change to the search's bound that only prunes
subtrees unable to beat the incumbent keeps this line and changes the
first.  ``exact_solve`` starts from the heuristic's solution and returns its
routes wherever it is optimal, so a change to the heuristic can move both
oracle lines; compare the oracle's scores and proofs for such a change.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (perfbench/run.py puts this checkout's src/ on the path)

from coptw import heuristic, oracle  # noqa: E402


def record(workload: str, key: str, inst) -> dict:
    if workload == "oracle":
        result = oracle.exact_solve(inst, oracle.OracleConfig(time_limit=run.ORACLE_LIMIT))
        return {
            "row": key,
            "score": result.best_score,
            "routes": result.best_solution.routes,
            "nodes": result.explored_nodes,
            "proven": result.proven_optimal,
        }
    result = heuristic.solve(inst, workers=1)
    return {
        "row": key,
        "triplet_scores": result.triplet_scores,
        "score": result.best_score,
        "params": dataclasses.astuple(result.best_params),
        "routes": result.best_solution.routes,
        "served": sorted(result.best_solution.served(inst)),
    }


def sha256(records: list[dict]) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def seeds(text: str) -> list[int]:
    try:
        return [int(word) for word in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected seeds like 1 or 1,2,3, got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(run.ROWS), required=True)
    parser.add_argument("--req-seed", type=seeds, default=[1],
                        help="requirement draw seed, or a comma list of seeds")
    args = parser.parse_args(argv)
    for req_seed in args.req_seed:
        rows = run.build(args.workload, req_seed)
        records = [record(args.workload, key, inst) for key, inst in rows]
        label = f"{args.workload} req-seed {req_seed} ({len(rows)} rows)"
        print(f"{sha256(records)}  {label}", flush=True)
        if args.workload == "oracle":
            no_nodes = [{k: v for k, v in r.items() if k != "nodes"} for r in records]
            print(f"{sha256(no_nodes)}  {label} without nodes", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
