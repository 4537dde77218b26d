#!/usr/bin/env python3
"""coptw benchmark: fixed workloads, checked outputs, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload big --seed 1 --seconds 20 --trace 0

Every workload runs in this one process with ``solve(..., workers=1)`` as a
closed loop: the next row starts only after the previous one returned.  A
pass runs every row of the workload once; passes repeat until ``--seconds``
have gone by, and at least one pass always runs.

  big     c100_1 with all 100 customers and P=12, one ``solve`` per pass.
  desk    the 48 desk rows of the acceptance suite, each ``solve`` then
          ``check_solution``.
  oracle  ``exact_solve`` on the 16 desk rows at 10-12 customers that the
          search proves within the acceptance suite's limits at requirement
          seed 1.  The heuristic does not run.

``--seed`` shuffles the order of the rows in every pass.  The requirement
draws come from ``--req-seed`` (default 1), the seed the references in
``references.json`` were recorded with; on any other requirement seed every
solution is still verified by the checker, but scores are not compared.

A row fails when the checker rejects its solution, its score differs from
the reference or from the same row in an earlier pass, a heuristic score
exceeds a proven optimum, or an oracle row is not proven.  Failures are
counted, never fatal.

``--trace 0`` prints the end-to-end metrics: ``pass_ref`` (median cost of
one pass in reference units, which cancel the host's speed drift; see
speed.py), ``score_total`` (sum of best scores over a pass) and ``setup_s``
(median seconds from starting a fresh process to the end of its set-up:
importing coptw and building the workload's instances).  ``--trace 1`` runs one untraced pass, then traced
passes (see tracing.py), and prints the per-layer metrics; traced numbers
never enter the end-to-end ones.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "data" / "desk"
OUT = ROOT / ".perfbench_out"

if not (ROOT / "src" / "coptw" / "__init__.py").is_file() or not DATA.is_dir():
    sys.exit(f"perfbench: {ROOT} holds no coptw sources (src/coptw, data/desk)")
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from coptw import heuristic, instances, oracle, scheduling  # noqa: E402

if not Path(heuristic.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: imported coptw from {heuristic.__file__}, not from {ROOT}/src")

from speed import SpeedProbe  # noqa: E402
from tracing import Tracer, layer_times  # noqa: E402

SMALL = ("c100_1", "r100_1", "rc100_1", "pr01_1")
DESK_GROUPS = (
    (SMALL, (10, 11, 12)),
    (("pr11_1",), (19, 20, 21)),
    (("c200_1", "r200_1", "rc200_1"), (24, 25, 26)),
)
TEAM_SIZES = (3, 4)
ROWS = {
    "big": [("c100_1", 100, 12)],
    "desk": [
        (name, n, p)
        for names, sizes in DESK_GROUPS
        for name in names
        for n in sizes
        for p in TEAM_SIZES
    ],
    "oracle": [
        ("c100_1", 10, 3), ("c100_1", 11, 3), ("c100_1", 12, 3),
        ("r100_1", 10, 3), ("r100_1", 10, 4), ("r100_1", 11, 3),
        ("r100_1", 11, 4), ("r100_1", 12, 3), ("r100_1", 12, 4),
        ("rc100_1", 10, 3), ("rc100_1", 10, 4), ("rc100_1", 11, 3),
        ("rc100_1", 12, 3),
        ("pr01_1", 10, 3), ("pr01_1", 11, 3), ("pr01_1", 12, 3),
    ],
}
ORACLE_LIMIT = 40.0  # seconds per row; the slowest row proves in about 5 s
SETUP_RUNS = 9
R_MAX = 3

# the verifier as imported, before any tracing wrapper replaces the module name
check_solution = scheduling.check_solution
clock = time.perf_counter


def build(workload: str, req_seed: int) -> list[tuple[str, object]]:
    """Parse, truncate and augment the workload's rows: its set-up."""
    raws = {}
    rows = []
    for name, n, team_size in ROWS[workload]:
        if name not in raws:
            raws[name] = instances.parse_benchmark((DATA / f"{name}.txt").read_text())
        raw = instances.truncate(raws[name], n)
        inst = instances.augment(raw, req_seed, R_MAX, team_size=team_size)
        rows.append((f"{name} {n} {team_size}", inst))
    return rows


def operation(workload: str):
    """The timed call of one row, looked up through the module at call time
    so the traced run sees its wrappers."""
    if workload == "oracle":
        config = oracle.OracleConfig(time_limit=ORACLE_LIMIT)
        return lambda inst: (oracle.exact_solve(inst, config), None)
    if workload == "desk":
        def solve_and_check(inst):
            result = heuristic.solve(inst, workers=1)
            return result, scheduling.check_solution(inst, result.best_solution)
        return solve_and_check
    return lambda inst: (heuristic.solve(inst, workers=1), None)


class Ledger:
    """Counts attempted and failed rows and remembers each row's outcome."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, tuple] = {}

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        print(f"FAIL {key}: {why}", file=sys.stderr)

    def verify(self, key: str, inst, out) -> float:
        """Check one row's output; returns its score for the pass total."""
        result, report = out
        score, solution = result.best_score, result.best_solution
        ref = self.refs.get(key, {})
        problems = []
        if isinstance(result, oracle.OracleResult):
            outcome = (score, result.explored_nodes)
            if not result.proven_optimal:
                problems.append("not proven optimal")
            if "optimum" in ref and score != ref["optimum"]:
                problems.append(f"optimum {score} != reference {ref['optimum']}")
            if ref.get("score", 0.0) > score:
                problems.append(f"reference heuristic score {ref['score']} above optimum {score}")
        else:
            outcome = (score,)
            if "score" in ref and score != ref["score"]:
                problems.append(f"score {score} != reference {ref['score']}")
            if score > ref.get("optimum", score):
                problems.append(f"score {score} above proven optimum {ref['optimum']}")
        if report is None:
            report = check_solution(inst, solution)
        if not report.feasible:
            problems.append(f"checker rejects: {report.violations[:3]}")
        if scheduling.objective(inst, solution) != score:
            problems.append("reported score differs from the solution's objective")
        if self.first.setdefault(key, outcome) != outcome:
            problems.append(f"outcome {outcome} differs from earlier pass {self.first[key]}")
        if problems:
            self.fail(key, "; ".join(problems))
        return score


def run_pass(rows, order, call, ledger: Ledger, tracer: Tracer | None = None,
             probe: SpeedProbe | None = None):
    """Run the rows once in `order`; returns (timed seconds, score total).
    The timed seconds leave out what the probe took from the rows."""
    seconds = score_total = 0.0
    for i in order:
        key, inst = rows[i]
        ledger.attempted += 1
        try:
            spent = probe.spent if probe else 0.0
            t0 = clock()
            if tracer is None:
                out = call(inst)
            else:
                out = tracer.run_root("bench.row", lambda: call(inst))
            seconds += clock() - t0 - ((probe.spent - spent) if probe else 0.0)
        except Exception:
            traceback.print_exc()
            ledger.fail(key, "raised")
            continue
        score_total += ledger.verify(key, inst, out)
    return seconds, score_total


def run_passes(rows, call, ledger, rng, budget, tracer=None, probe=None):
    """Closed loop over whole passes until `budget` seconds have gone by.
    Each pass gives (seconds, score total), plus with a probe the mean
    reference-unit time during the pass and its sample count."""
    passes = []
    start = clock()
    while not passes or clock() - start < budget:
        order = list(range(len(rows)))
        rng.shuffle(order)
        result = run_pass(rows, order, call, ledger, tracer, probe)
        passes.append(result + probe.take() if probe else result)
    return passes


def monotonic() -> float:
    """A clock that reads the same in every process of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_times(args) -> list[float]:
    """Seconds from starting a fresh process to the moment it has imported
    coptw and built the rows, where its first timed call would begin.  The
    child reports that moment itself, so its exit and the parent's wait for
    it are not counted."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--req-seed", str(args.req_seed),
    ]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = monotonic()
        child = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        times.append(float(child.stdout) - t0)
    return times


def environment(samples: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "process": "every row in one process, solve(workers=1), closed loop",
        "samples": samples,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, rows, call, ledger, rng):
    setups = setup_times(args)
    with SpeedProbe() as probe:
        passes = run_passes(rows, call, ledger, rng, args.seconds, probe=probe)
    seconds, totals, unit_s, unit_n = zip(*passes)
    pass_s = statistics.median(seconds)
    metrics = {
        "pass_ref": metric(statistics.median(s / u for s, u in zip(seconds, unit_s)), "ref"),
        "score_total": metric(statistics.median(totals), "score"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    units = sum(unit_n)
    samples = {"pass_ref": len(passes), "reference units": units,
               "score_total": len(passes), "setup_s": len(setups)}
    alias = {
        "big": f"solve_s {pass_s:.4f} s",
        "desk": f"solves_per_s {len(rows) / pass_s:.4f} 1/s",
        "oracle": f"prove_s {pass_s:.4f} s",
    }[args.workload]
    unit_ms = 1000 * sum(u * n for u, n in zip(unit_s, unit_n)) / units
    print(f"{args.workload}: {alias} (median of {len(passes)} passes of {len(rows)} rows); "
          f"reference unit {unit_ms:.3f} ms (mean of {units}); "
          f"setup runs {[round(t, 4) for t in setups]}")
    return metrics, samples


def layer_metrics(tracer: Tracer, traced, untraced_s: float) -> tuple[dict, bool]:
    """Per-layer metrics per traced pass, and whether every span passed
    the self-time check."""
    calls, total, own, bad = layer_times(tracer.spans)
    counts = tracer.counts
    p = len(traced)
    traced_s = [s for s, _ in traced]
    relax_calls = calls["scheduling.relax"]
    search_s = total["oracle.search"]
    values = {
        "instances.parse_s": (total["instances.parse"], "s"),
        "instances.augment_s": (total["instances.augment"], "s"),
        "geometry.calls": (calls["geometry.build"] / p, "count"),
        "geometry.build_s": (total["geometry.build"] / p, "s"),
        "savings.calls": (calls["savings.pairs"] / p, "count"),
        "savings.pairs": (counts["savings_pairs"] / p, "count"),
        "savings.build_s": (total["savings.pairs"] / p, "s"),
        "scheduling.relax_calls": (relax_calls / p, "count"),
        "scheduling.relax_s": (total["scheduling.relax"] / p, "s"),
        "scheduling.relax_rounds": (counts["relax_rounds"] / p, "count"),
        "scheduling.relax_visits": (counts["relax_visits"] / p, "count"),
        "scheduling.relax_incremental_calls": (counts["relax_incremental"] / p, "count"),
        "scheduling.relax_full_calls": (counts["relax_full"] / p, "count"),
        "scheduling.relax_ok": (counts["relax_ok"] / p, "count"),
        "scheduling.relax_window": (counts["relax_window"] / p, "count"),
        "scheduling.relax_horizon": (counts["relax_horizon"] / p, "count"),
        "scheduling.relax_deadlock": (counts["relax_deadlock"] / p, "count"),
        "scheduling.relax_useful_ratio": (
            counts["relax_ok"] / relax_calls if relax_calls else 0.0, "ratio"),
        "scheduling.check_s": (total["scheduling.check"] / p, "s"),
        "heuristic.construct_s": (total["heuristic.construct"] / p, "s"),
        "heuristic.construct_self_s": (own["heuristic.construct"] / p, "s"),
        "heuristic.improve_s": (total["heuristic.improve"] / p, "s"),
        "heuristic.improve_self_s": (own["heuristic.improve"] / p, "s"),
        "heuristic.triplets": (calls["heuristic.construct"] / p, "count"),
        "heuristic.distinct_solutions": (len(tracer.solutions) / p, "count"),
        "oracle.search_s": (search_s / p, "s"),
        "oracle.self_s": (own["oracle.search"] / p, "s"),
        "oracle.nodes": (counts["oracle_nodes"] / p, "count"),
        "oracle.nodes_per_s": (counts["oracle_nodes"] / search_s if search_s else 0.0, "1/s"),
        "trace.overhead_ratio": (statistics.median(traced_s) / untraced_s, "ratio"),
        # self times of the row spans sum to the rows' traced wall time
        "trace.self_share": (
            (sum(own.values()) - total["bench.setup"]) / sum(traced_s), "ratio"),
    }
    wall = sum(traced_s)
    print(f"{'layer':<22}{'calls/pass':>12}{'total_s/pass':>14}{'self_s/pass':>13}{'self share':>12}")
    for name in sorted(own, key=own.get, reverse=True):
        if not calls[name] or name in ("bench.setup", "instances.parse", "instances.augment"):
            continue
        print(f"{name:<22}{calls[name] / p:>12.1f}{total[name] / p:>14.4f}"
              f"{own[name] / p:>13.4f}{own[name] / wall:>12.1%}")
    print(f"traced pass {statistics.median(traced_s):.4f} s vs untraced {untraced_s:.4f} s; "
          f"{len(tracer.spans)} spans, {bad} failing the self-time check")
    return {name: metric(v, unit) for name, (v, unit) in values.items()}, bad == 0


def traced(args, rows, call, ledger, rng):
    untraced_s, _ = run_pass(rows, range(len(rows)), call, ledger)
    tracer = Tracer()
    with tracer.installed():
        rows = tracer.run_root("bench.setup", lambda: build(args.workload, args.req_seed))
        passes = run_passes(rows, call, ledger, rng, args.seconds, tracer)
    metrics, spans_ok = layer_metrics(tracer, passes, untraced_s)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    samples = {"traced passes": len(passes), "untraced passes": 1}
    return metrics, samples, spans_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(ROWS), required=True)
    parser.add_argument("--seed", type=int, default=1, help="row order seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--req-seed", type=int, default=1, help="requirement draw seed")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    rows = build(args.workload, args.req_seed)
    if args.setup_only:
        print(repr(monotonic()))
        return 0
    with open(HERE / "references.json") as fh:
        recorded = json.load(fh)
    refs = recorded["rows"] if recorded["req_seed"] == args.req_seed else {}
    ledger = Ledger(refs)
    rng = random.Random(args.seed)
    call = operation(args.workload)
    if args.trace:
        metrics, samples, spans_ok = traced(args, rows, call, ledger, rng)
    else:
        metrics, samples = end_to_end(args, rows, call, ledger, rng)
        spans_ok = True
    print("env " + json.dumps(environment(samples)))
    print(f"failed_frac {ledger.failed / ledger.attempted:.4f} "
          f"({ledger.failed} of {ledger.attempted} rows failed; "
          f"references {'compared' if refs else 'absent for this requirement seed'})")
    print(json.dumps({
        "correct": ledger.failed == 0 and spans_ok,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
