"""Solver benchmark: end-to-end metrics per workload, or a traced layer pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see `workloads.py`): dense-sat, large-sparse, cbs-rooms. The seed
picks the instances; the same seed gives the same instances. Every run goes
through the public API (`mapfsat.ALGORITHMS[algo](instance, SolverConfig)`),
single-process, and every solved run is re-checked by `check.py` and against
the pinned reference SOC.

`--trace 0` repeats passes over the drawn runs while `--seconds` allows (at
least one) and reports the end-to-end metrics, with every time scaled to a
reference host by the probe in `hostspeed.py`. `--trace 1` makes one traced
pass over all runs, with an untraced twin of every third run, and reports
the per-layer metrics and `trace.overhead`.

Per-run records, a summary and (traced) the spans are written under
`perfbench/out/`. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when every
check passed, 1 when a run failed or a check did not hold, 2 on a usage error
or when the library sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path as FsPath

from hostspeed import HostClock, probe

HERE = FsPath(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 5        # fresh interpreters timing set-up
TRACE_BASELINE_EVERY = 3

SOLVED = "solved"       # the status values of mapfsat.solvers
TIMEOUT = "timeout"
ERROR = "error"         # the solver raised
WRONG = "wrong"         # an answer failed a check


@dataclass
class RunRecord:
    workload: str
    instance: str
    agents: int
    algo: str
    pass_index: int
    traced: bool
    status: str
    wall_s: float           # as measured on this host
    ref_s: float            # scaled to the reference host (hostspeed.py)
    soc: int | None
    sat_calls: int
    collisions: int
    iterations: int
    error: str = ""

    @property
    def failed(self) -> bool:
        return self.status in (ERROR, WRONG)


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(name: str, seed: int):
    """Import the library, load the reference table and draw the instances."""
    src = ROOT / "src"
    if not (src / "mapfsat" / "__init__.py").is_file():
        raise FileNotFoundError(f"library sources not found under {src}")
    sys.path.insert(0, str(src))
    import workloads

    if name not in workloads.WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    return workload, workload.generate(seed, workloads.load_reference())


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of one fresh interpreter running this file, in reference seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def run_one(workload, bench, entry, algo, pass_index, tracer=None) -> RunRecord:
    from mapfsat import ALGORITHMS, INFEASIBLE, SolverConfig

    from check import check_outcome

    config = SolverConfig(timeout_s=workload.limit_s)
    solve = ALGORITHMS[algo]
    # free the last run's cyclic garbage outside the timed region, so that
    # neither its collection time nor its memory lands on this run
    gc.collect()
    rec = RunRecord(workload.name, bench.id, bench.instance.k, algo, pass_index,
                    tracer is not None, ERROR, 0.0, 0.0, None, 0, 0, 0)
    # probing during a traced run would add its time to the spans
    clock = HostClock(sample=tracer is None)
    try:
        with clock:
            if tracer is None:
                out = solve(bench.instance, config)
            else:
                out = tracer.run(f"{bench.id}/{algo}", solve, bench.instance, config)
    except Exception as exc:  # one failing run is one failed record
        out, rec.error = None, type(exc).__name__
        print(f"{bench.id} {algo}: raised {rec.error}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    rec.wall_s, rec.ref_s = clock.wall_s, clock.ref_s
    if out is None:
        return rec
    rec.status, rec.soc = out.status, out.soc
    rec.sat_calls = out.stats.sat_calls
    rec.collisions = out.stats.conflicts
    rec.iterations = len(out.stats.iterations)
    problems = []
    if out.solved:
        problems = check_outcome(bench, out)
        if out.soc != entry["soc"]:
            problems.append(f"soc {out.soc} != reference {entry['soc']}")
    elif out.status == INFEASIBLE:
        problems.append(f"reported infeasible; reference soc is {entry['soc']}")
    if problems:
        rec.status, rec.error = WRONG, "; ".join(problems)
        print(f"{bench.id} {algo}: {rec.error}", file=sys.stderr)
    return rec


def disagreements(records: list[RunRecord]) -> list[str]:
    """Instances on which solved runs report more than one SOC."""
    socs: dict[str, set] = {}
    for r in records:
        if r.status == SOLVED:
            socs.setdefault(r.instance, set()).add(r.soc)
    return [f"{inst}: algorithms disagree on soc {sorted(s)}"
            for inst, s in socs.items() if len(s) > 1]


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload, records: list[RunRecord], setup_s: list[float]) -> dict:
    """Metric name -> (value, unit, sample count)."""
    penalty = 2 * workload.limit_s
    # an unsolved run sorts above every finite time; PAR-2 charges it twice the limit
    walls = [r.ref_s if r.status == SOLVED else math.inf for r in records]
    n = len(records)
    return {
        "solved_share": (sum(r.status == SOLVED for r in records) / n, "share", n),
        "solve_s.p50": (min(nearest_rank(walls, 0.5), penalty), "s", n),
        "solve_s.p90": (min(nearest_rank(walls, 0.9), penalty), "s", n),
        "par2_s": (statistics.fmean(min(w, penalty) for w in walls), "s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
    }


def stress_checks(name: str, totals: dict, wall: float) -> list[tuple[str, bool]]:
    """Whether the workload loads the layer it was chosen for."""
    def self_s(prefix: str) -> float:
        return sum(t["self_s"] for n, t in totals.items() if n.startswith(prefix))

    def calls(prefix: str) -> int:
        return sum(t["calls"] for n, t in totals.items() if n.startswith(prefix))

    solve = self_s("satif.solve")
    if name == "dense-sat":
        return [("satif.solve self time >= 1/2 of traced solver wall", solve >= wall / 2)]
    if name == "large-sparse":
        build = sum(self_s(p) for p in ("diagrams.", "encoding.", "satif.add_clause",
                                         "pathing.bfs"))
        return [("satif.solve self time <= 1/4 of traced solver wall", solve <= wall / 4),
                ("diagrams + encoding + add_clause + bfs self time >= 1/2 of traced "
                 "solver wall", build >= wall / 2)]
    if name == "cbs-rooms":
        return [("no satif, encoding or diagrams calls",
                 calls("satif.") + calls("encoding.") + calls("diagrams.") == 0)]
    return []


def per_layer(workload, tracer, traced: list[RunRecord], baseline_untraced: list[RunRecord],
              baseline_traced: list[RunRecord]) -> dict:
    """Metric name -> (value, unit, traced runs), totals over the traced pass."""
    totals = tracer.layer_totals()

    def t(name: str, field: str):
        return totals.get(name, {}).get(field, 0)

    def share(flags: list) -> float:
        return sum(map(bool, flags)) / len(flags) if flags else 0.0

    sizes = tracer.outcomes("encoding.build")
    overruns = [r.wall_s - workload.limit_s for r in (*traced, *baseline_untraced)
                if r.status == TIMEOUT]
    n = len(traced)
    m = {
        "satif.solve.calls": (t("satif.solve", "calls"), "count"),
        "satif.solve.self_s": (t("satif.solve", "self_s"), "s"),
        "satif.solve.sat_share": (share(tracer.outcomes("satif.solve")), "share"),
        "satif.solve.max_s": (t("satif.solve", "max_s"), "s"),
        "satif.add_clause.calls": (t("satif.add_clause", "calls"), "count"),
        "satif.add_clause.self_s": (t("satif.add_clause", "self_s"), "s"),
        "satif.new_var.calls": (t("satif.new_var", "calls"), "count"),
        "satif.new_var.self_s": (t("satif.new_var", "self_s"), "s"),
        "encoding.build.calls": (t("encoding.build", "calls"), "count"),
        "encoding.build.per_run": (t("encoding.build", "calls") / n, "count/run"),
        "encoding.build.self_s": (t("encoding.build", "self_s"), "s"),
        "encoding.vars": (sum(v for v, _ in sizes), "count"),
        "encoding.clauses": (sum(c for _, c in sizes), "count"),
        "encoding.conflicts.self_s": (t("encoding.conflicts", "self_s"), "s"),
        "encoding.extract.self_s": (t("encoding.extract", "self_s"), "s"),
        "diagrams.mdd.calls": (t("diagrams.mdd", "calls"), "count"),
        "diagrams.mdd.self_s": (t("diagrams.mdd", "self_s"), "s"),
        "diagrams.mdd.nodes": (sum(tracer.outcomes("diagrams.mdd")), "count"),
        "diagrams.smdd.calls": (t("diagrams.smdd", "calls"), "count"),
        "diagrams.smdd.self_s": (t("diagrams.smdd", "self_s"), "s"),
        "pathing.bfs.calls": (t("pathing.bfs", "calls"), "count"),
        "pathing.bfs.self_s": (t("pathing.bfs", "self_s"), "s"),
        "pathing.search.calls": (t("pathing.search", "calls"), "count"),
        "pathing.search.self_s": (t("pathing.search", "self_s"), "s"),
        "pathing.search.found_share": (share(tracer.outcomes("pathing.search")), "share"),
        "instance.validate.calls": (t("instance.validate", "calls"), "count"),
        "instance.validate.self_s": (t("instance.validate", "self_s"), "s"),
        "instance.from_paths.self_s": (t("instance.from_paths", "self_s"), "s"),
        "solvers.self_s": (t("solvers.run", "self_s"), "s"),
        "solvers.iterations": (sum(r.iterations for r in traced), "count"),
        "solvers.sat_calls": (sum(r.sat_calls for r in traced), "count"),
        "solvers.collisions": (sum(r.collisions for r in traced), "count"),
        "solvers.deadline_overrun_s.max": (max(overruns, default=0.0), "s"),
        "trace.overhead": (sum(r.ref_s for r in baseline_traced)
                           / sum(r.ref_s for r in baseline_untraced), "ratio"),
    }
    return {name: (value, unit, n) for name, (value, unit) in m.items()}


def to_bench_records(records: list[RunRecord]):
    from mapfsat import BenchRecord
    from mapfsat.bench import ERROR as BENCH_ERROR

    return [BenchRecord(r.workload, r.instance, r.agents, r.algo,
                        BENCH_ERROR if r.failed else r.status, r.wall_s, r.soc,
                        r.sat_calls, r.collisions) for r in records]


def algo_summary(workload, records: list[RunRecord]) -> dict:
    """Per-algorithm success rate by agent count and cactus data (not gated)."""
    from mapfsat import sorted_runtimes, success_rate

    bench = to_bench_records(records)
    counts = sorted({r.agents for r in records})
    return {algo: {"success_rate": {k: success_rate(bench, algo, k) for k in counts},
                   "sorted_runtimes": sorted_runtimes(bench, algo)}
            for algo in workload.algos}


def measure_end_to_end(args, workload, runs):
    """Whole untraced passes until about `--seconds` have passed, at least one."""
    setup_s = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    records: list[RunRecord] = []
    start = time.perf_counter()
    passes = 0
    while True:
        t0 = time.perf_counter()
        records += [run_one(workload, b, e, a, passes) for b, e, a in runs]
        passes += 1
        now = time.perf_counter()
        if now - start + (now - t0) / 2 > args.seconds:  # overrun by at most half a pass
            break
    print(f"{passes} pass(es) in {time.perf_counter() - start:.1f} s, {len(records)} samples")
    return records, setup_s


def measure_layers(workload, runs):
    """One traced pass over all runs; every third run also runs untraced first.

    The untraced twin runs right before its traced run, with no wrapper in
    place, so that `trace.overhead` compares the two under the same load.
    """
    from layertrace import Tracer

    tracer = Tracer()
    before = {key: key[0].__dict__[key[1]] for key in Tracer.wrapped_names()}
    untraced, traced = [], []
    for i, (bench, entry, algo) in enumerate(runs):
        if i % TRACE_BASELINE_EVERY == 0:
            untraced.append(run_one(workload, bench, entry, algo, 0))
        tracer.install()
        try:
            traced.append(run_one(workload, bench, entry, algo, 1, tracer))
        finally:
            tracer.uninstall()
    problems = []
    if any(key[0].__dict__[key[1]] is not fn for key, fn in before.items()):
        problems.append("tracer left a wrapped name in place")
    wall = sum(r.wall_s for r in traced)
    metrics = per_layer(workload, tracer, traced, untraced, traced[::TRACE_BASELINE_EVERY])
    checks = stress_checks(workload.name, tracer.layer_totals(), wall)
    print(f"traced {len(traced)} runs in {wall:.1f} s of solver wall, "
          f"{len(tracer.spans)} spans; untraced twins of {len(untraced)} runs")
    return untraced + traced, metrics, checks, problems, tracer


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    probe()  # the first call in a fresh interpreter runs slow
    clock = HostClock()
    try:
        with clock:
            workload, draws = set_up(args.workload, args.seed)
    except (FileNotFoundError, KeyError, ValueError, OSError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(clock.ref_s)
        return 0

    runs = workload.runs(draws)
    print(f"workload {workload.name} seed {args.seed}: {len(draws)} instances, "
          f"{len(workload.algos)} algorithms, {len(runs)} runs per pass, "
          f"limit {workload.limit_s:g} s per run")
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace == 0:
        records, setup_s = measure_end_to_end(args, workload, runs)
        metrics = end_to_end(workload, records, setup_s)
        checks, problems = [], []
    else:
        records, metrics, checks, problems, tracer = measure_layers(workload, runs)
        tracer.write_spans(OUT_DIR / f"{tag}.spans.jsonl")

    problems += disagreements(records)
    failed = [r for r in records if r.failed]
    problems += [f"{r.instance} {r.algo}: {r.status} {r.error}" for r in failed]
    summary = algo_summary(workload, records)
    values = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}

    for name, (value, unit, n) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit:10s} ({n} samples)")
    print(f"{'failed_share':34s} {len(failed) / len(records):14.6g} {'share':10s} "
          f"({len(failed)} of {len(records)} runs)")
    for algo, info in summary.items():
        rates = " ".join(f"k={k}:{v:.2f}" for k, v in info["success_rate"].items())
        print(f"  {algo:10s} success {rates}  solved {len(info['sorted_runtimes'])}")
    for text, ok in checks:
        print(f"stress check {'PASS' if ok else 'MISS'}: {text}")
    for text in problems:
        print(f"CHECK FAILED: {text}")

    with open(OUT_DIR / f"{tag}.records.jsonl", "w") as fh:
        for r in records:
            fh.write(json.dumps(asdict(r)) + "\n")
    (OUT_DIR / f"{tag}.summary.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "metrics": values, "failed_share": len(failed) / len(records),
        "stress_checks": dict(checks), "problems": problems, "algorithms": summary,
    }, indent=1) + "\n")

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": values}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
