"""Rebuild the reference table `reference.json`.

    python3 perfbench/make_reference.py [WORKLOAD ...]

For each workload, pool instances are screened in order with the workload's
screening algorithm, whose outcome gives the instance's difficulty class.
An instance whose stratum (agent count and difficulty class) is drawn by the
workload, while that stratum still has room, is then solved by every
algorithm of the workload plus one algorithm of the other family (CBS for
the SAT workloads, SMT-CBS for the CBS workload) as a cross-check. It is
kept when every workload algorithm solved it, every solver that answered
agrees on the SOC and every answer passes the independent checker. The
table records the agreed SOC, which algorithms agreed on it, and `ref_s`,
the summed best-of-three time of the workload's algorithms, which orders the
stratum for the draw. Run it on an otherwise idle machine, one process at a
time, so that `ref_s` orders the instances by their own cost.

Workloads not named keep their existing entries. Regenerate a workload's
entries whenever its generator or strata change; `run.py` refuses entries
whose fingerprint no longer matches.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path as FsPath

ROOT = FsPath(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mapfsat import ALGORITHMS, SolverConfig  # noqa: E402

from check import check_outcome  # noqa: E402
from workloads import REFERENCE_PATH, WORKLOADS, Workload  # noqa: E402

SCREEN_LIMIT_S = 1.0
CROSS_LIMIT_S = 1.0
MAX_POOL = 5000
TIMINGS = 3             # a workload algorithm's reference time is its best of three


def timed(algo: str, bench, limit: float, repeats: int):
    """Outcome of the last solve and the fastest wall time, rounded to ms."""
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        res = ALGORITHMS[algo](bench.instance, SolverConfig(timeout_s=limit))
        best = min(best, time.perf_counter() - t)
    return res, round(best, 3)


def screen(w: Workload) -> dict:
    """Screen pool instances in order until every stratum of `w` is full."""
    strata: dict[str, list] = {key: [] for key in w.strata}
    cross = "smtcbs" if "cbs" in w.algos else "cbs"
    j = 0
    t0 = time.perf_counter()

    def short() -> dict[str, int]:
        return {key: w.capacity - len(v) for key, v in strata.items() if len(v) < w.capacity}

    while short() and j < MAX_POOL:
        bench = w.pool_instance(j)
        j += 1
        out = ALGORITHMS[w.screen_algo](bench.instance, SolverConfig(timeout_s=SCREEN_LIMIT_S))
        if not out.solved:
            continue
        key = f"{bench.instance.k}/{w.difficulty(out, bench.shortest_total)}"
        if len(strata.get(key, ())) >= w.capacity or key not in strata:
            continue
        socs, times = {}, {}
        for algo in (*w.algos, cross):
            limit = w.limit_s if algo in w.algos else CROSS_LIMIT_S
            res, times[algo] = timed(algo, bench, limit, TIMINGS if algo in w.algos else 1)
            if not res.solved:
                continue
            problems = check_outcome(bench, res)
            if problems:
                raise SystemExit(f"{bench.id} {algo}: {problems}")
            socs[algo] = res.soc
        if len(set(socs.values())) > 1:
            raise SystemExit(f"{bench.id}: algorithms disagree on SOC: {socs}")
        if not all(a in socs for a in w.algos):
            print(f"{bench.id} skipped: unsolved by {set(w.algos) - set(socs)}", flush=True)
            continue
        strata[key].append({
            "j": bench.pool_index, "soc": socs[w.algos[0]], "algos": sorted(socs),
            "fp": bench.fingerprint(),
            "ref_s": round(sum(times[a] for a in w.algos), 3),
        })
        print(f"{bench.id} stratum={key} soc={socs[w.algos[0]]} {times}", flush=True)
    print(f"{w.name}: scanned {j} pool instances in {time.perf_counter() - t0:.0f} s; "
          f"short strata: {short()}", flush=True)
    return {"pool_scanned": j, "screen_algo": w.screen_algo, "strata": strata}


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workloads: {unknown}", file=sys.stderr)
        return 2
    for name in names:
        entry = screen(WORKLOADS[name])
        # re-read so that screenings of other workloads run meanwhile are kept
        table = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
        table[name] = entry
        REFERENCE_PATH.write_text(dump_table(table))
    return 0


def dump_table(table: dict) -> str:
    """JSON text with one reference entry per line."""
    lines = ["{"]
    for i, name in enumerate(sorted(table)):
        w = table[name]
        lines.append(f' "{name}": {{"pool_scanned": {w["pool_scanned"]}, '
                     f'"screen_algo": "{w["screen_algo"]}", "strata": {{')
        for k, key in enumerate(sorted(w["strata"])):
            lines.append(f'  "{key}": [')
            entries = w["strata"][key]
            lines += [f"   {json.dumps(e, sort_keys=True)}" + ("," if n < len(entries) - 1 else "")
                      for n, e in enumerate(entries)]
            lines.append("  ]" + ("," if k < len(w["strata"]) - 1 else ""))
        lines.append(" }}" + ("," if i < len(table) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
