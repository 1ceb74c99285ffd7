"""Self-test of the same-search replay (`tools/replay.py`) on small runs."""

from __future__ import annotations

import io
import random
import sys
from pathlib import Path as FsPath

import pytest

from mapfsat import ALGORITHMS, solvers
from mapfsat.diagrams import Mdd
from conftest import SAT_ALGORITHMS, colliding_root, random_grid_instance

sys.path.insert(0, str(FsPath(__file__).resolve().parent.parent / "tools"))
import replay  # noqa: E402


def small_runs(algos=tuple(ALGORITHMS)):
    rng = random.Random(606)
    instances = [random_grid_instance(rng, agents=(3, 4)) for _ in range(6)]
    return [(("fixtures", 0, f"r{i}", algo), inst, algo, 30.0)
            for i, inst in enumerate(instances) for algo in algos]


def replayed(tmp_path, name, algos=tuple(ALGORITHMS)):
    path = tmp_path / name
    replay.write([replay.fingerprint(*run) for run in small_runs(algos)], path)
    return replay.read(path)


def test_same_tree_gives_no_differences(tmp_path):
    first, second = replayed(tmp_path, "a.jsonl"), replayed(tmp_path, "b.jsonl")
    out = io.StringIO()
    assert replay.diff(first, second, out) == 0
    assert out.getvalue().splitlines()[-1] == f"0 differences over {len(first)} runs"
    assert any(rec["solve_calls"] for rec in first.values())


def test_reordered_sparse_levels_show_as_counter_deltas(tmp_path, monkeypatch):
    reference = replayed(tmp_path, "a.jsonl")
    build_smdd = solvers.build_smdd

    def reversed_levels(*args):
        mdd = build_smdd(*args)
        return Mdd(mdd.horizon, tuple(level[::-1] for level in mdd.levels),
                   mdd._out)

    monkeypatch.setattr(solvers, "build_smdd", reversed_levels)
    mutated = replayed(tmp_path, "b.jsonl")
    out = io.StringIO()
    assert replay.diff(reference, mutated, out) == 0  # same SOCs
    assert all(mutated[k]["soc"] == rec["soc"] for k, rec in reference.items())
    assert out.getvalue().splitlines()[-1] != f"0 differences over {len(reference)} runs"
    assert "cdcl_" in out.getvalue()


def test_promoting_every_agent_shows_as_an_all_full_delta(tmp_path, monkeypatch):
    reference = replayed(tmp_path, "a.jsonl")
    post_init = solvers._SatSolve.__post_init__

    def promoted_at_start(solve, roots):
        post_init(solve, roots)
        solve.candidates = dict.fromkeys(solve.candidates)

    monkeypatch.setattr(solvers._SatSolve, "__post_init__", promoted_at_start)
    promoted = replayed(tmp_path, "b.jsonl")
    out = io.StringIO()
    assert replay.diff(reference, promoted, out) == 0  # same SOCs
    lines = out.getvalue().splitlines()
    for algo in ("sparse", "heuristic"):
        line = next(line for line in lines if line.startswith(f"fixtures {algo}: "))
        assert "all_full" in line, line
    for algo in ("mddsat", "smtcbs"):
        line = next(line for line in lines if line.startswith(f"fixtures {algo}: "))
        assert "all_full" not in line, line


def test_runs_with_no_model_show_as_a_no_model_count(tmp_path):
    # the SAT runs on draws whose shortest paths collide nowhere build no
    # model; with that shortcut forced off, each builds one
    reference = replayed(tmp_path, "a.jsonl", SAT_ALGORITHMS)
    with colliding_root():
        looped = replayed(tmp_path, "b.jsonl", SAT_ALGORITHMS)
    out = io.StringIO()
    assert replay.diff(reference, looped, out) == 0  # same SOCs
    lines = out.getvalue().splitlines()
    for algo in SAT_ALGORITHMS:
        skipped = sum(not rec["iterations"] for k, rec in reference.items() if k[3] == algo)
        assert skipped > 0, algo
        line = next(line for line in lines if line.startswith(f"fixtures {algo}: "))
        assert f"no_model {skipped} -{skipped}" in line, line


@pytest.mark.parametrize("field, value", [("soc", 99), ("status", "timeout")])
def test_answer_difference_exits_1(tmp_path, field, value):
    reference = replayed(tmp_path, "a.jsonl")
    changed = {k: dict(rec) for k, rec in reference.items()}
    key = next(iter(changed))
    changed[key][field] = value
    out = io.StringIO()
    assert replay.diff(reference, changed, out) == 1
    assert f"{field} {reference[key][field]} -> {value}" in out.getvalue()


def test_counter_deltas_come_with_the_first_files_totals(tmp_path):
    reference = replayed(tmp_path, "a.jsonl")
    changed = {k: dict(rec) for k, rec in reference.items()}
    key = next(k for k, rec in changed.items() if rec["algo"] == "smtcbs")
    changed[key]["conflicts"] += 3
    out = io.StringIO()
    assert replay.diff(reference, changed, out) == 0
    base = sum(rec["conflicts"] for k, rec in reference.items()
               if (k[0], k[3]) == (key[0], key[3]))
    assert base > 0
    line = next(line for line in out.getvalue().splitlines()
                if line.startswith(f"{key[0]} smtcbs: "))
    assert line.endswith(f"1 differences over 6 runs; conflicts {base} +3")


def test_missing_run_exits_1(tmp_path):
    reference = replayed(tmp_path, "a.jsonl")
    fewer = dict(list(reference.items())[1:])
    assert replay.diff(reference, fewer, io.StringIO()) == 1


def test_command_line_diff(tmp_path, capsys):
    replayed(tmp_path, "a.jsonl")
    assert replay.main(["--diff", str(tmp_path / "a.jsonl"), str(tmp_path / "a.jsonl")]) == 0
    assert "0 differences over" in capsys.readouterr().out
