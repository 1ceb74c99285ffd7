from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mapfsat.bench import read_csv
from mapfsat.cli import main
from mapfsat.encoding import EncodingSoundnessError
from mapfsat.instance import Path as AgentPath, Solution
from mapfsat.solvers import ALGORITHMS, SOLVED, SolveOutcome

SUITE = Path(__file__).parent / "data" / "suite8x8"
# agent 2's goal, cell (2, 2), is walled in on all four sides
WALLED = Path(__file__).parent / "data" / "walled"
SRC = Path(__file__).resolve().parent.parent / "src"


def test_solve_writes_solution_json(tmp_path):
    out = tmp_path / "solution.json"
    code = main([
        "solve",
        "--map", str(SUITE / "open8.map"),
        "--scen", str(SUITE / "open8-01.scen"),
        "--agents", "4",
        "--algo", "heuristic",
        "--timeout", "30",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "solved"
    assert payload["algorithm"] == "heuristic"
    assert len(payload["paths"]) == 4
    stats = payload["stats"]
    assert set(stats) == {"sat_calls", "conflicts", "iterations", "runtime_s"}
    assert stats["iterations"]
    for it in stats["iterations"]:
        assert set(it) == {"soc", "horizon", "nodes_per_agent", "full_mdd"}
        assert len(it["nodes_per_agent"]) == len(it["full_mdd"]) == 4


def test_solve_to_stdout(tmp_path, capsys):
    code = main([
        "solve",
        "--map", str(SUITE / "open8.map"),
        "--scen", str(SUITE / "open8-02.scen"),
        "--agents", "2",
        "--algo", "cbs",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["soc"] is not None


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_solve_unreachable_goal_on_a_grid_is_infeasible_at_cap(algo, tmp_path):
    out = tmp_path / "solution.json"
    code = main([
        "solve",
        "--map", str(WALLED / "walled.map"),
        "--scen", str(WALLED / "walled.scen"),
        "--agents", "2",
        "--algo", algo,
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "infeasible-at-cap"
    assert payload["soc"] is None and payload["paths"] is None


def test_solve_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text("type octile\nheight 2\nwidth 2\nmap\n..\n.x\n")
    code = main([
        "solve",
        "--map", str(bad),
        "--scen", str(SUITE / "open8-01.scen"),
        "--agents", "1",
    ])
    assert code == 2
    assert "line 6" in capsys.readouterr().err


def test_bench_writes_csv(tmp_path):
    for name in ("open8.map", "open8-01.scen", "open8-02.scen"):
        (tmp_path / name).write_text((SUITE / name).read_text())
    out = tmp_path / "records.csv"
    code = main([
        "bench",
        "--suite", str(tmp_path),
        "--algos", "cbs,heuristic",
        "--agents", "2",
        "--per-count", "2",
        "--timeout", "30",
        "--csv", str(out),
    ])
    assert code == 0
    records = read_csv(out)
    assert len(records) == 4
    assert all(r.status == "solved" for r in records)


def solve_args(map_path=SUITE / "open8.map", scen_path=SUITE / "open8-01.scen", agents=2):
    return ["solve", "--map", str(map_path), "--scen", str(scen_path),
            "--agents", str(agents), "--algo", "cbs"]


def test_solve_missing_file_exits_2(tmp_path, capsys):
    assert main(solve_args(map_path=tmp_path / "nope.map")) == 2
    err = capsys.readouterr().err
    assert err.startswith("mapf: ") and "nope.map" in err
    assert err.count("\n") == 1


def test_solve_too_many_agents_exits_2(capsys):
    assert main(solve_args(agents=99)) == 2
    err = capsys.readouterr().err
    assert err.startswith("mapf: ") and "99 agents" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("agents", [0, -2])
def test_solve_agent_count_below_one_exits_2(agents, capsys):
    assert main(solve_args(agents=agents)) == 2
    err = capsys.readouterr().err
    assert err == f"mapf: agent count must be at least 1, got {agents}\n"


def test_solve_blocked_start_exits_2(tmp_path, capsys):
    # the first agent of open8-01 starts at x=6, y=2; block that cell
    rows = (SUITE / "open8.map").read_text().splitlines()
    rows[4 + 2] = "......@."
    blocked = tmp_path / "blocked.map"
    blocked.write_text("\n".join(rows) + "\n")
    assert main(solve_args(map_path=blocked)) == 2
    err = capsys.readouterr().err
    assert err.startswith("mapf: ") and "blocked" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("start", [(99, 0), (-1, 3)])
def test_solve_off_map_start_exits_2(start, tmp_path, capsys):
    scen = tmp_path / "off.scen"
    scen.write_text(f"version 1\n0 open8.map 8 8 {start[0]} {start[1]} 1 1 2\n")
    assert main(solve_args(scen_path=scen, agents=1)) == 2
    err = capsys.readouterr().err
    assert err == f"mapf: start cell {start} of agent 1 is outside the 8x8 map\n"


def test_bench_parse_error_exits_2(tmp_path, capsys):
    (tmp_path / "bad.scen").write_text("version 2\n")
    out = tmp_path / "records.csv"
    code = main([
        "bench",
        "--suite", str(tmp_path),
        "--algos", "cbs,heuristic",
        "--agents", "2",
        "--csv", str(out),
    ])
    assert code == 2
    reason = "parse error: bad.scen: unsupported scenario version 2 (line 1)"
    assert capsys.readouterr().err == f"mapf: {reason}\n"
    records = read_csv(out)
    assert [(r.status, r.reason) for r in records] == [("error", reason)] * 2


def test_solve_bad_timeout_exits_2(capsys):
    for timeout in ("0", "nan"):  # a NaN limit would never expire
        assert main(solve_args() + ["--timeout", timeout]) == 2
        err = capsys.readouterr().err
        assert err == "mapf: timeout must be positive\n"


def test_solve_cost_cap_below_shortest_total_exits_2(capsys):
    assert main(solve_args() + ["--cost-cap", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mapf: cost cap 1 below") and err.count("\n") == 1


def test_solve_bad_cost_cap_leaves_no_out_file(tmp_path, capsys):
    out = tmp_path / "solution.json"
    assert main(solve_args() + ["--cost-cap", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("mapf: cost cap 1 below")
    assert not out.exists()


def refuse_to_solve(instance, config):
    raise AssertionError("solved before the output path was checked")


def test_solve_unwritable_out_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(ALGORITHMS, "cbs", refuse_to_solve)
    out = tmp_path / "missing" / "solution.json"
    assert main(solve_args() + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mapf: ") and str(out) in err and err.count("\n") == 1


EARLIER = "earlier results\n"


def test_solve_bad_cost_cap_keeps_an_existing_out_file(tmp_path, capsys):
    out = tmp_path / "solution.json"
    out.write_text(EARLIER)
    assert main(solve_args() + ["--cost-cap", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("mapf: cost cap 1 below")
    assert out.read_text() == EARLIER


def test_solve_that_raises_keeps_an_existing_out_file(tmp_path, monkeypatch):
    def crash(instance, config):
        raise RuntimeError("solver crashed")

    monkeypatch.setitem(ALGORITHMS, "cbs", crash)
    out = tmp_path / "solution.json"
    out.write_text(EARLIER)
    with pytest.raises(RuntimeError):
        main(solve_args() + ["--out", str(out)])
    assert out.read_text() == EARLIER


def test_solve_replaces_an_existing_out_file(tmp_path):
    out = tmp_path / "solution.json"
    out.write_text(EARLIER * 1000)
    assert main(solve_args() + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "solved"


def bench_args(suite, csv_path, algos="cbs", timeout="30"):
    return ["bench", "--suite", str(suite), "--algos", algos, "--agents", "2",
            "--per-count", "1", "--timeout", timeout, "--csv", str(csv_path)]


def test_bench_unknown_algorithm_exits_2(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main(bench_args(SUITE, out, algos="cbs,nope")) == 2
    assert capsys.readouterr().err == "mapf: unknown algorithm 'nope'\n"
    assert not out.exists()


@pytest.mark.parametrize("algos", [",", "", " , "])
def test_bench_empty_algorithm_list_exits_2(algos, tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main(bench_args(SUITE, out, algos=algos)) == 2
    assert capsys.readouterr().err == "mapf: no algorithm given\n"
    assert not out.exists()


@pytest.mark.parametrize("agents", ["", ",", " , "])
def test_bench_empty_agent_count_list_exits_2(agents, tmp_path, capsys):
    out = tmp_path / "records.csv"
    args = bench_args(SUITE, out)
    args[args.index("--agents") + 1] = agents
    assert main(args) == 2
    assert capsys.readouterr().err == "mapf: no agent count given\n"
    assert not out.exists()


def test_bench_missing_suite_exits_2(tmp_path, capsys):
    out = tmp_path / "records.csv"
    suite = tmp_path / "no-such-suite"
    assert main(bench_args(suite, out)) == 2
    assert capsys.readouterr().err == f"mapf: suite {str(suite)!r} is not a directory\n"
    assert not out.exists()


def test_bench_bad_timeout_exits_2(tmp_path, capsys):
    out = tmp_path / "records.csv"
    for timeout in ("0", "nan"):
        assert main(bench_args(SUITE, out, timeout=timeout)) == 2
        assert capsys.readouterr().err == "mapf: timeout must be positive\n"
        assert not out.exists()


@pytest.mark.parametrize("per_count", ["0", "-1"])
def test_bench_per_count_below_one_exits_2(per_count, tmp_path, capsys):
    out = tmp_path / "records.csv"
    args = bench_args(SUITE, out)
    i = args.index("--per-count")
    args[i:i + 2] = [f"--per-count={per_count}"]
    assert main(args) == 2
    assert capsys.readouterr().err == f"mapf: per-count must be at least 1, got {per_count}\n"
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_bench_workers_below_one_exits_2(workers, tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main(bench_args(SUITE, out) + [f"--workers={workers}"]) == 2
    assert capsys.readouterr().err == f"mapf: workers must be at least 1, got {workers}\n"
    assert not out.exists()


def test_bench_bad_agents_exits_2(tmp_path, capsys):
    out = tmp_path / "records.csv"
    args = bench_args(SUITE, out)
    args[args.index("--agents") + 1] = "2,x"
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "mapf: --agents wants comma-separated integers, got '2,x'\n"
    )
    assert not out.exists()


def test_bench_agent_count_below_one_exits_2(tmp_path, capsys):
    out = tmp_path / "records.csv"
    args = bench_args(SUITE, out)
    i = args.index("--agents")
    args[i:i + 2] = ["--agents=-2,0"]  # a separate "-2,0" would parse as an option
    assert main(args) == 2
    assert capsys.readouterr().err == "mapf: agent count must be at least 1, got -2\n"
    assert not out.exists()


def test_bench_unwritable_csv_exits_2_before_any_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(ALGORITHMS, "cbs", refuse_to_solve)
    out = tmp_path / "missing" / "records.csv"
    assert main(bench_args(SUITE, out) + ["--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mapf: ") and str(out) in err and err.count("\n") == 1


@pytest.mark.parametrize("bad", [["--algos", "typo"], ["--timeout", "0"], ["--per-count", "0"]])
def test_bench_bad_input_keeps_an_existing_csv(bad, tmp_path, capsys):
    out = tmp_path / "records.csv"
    out.write_text(EARLIER)
    args = bench_args(SUITE, out)
    for flag, value in zip(bad[::2], bad[1::2]):
        args[args.index(flag) + 1] = value
    assert main(args) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert out.read_text() == EARLIER


def test_bench_replaces_an_existing_csv(tmp_path):
    out = tmp_path / "records.csv"
    out.write_text(EARLIER * 1000)
    assert main(bench_args(SUITE, out)) == 0
    records = read_csv(out)
    assert records and all(r.status == SOLVED for r in records)


def test_bench_solver_fault_is_one_error_record_and_exits_1(tmp_path, capsys, monkeypatch):
    def unsound(instance, config):
        raise EncodingSoundnessError("agent 1 occupies 2 vertices at step 3")

    monkeypatch.setitem(ALGORITHMS, "cbs", unsound)
    out = tmp_path / "records.csv"
    args = bench_args(SUITE, out, algos="cbs,heuristic")
    args[args.index("--per-count") + 1] = "2"
    assert main(args + ["--workers", "1"]) == 1
    reason = "EncodingSoundnessError: agent 1 occupies 2 vertices at step 3"
    assert capsys.readouterr().err == f"mapf: {reason}\n" * 2
    records = read_csv(out)
    assert [(r.algo, r.status, r.reason) for r in records] == [
        ("cbs", "error", reason), ("heuristic", "solved", ""),
    ] * 2


def square_suite(directory):
    """A suite of one 2x2 open grid, cells 0 1 / 2 3, where two agents cross
    from corner to corner."""
    directory.mkdir()
    (directory / "square.map").write_text("type octile\nheight 2\nwidth 2\nmap\n..\n..\n")
    (directory / "square.scen").write_text(
        "version 1\n0\tsquare.map\t2\t2\t0\t0\t1\t1\t2\n"
        "0\tsquare.map\t2\t2\t1\t1\t0\t0\t2\n"
    )
    return directory


def claims_solved(second, soc):
    """An algorithm that reports agent 1 on 0 1 3 and agent 2 on `second` as
    a solution of sum of costs `soc`."""
    def wrong(instance, config):
        a1, a2 = instance.agents
        paths = [AgentPath(a1.id, (0, 1, 3)), AgentPath(a2.id, second)]
        solution = Solution.from_paths(instance, paths)
        return SolveOutcome(SOLVED, solution, soc, solution.horizon)
    return wrong


COLLIDE = "solved paths collide: Collision(kind='vertex', agents=(1, 2), location=1, t=1)"


@pytest.mark.parametrize("earlier", [None, EARLIER])
def test_solve_revalidates_a_solved_outcome(earlier, tmp_path, capsys, monkeypatch):
    suite = square_suite(tmp_path / "suite")
    monkeypatch.setitem(ALGORITHMS, "cbs", claims_solved((3, 1, 0), 4))
    out = tmp_path / "solution.json"
    if earlier is not None:
        out.write_text(earlier)
    args = solve_args(suite / "square.map", suite / "square.scen") + ["--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr() == ("", f"mapf: EncodingSoundnessError: {COLLIDE}\n")
    if earlier is None:
        assert not out.exists()
    else:
        assert out.read_text() == earlier


def test_solve_to_stdout_prints_no_unsound_solution(tmp_path, capsys, monkeypatch):
    suite = square_suite(tmp_path / "suite")
    monkeypatch.setitem(ALGORITHMS, "cbs", claims_solved((3, 2, 0), 5))
    assert main(solve_args(suite / "square.map", suite / "square.scen")) == 1
    problem = "reported sum of costs 5, paths cost 4"
    assert capsys.readouterr() == ("", f"mapf: EncodingSoundnessError: {problem}\n")


@pytest.mark.parametrize("second, soc, problem", [
    ((3, 1, 0), 4, COLLIDE),
    ((3, 2, 0), 5, "reported sum of costs 5, paths cost 4"),
])
def test_bench_revalidates_solved_records(second, soc, problem, tmp_path, capsys,
                                          monkeypatch):
    suite = square_suite(tmp_path / "suite")
    monkeypatch.setitem(ALGORITHMS, "cbs", claims_solved(second, soc))
    out = tmp_path / "records.csv"
    assert main(bench_args(suite, out, algos="cbs") + ["--workers", "1"]) == 1
    reason = f"EncodingSoundnessError: {problem}"
    assert capsys.readouterr().err == f"mapf: {reason}\n"
    records = read_csv(out)
    assert [(r.status, r.soc, r.reason) for r in records] == [("error", None, reason)]


@pytest.mark.parametrize("command", [
    ["solve", "--map", str(SUITE / "open8.map"), "--scen", str(SUITE / "open8-01.scen"),
     "--agents", "2"],
    ["bench", "--suite", str(SUITE), "--algos", "cbs", "--agents", "2", "--per-count", "1"],
])
def test_reader_that_closes_first_leaves_exit_code_and_no_traceback(command, tmp_path):
    if command[0] == "bench":
        command = command + ["--csv", str(tmp_path / "records.csv")]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen([sys.executable, "-m", "mapfsat.cli", *command],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()  # the reader is gone before anything is written
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert err == b""
