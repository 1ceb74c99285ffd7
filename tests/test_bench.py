from __future__ import annotations

from pathlib import Path

import pytest

from mapfsat import bench
from mapfsat.bench import (
    PARSE_ERROR,
    BenchRecord,
    discover_suite,
    read_csv,
    run_benchmark,
    sorted_runtimes,
    success_rate,
    write_csv,
)
from mapfsat.solvers import ConfigError

SUITE = Path(__file__).parent / "data" / "suite8x8"


def record(algo="cbs", agents=2, status="solved", runtime=1.0, soc=4):
    return BenchRecord("m.map", "s.scen", agents, algo, status, runtime,
                       soc if status == "solved" else None,
                       0, 0)


class TestSuccessRate:
    def test_partial(self):
        records = [record(status="solved")] * 20 + [record(status="timeout")] * 5
        assert success_rate(records, "cbs", 2) == 0.8

    def test_none_solved(self):
        records = [record(status="timeout")] * 25
        assert success_rate(records, "cbs", 2) == 0.0

    def test_all_solved(self):
        records = [record(status="solved")] * 25
        assert success_rate(records, "cbs", 2) == 1.0

    def test_empty_group_is_absent(self):
        assert success_rate([record(algo="cbs")], "heuristic", 2) is None


class TestSortedRuntimes:
    def test_ascending(self):
        records = [record(runtime=5.0), record(runtime=1.0), record(runtime=3.0)]
        assert sorted_runtimes(records, "cbs") == [1.0, 3.0, 5.0]

    def test_all_timeouts(self):
        records = [record(status="timeout", runtime=9.0)] * 3
        assert sorted_runtimes(records, "cbs") == []

    def test_single_solved(self):
        assert sorted_runtimes([record(runtime=2.5)], "cbs") == [2.5]

    def test_length_matches_solved_count(self):
        records = [record(runtime=1.0), record(status="timeout"), record(runtime=0.5)]
        out = sorted_runtimes(records, "cbs")
        assert len(out) == 2
        assert out == sorted(out)


class TestRunBenchmark:
    def test_two_instances_one_algorithm(self, tmp_path):
        for name in ("open8.map", "open8-01.scen", "open8-02.scen"):
            (tmp_path / name).write_text((SUITE / name).read_text())
        records = run_benchmark(tmp_path, ["cbs"], [2], timeout_s=30)
        assert len(records) == 2
        assert all(r.status == "solved" for r in records)
        assert all(r.soc is not None for r in records)

    def test_timeout_status_has_no_soc(self, tmp_path):
        for name in ("open8.map", "open8-01.scen"):
            (tmp_path / name).write_text((SUITE / name).read_text())
        records = run_benchmark(tmp_path, ["mddsat"], [4], timeout_s=1e-9)
        assert records[0].status == "timeout"
        assert records[0].soc is None

    def test_empty_suite(self, tmp_path):
        assert run_benchmark(tmp_path, ["cbs"], [2]) == []

    @pytest.mark.parametrize("name", ["no-such-dir", "open8-01.scen"])
    def test_suite_that_is_not_a_directory_raises(self, name, tmp_path):
        (tmp_path / "open8-01.scen").write_text((SUITE / "open8-01.scen").read_text())
        with pytest.raises(ConfigError, match="is not a directory"):
            run_benchmark(tmp_path / name, ["cbs"], [2])

    def test_missing_map_gives_error_record_and_continues(self, tmp_path):
        (tmp_path / "a.scen").write_text(
            "version 1\n0\tmissing.map\t8\t8\t0\t0\t3\t0\t3\n0\tmissing.map\t8\t8\t1\t1\t4\t1\t3\n"
        )
        (tmp_path / "b.scen").write_text((SUITE / "open8-01.scen").read_text())
        (tmp_path / "open8.map").write_text((SUITE / "open8.map").read_text())
        records = run_benchmark(tmp_path, ["cbs"], [2], timeout_s=30)
        assert [r.status for r in records] == ["error", "solved"]
        assert "missing.map" in records[0].reason
        assert not records[0].reason.startswith(PARSE_ERROR)
        assert records[1].reason == ""

    def test_per_count_limits_scenarios(self, tmp_path):
        for name in ("open8.map", "open8-01.scen", "open8-02.scen", "open8-03.scen"):
            (tmp_path / name).write_text((SUITE / name).read_text())
        records = run_benchmark(tmp_path, ["cbs"], [2], per_count=2, timeout_s=30)
        assert len(records) == 2

    @pytest.mark.parametrize("per_count", [0, -1])
    def test_per_count_below_one_rejected_before_any_run(self, per_count, monkeypatch):
        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(bench, "_run_one", no_run)
        with pytest.raises(ConfigError, match="per-count must be at least 1"):
            run_benchmark(SUITE, ["cbs"], [2], per_count=per_count, timeout_s=30)

    @pytest.mark.parametrize("algos, counts, message", [
        ([], [2], "no algorithm given"), (["cbs"], [], "no agent count given")])
    def test_empty_list_rejected(self, algos, counts, message):
        with pytest.raises(ConfigError, match=message):
            run_benchmark(SUITE, algos, counts)

    def test_unknown_algorithm_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_benchmark(tmp_path, ["nope"], [2])

    def test_worker_pool_matches_serial_run(self, tmp_path):
        for name in ("open8.map", "open8-01.scen", "open8-02.scen"):
            (tmp_path / name).write_text((SUITE / name).read_text())
        serial = run_benchmark(tmp_path, ["cbs"], [2, 4], timeout_s=30)
        parallel = run_benchmark(tmp_path, ["cbs"], [2, 4], timeout_s=30, workers=2)
        strip = lambda rs: [
            (r.map_name, r.scen_name, r.agents, r.algo, r.status, r.soc)
            for r in rs
        ]
        assert strip(serial) == strip(parallel)

    @pytest.mark.parametrize("workers, runs, pool", [(64, 2, 2), (3, 5, 3), (64, 1, None)])
    def test_worker_pool_is_no_larger_than_the_runs(self, workers, runs, pool, monkeypatch):
        # a stand-in pool that runs inline: no process starts, whatever `workers`
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(bench, "_run_one", lambda scen, n, algo, config: scen.name)
        records = run_benchmark(SUITE, ["cbs"], [2], per_count=runs, workers=workers)
        assert len(records) == runs
        assert sizes == ([] if pool is None else [pool])

    def test_record_order_is_stable(self, tmp_path):
        for name in ("open8.map", "open8-01.scen", "open8-02.scen"):
            (tmp_path / name).write_text((SUITE / name).read_text())
        records = run_benchmark(tmp_path, ["cbs", "heuristic"], [2, 3], timeout_s=30)
        keys = [(r.scen_name, r.agents, r.algo) for r in records]
        assert keys == [
            ("open8-01.scen", 2, "cbs"), ("open8-01.scen", 2, "heuristic"),
            ("open8-01.scen", 3, "cbs"), ("open8-01.scen", 3, "heuristic"),
            ("open8-02.scen", 2, "cbs"), ("open8-02.scen", 2, "heuristic"),
            ("open8-02.scen", 3, "cbs"), ("open8-02.scen", 3, "heuristic"),
        ]


class TestCsvRoundTrip:
    def test_identical_records(self, tmp_path):
        records = [
            BenchRecord("m.map", "s1.scen", 2, "cbs", "solved", 0.12345678901234, 7, 0, 3),
            BenchRecord("m.map", "s2.scen", 4, "heuristic", "timeout", 128.0, None, 9, 12),
            BenchRecord("", "s3.scen", 3, "sparse", "error", 0.0, None, 0, 0,
                        "parse error: s3.scen: bad, header (line 1)"),
        ]
        out = tmp_path / "records.csv"
        write_csv(records, out)
        assert read_csv(out) == records

    def test_header_columns(self, tmp_path):
        out = tmp_path / "records.csv"
        write_csv([], out)
        assert out.read_text().strip() == (
            "map,scen,agents,algo,status,runtime_s,soc,sat_calls,conflicts,reason"
        )

    def test_empty_file_rejected(self, tmp_path):
        out = tmp_path / "records.csv"
        out.write_text("")
        with pytest.raises(ValueError, match="empty CSV, no header"):
            read_csv(out)

    def test_short_row_rejected(self, tmp_path):
        out = tmp_path / "records.csv"
        write_csv([record()], out)
        # the record's line loses its last column, the empty reason
        with open(out, newline="") as fh:
            text = fh.read()
        with open(out, "w", newline="") as fh:
            fh.write(text.rstrip("\r\n").rsplit(",", 1)[0] + "\r\n")
        with pytest.raises(ValueError, match="CSV line 2 has 9 columns, expected 10"):
            read_csv(out)

    def test_file_path_round_trip(self, tmp_path):
        records = [record()]
        out = tmp_path / "records.csv"
        write_csv(records, str(out))
        assert read_csv(str(out)) == records


def test_discover_suite_sorted():
    scens = discover_suite(SUITE)
    assert [p.name for p in scens[:3]] == [
        "open8-01.scen", "open8-02.scen", "open8-03.scen",
    ]
    assert len(scens) == 10
