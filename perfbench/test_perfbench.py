"""Self-tests of the benchmark: generator, checker, tracer, fault isolation.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import random
import time

import pytest

from mapfsat import ALGORITHMS, EncodingSoundnessError, SolverConfig, solvers

import hostspeed
import run
from check import check_paths
from layertrace import Tracer
from workloads import WORKLOADS, Grid, load_reference, rooms_grid

OPEN3 = Grid(3, 3, ((True,) * 3,) * 3)  # cells 0 1 2 / 3 4 5 / 6 7 8


@pytest.fixture(scope="module")
def table():
    return load_reference()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name, table):
    w = WORKLOADS[name]
    first = [(b.id, b.fingerprint()) for b, _ in w.generate(7, table)]
    again = [(b.id, b.fingerprint()) for b, _ in w.generate(7, table)]
    other = [(b.id, b.fingerprint()) for b, _ in w.generate(8, table)]
    assert first == again
    assert first != other
    assert len(first) == sum(w.strata.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_pass_runs_every_algorithm_and_the_same_ones_per_instance(name, table):
    w = WORKLOADS[name]
    runs = w.runs(w.generate(7, table)) + w.runs(w.generate(8, table))
    per_instance = {}
    for bench, _, algo in runs:
        per_instance.setdefault(bench.id, []).append(algo)
    assert {algo for _, _, algo in runs} == set(w.algos)
    for algos in per_instance.values():
        # an instance drawn by both seeds runs the same algorithms twice
        assert len(set(algos)) == (w.algos_per_instance or len(w.algos))
        assert len(algos) in (len(set(algos)), 2 * len(set(algos)))


def test_host_speed_scaling_divides_by_the_mean_probe():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.to_reference(0.5, [ref, ref]) == pytest.approx(0.5)
    assert hostspeed.to_reference(0.5, [2 * ref, 2 * ref]) == pytest.approx(0.25)
    assert hostspeed.to_reference(0.5, [ref, 2 * ref, 3 * ref]) == pytest.approx(0.25)


def test_host_clock_samples_during_a_call_and_takes_its_probes_out():
    clock = hostspeed.HostClock()
    with clock:
        end = time.perf_counter() + 6 * hostspeed.SAMPLE_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(clock.probes) >= 4  # before, after and at least two ticks
    assert 0 < clock.busy < clock.wall_s < 6 * hostspeed.SAMPLE_EVERY_S
    assert clock.ref_s == pytest.approx(hostspeed.to_reference(clock.wall_s, clock.probes))
    ticks = len(clock.probes)
    time.sleep(3 * hostspeed.SAMPLE_EVERY_S)
    assert len(clock.probes) == ticks  # the timer stopped with the block


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pool_instances_have_distinct_endpoints_in_one_component(name):
    bench = WORKLOADS[name].pool_instance(5)
    agents = bench.instance.agents
    comp = set(bench.grid.largest_component())
    assert len({a.start for a in agents}) == len(agents)
    assert len({a.goal for a in agents}) == len(agents)
    assert all(a.start in comp and a.goal in comp for a in agents)


def test_rooms_grid_has_one_door_per_wall():
    grid = rooms_grid(random.Random(0))
    wall = [grid.passable[y][4] for y in range(grid.height)]
    assert sum(wall) == 4  # one door into each of the four room rows
    assert len(grid.largest_component()) == 16 * 16 + 2 * 3 * 4


ENDPOINTS = {1: (0, 2), 2: (2, 0)}


def test_checker_accepts_a_valid_solution():
    paths = [(1, (0, 1, 2)), (2, (2, 5, 4, 3, 0))]
    assert check_paths(OPEN3, ENDPOINTS, paths, 6) == []


def test_checker_rejects_vertex_collision():
    paths = [(1, (0, 1, 2)), (2, (2, 1, 0))]
    problems = check_paths(OPEN3, ENDPOINTS, paths, 4)
    assert any("vertex collision" in p for p in problems)


def test_checker_rejects_swap_collision():
    paths = [(1, (0, 1, 2)), (2, (1, 0, 3))]  # 1: 0->1 while 2: 1->0 at t=0
    problems = check_paths(OPEN3, {1: (0, 2), 2: (1, 3)}, paths, 4)
    assert any("swap collision" in p for p in problems)


def test_checker_rejects_goal_padding_collision():
    paths = [(1, (0, 1)), (2, (4, 1, 2))]  # agent 1 waits at its goal 1 from t=1
    problems = check_paths(OPEN3, {1: (0, 1), 2: (4, 2)}, paths, 3)
    assert any("vertex collision" in p for p in problems)


def test_checker_rejects_non_adjacent_step():
    paths = [(1, (0, 2)), (2, (2, 5, 4, 3, 0))]
    problems = check_paths(OPEN3, ENDPOINTS, paths, 5)
    assert any("neither a wait nor an edge" in p for p in problems)


def test_checker_rejects_wrong_soc():
    paths = [(1, (0, 1, 2)), (2, (2, 5, 4, 3, 0))]
    problems = check_paths(OPEN3, ENDPOINTS, paths, 5)
    assert any("reported soc 5 != recomputed 6" in p for p in problems)


def test_checker_rejects_wrong_endpoints():
    paths = [(1, (0, 1)), (2, (2, 5, 4, 3, 0))]
    assert check_paths(OPEN3, ENDPOINTS, paths, 5)


def test_tracer_restores_every_wrapped_name():
    bench = WORKLOADS["dense-sat"].pool_instance(0)
    before = {key: key[0].__dict__[key[1]] for key in Tracer.wrapped_names()}
    tracer = Tracer()
    tracer.install()
    try:
        assert any(key[0].__dict__[key[1]] is not fn for key, fn in before.items())
        for algo in ("cbs", "mddsat", "heuristic"):
            out = tracer.run(algo, ALGORITHMS[algo], bench.instance, SolverConfig(timeout_s=20))
            assert out.solved
    finally:
        tracer.uninstall()
    assert all(key[0].__dict__[key[1]] is fn for key, fn in before.items())
    totals = tracer.layer_totals()
    assert totals["solvers.run"]["calls"] == 3
    assert totals["satif.solve"]["calls"] > 0
    assert totals["satif.add_clause"]["calls"] > totals["encoding.build"]["calls"] > 0
    assert totals["pathing.bfs"]["calls"] > 0
    root = sum(s.end - s.start for s in tracer.spans if s.name == "solvers.run")
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root, rel=1e-6)


def test_a_raising_run_becomes_one_error_record(monkeypatch, table):
    w = WORKLOADS["dense-sat"]
    bench, entry = w.generate(1, table)[0]

    def broken(instance, config):
        raise EncodingSoundnessError("injected")

    monkeypatch.setitem(solvers.ALGORITHMS, "mddsat", broken)
    rec = run.run_one(w, bench, entry, "mddsat", 0)
    assert rec.status == run.ERROR and rec.failed
    assert rec.error == "EncodingSoundnessError"
    ok = run.run_one(w, bench, entry, "smtcbs", 0)
    assert ok.status == run.SOLVED and not ok.failed


def test_a_wrong_soc_becomes_one_failed_record(table):
    w = WORKLOADS["dense-sat"]
    bench, entry = w.generate(1, table)[0]
    rec = run.run_one(w, bench, {**entry, "soc": entry["soc"] + 1}, "smtcbs", 0)
    assert rec.status == run.WRONG and "reference" in rec.error
