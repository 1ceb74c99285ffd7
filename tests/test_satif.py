from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from mapfsat import CdclSolver


def check_model(clauses, model: list[bool]) -> bool:
    """Independent check that a truth assignment satisfies every clause."""
    for clause in clauses:
        if not any(
            (model[lit] if lit > 0 else not model[-lit]) for lit in clause
        ):
            return False
    return True


def brute_force_sat(nvars: int, clauses: list[list[int]]) -> bool:
    for bits in itertools.product([False, True], repeat=nvars):
        if check_model(clauses, [False, *bits]):
            return True
    return False


def solver_with(nvars: int, clauses: list[list[int]], **kwargs) -> CdclSolver:
    s = CdclSolver(**kwargs)
    for _ in range(nvars):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    return s


class TestContract:
    def test_empty_formula_is_sat(self):
        assert CdclSolver().solve() is True

    def test_unit_propagation_forces_model(self):
        s = solver_with(2, [[1], [-1, 2]])
        assert s.solve()
        model = s.model()
        assert model[1] is True
        assert model[2] is True

    def test_contradiction_is_unsat(self):
        s = solver_with(1, [[1], [-1]])
        assert s.solve() is False

    def test_clause_then_solve_is_consistent(self):
        s = solver_with(2, [[1, -2]])
        assert s.solve()
        assert check_model([[1, -2]], s.model())

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            CdclSolver().add_clause([])

    def test_unallocated_variable_rejected(self):
        s = CdclSolver()
        s.new_var()
        with pytest.raises(ValueError):
            s.add_clause([2])

    def test_model_unavailable_after_unsat(self):
        s = solver_with(1, [[1], [-1]])
        s.solve()
        with pytest.raises(ValueError):
            s.model()

    def test_duplicate_literals_collapse(self):
        s = solver_with(1, [[1, 1]])
        assert s.solve()
        assert s.model()[1] is True

    def test_tautology_is_dropped(self):
        s = CdclSolver()
        s.new_var()
        s.add_clause([1, -1])
        assert s.num_clauses == 0
        assert s.solve()


class TestIncremental:
    def test_learned_state_survives_clause_additions(self):
        s = solver_with(3, [[1, 2], [-1, 3]])
        assert s.solve()
        s.add_clause([-3])
        assert s.solve()
        model = s.model()
        assert check_model([[1, 2], [-1, 3], [-3]], model)
        s.add_clause([-2])
        assert s.solve() is False

    def test_unsat_is_monotone(self):
        s = solver_with(2, [[1], [-1]])
        assert s.solve() is False
        s.add_clause([2])
        assert s.solve() is False

    def test_variables_added_between_solves(self):
        s = solver_with(1, [[1]])
        assert s.solve()
        v = s.new_var()
        s.add_clause([-v])
        assert s.solve()
        assert s.model()[v] is False

    def test_many_interleaved_rounds(self):
        rng = random.Random(4)
        s = CdclSolver()
        nv = 8
        for _ in range(nv):
            s.new_var()
        acc: list[list[int]] = []
        unsat_seen = False
        for _ in range(12):
            for _ in range(rng.randint(1, 5)):
                width = rng.randint(1, 3)
                clause = [
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, nv + 1), width)
                ]
                acc.append(clause)
                s.add_clause(clause)
            got = s.solve()
            assert got == brute_force_sat(nv, acc)
            if got:
                assert check_model(acc, s.model())
                assert not unsat_seen
            else:
                unsat_seen = True


def test_fuzz_against_brute_force():
    rng = random.Random(2024)
    for _ in range(150):
        nv = rng.randint(1, 9)
        clauses = []
        for _ in range(rng.randint(1, 40)):
            width = rng.randint(1, 3)
            clauses.append([
                v if rng.random() < 0.5 else -v
                for v in (rng.randint(1, nv) for _ in range(width))
            ])
        s = solver_with(nv, clauses)
        got = s.solve()
        assert got == brute_force_sat(nv, clauses), clauses
        if got:
            assert check_model(clauses, s.model())


def test_activity_rescale_keeps_search_complete(monkeypatch):
    # a tiny limit makes the rescale fire every few conflicts; the decision
    # queue must be rebuilt then, or variables drop out of it and the model
    # comes back partial
    monkeypatch.setattr(CdclSolver, "_ACT_LIMIT", 4.0)
    fired = 0
    for seed in range(40):
        rng = random.Random(seed)
        nv = 12
        s = solver_with(nv, [])
        acc: list[list[int]] = []
        for _ in range(8):
            # hard random 3-SAT, grown towards the phase transition
            for _ in range(7):
                clause = [v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, nv + 1), 3)]
                acc.append(clause)
                s.add_clause(clause)
            got = s.solve()
            assert got == brute_force_sat(nv, acc), (seed, acc)
            if not got:
                break
            assert check_model(acc, s.model())
        fired += s._var_inc < 1.0  # only a rescale lowers the increment
    assert fired >= 20


@st.composite
def incremental_cnf(draw):
    """Rounds of (new variables, new clauses); clauses use any variable so far."""
    nvars = 0
    rounds = []
    for _ in range(draw(st.integers(1, 5))):
        fresh = draw(st.integers(0 if nvars else 1, 3))
        nvars = min(nvars + fresh, 10)
        lit = st.integers(1, nvars).flatmap(lambda v: st.sampled_from([v, -v]))
        clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=4), max_size=12))
        rounds.append((nvars, clauses))
    return rounds


@settings(max_examples=150, deadline=None)
@given(incremental_cnf())
def test_incremental_cnf_agrees_with_brute_force(rounds):
    s = CdclSolver()
    acc: list[list[int]] = []
    for nvars, clauses in rounds:
        while s.num_vars < nvars:
            s.new_var()
        for clause in clauses:
            acc.append(clause)
            s.add_clause(clause)
        got = s.solve()
        assert got == brute_force_sat(nvars, acc)
        if got:
            assert check_model(acc, s.model())


def test_num_clauses_counts_every_added_clause_but_tautologies():
    s = solver_with(3, [])
    s.add_clause([1, 1, 2])  # duplicate literal: one clause
    assert s.num_clauses == 1
    s.add_clause([1, -1])  # tautology: constrains nothing, not counted
    assert s.num_clauses == 1
    s.add_clause([3])  # unit
    assert s.num_clauses == 2
    s.add_clause([3, 2])  # already satisfied at level 0
    assert s.num_clauses == 3
    s.add_clause([-3])  # contradicts the unit
    assert s.num_clauses == 4
    assert s.solve() is False
    s.add_clause([2])  # added after UNSAT
    assert s.num_clauses == 5


def test_interrupt_hook_aborts_and_instance_stays_usable(monkeypatch):
    class Stop(Exception):
        pass

    calls = []

    def hook():
        calls.append(1)
        raise Stop

    monkeypatch.setattr(CdclSolver, "_INTERRUPT_INTERVAL", 1)
    s = CdclSolver(interrupt=hook)
    for _ in range(30):
        s.new_var()
    rng = random.Random(9)
    # hard random 3-SAT around the phase transition keeps the search busy
    for _ in range(130):
        vs = rng.sample(range(1, 31), 3)
        s.add_clause([v if rng.random() < 0.5 else -v for v in vs])
    try:
        s.solve()
    except Stop:
        pass
    if calls:
        s._interrupt = None
        s.solve()  # must not crash after an aborted attempt


def test_interrupt_is_polled_on_decisions(monkeypatch):
    class Stop(Exception):
        pass

    calls = []

    def hook():
        calls.append(1)
        raise Stop

    # no clause can conflict, so only the decision poll reaches the hook
    clauses = [[1, 2], [3, 4], [-5, 6]]
    monkeypatch.setattr(CdclSolver, "_INTERRUPT_INTERVAL", 1)
    s = solver_with(6, clauses, interrupt=hook)
    with pytest.raises(Stop):
        s.solve()
    assert calls == [1]
    s._interrupt = None
    assert s.solve()  # the aborted solve left the instance usable
    assert check_model(clauses, s.model())


def test_interrupt_at_any_poll_leaves_answers_sound(monkeypatch):
    # abort at the k-th poll for every k, then solve again without the hook:
    # the answer must not depend on where the abort landed
    class Stop(Exception):
        pass

    monkeypatch.setattr(CdclSolver, "_INTERRUPT_INTERVAL", 1)
    for seed in range(30):
        rng = random.Random(seed)
        nv = 8
        clauses = [[v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, nv + 1), 3)] for _ in range(40)]
        truth = brute_force_sat(nv, clauses)
        k = 0
        while True:
            k += 1
            polls = []

            def hook():
                polls.append(1)
                if len(polls) == k:
                    raise Stop

            s = solver_with(nv, clauses, interrupt=hook)
            try:
                got = s.solve()
                aborted = False
            except Stop:
                s._interrupt = None
                got = s.solve()
                aborted = True
            assert got == truth, (seed, k)
            if got:
                assert check_model(clauses, s.model())
            if not aborted:
                break


def random_stream(rng: random.Random, nvars: int, n: int) -> list[list[int]]:
    """Clauses mixing units, duplicate literals, tautologies and plain clauses."""
    def lit() -> int:
        return rng.choice((1, -1)) * rng.randint(1, nvars)

    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.1:
            out.append([lit()])
        elif kind < 0.2:
            a = lit()
            out.append([a, a, lit()])
        elif kind < 0.3:
            a = lit()
            out.append([a, lit(), -a])
        else:
            out.append([lit() for _ in range(rng.choice((2, 2, 2, 3, 4)))])
    return out


def in_batches(rng: random.Random, clauses: list[list[int]]):
    i = 0
    while i < len(clauses):
        j = i + rng.randint(0, 6)
        yield clauses[i:j]
        i = j


@pytest.mark.parametrize("seed", range(40))
def test_add_clauses_equals_repeated_add_clause(seed):
    rng = random.Random(seed)
    nvars = rng.randint(3, 12)
    one, batched = CdclSolver(), CdclSolver()
    one.new_vars(nvars)
    batched.new_vars(nvars)
    # three rounds, so later clauses meet literals that earlier units and
    # solves fixed at level 0, and a solver left above level 0
    for _ in range(3):
        stream = random_stream(rng, nvars, rng.randint(0, 3 * nvars))
        for clause in stream:
            # repeating a literal changes nothing but keeps a binary clause
            # off the short path, so `one` takes the general path throughout
            one.add_clause([*clause, clause[-1]])
        for batch in in_batches(rng, stream):
            batched.add_clauses(batch)
        assert one.num_clauses == batched.num_clauses
        # a clause dropped on one path is dropped on the other, watchers included
        assert one._trail == batched._trail
        assert one._watches == batched._watches
        got = one.solve()
        assert batched.solve() == got
        assert (one._conflict_count, one._decision_count) == (
            batched._conflict_count, batched._decision_count)
        if got:
            assert one.model() == batched.model()


@pytest.mark.parametrize("bad", [0, 4, -4, 1.0, "1", None, True])
def test_add_clauses_rejects_invalid_literals_like_add_clause(bad):
    one, batched = CdclSolver(), CdclSolver()
    one.new_vars(3)
    batched.new_vars(3)
    one.add_clause([1, 2])
    with pytest.raises(ValueError) as single:
        one.add_clause([-1, bad])
    with pytest.raises(ValueError) as batch:
        batched.add_clauses([[1, 2], [-1, bad], [3]])
    assert str(batch.value) == str(single.value)
    # the clause ahead of the bad one is in, the one behind it is not
    assert batched.num_clauses == one.num_clauses == 1


def test_new_vars_rejects_a_negative_count():
    s = CdclSolver()
    s.new_vars(3)
    with pytest.raises(ValueError):
        s.new_vars(-2)
    assert s.num_vars == 3
    assert s.new_vars(0) == range(4, 4)
    s.add_clause([-3])
    assert s.solve()
    assert s.model() == [False, False, False, False]


@pytest.mark.parametrize("seed", range(5))
def test_new_vars_equals_repeated_new_var(seed):
    rng = random.Random(seed)
    clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 41), 3)]
               for _ in range(170)]
    one, batched = CdclSolver(), CdclSolver()
    for _ in range(40):
        one.new_var()
    assert batched.new_vars(25) == range(1, 26)
    assert batched.new_vars(0) == range(26, 26)
    assert batched.new_vars(15) == range(26, 41)
    for c in clauses:
        one.add_clause(c)
    batched.add_clauses(clauses)
    assert one.solve() == batched.solve()
    assert (one._conflict_count, one._decision_count) == (
        batched._conflict_count, batched._decision_count)
    assert one._conflict_count > 0


@pytest.mark.parametrize("patch", [{}, {"_ACT_LIMIT": 4.0}, {"_ACT_DECAY": 1e90}],
                         ids=["default", "rescale", "underflow"])
def test_each_decision_takes_highest_activity_then_lowest_index(monkeypatch, patch):
    # a limit of 4 makes the activity rescale fire every few conflicts; a
    # decay of 1e90 makes it fire about once per conflict, so an activity left
    # unbumped for a few conflicts underflows to 0.0 and ranks with the
    # never-bumped variables again
    for name, value in patch.items():
        monkeypatch.setattr(CdclSolver, name, value)
    decide, bump = CdclSolver._decide, CdclSolver._bump
    bumped: set[int] = set()  # of the current solver
    top_inc = [0.0]           # highest `_var_inc` of the current solver
    seen = {"decisions": 0, "rescaled": 0, "underflowed": 0}

    def recording_bump(self, var):
        bumped.add(var)
        bump(self, var)

    def checked_decide(self):
        free = [v for v in range(1, self.num_vars + 1) if self._value[v << 1] == 0]
        want = max(free, key=lambda v: (self._activity[v], -v), default=0)
        got = decide(self)
        assert got == want
        seen["decisions"] += 1
        # only a rescale lowers the increment
        seen["rescaled"] += self._var_inc < top_inc[0]
        top_inc[0] = max(top_inc[0], self._var_inc)
        seen["underflowed"] += want in bumped and self._activity[want] == 0.0
        return got

    monkeypatch.setattr(CdclSolver, "_bump", recording_bump)
    monkeypatch.setattr(CdclSolver, "_decide", checked_decide)
    for seed in range(60):
        rng = random.Random(seed)
        s = CdclSolver()
        bumped.clear()
        top_inc[0] = 0.0
        acc: list[list[int]] = []
        for _ in range(8):
            # variables and random 3-SAT clauses arrive between solves, the
            # clauses growing towards the phase transition
            s.new_vars(rng.randint(0, 3) if s.num_vars else 30)
            new = [[v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, s.num_vars + 1), 3)]
                   for _ in range(rng.randint(20, 30))]
            acc += new
            s.add_clauses(new)
            if not s.solve():
                break
            assert check_model(acc, s.model())
    assert seen["decisions"] > 5000
    if patch:
        assert seen["rescaled"] > 1000
    if "_ACT_DECAY" in patch:
        assert seen["underflowed"] > 20


def clause_of(nvars: int, width: int):
    """Strategy: a clause over `width` distinct variables of 1..nvars."""
    return st.lists(st.integers(1, nvars), min_size=width, max_size=width, unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from([v, -v]) for v in vs)).map(list))


@st.composite
def incremental_2sat(draw):
    """Rounds of (new variables, new clauses): binary clauses, a few ternary."""
    nvars = 0
    rounds = []
    for _ in range(draw(st.integers(1, 8))):
        nvars = min(nvars + draw(st.integers(0 if nvars else 3, 3)), 10)
        clauses = draw(st.lists(clause_of(nvars, 2), min_size=1, max_size=6))
        clauses += draw(st.lists(clause_of(nvars, 3), max_size=4))
        rounds.append((nvars, clauses))
    return rounds


def test_binary_heavy_incremental_cnf_agrees_with_brute_force():
    # binary clauses live in the watch lists as bare literals; count the draws
    # where conflict analysis learnt a binary clause and where it resolved on
    # a binary reason, so that path is known to have been exercised
    learnt_binary = binary_reason = 0

    class ReasonLog(list):
        """Reason table that notes whether analysis read a binary reason."""

        def __getitem__(self, i):
            r = super().__getitem__(i)
            self.binary_read |= r is not None and len(r) == 2
            return r

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(incremental_2sat())
    def run(rounds):
        nonlocal learnt_binary, binary_reason
        s = CdclSolver()
        s._reason = ReasonLog(s._reason)
        s._reason.binary_read = False
        analyze = s._analyze
        learnt_sizes = []

        def recording_analyze(confl):
            learnt, bt = analyze(confl)
            learnt_sizes.append(len(learnt))
            return learnt, bt

        s._analyze = recording_analyze
        acc: list[list[int]] = []
        for nvars, clauses in rounds:
            s.new_vars(nvars - s.num_vars)
            s.add_clauses(clauses)
            acc += clauses
            got = s.solve()
            assert got == brute_force_sat(nvars, acc)
            if got:
                assert check_model(acc, s.model())
        # steer the draws towards formulas that learn binary clauses
        target(float(learnt_sizes.count(2)), label="learnt binary clauses")
        learnt_binary += 2 in learnt_sizes
        binary_reason += s._reason.binary_read

    run()
    assert learnt_binary >= 30
    assert binary_reason >= 70
