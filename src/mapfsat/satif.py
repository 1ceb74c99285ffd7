"""Incremental SAT backend: a built-in CDCL solver.

Variables are dense positive integers starting at 1 and literals follow the
DIMACS convention (negative int = negated variable). A solver instance is
incremental: clauses may be added between solve() calls, new variables may be
allocated at any time, and learned clauses survive across calls. Instances
are single-owner; distinct instances may run concurrently.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Optional, Sequence


class SatBackendError(RuntimeError):
    """Internal backend failure; distinct from an UNSAT answer."""


def _luby(x: int) -> int:
    # Luby restart sequence (0-indexed): 1 1 2 1 1 2 4 ...
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class CdclSolver:
    """Conflict-driven clause learning with two watched literals.

    Decision order is activity-based with deterministic tie-breaking, phases
    are saved across backtracks, restarts follow the Luby sequence. Duplicate
    literals are dropped on add; tautological clauses are skipped entirely
    (they constrain nothing) and do not count towards `num_clauses`. Clauses
    live only in the watch lists; `num_clauses` counts every other added
    clause, including units and clauses already satisfied at level 0.

    Literals are encoded as `2 * var` (positive) and `2 * var + 1` (negated).
    `_value` is indexed by encoded literal (1 true, -1 false, 0 unassigned),
    so a literal's value is one list read.

    A clause of three or more literals is a list whose first two entries are
    its watched literals. A binary clause (after level-0 filtering, added or
    learnt) is stored in the watch list of each of its literals as the bare
    encoded other literal, an `int`; it never moves, and `_propagate` builds
    the `[implied, false literal]` list that serves as its reason or conflict
    only when it implies or conflicts.

    The decision queue has two tiers. A `heapq` of `(-activity, var)`
    entries holds the variables whose activity is positive; `_queued` marks
    the variables that have a live entry, one whose key equals the
    variable's current negated activity, and every unassigned variable of
    positive activity has one. A bump pushes a fresh entry and so turns the
    old one stale; `_decide` discards stale entries. A variable is pushed
    again on unassign only when it has no live entry. Variables of activity
    0 are never queued: once the heap holds no unassigned variable,
    `_decide` scans the variable indices forward from `_next`, below which
    every variable of activity 0 is assigned; `_cancel_until` lowers `_next`
    when it unassigns one. When the activity rescale fires, every key
    changes at once, so the heap is rebuilt from the positive activities
    and the scan restarts at index 1, which also covers an activity that
    underflowed to 0. Each decision is the unassigned variable of highest
    activity, ties to the lowest index.

    `interrupt` is polled every `_INTERRUPT_INTERVAL` conflicts and every
    `_INTERRUPT_INTERVAL` decisions; it may raise to abort a long-running
    solve, leaving the instance reusable.
    """

    _RESTART_BASE = 64
    _INTERRUPT_INTERVAL = 64
    _ACT_DECAY = 1.0 / 0.95
    _ACT_LIMIT = 1e100

    def __init__(self, interrupt: Optional[Callable[[], None]] = None):
        self._nvars = 0
        self._nclauses = 0
        # per encoded literal: clause lists, or for a binary clause the other literal
        self._watches: list[list[list[int] | int]] = [[], []]
        self._value = [0, 0]    # per encoded literal: 0 unassigned / 1 true / -1 false
        self._level = [0]
        self._reason: list[Optional[list[int]]] = [None]
        self._phase = [False]
        self._activity = [0.0]
        self._order: list[tuple[float, int]] = []
        self._queued = [False]  # per var: has a live entry in `_order`
        self._next = 1          # every unassigned var of activity 0 is at or above it
        self._trail: list[int] = []
        self._lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._unsat = False
        self._model: Optional[list[bool]] = None
        self._conflict_count = 0
        self._decision_count = 0
        self._interrupt = interrupt

    # ----- variables and clauses -------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._nvars

    @property
    def num_clauses(self) -> int:
        return self._nclauses

    def new_var(self) -> int:
        return self.new_vars(1).start

    def new_vars(self, n: int) -> range:
        """Allocate `n` variables at once; returns their indices."""
        if n < 0:
            raise ValueError(f"cannot allocate {n} variables")
        first = self._nvars + 1
        self._nvars += n
        self._value += [0] * (2 * n)
        self._level += [0] * n
        self._reason += [None] * n
        self._phase += [False] * n
        self._activity += [0.0] * n
        self._queued += [False] * n
        self._watches += [[] for _ in range(2 * n)]
        # activity 0 puts the new variables in the index scan, which already
        # covers them: `_next` never exceeds the first new index
        return range(first, self._nvars + 1)

    def add_clause(self, lits: Iterable[int]) -> None:
        self.add_clauses((tuple(lits),))

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        """Add clauses in order, each exactly as `add_clause` would."""
        # values are read while the literals are checked, so they must be
        # the level-0 values
        if self._lim:
            self._cancel_until(0)
        nvars = self._nvars
        value = self._value
        watches = self._watches
        for lits in clauses:
            if len(lits) == 2:
                # short path: two distinct valid variables, settled by their
                # level-0 values as the general path would settle them
                a, b = lits
                if (type(a) is int and type(b) is int and a and b
                        and -nvars <= a <= nvars and -nvars <= b <= nvars):
                    qa = a << 1 if a > 0 else (-a << 1) | 1
                    qb = b << 1 if b > 0 else (-b << 1) | 1
                    if qa >> 1 != qb >> 1:
                        self._nclauses += 1
                        va, vb = value[qa], value[qb]
                        if self._unsat or va == 1 or vb == 1:
                            continue  # already unsat, or satisfied for good at level 0
                        if va == 0 and vb == 0:
                            watches[qa].append(qb)
                            watches[qb].append(qa)
                        elif va == vb:
                            self._unsat = True  # both false
                        else:
                            self._enqueue(qa if va == 0 else qb, None)
                            if self._propagate() is not None:
                                self._unsat = True
                        continue
            seen: set[int] = set()  # encoded literals
            enc = []                # encoded literals not false at level 0
            satisfied = tautology = False
            for lit in lits:
                if not isinstance(lit, int) or type(lit) is bool or lit == 0:
                    raise ValueError(f"invalid literal {lit!r}")
                if lit > 0:
                    if lit > nvars:
                        raise ValueError(f"unallocated variable {lit}")
                    q = lit << 1
                else:
                    if -lit > nvars:
                        raise ValueError(f"unallocated variable {-lit}")
                    q = (-lit << 1) | 1
                if (q ^ 1) in seen:
                    tautology = True
                    break
                if q not in seen:
                    seen.add(q)
                    v = value[q]
                    if v == 0:
                        enc.append(q)
                    elif v == 1:
                        satisfied = True
            if tautology:
                continue  # constrains nothing
            if not seen:
                raise ValueError("empty clause")
            self._nclauses += 1
            if self._unsat or satisfied:
                continue  # already unsat, or satisfied for good at level 0
            if not enc:
                self._unsat = True
            elif len(enc) == 1:
                self._enqueue(enc[0], None)
                if self._propagate() is not None:
                    self._unsat = True
            elif len(enc) == 2:
                watches[enc[0]].append(enc[1])
                watches[enc[1]].append(enc[0])
            else:
                watches[enc[0]].append(enc)
                watches[enc[1]].append(enc)

    # ----- search ----------------------------------------------------------------

    def _enqueue(self, q: int, reason: Optional[list[int]]) -> None:
        var = q >> 1
        self._value[q] = 1
        self._value[q ^ 1] = -1
        self._level[var] = len(self._lim)
        self._reason[var] = reason
        self._trail.append(q)

    def _propagate(self) -> Optional[list[int]]:
        trail = self._trail
        value = self._value
        watches = self._watches
        level = self._level
        reason = self._reason
        cur_level = len(self._lim)
        qhead = self._qhead
        while qhead < len(trail):
            fl = trail[qhead] ^ 1  # literal that just became false
            qhead += 1
            ws = watches[fl]
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if type(c) is int:
                    # binary clause: c is its other literal, and it stays put
                    ws[j] = c
                    j += 1
                    vf = value[c]
                    if vf == 1:
                        continue
                    if vf == -1:
                        del ws[j:i]  # conflict: keep the remaining watchers
                        self._qhead = len(trail)
                        return [c, fl]
                    value[c] = 1
                    value[c ^ 1] = -1
                    level[c >> 1] = cur_level
                    reason[c >> 1] = [c, fl]
                    trail.append(c)
                    continue
                first = c[0]
                if first == fl:
                    first = c[0] = c[1]
                    c[1] = fl
                # invariant: c[1] == fl
                vf = value[first]
                if vf == 1:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    q = c[k]
                    if value[q] != -1:
                        c[1] = q
                        c[k] = fl
                        watches[q].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if vf == -1:
                        del ws[j:i]  # conflict: keep the remaining watchers
                        self._qhead = len(trail)
                        return c
                    value[first] = 1
                    value[first ^ 1] = -1
                    level[first >> 1] = cur_level
                    reason[first >> 1] = c
                    trail.append(first)
            del ws[j:]
        self._qhead = qhead
        return None

    def _bump(self, var: int) -> None:
        act = self._activity[var] + self._var_inc
        self._activity[var] = act
        self._queued[var] = True
        if act > self._ACT_LIMIT:
            scale = 1.0 / self._ACT_LIMIT
            activity = self._activity
            for v in range(1, self._nvars + 1):
                activity[v] *= scale
            self._var_inc *= scale
            # an activity that underflowed to 0 leaves the heap for the scan
            self._order = [(-a, v) for v, a in enumerate(activity) if a > 0.0]
            heapq.heapify(self._order)
            self._queued = [a > 0.0 for a in activity]
            self._next = 1
        else:
            heapq.heappush(self._order, (-act, var))

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = [0]
        seen = bytearray(self._nvars + 1)
        level = self._level
        trail = self._trail
        counter = 0
        p: Optional[int] = None
        bt = 0
        index = len(trail) - 1
        cur_level = len(self._lim)
        c = confl
        while True:
            for q in (c if p is None else c[1:]):
                var = q >> 1
                lv = level[var]
                if not seen[var] and lv > 0:
                    seen[var] = 1
                    self._bump(var)
                    if lv >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
                        if lv > bt:
                            bt = lv
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            counter -= 1
            seen[p >> 1] = 0
            if counter == 0:
                break
            c = self._reason[p >> 1]
            if c is None:
                raise SatBackendError("missing reason during conflict analysis")
        learnt[0] = p ^ 1
        return learnt, bt

    def _cancel_until(self, level: int) -> None:
        lim = self._lim
        trail = self._trail
        if len(lim) > level:
            mark = lim[level]
            del lim[level:]
            value = self._value
            phase = self._phase
            queued = self._queued
            activity = self._activity
            order = self._order
            nxt = self._next
            for q in trail[mark:]:
                var = q >> 1
                phase[var] = not (q & 1)
                value[q] = value[q ^ 1] = 0
                if not queued[var]:
                    act = activity[var]
                    if act > 0.0:
                        queued[var] = True
                        heapq.heappush(order, (-act, var))
                    elif var < nxt:
                        nxt = var
            self._next = nxt
            del trail[mark:]
        self._qhead = len(trail)

    def _decide(self) -> int:
        order = self._order
        activity = self._activity
        queued = self._queued
        value = self._value
        while order:
            key, var = heapq.heappop(order)
            if key != -activity[var]:
                continue  # stale: the variable was bumped after this push
            queued[var] = False
            if value[var << 1] == 0:
                return var
        # every unassigned variable left has activity 0: take the lowest. An
        # unassigned variable has both encoded literals 0 and an assigned one
        # neither, so the first 0 from an even index is a positive literal.
        try:
            var = value.index(0, self._next << 1) >> 1
        except ValueError:
            return 0
        self._next = var
        return var

    def _poll(self, count: int) -> None:
        if self._interrupt is not None and count % self._INTERRUPT_INTERVAL == 0:
            self._interrupt()

    def solve(self) -> bool:
        self._model = None
        if self._unsat:
            return False
        self._cancel_until(0)
        if self._propagate() is not None:
            self._unsat = True
            return False
        restart_idx = 0
        budget = _luby(restart_idx) * self._RESTART_BASE
        since_restart = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                self._conflict_count += 1
                if not self._lim:
                    self._unsat = True
                    return False
                since_restart += 1
                self._poll(self._conflict_count)
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                elif len(learnt) == 2:
                    self._watches[learnt[0]].append(learnt[1])
                    self._watches[learnt[1]].append(learnt[0])
                    self._enqueue(learnt[0], learnt)
                else:
                    # watch the asserting literal and one literal from the
                    # backjump level so the watches stay sound
                    best = max(range(1, len(learnt)), key=lambda k: self._level[learnt[k] >> 1])
                    learnt[1], learnt[best] = learnt[best], learnt[1]
                    self._watches[learnt[0]].append(learnt)
                    self._watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self._var_inc *= self._ACT_DECAY
            else:
                if since_restart >= budget:
                    restart_idx += 1
                    budget = _luby(restart_idx) * self._RESTART_BASE
                    since_restart = 0
                    self._cancel_until(0)
                    continue
                var = self._decide()
                if var == 0:
                    self._model = [v == 1 for v in self._value[::2]]
                    return True
                self._lim.append(len(self._trail))
                q = (var << 1) if self._phase[var] else (var << 1) | 1
                self._enqueue(q, None)
                self._decision_count += 1
                self._poll(self._decision_count)

    def model(self) -> list[bool]:
        """Truth values indexed by variable (index 0 unused); valid after SAT."""
        if self._model is None:
            raise ValueError("no model available; last solve was not SAT")
        return list(self._model)
