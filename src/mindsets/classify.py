"""Possession witnesses, the qualification verdict, and the activity metric.

A trace possesses the input condition at a step when some system region's
count strictly grew and that growth involved elements arriving from the
environment; output is the mirror image; processing needs two system regions
with strictly opposite count changes caused only by internal movement. The
verdict over a window is existential: all three conditions witnessed
somewhere inside it.

``classify``, ``attribution``, ``activity`` and the ``witness_*`` helpers
read the recorded events only, plus the region sides of ``t.initial``: a
step's count changes are its arrivals minus its departures. Each step's
facts (its witnesses, its attributed role and its boundary-crossing mover
count) depend on that step alone, so each is computed once per trace, the
first time its step is asked for, and kept in a table the trace holds
(``Trace._step_facts``); a window query is then assembled from slices of
that table.
``brute_force_classify`` is the oracle and reads snapshots only: it
rederives movement from membership diffs, takes count changes from literal
region counts, and decides each condition by exhaustive enumeration of
region subsets; it never reads the table. The two paths share only the
canonical witness list and the reading of one step's role: the event path
sorts whole events by the sides they connect in one pass over a step, the
oracle sorts its diffed moves one element at a time. Attribution (the
declared-role sequence used for cycle tables) is deliberately independent
of witnessing: it reads ``via_structure`` tags and nothing else.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, fields
from itertools import chain, combinations
from operator import attrgetter

from .evolution import EXTERNAL_IN, EXTERNAL_OUT, Trace
from .universe import ENVIRONMENT, SYSTEM, ConstructionError, ElementId, RegionId, Snapshot

__all__ = [
    "CONDITIONS",
    "WindowError",
    "Witness",
    "IntelligenceReport",
    "ActivityScore",
    "attribution",
    "witness_input",
    "witness_output",
    "witness_processing",
    "classify",
    "brute_force_classify",
    "activity",
]

CONDITIONS = ("input", "processing", "output")


class WindowError(ConstructionError):
    """A step window is empty or reaches outside the trace."""


def check_window(t: Trace, window: tuple[int, int]) -> tuple[int, int]:
    start, stop = window
    if start >= stop:
        raise WindowError(f"empty window {start}:{stop}")
    if start < 0 or stop > len(t.events):
        raise WindowError(f"window {start}:{stop} outside steps 0:{t.n_steps}")
    return start, stop


@dataclass(frozen=True, eq=True, slots=True)
class Witness:
    """Evidence that one condition held across a single step.

    ``grown_region`` is the system region whose count strictly rose (input
    and processing), ``shrunk_region`` the one that strictly fell (output and
    processing); the unused side is None. ``movers`` are the elements whose
    movement carried the change: arrivals from the environment, departures
    to it, or the internal movers entering the grown and leaving the shrunk
    region.
    """

    condition: str
    step: int
    grown_region: RegionId | None
    shrunk_region: RegionId | None
    movers: frozenset[ElementId]


@dataclass(frozen=True, eq=True)
class IntelligenceReport:
    """Aggregated witnesses over a half-open step window.

    ``attribution`` has one entry per step: the role of the structure its
    events were tagged with, "other" for untagged steps, and a "+"-joined
    sorted list when one step carries tags of several roles.
    """

    window: tuple[int, int]
    witnesses: tuple[Witness, ...]
    has_input: bool
    has_processing: bool
    has_output: bool
    verdict: bool
    attribution: tuple[str, ...]

    def witnesses_for(self, condition: str) -> tuple[Witness, ...]:
        return tuple(w for w in self.witnesses if w.condition == condition)

    def steps_with(self, condition: str) -> frozenset[int]:
        return frozenset(w.step for w in self.witnesses if w.condition == condition)


@dataclass(frozen=True, eq=True)
class ActivityScore:
    """How busy the system boundary is over a window.

    ``step_activity`` is the fraction of steps with at least one boundary
    crossing; ``element_rate`` is boundary-moved elements per step. ``mode``
    records which estimator the caller asked for; both are always computed.
    """

    window: tuple[int, int]
    step_activity: float
    element_rate: float
    mode: str = "step"


def _role(roles_by_id: dict[str, str], events) -> str:
    """One step's declared role: "other" if no event is tagged, else the
    sorted roles of its tags joined by "+"."""
    if len(events) == 1:
        via = events[0].via_structure
        return roles_by_id[via] if via else "other"
    roles = sorted({roles_by_id[ev.via_structure] for ev in events if ev.via_structure})
    return "+".join(roles) or "other"


def attribution(t: Trace, window: tuple[int, int]) -> tuple[str, ...]:
    """Per-step declared-role sequence from via_structure tags."""
    start, stop = check_window(t, window)
    return tuple(t._step_facts.roles(start, stop))


def _movement(
    region_side: dict[RegionId, str], moves: list[tuple[ElementId, RegionId, RegionId]]
):
    """Sort one step's (element, from, to) moves by the sides they connect.

    Returns arrivals from the environment, departures to it, internal
    arrivals and internal departures, each as region -> movers. Used by the
    oracle on its membership diffs; the event path sorts whole events in
    `_step_witnesses` instead.
    """
    movement = tuple(defaultdict(set) for _ in range(4))
    arrivals_in, departures_out, arrivals_internal, departures_internal = movement
    for eid, src, dst in moves:
        sides = (region_side[src], region_side[dst])
        if sides == (ENVIRONMENT, SYSTEM):
            arrivals_in[dst].add(eid)
        elif sides == (SYSTEM, ENVIRONMENT):
            departures_out[src].add(eid)
        elif sides == (SYSTEM, SYSTEM):
            arrivals_internal[dst].add(eid)
            departures_internal[src].add(eid)
    return movement


_new = object.__new__
_set_attr = object.__setattr__
# the slot descriptors' setters, which a frozen class's own __setattr__ refuses
_SET_CONDITION, _SET_STEP, _SET_GROWN, _SET_SHRUNK, _SET_MOVERS = (
    Witness.__dict__[f.name].__set__ for f in fields(Witness)
)


def _witness(condition, step, grown_region, shrunk_region, movers) -> Witness:
    """``Witness(...)``, one slot store per field instead of the generated
    ``__init__``'s ``object.__setattr__`` calls."""
    w = _new(Witness)
    _SET_CONDITION(w, condition)
    _SET_STEP(w, step)
    _SET_GROWN(w, grown_region)
    _SET_SHRUNK(w, shrunk_region)
    _SET_MOVERS(w, movers)
    return w


def _witnesses(
    step: int, system: list[RegionId], delta: dict[RegionId, int], movement
) -> list[Witness]:
    """Build the canonical region-level witness list for one step.

    Shared between the event reader and the oracle; each feeds it the count
    changes and the four movement maps (region -> movers, as `_movement`
    returns them) that it gathered its own way. A region missing from
    ``delta`` did not change. Order: inputs by grown region, processings by
    (grown, shrunk), outputs by shrunk region.
    """
    arrivals_in, departures_out, arrivals_internal, departures_internal = movement
    witnesses: list[Witness] = []
    outputs: list[Witness] = []
    # the grown and the shrunk regions that no boundary movement touched
    grown_clean: list[RegionId] = []
    shrunk_clean: list[RegionId] = []
    for r in system:
        d = delta.get(r, 0)
        if d > 0:
            if arrivals_in.get(r):
                witnesses.append(_witness("input", step, r, None, frozenset(arrivals_in[r])))
            elif not departures_out.get(r):
                grown_clean.append(r)
        elif d < 0:
            if departures_out.get(r):
                outputs.append(_witness("output", step, None, r, frozenset(departures_out[r])))
            elif not arrivals_in.get(r):
                shrunk_clean.append(r)
    for r in grown_clean:
        for s in shrunk_clean:
            movers = arrivals_internal.get(r, frozenset()) | departures_internal.get(s, frozenset())
            witnesses.append(_witness("processing", step, r, s, frozenset(movers)))
    witnesses += outputs
    return witnesses


def _system(first: Snapshot) -> list[RegionId]:
    return sorted(first.system_regions())


def _join(movers: dict, region: RegionId, moved: frozenset[ElementId]) -> None:
    """Add an event's movers to a region's; its first event's set is kept as is."""
    known = movers.get(region)
    movers[region] = moved if known is None else known | moved


def _step_witnesses(
    step: int, events, system: list[RegionId], region_side: dict[RegionId, str]
) -> tuple[Witness, ...]:
    """One step's witnesses from its events alone, in one pass over them:
    each region's count change is its arrivals minus its departures, and
    each event's movers join the movement map its two sides select.

    A step of one event that moves elements between two distinct regions
    out of, into or within the system has exactly one witness, built here
    from the event itself, with its movers the event's own set (as `_role`
    reads a one-event step directly); `_witnesses` would give an equal one.
    """
    if len(events) == 1:
        ev = events[0]
        src, dst, moved = ev.from_region, ev.to_region, ev.moved
        if moved and src != dst:
            sides = (region_side[src], region_side[dst])
            if sides == (SYSTEM, SYSTEM):
                return (_witness("processing", step, dst, src, moved),)
            if sides == (ENVIRONMENT, SYSTEM):
                return (_witness("input", step, dst, None, moved),)
            if sides == (SYSTEM, ENVIRONMENT):
                return (_witness("output", step, None, src, moved),)
    delta: dict[RegionId, int] = {}
    arrivals_in: dict[RegionId, frozenset[ElementId]] = {}
    departures_out: dict[RegionId, frozenset[ElementId]] = {}
    arrivals_internal: dict[RegionId, frozenset[ElementId]] = {}
    departures_internal: dict[RegionId, frozenset[ElementId]] = {}
    for ev in events:
        src, dst, moved = ev.from_region, ev.to_region, ev.moved
        n = len(moved)
        delta[dst] = delta.get(dst, 0) + n
        delta[src] = delta.get(src, 0) - n
        sides = (region_side[src], region_side[dst])
        if sides == (SYSTEM, SYSTEM):
            _join(arrivals_internal, dst, moved)
            _join(departures_internal, src, moved)
        elif sides == (ENVIRONMENT, SYSTEM):
            _join(arrivals_in, dst, moved)
        elif sides == (SYSTEM, ENVIRONMENT):
            _join(departures_out, src, moved)
    movement = (arrivals_in, departures_out, arrivals_internal, departures_internal)
    return tuple(_witnesses(step, system, delta, movement))


def _filled(known: list, start: int, stop: int, fact) -> list:
    """``known[start:stop]``, after computing each entry still None as
    ``fact(i)``. The table's readers slice first and search the slice for
    None at C level, and call this only for a window with a missing entry,
    so only such a window is walked step by step. The caller has
    range-checked the window: a negative index would wrap around the list."""
    for i in range(start, stop):
        if known[i] is None:
            known[i] = fact(i)
    return known[start:stop]


class _StepFacts:
    """The per-step facts of one trace, held by the trace (``Trace._step_facts``).

    Each depends only on its step's events and the initial region sides or
    the declared roles, and is computed the first time its step is asked
    for: ``witnesses`` (the step's witness tuple), ``roles`` (its attributed
    role) and ``crossers`` (how many elements its ``external_in`` and
    ``external_out`` events moved). The three fill apart, so a query pays
    only for the facts it reads, and only for the steps in its window. A
    window is assembled from slices of these lists (see `_filled`), so a
    query on steps already filled makes no Python-level pass over them.
    Nothing here refers back to the trace, so the table is freed with it.
    """

    def __init__(self, t: Trace) -> None:
        self._events = t.events
        self._system = _system(t.initial)
        self._region_side = t.initial.region_side
        self._roles_by_id = {d.id: d.role for d in t.declarations}
        n = len(t.events)
        self._witnesses: list[tuple[Witness, ...] | None] = [None] * n
        self._roles: list[str | None] = [None] * n
        self._crossers: list[int | None] = [None] * n

    def witnesses(self, start: int, stop: int) -> list[tuple[Witness, ...]]:
        window = self._witnesses[start:stop]
        if None not in window:
            return window
        return _filled(
            self._witnesses,
            start,
            stop,
            lambda i: _step_witnesses(i, self._events[i], self._system, self._region_side),
        )

    def roles(self, start: int, stop: int) -> list[str]:
        window = self._roles[start:stop]
        if None not in window:
            return window
        return _filled(
            self._roles, start, stop, lambda i: _role(self._roles_by_id, self._events[i])
        )

    def crossers(self, start: int, stop: int) -> list[int]:
        window = self._crossers[start:stop]
        if None not in window:
            return window
        return _filled(
            self._crossers,
            start,
            stop,
            lambda i: sum(
                len(ev.moved) for ev in self._events[i] if ev.kind in (EXTERNAL_IN, EXTERNAL_OUT)
            ),
        )


def _first(t: Trace, step: int, condition: str) -> Witness | None:
    if not (0 <= step < len(t.events)):
        raise WindowError(f"step {step} outside steps 0:{t.n_steps}")
    facts = t._step_facts
    witnesses = facts._witnesses[step]
    if witnesses is None:
        (witnesses,) = facts.witnesses(step, step + 1)
    for w in witnesses:
        if w.condition == condition:
            return w
    return None


def witness_input(t: Trace, step: int) -> Witness | None:
    return _first(t, step, "input")


def witness_output(t: Trace, step: int) -> Witness | None:
    return _first(t, step, "output")


def witness_processing(t: Trace, step: int) -> Witness | None:
    return _first(t, step, "processing")


_condition = attrgetter("condition")


def _record(cls, fields_in_order: dict):
    """``cls(**fields_in_order)`` for a frozen dataclass without slots: the
    instance dict is stored in one call instead of one ``object.__setattr__``
    per field by the generated ``__init__``. The dict must name every field,
    in the order the class declares them."""
    record = _new(cls)
    _set_attr(record, "__dict__", fields_in_order)
    return record


def classify(t: Trace, window: tuple[int, int]) -> IntelligenceReport:
    """Aggregate witnesses over the window and render the verdict."""
    start, stop = check_window(t, window)
    facts = t._step_facts
    witnesses = tuple(chain.from_iterable(facts.witnesses(start, stop)))
    held = set(map(_condition, witnesses))
    has_input = "input" in held
    has_processing = "processing" in held
    has_output = "output" in held
    return _record(
        IntelligenceReport,
        {
            "window": (start, stop),
            "witnesses": witnesses,
            "has_input": has_input,
            "has_processing": has_processing,
            "has_output": has_output,
            "verdict": has_input and has_processing and has_output,
            "attribution": tuple(facts.roles(start, stop)),
        },
    )


def _region_deltas(before: Snapshot, after: Snapshot) -> dict[RegionId, int]:
    prev = before.region_counts()
    curr = after.region_counts()
    return {r: curr[r] - prev[r] for r in before.region_side}


def _subset_deltas(regions, delta):
    return sum(delta[r] for r in regions)


def _exists_subset_input(system, delta, touched) -> bool:
    for size in range(1, len(system) + 1):
        for subset in combinations(system, size):
            if _subset_deltas(subset, delta) > 0 and any(r in touched for r in subset):
                return True
    return False


def _exists_subset_pair_processing(system, delta, boundary_touched) -> bool:
    clean = [r for r in system if r not in boundary_touched]
    for size_t in range(1, len(clean) + 1):
        for grown in combinations(clean, size_t):
            if _subset_deltas(grown, delta) <= 0:
                continue
            rest = [r for r in clean if r not in grown]
            for size_v in range(1, len(rest) + 1):
                for shrunk in combinations(rest, size_v):
                    if _subset_deltas(shrunk, delta) < 0:
                        return True
    return False


def brute_force_classify(t: Trace, window: tuple[int, int]) -> IntelligenceReport:
    """Decide the conditions by subset enumeration over raw snapshots.

    Movement comes from membership diffs and count changes from literal
    region counts. Existence of each condition is settled by enumerating
    region subsets (pairs of disjoint subsets for processing), taking the
    cardinality definitions literally. The witness list is the canonical
    region-level one so that, on traces whose steps keep event footprints
    disjoint, the whole report equals classify's. A disagreement between
    the subset verdict and the region-level witnesses is surfaced, not
    hidden: the booleans come from the enumeration, the witness list from
    the regions.
    """
    start, stop = check_window(t, window)
    first = t.initial
    if len(first.membership) > 12 or stop - start > 8:
        raise ConstructionError(
            "size guard exceeded: brute_force_classify needs at most "
            "12 elements and a window of at most 8 steps"
        )

    snapshots = t.snapshots[start : stop + 1]
    system = _system(first)
    witnesses: list[Witness] = []
    has = {c: False for c in CONDITIONS}
    for i, before, after in zip(range(start, stop), snapshots, snapshots[1:]):
        moves = [
            (eid, src, after.membership[eid])
            for eid, src in before.membership.items()
            if after.membership[eid] != src
        ]
        movement = _movement(before.region_side, moves)
        arrivals_in, departures_out, _, _ = movement
        delta = _region_deltas(before, after)
        witnesses.extend(_witnesses(i, system, delta, movement))
        neg_delta = {r: -d for r, d in delta.items()}
        if not has["input"]:
            has["input"] = _exists_subset_input(system, delta, arrivals_in)
        if not has["output"]:
            has["output"] = _exists_subset_input(system, neg_delta, departures_out)
        if not has["processing"]:
            boundary_touched = set(arrivals_in) | set(departures_out)
            has["processing"] = _exists_subset_pair_processing(
                system, delta, boundary_touched
            )

    roles_by_id = {d.id: d.role for d in t.declarations}
    return _record(
        IntelligenceReport,
        {
            "window": (start, stop),
            "witnesses": tuple(witnesses),
            "has_input": has["input"],
            "has_processing": has["processing"],
            "has_output": has["output"],
            "verdict": has["input"] and has["processing"] and has["output"],
            "attribution": tuple(_role(roles_by_id, t.events[i]) for i in range(start, stop)),
        },
    )


def activity(t: Trace, window: tuple[int, int], mode: str = "step") -> ActivityScore:
    """Boundary-traffic metric over a non-empty window."""
    if mode not in ("step", "element"):
        raise ConstructionError(f"unknown activity mode {mode!r}")
    start, stop = check_window(t, window)
    length = stop - start
    crossers = t._step_facts.crossers(start, stop)
    return _record(
        ActivityScore,
        {
            "window": (start, stop),
            "step_activity": (length - crossers.count(0)) / length,
            "element_rate": sum(crossers) / length,
            "mode": mode,
        },
    )
