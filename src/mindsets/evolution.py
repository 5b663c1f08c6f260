"""Step-indexed time evolution of a finite universe.

Each step is a list of ``TransferEvent`` values applied atomically to one
snapshot, producing the next. Events move elements between regions (the
element roster never changes) and may update element states in the same step,
which is how learning rides on internal events without any membership change.
A ``Trace`` is the full history: its initial snapshot plus the per-step
events, phase labels, and structure declarations, with ``Trace.snapshots``
replaying the later snapshots from the events on demand. ``build_trace``
validates each step against one running state updated in place.
``apply_step`` is the eager form of one step, kept as the oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from operator import itemgetter

from .universe import (
    ENVIRONMENT,
    SYSTEM,
    ConstructionError,
    ElementId,
    RegionId,
    Snapshot,
    State,
    StructureRelation,
    _finite,
)

__all__ = [
    "EXTERNAL_IN",
    "EXTERNAL_OUT",
    "INTERNAL",
    "EVENT_KINDS",
    "StepError",
    "TransferEvent",
    "Phase",
    "Trace",
    "ConservationViolation",
    "apply_step",
    "build_trace",
    "verify_conservation",
]

EXTERNAL_IN = "external_in"
EXTERNAL_OUT = "external_out"
INTERNAL = "internal"
EVENT_KINDS = (EXTERNAL_IN, EXTERNAL_OUT, INTERNAL)
# the (from, to) region sides each event kind connects
_SIDES = {
    EXTERNAL_IN: (ENVIRONMENT, SYSTEM),
    EXTERNAL_OUT: (SYSTEM, ENVIRONMENT),
    INTERNAL: (SYSTEM, SYSTEM),
}


class StepError(ConstructionError):
    """An event list cannot be applied to the snapshot it targets."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True, eq=True, slots=True)
class TransferEvent:
    """Movement of one or more elements between two regions in one step.

    ``external_in`` crosses from an environment region into a system region,
    ``external_out`` the reverse, ``internal`` stays within the system side.
    ``state_updates`` may adjust the state of any elements (moved or not) as
    part of the same step. ``via_structure`` optionally attributes the event
    to a declared structure. Slotted, so an event holds no instance dict.
    """

    step: int
    kind: str
    moved: frozenset[ElementId]
    from_region: RegionId
    to_region: RegionId
    via_structure: str | None = None
    state_updates: tuple[tuple[ElementId, tuple[tuple[str, int | float | str], ...]], ...] = ()

    @staticmethod
    def make(
        step: int,
        kind: str,
        moved: frozenset[ElementId] | set[ElementId],
        from_region: RegionId,
        to_region: RegionId,
        via_structure: str | None = None,
        state_updates: dict[ElementId, State] | None = None,
    ) -> "TransferEvent":
        """Normalize plain dict state updates into the stored sorted form."""
        packed = _pack(state_updates) if state_updates else ()
        return _event(
            step, kind, frozenset(moved), from_region, to_region, via_structure, packed
        )

    def updates(self) -> dict[ElementId, State]:
        return {eid: dict(attrs) for eid, attrs in self.state_updates}


def _pack(
    updates: dict[ElementId, State]
) -> tuple[tuple[ElementId, tuple[tuple[str, int | float | str], ...]], ...]:
    """State updates in their stored form: by element, each state's names sorted."""
    return tuple((eid, tuple(sorted(attrs.items()))) for eid, attrs in sorted(updates.items()))


_new = object.__new__
# the slot descriptors' setters, which a frozen class's own __setattr__ refuses
_SET_STEP, _SET_KIND, _SET_MOVED, _SET_FROM, _SET_TO, _SET_VIA, _SET_UPDATES = (
    TransferEvent.__dict__[f.name].__set__ for f in fields(TransferEvent)
)


def _event(step, kind, moved, from_region, to_region, via_structure, state_updates):
    """``TransferEvent(...)`` for fields already in their stored form: one
    slot store per field, about half the cost of the generated ``__init__``,
    which calls ``object.__setattr__`` once per field. Every event read or
    generated is built here."""
    ev = _new(TransferEvent)
    _SET_STEP(ev, step)
    _SET_KIND(ev, kind)
    _SET_MOVED(ev, moved)
    _SET_FROM(ev, from_region)
    _SET_TO(ev, to_region)
    _SET_VIA(ev, via_structure)
    _SET_UPDATES(ev, state_updates)
    return ev


@dataclass(frozen=True, eq=True)
class Phase:
    """A labeled half-open step interval [start, stop)."""

    label: str
    start: int
    stop: int


def _check_event(
    step: int,
    membership: dict[ElementId, RegionId],
    region_side: dict[RegionId, str],
    ev: TransferEvent,
) -> None:
    if ev.step != step:
        raise StepError(step, f"event carries step {ev.step}")
    if ev.kind not in EVENT_KINDS:
        raise StepError(step, f"unknown event kind {ev.kind!r}")
    if not ev.moved:
        raise StepError(step, "event moves no elements")
    for region in (ev.from_region, ev.to_region):
        if region not in region_side:
            raise StepError(step, f"unknown region {region!r}")
    if ev.from_region == ev.to_region:
        raise StepError(step, "event moves nothing across regions")

    from_side = region_side[ev.from_region]
    to_side = region_side[ev.to_region]
    if (from_side, to_side) != _SIDES[ev.kind]:
        raise StepError(
            step,
            f"{ev.kind} event connects {from_side} to {to_side} "
            f"({ev.from_region!r} to {ev.to_region!r})",
        )

    for eid, attrs in ev.state_updates:
        if eid not in membership:
            raise StepError(step, f"state update names unknown element {eid!r}")
        if not _finite(attrs):
            raise StepError(step, "a state update holds a number that is not finite")


def _check_movers(step: int, membership: dict[ElementId, RegionId], ev: TransferEvent) -> None:
    """Every mover must sit in the event's `from` region; the error names the
    sorted-first element that does not, whatever the set's iteration order."""
    for eid in ev.moved:
        if eid not in membership or membership[eid] != ev.from_region:
            eid = min(e for e in ev.moved if membership.get(e) != ev.from_region)
            if eid not in membership:
                raise StepError(step, f"unknown element {eid!r}")
            raise StepError(
                step,
                f"element {eid!r} is in {membership[eid]!r}, not {ev.from_region!r}",
            )


def _double_move(step: int, events: Sequence[TransferEvent]) -> StepError:
    """The error for the first event that moves an element an earlier event
    of the step moved, naming the sorted-first such element. Called only
    once such an event is known to exist."""
    moved_by: dict[ElementId, TransferEvent] = {}
    for ev in events:
        clash = moved_by.keys() & ev.moved
        if clash:
            eid = min(clash)
            if {ev.kind, moved_by[eid].kind} == {EXTERNAL_IN, EXTERNAL_OUT}:
                return StepError(step, f"boundary double-move of element {eid!r}")
            return StepError(step, f"element {eid!r} moved by two events")
        moved_by.update(dict.fromkeys(ev.moved, ev))


def _check_step(
    step: int,
    membership: dict[ElementId, RegionId],
    region_side: dict[RegionId, str],
    events: Sequence[TransferEvent],
) -> None:
    """The validation half of a step: raise the first StepError its events earn.

    An element may be moved by at most one event per step, which rules out in
    particular any element crossing the system boundary in both directions
    within the same interval. State updates must not conflict either. Costs
    O(moved elements + updates). Each event and each mover is tested by one
    guard that holds exactly when `_check_event` or `_check_movers` would
    raise; those run only to name the failure.
    """
    moved_by: dict[ElementId, TransferEvent] = {}
    updated: set[ElementId] = set()
    for ev in events:
        try:
            sides = _SIDES.get(ev.kind)
        except TypeError:  # an unhashable kind is unknown too
            sides = None
        if (
            ev.step != step
            or sides is None
            or not ev.moved
            or ev.from_region == ev.to_region
            or (region_side.get(ev.from_region), region_side.get(ev.to_region)) != sides
        ):
            _check_event(step, membership, region_side, ev)
        for eid, attrs in ev.state_updates:
            if eid not in membership or not _finite(attrs):
                _check_event(step, membership, region_side, ev)
        for eid in ev.moved:
            if eid in moved_by:
                raise _double_move(step, events)
            moved_by[eid] = ev
        for eid, _ in ev.state_updates:
            if eid in updated:
                raise StepError(step, f"conflicting state updates for {eid!r}")
            updated.add(eid)
    # double-naming is reported before membership so that an in-and-out pair
    # for one element reads as the boundary conflict it is
    for ev in events:
        source = ev.from_region
        for eid in ev.moved:
            if membership.get(eid) != source:
                _check_movers(step, membership, ev)


def _advance(
    membership: dict[ElementId, RegionId],
    states: dict[ElementId, State],
    events: Sequence[TransferEvent],
) -> None:
    """The advance half of a validated step: move its elements and merge its
    state updates in place. An updated state is a new dict, so the state dicts
    a snapshot holds are never changed under it."""
    for ev in events:
        for eid in ev.moved:
            membership[eid] = ev.to_region
        for eid, attrs in ev.state_updates:
            new_state = dict(states[eid])
            new_state.update(attrs)
            states[eid] = new_state


def apply_step(s: Snapshot, events: list[TransferEvent]) -> Snapshot:
    """Apply one step's events atomically, returning the next snapshot.

    The eager form of what ``build_trace`` does in place: validate the step
    against ``s``, then advance copies of its membership and states.
    """
    _check_step(s.step, s.membership, s.region_side, events)
    membership = dict(s.membership)
    states = dict(s.states)
    _advance(membership, states, events)
    return Snapshot(
        step=s.step + 1,
        membership=membership,
        region_side=s.region_side,
        states=states,
    )


class _Replay(Sequence):
    """The read-only snapshots of a trace, replayed from its initial snapshot
    and events.

    A replay from step 0 (iteration, or a slice that holds step 0) starts at
    the initial snapshot. The first other access takes sparse checkpoints,
    each a (step, membership, states) triple: one whenever the replay work
    since the last (one per step, plus its moves and updates) reaches the
    roster size. So all checkpoints together take O(steps + events + roster)
    memory, and any snapshot is replayed from the last checkpoint at or
    before it in O(roster). A replay equals any sequence of equal snapshots,
    compared one by one.
    """

    def __init__(self, initial: Snapshot, events: tuple[tuple[TransferEvent, ...], ...]):
        self._initial = initial
        self._events = events

    def __len__(self) -> int:
        return len(self._events) + 1

    @cached_property
    def _marks(self) -> list[tuple[int, dict[ElementId, RegionId], dict[ElementId, State]]]:
        initial = self._initial
        membership, states = dict(initial.membership), dict(initial.states)
        marks = [(0, initial.membership, initial.states)]
        work = 0
        for step, events in enumerate(self._events, start=1):
            _advance(membership, states, events)
            work += 1 + sum(len(ev.moved) + len(ev.state_updates) for ev in events)
            if work >= len(initial.membership):
                marks.append((step, dict(membership), dict(states)))
                work = 0
        return marks

    def _from_mark(self, i: int):
        """Where a replay to step ``i`` starts: the initial snapshot for step 0,
        else the last checkpoint at or before ``i``; its step and copies of its dicts."""
        if i == 0:
            return 0, dict(self._initial.membership), dict(self._initial.states)
        step, membership, states = self._marks[bisect_right(self._marks, i, key=itemgetter(0)) - 1]
        return step, dict(membership), dict(states)

    def _replay(self, indices: range) -> Iterator[Snapshot]:
        """Snapshots at the ascending ``indices``, from one replay. The last
        one takes the replay's own dicts, which nothing advances after it."""
        if not indices:
            return
        step, membership, states = self._from_mark(indices[0])
        for i in indices:
            for events in self._events[step:i]:
                _advance(membership, states, events)
            step = i
            if i == 0:
                yield self._initial
                continue
            last = i == indices[-1]
            yield Snapshot(
                step=i,
                membership=membership if last else dict(membership),
                region_side=self._initial.region_side,
                states=states if last else dict(states),
            )

    def __getitem__(self, index):
        if isinstance(index, slice):
            picked = range(len(self))[index]
            if picked.step > 0:
                return tuple(self._replay(picked))
            return tuple(self._replay(picked[::-1]))[::-1]
        i = range(len(self))[index]
        return next(self._replay(range(i, i + 1)))

    def __iter__(self) -> Iterator[Snapshot]:
        return self._replay(range(len(self)))

    def __reversed__(self) -> Iterator[Snapshot]:
        return iter(self[::-1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<{len(self)} snapshots replayed from {len(self._events)} steps of events>"


@dataclass(frozen=True, eq=True)
class Trace:
    """An initial snapshot plus the per-step events that change it.

    ``events[i]`` holds the events applied between the snapshots at steps i
    and i+1, so a trace of n steps has n event lists. ``snapshots`` is the
    read-only sequence of all n+1 snapshots, replayed from the initial one and
    the events on demand, so two traces with equal fields have one history.
    ``phases`` labels step intervals and ``declarations`` names the
    structures in play.
    """

    initial: Snapshot
    events: tuple[tuple[TransferEvent, ...], ...]
    phases: tuple[Phase, ...] = ()
    declarations: tuple[StructureRelation, ...] = ()

    @cached_property
    def snapshots(self) -> _Replay:
        return _Replay(self.initial, self.events)

    @cached_property
    def _step_facts(self):
        """The classify module's table of per-step facts, filled as steps are
        asked for. Not a field, so equality, ``repr`` and
        ``dataclasses.replace`` ignore it, and it is freed with the trace."""
        from .classify import _StepFacts  # classify builds on this module

        return _StepFacts(self)

    @property
    def n_steps(self) -> int:
        return len(self.events)

    def declaration(self, decl_id: str) -> StructureRelation:
        for decl in self.declarations:
            if decl.id == decl_id:
                return decl
        raise KeyError(decl_id)

    def declarations_by_role(self) -> dict[str, list[StructureRelation]]:
        by_role: dict[str, list[StructureRelation]] = {}
        for decl in self.declarations:
            by_role.setdefault(decl.role, []).append(decl)
        return by_role

    def phase(self, label: str) -> Phase:
        for ph in self.phases:
            if ph.label == label:
                return ph
        raise KeyError(label)


def _check_declarations(
    initial: Snapshot, declarations: Sequence[StructureRelation]
) -> set[str]:
    """The declaration half of `build_trace`'s header checks: every declaration
    scopes known regions and names known elements, and no two share an id.
    Returns the declared ids."""
    roster = set(initial.membership)
    for decl in declarations:
        # the sorted-first offender, so the message does not depend on hashing
        regions = [region for region in decl.scope if region not in initial.region_side]
        if regions:
            raise ConstructionError(
                f"declaration {decl.id!r} scopes unknown region {min(regions)!r}"
            )
        tuples = [tup for tup in decl.tuples if not roster.issuperset(tup)]
        if tuples:
            eid = next(eid for eid in min(tuples) if eid not in roster)
            raise ConstructionError(f"declaration {decl.id!r} names unknown element {eid!r}")
    decl_ids = [d.id for d in declarations]
    known = set(decl_ids)
    if len(known) != len(decl_ids):
        raise ConstructionError("duplicate declaration ids")
    return known


def _check_phases(phases: Sequence[Phase], n: int) -> None:
    """The phase half of `build_trace`'s header checks: every phase lies
    within the n steps."""
    for ph in phases:
        if not (0 <= ph.start <= ph.stop <= n):
            raise ConstructionError(
                f"phase {ph.label!r} interval [{ph.start}, {ph.stop}) outside 0..{n}"
            )


def build_trace(
    initial: Snapshot,
    schedule: list[list[TransferEvent]],
    phases: list[Phase] | tuple[Phase, ...] = (),
    declarations: list[StructureRelation] | tuple[StructureRelation, ...] = (),
) -> Trace:
    """Run a schedule forward from the initial snapshot, validating every step.

    The declarations are checked first (`_check_declarations`), then each
    step against one running membership, after which its moves are applied
    to it in place, so a step costs O(moved elements + updates); the phases
    are checked last (`_check_phases`). The trace keeps the initial snapshot
    and the events only, so the states are not replayed here: validation
    reads no state, only the roster. `read_trace` validates a file's steps
    its own way as it reads them, with the same two header checks.
    """
    if initial.step != 0:
        raise ConstructionError("initial snapshot must be at step 0")
    known = _check_declarations(initial, declarations)
    events = tuple(tuple(evs) for evs in schedule)
    membership = dict(initial.membership)
    for step, step_events in enumerate(events):
        for ev in step_events:
            if ev.via_structure is not None and ev.via_structure not in known:
                raise StepError(
                    ev.step, f"event attributed to undeclared structure {ev.via_structure!r}"
                )
        _check_step(step, membership, initial.region_side, step_events)
        for ev in step_events:
            for eid in ev.moved:
                membership[eid] = ev.to_region
    _check_phases(phases, len(events))
    return Trace(
        initial=initial,
        events=events,
        phases=tuple(phases),
        declarations=tuple(declarations),
    )


@dataclass(frozen=True, eq=True)
class ConservationViolation:
    step: int
    kind: str  # "cardinality" or "roster"
    expected: int
    actual: int


def verify_conservation(t: Trace) -> list[ConservationViolation]:
    """Check total cardinality and roster constancy across every step.

    Returns an empty list iff the element-id set is the same in every
    snapshot, so the combined system plus environment count never changes.
    Answered from the events in O(moved elements): a replay only adds
    elements, so a step that moves an element from outside the initial roster
    breaks cardinality there and at every later step, and nothing else can
    change the roster. ``build_trace`` refuses such a step, so on its traces
    the answer is empty.
    """
    roster = t.initial.membership
    outsiders: set[ElementId] = set()
    violations: list[ConservationViolation] = []
    for step, events in enumerate(t.events):
        outsiders.update(eid for ev in events for eid in ev.moved if eid not in roster)
        if outsiders:
            violations.append(
                ConservationViolation(
                    step=step,
                    kind="cardinality",
                    expected=len(roster),
                    actual=len(roster) + len(outsiders),
                )
            )
    return violations
