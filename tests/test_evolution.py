"""Transfer events, step application, trace construction, conservation."""

import math
import os
import pickle
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest

import mindsets
from mindsets import (
    EXTERNAL_IN,
    EXTERNAL_OUT,
    INTERNAL,
    SCENARIO_NAMES,
    ConservationViolation,
    ConstructionError,
    Phase,
    ScenarioConfig,
    StepError,
    StructureRelation,
    Trace,
    TransferEvent,
    apply_step,
    build_trace,
    make_scenario,
    make_snapshot,
    verify_conservation,
)

from factories import (
    conservation_scan,
    eager_snapshots as _eager_snapshots,
    random_trace,
    two_region_snapshot,
)


def event(step=0, kind=EXTERNAL_IN, moved=("b",), src="out", dst="in", **kw):
    return TransferEvent.make(
        step=step, kind=kind, moved=frozenset(moved), from_region=src, to_region=dst, **kw
    )


def test_make_packs_state_updates_deterministically():
    e1 = event(state_updates={"a": {"w": 1, "v": 2}, "b": {"x": 0}})
    e2 = event(state_updates={"b": {"x": 0}, "a": {"v": 2, "w": 1}})
    assert e1 == e2
    assert e1.updates() == {"a": {"w": 1, "v": 2}, "b": {"x": 0}}


def test_events_are_hashable():
    assert len({event(), event()}) == 1


def test_the_private_constructor_gives_the_public_record():
    from mindsets.evolution import _event

    args = (3, EXTERNAL_IN, frozenset({"b", "c"}), "out", "in", "input_structure",
            (("a", (("v", 1.5),)),))
    fast, public = _event(*args), TransferEvent(*args)
    assert type(fast) is TransferEvent
    assert fast == public and hash(fast) == hash(public) and repr(fast) == repr(public)
    assert TransferEvent.make(3, EXTERNAL_IN, {"c", "b"}, "out", "in", "input_structure",
                              {"a": {"v": 1.5}}) == fast
    for record in (fast, public):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
        # the equal set unpickling builds may list two movers in the other order
        assert sorted(copy.moved) == sorted(record.moved)
    one = _event(3, EXTERNAL_IN, frozenset({"b"}), "out", "in", None, ())
    assert repr(pickle.loads(pickle.dumps(one))) == repr(one)
    assert [f.name for f in fields(fast)] == [
        "step", "kind", "moved", "from_region", "to_region", "via_structure", "state_updates",
    ]
    assert replace(fast, step=4) == TransferEvent(4, *args[1:])
    assert replace(fast, via_structure=None).via_structure is None
    with pytest.raises(FrozenInstanceError):
        fast.step = 4
    with pytest.raises(FrozenInstanceError):
        public.moved = frozenset()
    assert fast.step == 3 and not hasattr(fast, "__dict__")


def test_apply_step_moves_and_advances():
    s0 = two_region_snapshot(system_members=("a",), env_members=("b", "c"))
    s1 = apply_step(s0, [event(moved=("b", "c"))])
    assert s1.step == 1
    assert s1.members("in") == {"a", "b", "c"}
    assert s1.members("out") == set()
    # the old snapshot is untouched
    assert s0.members("in") == {"a"}


def test_apply_step_merges_states():
    s0 = two_region_snapshot()
    s1 = apply_step(
        s0, [event(state_updates={"a": {"w": 0.5}, "b": {"seen": 1}})]
    )
    assert s1.states["a"] == {"w": 0.5}
    assert s1.states["b"] == {"seen": 1}
    s2 = apply_step(s1, [event(step=1, kind=EXTERNAL_OUT, moved=("b",), src="in", dst="out",
                               state_updates={"a": {"w": 0.25, "bias": 1.0}})])
    # merge keeps unrelated keys, overwrites named ones
    assert s2.states["a"] == {"w": 0.25, "bias": 1.0}


def test_empty_step_only_advances_the_clock():
    s0 = two_region_snapshot()
    s1 = apply_step(s0, [])
    assert s1.step == 1
    assert s1.membership == s0.membership


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(moved=()), "moves no elements"),
        (dict(kind="teleport"), "unknown event kind"),
        (dict(src="nowhere"), "unknown region"),
        (dict(src="in", dst="in", moved=("a",)), "moves nothing across regions"),
        (dict(kind=INTERNAL, src="out", dst="in"), "internal event connects"),
        (dict(kind=EXTERNAL_OUT, src="out", dst="in"), "external_out event connects"),
        (dict(moved=("a",)), "is in 'in', not 'out'"),
        (dict(state_updates={"ghost": {"v": 1}}), "unknown element"),
    ],
)
def test_apply_step_rejects_malformed_events(kw, message):
    s0 = two_region_snapshot()
    with pytest.raises(StepError, match=message):
        apply_step(s0, [event(**kw)])


def test_apply_step_rejects_wrong_step_index():
    s0 = two_region_snapshot()
    with pytest.raises(StepError, match="step 0"):
        apply_step(s0, [event(step=3)])


def test_double_move_is_rejected():
    s0 = two_region_snapshot(system_members=("a",), env_members=("b", "c"))
    both = [event(moved=("b",)), event(moved=("b", "c"))]
    with pytest.raises(StepError, match="moved by two events"):
        apply_step(s0, both)


def test_boundary_double_move_gets_its_own_message():
    # one element scheduled both inward and outward in a single interval
    s0 = two_region_snapshot(system_members=("a",), env_members=("b",))
    pair = [
        event(moved=("b",)),
        event(kind=EXTERNAL_OUT, moved=("b",), src="in", dst="out"),
    ]
    with pytest.raises(StepError, match="boundary double-move"):
        apply_step(s0, pair)


def test_conflicting_state_updates_rejected():
    s0 = two_region_snapshot(system_members=("a", "x"), env_members=("b", "c"))
    pair = [
        event(moved=("b",), state_updates={"a": {"v": 1}}),
        event(kind=EXTERNAL_OUT, moved=("x",), src="in", dst="out",
              state_updates={"a": {"v": 2}}),
    ]
    with pytest.raises(StepError, match="conflicting state updates"):
        apply_step(s0, pair)


# steps with two faults each, and the message the first of them earns: the
# event's own fields in order (step, kind, moved, regions, sides, updates),
# then its double moves and update conflicts, event by event; the movers'
# membership only once every event passed
THREE_REGIONS = make_snapshot(
    [(e, None) for e in ("a", "x", "k", "b", "c")],
    {"a": "in", "x": "in", "k": "core", "b": "out", "c": "out"},
    {"in": "system", "core": "system", "out": "environment"},
)
INF = {"v": math.inf}
TWO_FAULT_STEPS = [
    ("unknown kind, unknown region",
     [event(kind="teleport", src="nowhere")],
     "unknown event kind 'teleport'"),
    ("empty moved, one region on both sides",
     [event(moved=(), src="in", dst="in")],
     "event moves no elements"),
    ("wrong-side mover in event 1, double move in event 2",
     [event(moved=("a", "b")), event(moved=("b",))],
     "element 'b' moved by two events"),
    ("non-finite update, conflicting update",
     [event(moved=("b",), state_updates={"a": {"v": 1}}),
      event(moved=("c",), state_updates={"a": INF})],
     "a state update holds a number that is not finite"),
    ("wrong step, unknown kind",
     [event(step=2, kind="teleport")],
     "event carries step 2"),
    ("wrong step, wrong-side mover",
     [event(step=2, moved=("a",))],
     "event carries step 2"),
    ("empty moved, conflicting update",
     [event(state_updates={"a": {"v": 1}}), event(moved=(), state_updates={"a": {"v": 2}})],
     "event moves no elements"),
    ("unknown from, unknown to",
     [event(src="nowhere", dst="void")],
     "unknown region 'nowhere'"),
    ("one region on both sides, wrong sides for the kind",
     [event(moved=("a",), src="in", dst="in")],
     "event moves nothing across regions"),
    ("internal event within one region, wrong-side mover",
     [event(kind=INTERNAL, src="in", dst="in")],
     "event moves nothing across regions"),
    ("wrong sides for the kind, wrong-side mover",
     [event(kind=INTERNAL, moved=("a",))],
     "internal event connects environment to system ('out' to 'in')"),
    ("update of an unknown element, wrong-side mover",
     [event(moved=("a",), state_updates={"ghost": {"v": 1}})],
     "state update names unknown element 'ghost'"),
    ("update of an unknown element sorted before a non-finite one",
     [event(state_updates={"ghost": {"v": 1}, "x": {"v": math.nan}})],
     "state update names unknown element 'ghost'"),
    ("non-finite update sorted before an update of an unknown element",
     [event(state_updates={"a": INF, "ghost": {"v": 1}})],
     "a state update holds a number that is not finite"),
    ("double move, unknown kind in a later event",
     [event(), event(), event(kind="teleport")],
     "element 'b' moved by two events"),
    ("double move onto an event with wrong sides",
     [event(), event(kind=INTERNAL)],
     "internal event connects environment to system ('out' to 'in')"),
    ("boundary double move, wrong-side mover",
     [event(), event(kind=EXTERNAL_OUT, src="in", dst="out")],
     "boundary double-move of element 'b'"),
    ("conflicting updates, non-finite update in a later event",
     [event(state_updates={"a": {"v": 1}}),
      event(moved=("c",), state_updates={"a": {"v": 2}}),
      event(moved=("k",), kind=INTERNAL, src="core", dst="in", state_updates={"x": INF})],
     "conflicting state updates for 'a'"),
    ("conflicting updates, wrong-side mover",
     [event(moved=("a",), state_updates={"x": {"v": 1}}),
      event(state_updates={"x": {"v": 2}})],
     "conflicting state updates for 'x'"),
    ("unknown mover, wrong-side mover in one event",
     [event(moved=("ghost", "a"))],
     "element 'a' is in 'in', not 'out'"),
    ("wrong-side mover in event 1, unknown mover in event 2",
     [event(moved=("x",)), event(moved=("ghost",))],
     "element 'x' is in 'in', not 'out'"),
    ("unknown mover in event 1, wrong-side mover in event 2",
     [event(moved=("ghost",)), event(moved=("a",))],
     "unknown element 'ghost'"),
]


@pytest.mark.parametrize(
    "events, message", [row[1:] for row in TWO_FAULT_STEPS], ids=[row[0] for row in TWO_FAULT_STEPS]
)
def test_the_first_of_two_faults_is_the_one_named(events, message):
    with pytest.raises(StepError) as caught:
        apply_step(THREE_REGIONS, events)
    assert str(caught.value) == f"step 0: {message}"
    with pytest.raises(StepError) as caught:
        build_trace(THREE_REGIONS, [events])
    assert str(caught.value) == f"step 0: {message}"


def test_an_undeclared_structure_is_named_before_the_step_is_checked():
    with pytest.raises(StepError) as caught:
        build_trace(THREE_REGIONS, [[event(kind="teleport", via_structure="ghost")]])
    assert str(caught.value) == "step 0: event attributed to undeclared structure 'ghost'"


def test_step_error_carries_the_step():
    s0 = two_region_snapshot()
    try:
        apply_step(s0, [event(moved=("a",))])
    except StepError as exc:
        assert exc.step == 0
        assert str(exc).startswith("step 0:")
    else:
        pytest.fail("expected StepError")


def test_build_trace_replays_schedule():
    s0 = two_region_snapshot(system_members=("a",), env_members=("b", "c"))
    t = build_trace(
        s0,
        [
            [event(moved=("b",))],
            [event(step=1, kind=EXTERNAL_OUT, moved=("a",), src="in", dst="out")],
        ],
    )
    assert t.n_steps == 2
    assert len(t.snapshots) == 3
    assert t.snapshots[2].members("in") == {"b"}
    assert [s.step for s in t.snapshots] == [0, 1, 2]


def test_build_trace_validates_declarations():
    s0 = two_region_snapshot()
    good = StructureRelation(
        id="d", role="input", arity=1, tuples=frozenset({("a",)}), scope=frozenset({"in"})
    )
    t = build_trace(s0, [], declarations=[good])
    assert t.declaration("d") is good
    assert t.declarations_by_role()["input"] == [good]

    with pytest.raises(ConstructionError, match="unknown region"):
        build_trace(s0, [], declarations=[
            StructureRelation(id="d", role="input", arity=1,
                              tuples=frozenset(), scope=frozenset({"nowhere"}))
        ])
    with pytest.raises(ConstructionError, match="unknown element"):
        build_trace(s0, [], declarations=[
            StructureRelation(id="d", role="input", arity=1,
                              tuples=frozenset({("ghost",)}), scope=frozenset({"in"}))
        ])
    with pytest.raises(ConstructionError, match="duplicate"):
        build_trace(s0, [], declarations=[good, good])


def test_build_trace_names_the_sorted_first_unknown_member():
    # a frozenset iterates in string-hash order, which changes between processes
    s0 = two_region_snapshot()
    ghosts = [f"ghost_{k:02d}" for k in range(20)]
    tuples = StructureRelation(id="d", role="input", arity=1,
                               tuples=frozenset((g,) for g in ghosts), scope=frozenset({"in"}))
    with pytest.raises(ConstructionError, match="names unknown element 'ghost_00'$"):
        build_trace(s0, [], declarations=[tuples])
    scope = StructureRelation(id="d", role="input", arity=1,
                              tuples=frozenset(), scope=frozenset(ghosts))
    with pytest.raises(ConstructionError, match="scopes unknown region 'ghost_00'$"):
        build_trace(s0, [], declarations=[scope])


# four bad steps whose movers iterate in string-hash order: unknown element,
# element not in `from`, moved by two events, boundary double-move
BAD_STEPS = """
from mindsets import EXTERNAL_IN, EXTERNAL_OUT, StepError, TransferEvent, apply_step, make_snapshot
xs = [f"x_{k:02d}" for k in range(20)]
ys = [f"y_{k:02d}" for k in range(20)]
membership = {**dict.fromkeys(xs, "in"), **dict.fromkeys(ys, "out")}
s0 = make_snapshot([(e, None) for e in membership], membership,
                   {"in": "system", "out": "environment"})
inward = lambda moved: TransferEvent.make(0, EXTERNAL_IN, moved, "out", "in")
outward = lambda moved: TransferEvent.make(0, EXTERNAL_OUT, moved, "in", "out")
for events in (
    [inward(ys + [f"ghost_{k:02d}" for k in range(20)])],
    [inward(ys[10:] + xs)],
    [inward(ys[10:]), inward(ys)],
    [inward(ys[10:]), outward(xs + ys)],
):
    try:
        apply_step(s0, events)
    except StepError as exc:
        print(exc)
"""


def test_step_errors_name_the_sorted_first_offender_under_any_hash_seed():
    package_root = str(Path(mindsets.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    outputs = {
        subprocess.run(
            [sys.executable, "-c", BAD_STEPS],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)},
        ).stdout
        for seed in range(1, 7)
    }
    assert outputs == {
        "step 0: unknown element 'ghost_00'\n"
        "step 0: element 'x_00' is in 'in', not 'out'\n"
        "step 0: element 'y_10' moved by two events\n"
        "step 0: boundary double-move of element 'y_10'\n"
    }


def test_build_trace_checks_via_structure_is_declared():
    s0 = two_region_snapshot()
    with pytest.raises(ConstructionError, match="undeclared structure"):
        build_trace(s0, [[event(via_structure="ghost")]])


def test_build_trace_checks_phase_bounds():
    s0 = two_region_snapshot()
    t = build_trace(s0, [[event()]], phases=[Phase("all", 0, 1)])
    assert t.phase("all") == Phase("all", 0, 1)
    with pytest.raises(ConstructionError, match="phase"):
        build_trace(s0, [[event()]], phases=[Phase("long", 0, 5)])
    with pytest.raises(ConstructionError, match="phase"):
        build_trace(s0, [[event()]], phases=[Phase("backwards", 1, 0)])
    with pytest.raises(KeyError):
        t.phase("missing")


def test_build_trace_requires_step_zero_start():
    s0 = two_region_snapshot()
    s1 = apply_step(s0, [])
    with pytest.raises(ConstructionError, match="step 0"):
        build_trace(s1, [])


def test_conservation_holds_on_random_traces():
    for seed in range(60):
        t = random_trace(random.Random(seed), with_metadata=seed % 3 == 0)
        assert verify_conservation(t) == []


def _retouch_last_snapshot(t, rewrite):
    """The eager snapshots of `t`, with the last one's membership rewritten."""
    snaps = _eager_snapshots(t)
    last = snaps[-1]
    membership = rewrite(dict(last.membership))
    snaps[-1] = type(last)(
        step=last.step,
        membership=membership,
        region_side=dict(last.region_side),
        states={e: last.states.get(e, {}) for e in membership},
    )
    return snaps


def _moving_at_last_step(t, eid, region):
    """The schedule of `t` with one more event in its last step: `eid` leaves
    `region` across the system boundary."""
    system = t.initial.region_side[region] == "system"
    kind, dst = (EXTERNAL_OUT, "v0") if system else (EXTERNAL_IN, "s0")
    return [*t.events[:-1], [*t.events[-1], event(t.n_steps - 1, kind, (eid,), region, dst)]]


def test_conservation_flags_a_lost_element():
    t = random_trace(random.Random(1))
    roster = len(t.initial.membership)
    victim = sorted(t.initial.membership)[0]

    def drop_one(membership):
        membership.pop(victim)
        return membership

    violations = conservation_scan(_retouch_last_snapshot(t, drop_one))
    assert violations == [
        ConservationViolation(
            step=t.n_steps - 1, kind="cardinality", expected=roster, actual=roster - 1
        )
    ]
    # as events, the loss is a roster without the victim and a last step that moves it
    assert not any(victim in ev.moved for events in t.events for ev in events)
    lost = replace(t.initial, membership=drop_one(dict(t.initial.membership)))
    with pytest.raises(StepError, match=f"^step {t.n_steps - 1}: unknown element '{victim}'$"):
        build_trace(lost, _moving_at_last_step(t, victim, t.initial.membership[victim]))


def test_conservation_flags_a_swapped_identity():
    # same count, different ids: the roster check catches it
    t = random_trace(random.Random(2))
    victim = sorted(t.initial.membership)[0]

    def rename_one(membership):
        membership["impostor"] = membership.pop(victim)
        return membership

    violations = conservation_scan(_retouch_last_snapshot(t, rename_one))
    assert [v.kind for v in violations] == ["roster"]
    assert violations[0].step == t.n_steps - 1
    # as events, the impostor leaves the victim's region in the last step
    region = t.snapshots[-2].membership[victim]
    with pytest.raises(StepError, match=f"^step {t.n_steps - 1}: unknown element 'impostor'$"):
        build_trace(t.initial, _moving_at_last_step(t, "impostor", region))


def _outsider_traces():
    """Traces built directly, not by build_trace, whose events move one or two
    elements from outside the roster a, b, c. A replay adds each one, so the
    total is 3 plus the outsiders moved so far, from that step on."""
    s0 = two_region_snapshot()
    x_in = event(moved=("x",))
    yield Trace(initial=s0, events=((), (replace(x_in, step=1),), ())), [4, 4]
    yield Trace(
        initial=s0,
        events=(
            (x_in,),
            (event(1, EXTERNAL_OUT, ("y",), "in", "out"),),
            (event(2, EXTERNAL_OUT, ("x",), "in", "out"),),
        ),
    ), [4, 5, 5]
    yield Trace(
        initial=s0,
        events=((event(moved=("b", "z")),), (event(1, EXTERNAL_OUT, ("a", "w"), "in", "out"),)),
    ), [4, 5]


def test_conservation_from_events_equals_the_snapshot_scan():
    for seed in range(60):
        t = random_trace(random.Random(seed), with_metadata=seed % 3 == 0)
        assert verify_conservation(t) == conservation_scan(_eager_snapshots(t)) == [], seed
    cfg = ScenarioConfig(seed=3, trials=24, test_count=8)
    for name in SCENARIO_NAMES:
        t = make_scenario(name, cfg, steps=60).trace
        assert verify_conservation(t) == conservation_scan(_eager_snapshots(t)) == [], name
    for t, totals in _outsider_traces():
        # apply_step refuses an outsider, so the scan reads the replay
        expected = [
            ConservationViolation(step=step, kind="cardinality", expected=3, actual=total)
            for step, total in enumerate(totals, start=t.n_steps - len(totals))
        ]
        assert verify_conservation(t) == conservation_scan(t.snapshots) == expected


def _replay_traces():
    for seed in range(40):
        yield random_trace(random.Random(seed), with_metadata=seed % 2 == 0)
    cfg = ScenarioConfig(seed=3, trials=24, test_count=8)
    for name in ("hebbian", "backprop", "aplysia", "sandpile"):
        yield make_scenario(name, cfg).trace
    yield make_scenario("off", cfg, steps=60).trace


def test_replayed_snapshots_equal_the_apply_step_fold():
    traces = list(_replay_traces())
    hebbian = traces[-5]
    # hebbian learning rides on state updates, which the replay must merge too
    assert any(ev.state_updates for events in hebbian.events for ev in events)
    for t in traces:
        eager = _eager_snapshots(t)
        lazy = t.snapshots
        n = len(eager)
        assert len(lazy) == n == t.n_steps + 1
        for i in range(-n, n):
            assert lazy[i] == eager[i], i
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                lazy[i]
        for cut in (
            slice(None), slice(1, None, 2), slice(None, None, -1), slice(-4, None),
            slice(n - 1, 0, -3), slice(2, n - 1, 3), slice(5, 2), slice(-n - 5, n + 5),
        ):
            assert lazy[cut] == tuple(eager[cut]), cut
        assert list(lazy) == eager
        assert list(reversed(lazy)) == eager[::-1]
        assert lazy == tuple(eager) and tuple(eager) == lazy
        assert lazy[0] is eager[0]


def test_replay_checkpoints_are_spaced_by_moves_and_updates():
    # a checkpoint falls once a step, its moves and its updates, counted
    # one each since the last checkpoint, reach the roster size
    t = make_scenario("hebbian", ScenarioConfig(seed=3, trials=24, test_count=8)).trace
    roster = len(t.snapshots[0].membership)
    expected, work = [0], 0
    for step, events in enumerate(t.events):
        work += 1 + sum(len(ev.moved) + len(ev.state_updates) for ev in events)
        if work >= roster:
            expected.append(step + 1)
            work = 0
    marks = t.snapshots._marks
    assert [step for step, _, _ in marks] == expected
    assert 2 < len(expected) < t.n_steps
    eager = _eager_snapshots(t)
    for step, membership, states in marks:
        assert (membership, states) == (eager[step].membership, eager[step].states)


def test_traces_compare_by_their_initial_snapshot_and_events():
    assert [f.name for f in fields(Trace)] == ["initial", "events", "phases", "declarations"]
    t = make_scenario("sandpile", ScenarioConfig(seed=3, trials=12)).trace
    rebuilt = Trace(
        initial=t.initial, events=t.events, phases=t.phases, declarations=t.declarations
    )
    assert rebuilt == t and t == rebuilt
    assert rebuilt.snapshots == t.snapshots == tuple(rebuilt.snapshots)
    assert verify_conservation(rebuilt) == verify_conservation(t) == []
    other = make_scenario("sandpile", ScenarioConfig(seed=4, trials=12)).trace
    assert other != t
    # the same events from another start make another history
    s0 = two_region_snapshot()
    s1 = replace(s0, states={**s0.states, "a": {"v": 1}})
    a, b = build_trace(s0, [[], []]), build_trace(s1, [[], []])
    assert a != b and a.snapshots != b.snapshots
    # so do fewer events from the same start
    shorter = replace(t, events=t.events[:-1])
    assert shorter != t and t.snapshots != shorter.snapshots
