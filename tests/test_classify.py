"""Witness extraction, qualification, attribution, and the activity metric."""

import dataclasses
import importlib
import pickle
import random
import weakref
from collections import Counter

import pytest

from mindsets import (
    EXTERNAL_IN,
    EXTERNAL_OUT,
    INTERNAL,
    ActivityScore,
    ConstructionError,
    IntelligenceReport,
    ScenarioConfig,
    StructureRelation,
    Trace,
    TransferEvent,
    Witness,
    WindowError,
    activity,
    attribution,
    brute_force_classify,
    build_trace,
    classify,
    make_scenario,
    make_snapshot,
    witness_input,
    witness_output,
    witness_processing,
)

from factories import random_trace

# the package root rebinds the name `classify` to the function
classify_module = importlib.import_module("mindsets.classify")

REGION_SIDE = {
    "lab": "environment",
    "street": "environment",
    "intake": "system",
    "core": "system",
    "sink": "system",
}


def settlement(**members):
    """Snapshot over the five fixed regions; members maps element -> region."""
    return make_snapshot(
        [(e, None) for e in members], dict(members), dict(REGION_SIDE)
    )


def ev(step, kind, moved, src, dst, via=None):
    return TransferEvent.make(
        step=step, kind=kind, moved=frozenset(moved), from_region=src,
        to_region=dst, via_structure=via,
    )


def test_arrival_witnesses_input():
    s0 = settlement(x="lab", y="core")
    t = build_trace(s0, [[ev(0, EXTERNAL_IN, ("x",), "lab", "intake")]])
    w = witness_input(t, 0)
    assert w is not None
    assert (w.condition, w.step) == ("input", 0)
    assert w.grown_region == "intake" and w.shrunk_region is None
    assert w.movers == {"x"}
    assert witness_output(t, 0) is None
    assert witness_processing(t, 0) is None


def test_departure_witnesses_output():
    s0 = settlement(x="core", y="core")
    t = build_trace(s0, [[ev(0, EXTERNAL_OUT, ("y",), "core", "street")]])
    w = witness_output(t, 0)
    assert w is not None
    assert w.shrunk_region == "core" and w.grown_region is None
    assert w.movers == {"y"}
    assert witness_input(t, 0) is None


def test_internal_shift_witnesses_processing():
    s0 = settlement(x="core", y="core")
    t = build_trace(s0, [[ev(0, INTERNAL, ("x", "y"), "core", "sink")]])
    w = witness_processing(t, 0)
    assert w is not None
    assert w.grown_region == "sink" and w.shrunk_region == "core"
    assert w.movers == {"x", "y"}


def test_balanced_exchange_witnesses_input_and_output_together():
    # one step, arrival into intake and departure from sink: the net system
    # count is unchanged, yet both conditions hold on their own regions
    s0 = settlement(x="lab", y="sink")
    t = build_trace(
        s0,
        [[
            ev(0, EXTERNAL_IN, ("x",), "lab", "intake"),
            ev(0, EXTERNAL_OUT, ("y",), "sink", "street"),
        ]],
    )
    r = classify(t, (0, 1))
    assert r.has_input and r.has_output
    assert r.steps_with("input") == {0} and r.steps_with("output") == {0}
    assert not r.has_processing
    assert not r.verdict


def test_cleanliness_is_judged_per_region():
    # internal core -> sink runs beside an arrival into intake; the arrival
    # does not touch either processing region, so both witnesses stand
    s0 = settlement(x="core", n="lab")
    t = build_trace(
        s0,
        [[
            ev(0, INTERNAL, ("x",), "core", "sink"),
            ev(0, EXTERNAL_IN, ("n",), "lab", "intake"),
        ]],
    )
    r = classify(t, (0, 1))
    assert r.steps_with("input") == {0}
    assert r.steps_with("processing") == {0}


def test_boundary_contact_disqualifies_a_processing_region():
    # the arrival lands in the growing region itself: processing needs both
    # its regions free of boundary contact, so only input remains
    s0 = settlement(x="core", n="lab")
    t = build_trace(
        s0,
        [[
            ev(0, INTERNAL, ("x",), "core", "sink"),
            ev(0, EXTERNAL_IN, ("n",), "lab", "sink"),
        ]],
    )
    r = classify(t, (0, 1))
    assert r.has_input
    assert not r.has_processing


@pytest.mark.parametrize(
    "members, boundary, expected",
    [
        # an arrival into the shrinking region: it shrank, so no input either
        (dict(y="core", z="core", x="lab"), ev(0, EXTERNAL_IN, ("x",), "lab", "core"), []),
        # a departure from the growing region: it grew, so no output either
        (dict(y="core", z="core", w="sink"), ev(0, EXTERNAL_OUT, ("w",), "sink", "street"), []),
        # a departure from the shrinking region: output alone
        (dict(y="core", z="core", w="core"), ev(0, EXTERNAL_OUT, ("w",), "core", "street"),
         [Witness("output", 0, None, "core", frozenset({"w"}))]),
    ],
)
def test_boundary_contact_disqualifies_either_processing_region(members, boundary, expected):
    # y and z move core -> sink beside one boundary crossing that touches a
    # region of the pair, so no processing witness stands
    internal = ev(0, INTERNAL, ("y", "z"), "core", "sink")
    t = build_trace(settlement(**members), [[internal, boundary]])
    assert list(classify(t, (0, 1)).witnesses) == expected


def test_growth_without_arrival_is_not_input():
    s0 = settlement(x="core")
    t = build_trace(s0, [[ev(0, INTERNAL, ("x",), "core", "sink")]])
    r = classify(t, (0, 1))
    assert not r.has_input and not r.has_output
    assert r.has_processing


def test_relayed_flow_nets_out_at_the_middle_region():
    # x leaves core for sink while y refills core from intake: core's count
    # is unchanged, so the witness pairs the strict growth with the strict
    # loss and carries both movers
    s0 = settlement(x="core", y="intake")
    t = build_trace(
        s0,
        [[
            ev(0, INTERNAL, ("x",), "core", "sink"),
            ev(0, INTERNAL, ("y",), "intake", "core"),
        ]],
    )
    r = classify(t, (0, 1))
    (w,) = r.witnesses_for("processing")
    assert (w.grown_region, w.shrunk_region) == ("sink", "intake")
    assert w.movers == {"x", "y"}


def test_the_private_constructor_gives_the_public_witness():
    args = ("processing", 7, "sink", "intake", frozenset({"x", "y"}))
    fast, public = classify_module._witness(*args), Witness(*args)
    assert type(fast) is Witness
    assert fast == public and hash(fast) == hash(public) and repr(fast) == repr(public)
    for record in (fast, public):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
        # the equal set unpickling builds may list two movers in the other order
        assert sorted(copy.movers) == sorted(record.movers)
    one = classify_module._witness("input", 7, "core", None, frozenset({"x"}))
    assert repr(pickle.loads(pickle.dumps(one))) == repr(one)
    assert [f.name for f in dataclasses.fields(fast)] == [
        "condition", "step", "grown_region", "shrunk_region", "movers",
    ]
    assert dataclasses.replace(fast, step=8) == Witness("processing", 8, *args[2:])
    for record in (fast, public):
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.movers = frozenset()
    assert fast.step == 7 and not hasattr(fast, "__dict__")
    # the witnesses classify returns are the public records
    t = build_trace(settlement(x="lab"), [[ev(0, EXTERNAL_IN, ("x",), "lab", "core")]])
    (w,) = classify(t, (0, 1)).witnesses
    assert w == Witness("input", 0, "core", None, frozenset({"x"}))
    assert hash(w) == hash(Witness("input", 0, "core", None, frozenset({"x"})))


def test_reports_and_scores_are_the_public_records():
    # classify, the brute-force oracle and activity store each record's
    # fields as its instance dict; the result must be the record the public
    # constructor builds
    t = make_scenario("aplysia", ScenarioConfig(trials=3, test_count=2)).trace
    report, score = classify(t, (2, 9)), activity(t, (2, 9), mode="element")
    oracle = brute_force_classify(random_trace(random.Random(4), min_steps=6), (0, 6))
    records = ((report, IntelligenceReport), (oracle, IntelligenceReport), (score, ActivityScore))
    for fast, cls in records:
        names = [f.name for f in dataclasses.fields(cls)]
        public = cls(**{name: getattr(fast, name) for name in names})
        assert type(fast) is cls and list(vars(fast)) == names
        assert fast == public and hash(fast) == hash(public) and repr(fast) == repr(public)
        assert pickle.dumps(fast) == pickle.dumps(public)
        assert dataclasses.replace(fast) == fast and dataclasses.asdict(fast) == dataclasses.asdict(public)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.window = (0, 1)
    for r in (report, oracle):
        assert r.verdict == (r.has_input and r.has_processing and r.has_output)
    assert oracle.witnesses and oracle.attribution


def test_witness_helpers_validate_the_step():
    t = build_trace(settlement(x="lab"), [[ev(0, EXTERNAL_IN, ("x",), "lab", "core")]])
    with pytest.raises(WindowError):
        witness_input(t, 1)
    with pytest.raises(WindowError):
        witness_output(t, -1)


def test_windows_are_half_open_and_checked():
    s0 = settlement(x="lab", y="core", z="core")
    t = build_trace(
        s0,
        [
            [ev(0, EXTERNAL_IN, ("x",), "lab", "intake")],
            [ev(1, INTERNAL, ("y",), "core", "sink")],
            [ev(2, EXTERNAL_OUT, ("z",), "core", "street")],
        ],
    )
    assert classify(t, (0, 3)).verdict
    head = classify(t, (0, 2))
    assert head.has_input and head.has_processing and not head.has_output
    tail = classify(t, (2, 3))
    assert tail.has_output and not tail.has_input
    with pytest.raises(WindowError, match="empty window"):
        classify(t, (1, 1))
    with pytest.raises(WindowError, match="outside steps"):
        classify(t, (0, 4))
    with pytest.raises(WindowError):
        classify(t, (-1, 2))


def test_attribution_reads_declared_roles():
    decls = [
        StructureRelation(id="feed", role="input", arity=1,
                          tuples=frozenset({("x",)}), scope=frozenset({"intake"})),
        StructureRelation(id="mill", role="processing", arity=1,
                          tuples=frozenset({("y",)}), scope=frozenset({"core"})),
    ]
    s0 = settlement(x="lab", y="core", z="core")
    t = build_trace(
        s0,
        [
            [ev(0, EXTERNAL_IN, ("x",), "lab", "intake", via="feed")],
            [ev(1, INTERNAL, ("y",), "core", "sink", via="mill")],
            [ev(2, EXTERNAL_OUT, ("z",), "core", "street")],
            [],
            [
                ev(4, INTERNAL, ("y",), "sink", "core", via="mill"),
                ev(4, EXTERNAL_IN, ("z",), "street", "intake", via="feed"),
            ],
        ],
        declarations=decls,
    )
    assert attribution(t, (0, 5)) == (
        "input", "processing", "other", "other", "input+processing"
    )
    # classify carries the same sequence
    assert classify(t, (0, 5)).attribution == attribution(t, (0, 5))


def test_oracle_booleans_come_from_subsets_not_regions():
    # an arrival into core is exactly cancelled there by an internal drain;
    # no single region both grew and was fed, so the witness list is empty,
    # but the subset reading (take intake and core together) still finds
    # input. classify stays region-level and reports nothing. Generated
    # traces never overlap footprints this way; hand-built ones can.
    s0 = settlement(x="lab", y="core")
    t = build_trace(
        s0,
        [[
            ev(0, EXTERNAL_IN, ("x",), "lab", "core"),
            ev(0, INTERNAL, ("y",), "core", "intake"),
        ]],
    )
    region_level = classify(t, (0, 1))
    assert not region_level.has_input
    assert region_level.witnesses == ()
    subset_level = brute_force_classify(t, (0, 1))
    assert subset_level.has_input
    assert subset_level.witnesses_for("input") == ()
    assert not subset_level.verdict


def test_brute_force_size_guard():
    wide = make_snapshot(
        [(f"e{i}", None) for i in range(13)],
        {f"e{i}": "core" for i in range(13)},
        {"core": "system", "lab": "environment"},
    )
    t = build_trace(wide, [[] for _ in range(9)])
    with pytest.raises(ConstructionError, match="size guard"):
        brute_force_classify(t, (0, 1))
    small = settlement(x="core")
    t2 = build_trace(small, [[] for _ in range(9)])
    with pytest.raises(ConstructionError, match="size guard"):
        brute_force_classify(t2, (0, 9))
    assert not brute_force_classify(t2, (0, 8)).verdict


def test_oracle_agreement_on_disciplined_random_traces():
    for seed in range(250):
        t = random_trace(random.Random(seed))
        a = classify(t, (0, t.n_steps))
        b = brute_force_classify(t, (0, t.n_steps))
        assert a.verdict == b.verdict
        for condition in ("input", "processing", "output"):
            assert a.steps_with(condition) == b.steps_with(condition)
        assert a.witnesses == b.witnesses


def test_oracle_agreement_on_short_windows_of_long_random_traces():
    # windows of at most 8 steps, the oracle's guard, at random places in
    # 1000-step traces; the fast path's table fills in the order asked
    for seed in range(4):
        rng = random.Random(seed)
        t = random_trace(rng, with_metadata=True, min_steps=1000, max_steps=1000)
        for _ in range(60):
            start = rng.randrange(t.n_steps)
            window = (start, min(t.n_steps, start + rng.randint(1, 8)))
            assert classify(t, window) == brute_force_classify(t, window), (seed, window)


def test_oracle_reads_no_step_facts(monkeypatch):
    t = random_trace(random.Random(7), with_metadata=True, min_steps=20, max_steps=20)
    expected = [brute_force_classify(t, (i, i + 3)) for i in range(t.n_steps - 2)]

    def no_step_witnesses(*args):
        raise AssertionError("computed a step's witnesses")

    monkeypatch.setattr(classify_module, "_step_witnesses", no_step_witnesses)
    fresh = dataclasses.replace(t)
    assert [brute_force_classify(fresh, (i, i + 3)) for i in range(t.n_steps - 2)] == expected
    assert "_step_facts" not in vars(fresh)
    # the fast path does compute them, so the patch would have been seen
    with pytest.raises(AssertionError, match="computed a step's witnesses"):
        classify(fresh, (0, 1))


QUERIES = ("classify", "activity-step", "activity-element", "attribution",
           "witness_input", "witness_processing", "witness_output")


def query(t, name, window, step):
    if name == "classify":
        return classify(t, window)
    if name.startswith("activity-"):
        return activity(t, window, mode=name.split("-")[1])
    if name == "attribution":
        return attribution(t, window)
    return getattr(classify_module, name)(t, step)


def query_sequence(rng, n_steps, length, full_first):
    """Mixed queries on overlapping windows, with the full window first or last."""
    calls = []
    for _ in range(length):
        start = rng.randrange(n_steps)
        window = (start, rng.randint(start + 1, min(n_steps, start + 12)))
        calls.append((rng.choice(QUERIES), window, rng.randrange(n_steps)))
    full = [(name, (0, n_steps), rng.randrange(n_steps)) for name in QUERIES]
    return full + calls if full_first else calls + full


def sequence_subjects():
    for seed in range(40):
        rng = random.Random(seed)
        yield f"random-{seed}", rng, random_trace(rng, with_metadata=seed % 2 == 0, max_steps=40)
    for name in ("hebbian", "backprop", "aplysia", "sandpile"):
        yield name, random.Random(name), make_scenario(name, ScenarioConfig(trials=12, test_count=4)).trace
    yield "off", random.Random("off"), make_scenario("off", ScenarioConfig(), steps=30).trace


@pytest.mark.parametrize("full_first", [True, False], ids=["full-first", "full-last"])
def test_repeated_queries_equal_queries_on_a_fresh_trace(full_first):
    # one trace answers every query from its table of step facts; each
    # answer must equal the one an equal trace gives with an empty table
    for label, rng, t in sequence_subjects():
        for name, window, step in query_sequence(rng, t.n_steps, 30, full_first):
            fresh = dataclasses.replace(t)
            assert query(t, name, window, step) == query(fresh, name, window, step), (
                label, name, window, step
            )
        # the table is not a field: equality and repr are the fields' alone
        assert t == fresh and repr(t) == repr(fresh)


def test_step_facts_go_with_their_trace():
    t = make_scenario("sandpile", ScenarioConfig(trials=3)).trace
    report = classify(t, (0, t.n_steps))
    # a queried trace still pickles, and its copy answers alike
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and classify(copy, (0, t.n_steps)) == report
    table = weakref.ref(t._step_facts)
    del t
    # no reference cycle holds the table, so it goes with the last reference
    assert table() is None


def test_range_checks_hold_once_the_table_is_full():
    t = make_scenario("aplysia", ScenarioConfig(trials=4, test_count=2)).trace
    n = t.n_steps
    classify(t, (0, n))
    activity(t, (0, n))
    for witness in (witness_input, witness_processing, witness_output):
        for step in range(n):
            witness(t, step)
        for step in (-1, n):
            with pytest.raises(WindowError, match="outside steps"):
                witness(t, step)
    for window in ((-1, 2), (0, n + 1), (n, n + 1), (-1, 0)):
        for name in QUERIES[:4]:
            with pytest.raises(WindowError, match="outside steps"):
                query(t, name, window, 0)


def filled_steps(facts):
    """The steps each of a table's three fact lists holds an entry for."""
    return tuple(
        {i for i, fact in enumerate(known) if fact is not None}
        for known in (facts._witnesses, facts._roles, facts._crossers)
    )


def test_a_window_query_fills_only_the_steps_it_reads(monkeypatch):
    # the table stays lazy: a short window on a long trace computes the
    # facts of its own steps and of no other
    t = make_scenario("sandpile", ScenarioConfig(trials=100)).trace
    computed = []
    step_witnesses = classify_module._step_witnesses

    def counted(step, *args):
        computed.append(step)
        return step_witnesses(step, *args)

    monkeypatch.setattr(classify_module, "_step_witnesses", counted)
    window = set(range(120, 135))
    expected = {
        "classify": (window, window, set()),
        "attribution": (set(), window, set()),
        "activity-step": (set(), set(), window),
        "activity-element": (set(), set(), window),
    }
    for name, filled in expected.items():
        fresh = dataclasses.replace(t)
        computed.clear()
        query(fresh, name, (120, 135), 0)
        assert filled_steps(fresh._step_facts) == filled, name
        assert sorted(computed) == sorted(filled[0]), name
    for name in QUERIES[4:]:
        fresh = dataclasses.replace(t)
        computed.clear()
        query(fresh, name, None, 77)
        query(fresh, name, None, 77)
        assert filled_steps(fresh._step_facts) == ({77}, set(), set()), name
        assert computed == [77], name
    # a window that overlaps filled steps computes only the missing ones
    fresh = dataclasses.replace(t)
    classify(fresh, (120, 135))
    witness_output(fresh, 140)
    computed.clear()
    classify(fresh, (130, 145))
    assert sorted(computed) == [135, 136, 137, 138, 139, 141, 142, 143, 144]
    assert filled_steps(fresh._step_facts)[0] == set(range(120, 145))


def test_fast_path_reads_events_and_the_first_snapshot_only(monkeypatch):
    t = make_scenario("hebbian", ScenarioConfig(trials=40, test_count=10)).trace
    full = (0, t.n_steps)

    def answers():
        return (
            classify(t, full),
            [activity(t, full, mode) for mode in ("step", "element")],
            [
                witness(t, step)
                for step in range(t.n_steps)
                for witness in (witness_input, witness_processing, witness_output)
            ],
        )

    expected = answers()

    def no_snapshots(trace):
        raise AssertionError("read Trace.snapshots")

    monkeypatch.setattr(Trace, "snapshots", property(no_snapshots))
    assert answers() == expected


@pytest.mark.parametrize(
    "name, cfg, steps",
    [
        ("hebbian", ScenarioConfig(trials=200, test_count=50), 0),
        ("backprop", ScenarioConfig(trials=200, test_count=50), 0),
        ("sandpile", ScenarioConfig(trials=400), 0),
        ("aplysia", ScenarioConfig(trials=200), 0),
        ("off", ScenarioConfig(), 500),
    ],
)
def test_event_moves_account_for_every_count_change(name, cfg, steps):
    # the fast path takes each region's count change from its step's moves;
    # the oracle's size guard stops far below these sizes
    t = make_scenario(name, cfg, steps=steps).trace
    assert t.n_steps >= 400
    for i, events in enumerate(t.events):
        before, after = t.snapshots[i], t.snapshots[i + 1]
        moves = {(e, ev.from_region, ev.to_region) for ev in events for e in ev.moved}
        changed = {
            (e, src, after.membership[e])
            for e, src in before.membership.items()
            if after.membership[e] != src
        }
        assert moves == changed, f"step {i}"
        delta = Counter(dst for _, _, dst in moves)
        delta.subtract(src for _, src, _ in moves)
        counts = before.region_counts(), after.region_counts()
        for r in before.region_side:
            assert delta[r] == counts[1][r] - counts[0][r], f"step {i}, region {r}"


def quiet_trace(steps):
    s0 = settlement(x="core", n="lab")
    return build_trace(s0, [[] for _ in range(steps)])


def test_activity_counts_boundary_steps():
    s0 = settlement(a="lab", b="lab", c="core", d="core")
    t = build_trace(
        s0,
        [
            [ev(0, EXTERNAL_IN, ("a", "b"), "lab", "intake")],
            [ev(1, INTERNAL, ("c",), "core", "sink")],
            [],
            [ev(3, EXTERNAL_OUT, ("d",), "core", "street")],
        ],
    )
    score = activity(t, (0, 4))
    assert score.step_activity == pytest.approx(0.5)
    # three boundary movers over four steps; the internal shift is not traffic
    assert score.element_rate == pytest.approx(0.75)
    assert activity(t, (0, 2)).step_activity == pytest.approx(0.5)
    assert activity(t, (1, 3)).step_activity == 0.0


def test_activity_modes_share_the_numbers():
    t = quiet_trace(4)
    by_step = activity(t, (0, 4), mode="step")
    by_element = activity(t, (0, 4), mode="element")
    assert by_step.step_activity == by_element.step_activity == 0.0
    assert by_step.element_rate == by_element.element_rate == 0.0
    assert by_step.mode == "step" and by_element.mode == "element"
    with pytest.raises(ConstructionError, match="unknown activity mode"):
        activity(t, (0, 4), mode="hourly")


def test_activity_rejects_empty_windows():
    t = quiet_trace(2)
    with pytest.raises(WindowError):
        activity(t, (2, 2))
