"""Acceptance gate: one check per shipped guarantee, each with a pinned
time budget and one visible pass/fail line.

Run as `pytest tests/test_acceptance.py` (the stamps print through capture)
or with -v for the per-test verdicts as well.
"""

import dataclasses
import importlib
import json
import random
import time
import tracemalloc

import pytest

from mindsets import (
    ActivityScore,
    IntelligenceReport,
    MimicryError,
    ScenarioConfig,
    activity,
    attribution,
    brute_force_classify,
    build_trace,
    check_functor_laws,
    classify,
    compose_functors,
    default_mimicry_mapping,
    functor_from_trace,
    intelligence_category,
    make_scenario,
    make_snapshot,
    mapping_components,
    mapping_object_map,
    mimicry_functor,
    read_trace,
    time_category,
    trace_to_text,
    verify_conservation,
    witness_input,
    witness_output,
    witness_processing,
    write_trace,
    Trace,
    TransferEvent,
    EXTERNAL_IN,
    EXTERNAL_OUT,
    INTERNAL,
)

from factories import (
    nearest_centroid_predictions,
    out_and_back,
    random_trace,
    reference_trace_text,
    scenario_patterns,
    steady_trace,
)

SCENARIOS = ("hebbian", "backprop", "aplysia", "sandpile", "off")

# the package root rebinds the name `classify` to the function
classify_module = importlib.import_module("mindsets.classify")

# per-scenario configs sized so every trace has at least 200 steps
LONG = {
    "hebbian": dict(trials=60, test_count=10),     # 3 * 70 = 210
    "backprop": dict(trials=40, test_count=10),    # 5 * 40 + 3 * 10 = 230
    "aplysia": dict(trials=60, test_count=10),     # 3 * 70 = 210
    "sandpile": dict(trials=70, test_count=0),     # 3 * 70 = 210
}

# configs sized so every trace has at most 30 steps, for the law sweeps
SHORT = {
    "hebbian": dict(trials=7, test_count=3),       # 30
    "backprop": dict(trials=3, test_count=5),      # 30
    "aplysia": dict(trials=7, test_count=3),       # 30
    "sandpile": dict(trials=10, test_count=0),     # 30
}


@pytest.fixture()
def stamp(capsys):
    """Print one pass/fail line straight to the terminal, then enforce it."""

    def _stamp(label, ok, elapsed, bound, detail):
        status = "PASS" if ok and elapsed < bound else "FAIL"
        with capsys.disabled():
            print(f"[{status}] {label}: {detail} ({elapsed:.2f}s, budget {bound}s)")
        assert ok, f"{label}: {detail}"
        assert elapsed < bound, f"{label} exceeded its {bound}s budget: {elapsed:.2f}s"

    return _stamp


def generate(name, seed=0, **overrides):
    if name == "off":
        return make_scenario("off", ScenarioConfig(), steps=overrides.get("steps", 200))
    return make_scenario(name, ScenarioConfig(seed=seed, **overrides))


def test_conservation_across_all_scenarios(stamp):
    started = time.perf_counter()
    checked = 0
    for seed in range(10):
        for name in SCENARIOS:
            bundle = (
                generate("off", steps=200)
                if name == "off"
                else generate(name, seed=seed, **LONG[name])
            )
            assert bundle.trace.n_steps >= 200
            if verify_conservation(bundle.trace) != []:
                stamp("conservation", False, time.perf_counter() - started, 5,
                      f"{name} seed {seed} violates conservation")
            checked += 1
    stamp("conservation", checked == 50, time.perf_counter() - started, 5,
          f"{checked} traces of >= 200 steps, zero violations")


def test_learning_cycle_shapes(stamp):
    started = time.perf_counter()
    three = ("input", "processing", "output")
    five = ("input", "processing", "output", "input", "processing")
    expected_learning = {"hebbian": three, "backprop": five, "aplysia": three}

    ok = True
    details = []
    for name, unit in expected_learning.items():
        bundle = generate(name, trials=5, test_count=3)
        t = bundle.trace
        learning = t.phase("learning")
        test = t.phase("test")
        got_learning = attribution(t, (learning.start, learning.stop))
        got_test = attribution(t, (test.start, test.stop))
        if got_learning != unit * 5 or got_test != three * 3:
            ok = False
            details.append(f"{name} cycles off: {got_learning[:6]}...")
    stamp("cycle-shapes", ok, time.perf_counter() - started, 1,
          "; ".join(details) if details else
          "learning cycles i,p,o / i,p,o,i,p / i,p,o and test cycles i,p,o")


def test_qualification_verdicts(stamp):
    started = time.perf_counter()
    verdicts = {}
    for name in SCENARIOS:
        bundle = (
            generate("off", steps=10)
            if name == "off"
            else generate(name, trials=5, test_count=2)
        )
        t = bundle.trace
        verdicts[name] = classify(t, (0, t.n_steps)).verdict
    expected = {n: n != "off" for n in SCENARIOS}
    stamp("qualification", verdicts == expected, time.perf_counter() - started, 1,
          f"verdicts {verdicts}")


def busy_trace(boundary_steps, total_steps):
    """Synthetic two-region trace with boundary crossings on chosen steps."""
    s0 = make_snapshot(
        [("ball", None), ("anchor", None)],
        {"ball": "outside", "anchor": "inside"},
        {"outside": "environment", "inside": "system"},
    )
    where = "outside"
    schedule = []
    for i in range(total_steps):
        if i in boundary_steps:
            kind, src, dst = (
                (EXTERNAL_IN, "outside", "inside")
                if where == "outside"
                else (EXTERNAL_OUT, "inside", "outside")
            )
            schedule.append([TransferEvent.make(
                step=i, kind=kind, moved=frozenset({"ball"}),
                from_region=src, to_region=dst,
            )])
            where = dst
        else:
            schedule.append([])
    return build_trace(s0, schedule)


def test_activity_fixed_points(stamp):
    started = time.perf_counter()
    quiet = generate("off", steps=50).trace
    every = busy_trace({0, 1, 2, 3}, 4)
    half = busy_trace({0, 2}, 4)
    got = (
        activity(quiet, (0, 50)).step_activity,
        activity(every, (0, 4)).step_activity,
        activity(half, (0, 4)).step_activity,
    )
    stamp("activity", got == (0.0, 1.0, 0.5), time.perf_counter() - started, 1,
          f"powered-off {got[0]}, every-step {got[1]}, half-density {got[2]}")


def test_fast_path_matches_the_oracle(stamp):
    started = time.perf_counter()
    disagreements = 0
    for seed in range(1000):
        t = random_trace(random.Random(seed))
        assert len(t.snapshots[0].membership) <= 8
        assert t.n_steps <= 6
        window = (0, t.n_steps)
        fast = classify(t, window)
        oracle = brute_force_classify(t, window)
        same = fast.verdict == oracle.verdict and all(
            fast.steps_with(c) == oracle.steps_with(c)
            for c in ("input", "processing", "output")
        )
        if not same:
            disagreements += 1
    stamp("oracle-equivalence", disagreements == 0, time.perf_counter() - started, 60,
          f"1000 random traces, {disagreements} disagreements")


def snapshot_diffs(t):
    """Each step's (step, before, after, moves) from the snapshots alone, its
    (element, from, to) moves diffed from the two memberships."""
    snapshots = iter(t.snapshots)
    before = next(snapshots)
    for step, after in enumerate(snapshots):
        moves = [
            (eid, src, after.membership[eid])
            for eid, src in before.membership.items()
            if after.membership[eid] != src
        ]
        yield step, before, after, moves
        before = after


def diff_witnesses(system, step, before, after, moves):
    """One step's canonical witnesses from a snapshot diff, as the oracle
    builds them: count changes from region counts; no event and no
    step-facts table is read."""
    return classify_module._witnesses(
        step,
        system,
        classify_module._region_deltas(before, after),
        classify_module._movement(before.region_side, moves),
    )


def snapshot_witnesses(t):
    """Every step's canonical witnesses from the snapshots alone."""
    system = sorted(t.initial.system_regions())
    return [w for diff in snapshot_diffs(t) for w in diff_witnesses(system, *diff)]


def test_witnesses_match_the_snapshot_diffs_at_scale(stamp):
    # the oracle's region-level half, which its size guard keeps off every
    # scenario trace: each step's witnesses from its events equal those
    # rederived from membership diffs and literal region counts
    started = time.perf_counter()
    traces = [generate(name).trace for name in SCENARIOS]
    traces.append(generate("sandpile", trials=3400, test_count=0).trace)
    wrong = sum(
        list(classify(t, (0, t.n_steps)).witnesses) != snapshot_witnesses(t) for t in traces
    )
    stamp("witnesses-at-scale", traces[-1].n_steps >= 10_000 and wrong == 0,
          time.perf_counter() - started, 1.5,
          f"{len(traces)} traces of up to {traces[-1].n_steps} steps, {wrong} with other witnesses")


def test_one_event_steps_give_the_snapshot_witnesses():
    # a hand-built trace, unchecked by build_trace: one event per step across
    # every pair of sides, and the events no witness comes from
    s0 = make_snapshot(
        [(e, None) for e in "abcdef"],
        {"a": "lab", "b": "core", "c": "core", "d": "lab", "e": "yard", "f": "yard"},
        {"core": "system", "sink": "system", "lab": "environment", "yard": "environment"},
    )
    steps = [
        ("a", "lab", "core"),  # environment -> system: input
        ("b", "core", "sink"),  # system -> system: processing
        ("c", "core", "lab"),  # system -> environment: output
        ("d", "lab", "yard"),  # environment -> environment: no witness
        ("a", "core", "core"),  # from == to: no witness
        ("", "core", "sink"),  # no movers: no witness
        ("ef", "yard", "sink"),
        ("b", "sink", "core"),
    ]
    events = tuple(
        (TransferEvent.make(i, INTERNAL, frozenset(moved), src, dst),)
        for i, (moved, src, dst) in enumerate(steps)
    )
    # a step of two events and an empty one go the general way
    events += (
        (TransferEvent.make(8, INTERNAL, {"e"}, "sink", "core"),
         TransferEvent.make(8, EXTERNAL_OUT, {"f"}, "sink", "lab")),
        (),
    )
    t = Trace(initial=s0, events=events)
    report = classify(t, (0, t.n_steps))
    assert list(report.witnesses) == snapshot_witnesses(t)
    assert [(w.step, w.condition) for w in report.witnesses] == [
        (0, "input"), (1, "processing"), (2, "output"), (6, "input"), (7, "processing"),
        (8, "output"),
    ]
    for w in report.witnesses[:5]:  # a one-event step's witness keeps its event's movers
        assert w.movers is t.events[w.step][0].moved


def test_functor_laws_on_scenario_traces(stamp):
    started = time.perf_counter()
    ok = True
    details = []
    for name in SCENARIOS:
        bundle = (
            generate("off", steps=30)
            if name == "off"
            else generate(name, **SHORT[name])
        )
        t = bundle.trace
        assert t.n_steps <= 30
        report = check_functor_laws(functor_from_trace(t))
        if not report.passed:
            ok = False
            details.append(f"{name}: {report.failures[0]}")

    backwards = 0
    for n in range(31):
        cat = time_category(n)
        for i in cat.objects():
            for j in cat.objects():
                arrows = cat.hom(i, j)
                if i > j and arrows != ():
                    backwards += 1
                if i <= j and len(arrows) != 1:
                    backwards += 1
    stamp("functor-laws", ok and backwards == 0, time.perf_counter() - started, 30,
          "; ".join(details) if details else
          "laws hold on all five traces; no backward arrows for n <= 30")


def test_shipped_mimicry_mapping(stamp):
    started = time.perf_counter()
    source = intelligence_category(
        functor_from_trace(generate("aplysia", trials=5, test_count=3).trace)
    )
    target = intelligence_category(
        functor_from_trace(generate("hebbian", trials=5, test_count=3).trace)
    )
    data = default_mimicry_mapping()
    object_map = mapping_object_map(data, len(source.objects))
    components = mapping_components(data)

    functor = mimicry_functor(source, target, object_map, components)
    laws = check_functor_laws(functor)

    mutated = json.loads(json.dumps(data))
    mutated["components"]["output"] = [[["gill"], ["ghost"]]]
    rejected = None
    try:
        mimicry_functor(source, target, object_map, mapping_components(mutated))
    except MimicryError as exc:
        rejected = exc
    ok = laws.passed and rejected is not None and rejected.counterexample is not None
    stamp("mimicry", ok, time.perf_counter() - started, 5,
          f"shipped mapping passes laws; mutation rejected at {getattr(rejected, 'counterexample', None)}")


def test_composite_of_a_long_pair(stamp):
    # a time functor followed by a mimicry functor pulls run ends back as run
    # ends, so neither the composite nor its law check builds an n^2 table
    started = time.perf_counter()
    source = functor_from_trace(generate("aplysia", trials=200, test_count=50).trace)
    target = functor_from_trace(generate("hebbian", trials=200, test_count=50).trace)
    data = default_mimicry_mapping()
    functor = mimicry_functor(
        source, target, mapping_object_map(data, source.n + 1), mapping_components(data)
    )
    built = time.perf_counter()
    composite = compose_functors(source, functor)
    laws = check_functor_laws(composite)
    alone = time.perf_counter() - built
    ok = source.n == 750 and laws.passed and laws.objects_checked == 751 and alone < 1
    stamp("composite-at-scale", ok, time.perf_counter() - started, 3,
          f"aplysia/hebbian {source.n} steps: compose and law check {alone:.2f}s (bar 1 s)")


def test_rejection_of_a_long_blinking_image(stamp):
    # a steady source mapped i -> 2i into a trace whose image tuple is away
    # at every odd step: the rejection names the first arrow from run ends,
    # with no n^2 table of either functor
    started = time.perf_counter()
    source = functor_from_trace(steady_trace(("a", "b"), steps=375))
    target = functor_from_trace(out_and_back("p", "q", trips=375))
    components = {
        "input": {("a",): ("p",), ("b",): ("q",)},
        "processing": {("a", "a"): ("p", "p")},
        "output": {("a",): ("p",)},
    }
    built = time.perf_counter()
    rejected = None
    try:
        mimicry_functor(source, target, tuple(range(0, 751, 2)), components)
    except MimicryError as exc:
        rejected = exc.counterexample
    alone = time.perf_counter() - built
    ok = target.n == 750 and rejected == (0, 1, "input", ("a",)) and alone < 0.5
    stamp("mimicry-rejection-at-scale", ok, time.perf_counter() - started, 3,
          f"{source.n} into {target.n} steps rejected at {rejected} in {alone:.2f}s (bar 0.5 s)")


def test_learning_reaches_the_oracle_bar(stamp):
    started = time.perf_counter()
    cfg = ScenarioConfig(seed=0, trials=30, test_count=10)
    train_x, train_y, test_x, test_y = scenario_patterns(cfg)
    oracle = nearest_centroid_predictions(train_x, train_y, test_x)
    oracle_accuracy = sum(p == y for p, y in zip(oracle, test_y)) / len(test_y)

    accuracies = {"oracle": oracle_accuracy}
    for name in ("hebbian", "backprop"):
        bundle = make_scenario(name, cfg)
        labels = [r.label for r in bundle.trials if r.phase == "test"]
        assert labels == [str(y) for y in test_y], "scenario task drifted from the mirror"
        accuracies[name] = bundle.accuracy()
    ok = all(a >= 0.9 for a in accuracies.values())
    stamp("learning-sanity", ok, time.perf_counter() - started, 30,
          ", ".join(f"{k} {v:.2f}" for k, v in accuracies.items()) + " (bar 0.9)")


def test_persistence_round_trips(stamp, tmp_path):
    started = time.perf_counter()
    subjects = []
    for name in SCENARIOS:
        bundle = (
            generate("off", steps=20)
            if name == "off"
            else generate(name, trials=5, test_count=3)
        )
        subjects.append((name, bundle.trace))
    for seed in range(100):
        subjects.append(
            (f"random-{seed}", random_trace(random.Random(seed), with_metadata=seed % 2 == 0))
        )

    broken = []
    for label, t in subjects:
        path = tmp_path / f"{label}.trace"
        write_trace(t, path)
        back = read_trace(path)
        if back != t or trace_to_text(back) != path.read_text():
            broken.append(label)
    stamp("persistence", broken == [], time.perf_counter() - started, 10,
          f"{len(subjects)} traces byte-stable" if not broken else f"broken: {broken}")


def test_generation_memory_at_scale(stamp):
    # a trace keeps its initial snapshot and events, not a roster copy per step
    started = time.perf_counter()
    tracemalloc.start()
    try:
        t = generate("hebbian", trials=1000, test_count=250).trace
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    stamp("memory-at-scale", peak < 100, time.perf_counter() - started, 3,
          f"hebbian trials=1000: {t.n_steps} steps, {len(t.snapshots[0].membership)} "
          f"elements, peak {peak:.0f} MB (bar 100 MB)")


def test_conservation_at_scale(stamp):
    # one roster comparison per replayed snapshot, no set built for each
    started = time.perf_counter()
    t = generate("hebbian", trials=1000, test_count=250).trace
    violations = verify_conservation(t)
    stamp("conservation-at-scale", violations == [], time.perf_counter() - started, 10,
          f"hebbian trials=1000: {t.n_steps} steps, {len(violations)} violations")


def test_conservation_at_the_largest_scale(stamp):
    # answered from the events, so no snapshot is replayed
    started = time.perf_counter()
    t = generate("hebbian", trials=4000, test_count=1000).trace
    violations = verify_conservation(t)
    stamp("conservation-at-largest-scale", violations == [] and t.n_steps == 15000,
          time.perf_counter() - started, 5,
          f"hebbian trials=4000: {t.n_steps} steps, {len(violations)} violations")


def test_functor_at_the_largest_scale(stamp):
    # carriers come from the events and unchanged steps share them, so no
    # snapshot is replayed; generation is left out of the timing
    t = generate("hebbian", trials=4000, test_count=1000).trace
    started = time.perf_counter()
    laws = check_functor_laws(functor_from_trace(t))
    ok = t.n_steps == 15000 and laws.passed and laws.objects_checked == 15001
    stamp("functor-at-largest-scale", ok, time.perf_counter() - started, 2,
          f"hebbian trials=4000: {t.n_steps} steps built and law-checked")


def test_long_trace_round_trips(stamp, tmp_path):
    started = time.perf_counter()
    t = generate("sandpile", trials=3400, test_count=0).trace
    first, second = tmp_path / "first.trace", tmp_path / "second.trace"
    write_trace(t, first)
    back = read_trace(first)
    write_trace(back, second)
    ok = (
        t.n_steps >= 10_000
        and back == t
        and first.read_bytes() == second.read_bytes()
        and tuple(back.snapshots) == t.snapshots
    )
    stamp("long-round-trip", ok, time.perf_counter() - started, 3,
          f"sandpile {t.n_steps} steps read back equal and rewritten byte-identical")


def test_round_trip_at_the_largest_scale(stamp, tmp_path):
    # each step line is decoded once and its events validated by one
    # build_trace, and the collector is paused while the events pile up;
    # generation is left out of the timing
    t = generate("sandpile", trials=20000, test_count=0).trace
    first, second = tmp_path / "first.trace", tmp_path / "second.trace"
    started = time.perf_counter()
    write_trace(t, first)
    back = read_trace(first)
    write_trace(back, second)
    ok = t.n_steps >= 60_000 and back == t and first.read_bytes() == second.read_bytes()
    stamp("round-trip-at-largest-scale", ok, time.perf_counter() - started, 5,
          f"sandpile {t.n_steps} steps read back equal and rewritten byte-identical")


def test_read_memory_at_the_largest_scale(stamp, tmp_path):
    # each line is let go once read, and a line that repeats an earlier
    # one's body shares that line's decoded movers and updates: a traced
    # peak of 21 MB, where decoding every line anew with all lines held
    # took 63 MB; generation is left out of the timing
    t = generate("sandpile", trials=20000, test_count=0).trace
    path = tmp_path / "sandpile.trace"
    write_trace(t, path)
    started = time.perf_counter()
    tracemalloc.start()
    try:
        back = read_trace(path)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - started
    ok = t.n_steps >= 60_000 and back == t and peak < 32
    stamp("read-memory-at-largest-scale", ok, elapsed, 5,
          f"sandpile {t.n_steps} steps read back equal, peak {peak:.0f} MB (bar 32 MB)")


def test_writer_at_the_largest_scale(stamp):
    # each line is formatted from its record's fields: 0.13-0.15 s on a
    # 2-vCPU VM, where the dict-per-line reference writer takes 0.39-0.43 s;
    # generation and the reference are left out of the timing
    t = generate("sandpile", trials=20000, test_count=0).trace
    started = time.perf_counter()
    text = trace_to_text(t)
    elapsed = time.perf_counter() - started
    ok = t.n_steps >= 60_000 and text == reference_trace_text(t)
    stamp("writer-at-largest-scale", ok, elapsed, 0.6,
          f"sandpile {t.n_steps} steps written as the reference writer writes them")


def test_classify_at_the_largest_scale(stamp):
    # one pass over each step's events builds its witnesses, from slotted
    # records; generation is left out of the timing
    t = generate("sandpile", trials=20000, test_count=0).trace
    started = time.perf_counter()
    report = classify(t, (0, t.n_steps))
    elapsed = time.perf_counter() - started
    ok = (
        t.n_steps >= 60_000
        and report.verdict
        and report.window == (0, t.n_steps)
        and len(report.witnesses) == 69829
    )
    stamp("classify-at-largest-scale", ok, elapsed, 1,
          f"sandpile {t.n_steps} steps, {len(report.witnesses)} witnesses, full window")


def test_window_queries_on_a_loaded_trace(stamp, tmp_path):
    # each step's facts are computed once per trace, so thousands of short
    # window queries on one freshly read trace cost little more than one
    # full-window pass; recomputing them per query took 1.6-2.1 s here
    path = tmp_path / "hebbian.trace"
    write_trace(generate("hebbian", trials=600, test_count=150).trace, path)
    t = read_trace(path)
    rng = random.Random(0)
    n = t.n_steps
    jobs = []
    for _ in range(5000):
        length = rng.randint(1, 29)
        start = rng.randint(0, n - length)
        jobs.append((start, start + length, rng.choice(("step", "element")), rng.randrange(n)))
    started = time.perf_counter()
    answers = [
        (
            classify(t, (start, stop)),
            activity(t, (start, stop), mode=mode),
            (witness_input(t, step), witness_processing(t, step), witness_output(t, step)),
        )
        for start, stop, mode, step in jobs
    ]
    elapsed = time.perf_counter() - started
    reference = read_trace(path)
    wrong = sum(
        answer
        != (
            classify(reference, (start, stop)),
            activity(reference, (start, stop), mode=mode),
            (witness_input(reference, step), witness_processing(reference, step),
             witness_output(reference, step)),
        )
        for answer, (start, stop, mode, step) in zip(answers[::50], jobs[::50])
    )
    stamp("window-queries", n == 2250 and wrong == 0, elapsed, 1,
          f"hebbian trials=600: 5000 window jobs on {n} steps, {wrong} of 100 checked wrong")


def declared_roles(t):
    """Every step's role from the roles declared for its events' via tags."""
    roles_by_id = {d.id: d.role for d in t.declarations}
    return [
        "+".join(sorted({roles_by_id[ev.via_structure] for ev in events if ev.via_structure}))
        or "other"
        for events in t.events
    ]


def window_reference(t):
    """Answers to every window query, built without the step-facts table:
    witnesses from snapshot diffs, boundary crossings as the diffed moves
    between regions of two sides, roles from the declarations."""
    system = sorted(t.initial.system_regions())
    side = t.initial.region_side
    by_step, crossings = [], []
    for diff in snapshot_diffs(t):
        by_step.append(diff_witnesses(system, *diff))
        crossings.append(sum(side[src] != side[dst] for _, src, dst in diff[3]))
    roles = declared_roles(t)

    def report(start, stop):
        witnesses = tuple(w for ws in by_step[start:stop] for w in ws)
        has = [any(w.condition == c for w in witnesses) for c in ("input", "processing", "output")]
        return IntelligenceReport((start, stop), witnesses, *has, all(has), tuple(roles[start:stop]))

    def score(start, stop, mode):
        moved = crossings[start:stop]
        length = stop - start
        active = sum(1 for n in moved if n)
        return ActivityScore((start, stop), active / length, sum(moved) / length, mode)

    def first(step):
        return tuple(
            next((w for w in by_step[step] if w.condition == c), None)
            for c in ("input", "processing", "output")
        )

    return report, score, first


def test_window_answers_match_an_independent_reference(stamp):
    # short and full windows on a table that is empty, partly filled and
    # full; the reference reads snapshots, declarations and event tags, and
    # never the step-facts table. About 1.8 s, most of it the reference's
    # replay of the 4060-element hebbian trace
    traces = [
        generate("hebbian", seed=1, trials=600, test_count=150).trace,
        generate("sandpile", trials=1000, test_count=0).trace,
    ]
    started = time.perf_counter()
    rng = random.Random(25)
    jobs = wrong = 0
    partial = True
    for t in traces:
        report, score, first = window_reference(t)
        n = t.n_steps
        partly = dataclasses.replace(t)
        for _ in range(20):
            start = rng.randrange(n)
            window = (start, min(n, start + rng.randint(1, 100)))
            (classify if rng.random() < 0.5 else activity)(partly, window)
        known = partly._step_facts._witnesses
        partial = partial and None in known and known.count(None) < n
        full = dataclasses.replace(t)
        classify(full, (0, n))
        activity(full, (0, n))
        for table in ("empty", "partly", "full"):
            windows = []
            for _ in range(150):
                length = rng.randint(1, 29)
                start = rng.randint(0, n - length)
                windows.append((start, start + length))
            windows.append((0, n))
            for start, stop in windows:
                subject = {"empty": dataclasses.replace(t), "partly": partly, "full": full}[table]
                mode = rng.choice(("step", "element"))
                step = rng.randrange(n)
                jobs += 1
                wrong += (
                    classify(subject, (start, stop)) != report(start, stop)
                    or attribution(subject, (start, stop)) != report(start, stop).attribution
                    or activity(subject, (start, stop), mode=mode) != score(start, stop, mode)
                    or (witness_input(subject, step), witness_processing(subject, step),
                        witness_output(subject, step)) != first(step)
                )
    stamp("window-answers", partial and wrong == 0, time.perf_counter() - started, 6,
          f"{jobs} window jobs on hebbian trials=600 and sandpile trials=1000, {wrong} wrong")


# per-scenario configs of about 10^4 steps, for the window-split law
SPLIT = {
    "hebbian": dict(trials=2000, test_count=500),   # 3 * 2500 = 7500
    "backprop": dict(trials=1600, test_count=400),  # 5 * 1600 + 3 * 400 = 9200
    "aplysia": dict(trials=2500, test_count=500),   # 3 * 3000 = 9000
    "sandpile": dict(trials=3400, test_count=0),    # 3 * 3400 = 10200
}


def test_windows_split_into_their_halves(stamp):
    # for a < b < c, classify over (a, c) is (a, b) followed by (b, c): the
    # witnesses and roles concatenated, each condition held when either half
    # holds it, and activity's boundary counts added. Each query reads its
    # own fresh copy of the trace, so no facts table answers two of them
    started = time.perf_counter()
    rng = random.Random(12)
    splits = wrong = 0
    for name in SCENARIOS:
        t = (
            generate("off", steps=10_000) if name == "off" else generate(name, **SPLIT[name])
        ).trace
        assert t.n_steps >= 7500
        for _ in range(20):
            a, b, c = sorted(rng.sample(range(t.n_steps + 1), 3))
            windows = ((a, c), (a, b), (b, c))
            whole, left, right = (classify(dataclasses.replace(t), w) for w in windows)
            counts = []  # active steps and elements moved across, per window
            for start, stop in windows:
                score = activity(dataclasses.replace(t), (start, stop), mode="element")
                length = stop - start
                counts.append(
                    (round(score.step_activity * length), round(score.element_rate * length))
                )
            splits += 1
            wrong += (
                whole.witnesses != left.witnesses + right.witnesses
                or whole.attribution != left.attribution + right.attribution
                or whole.has_input != (left.has_input or right.has_input)
                or whole.has_processing != (left.has_processing or right.has_processing)
                or whole.has_output != (left.has_output or right.has_output)
                or counts[0] != tuple(map(sum, zip(counts[1], counts[2])))
            )
    stamp("window-split", splits == 100 and wrong == 0, time.perf_counter() - started, 8,
          f"{splits} splits a < b < c of traces of 7500-10200 steps, {wrong} not the sum of halves")
