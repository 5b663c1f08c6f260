"""Built-in scenario generators: shape, determinism, dynamics, verdicts."""

import hashlib
import warnings
from dataclasses import fields, replace

import pytest

from mindsets import (
    ConstructionError,
    ScenarioConfig,
    StepError,
    activity,
    attribution,
    classify,
    habituation_extinction_point,
    make_scenario,
    trace_to_text,
    verify_conservation,
)
from mindsets.scenarios import FIVE_STEP, THREE_STEP

from factories import nearest_centroid_predictions, scenario_patterns

QUICK = ScenarioConfig(seed=7, trials=6, test_count=3)


def bundle_of(name, cfg=QUICK, steps=12):
    return make_scenario(name, cfg, steps=steps)


@pytest.mark.parametrize("name", ["hebbian", "backprop", "aplysia", "sandpile", "off"])
def test_every_scenario_conserves_and_replays(name):
    bundle = bundle_of(name)
    assert bundle.name == name
    assert verify_conservation(bundle.trace) == []
    roles = bundle.trace.declarations_by_role()
    assert sorted(roles) == ["input", "output", "processing"]
    for role in ("input", "processing", "output"):
        assert len(roles[role]) == 1


def test_make_scenario_rejects_unknown_names():
    with pytest.raises(ConstructionError, match="unknown scenario"):
        make_scenario("psychic", QUICK)


def test_same_seed_same_trace_different_seed_different_trace():
    first = bundle_of("backprop")
    again = bundle_of("backprop")
    other = bundle_of("backprop", cfg=ScenarioConfig(seed=8, trials=6, test_count=3))
    assert first.trace == again.trace
    assert first.trace != other.trace


# Weak habituating reflex, one class per pattern row, a wide sand pile.
ODD = replace(QUICK, aplysia_stimuli="weak", class_count=QUICK.pattern_size, grain_count=40)

# sha256 of trace_to_text(bundle.trace) and of repr(bundle.trials); a change
# to any generator that alters a single trace byte or trial record shows here.
PINNED_DIGESTS = {
    ("hebbian", "quick"): (
        "30931f7a13c691f3af2a30aeb3d37a8c67a292c7de8f0ef3731e7036809095ae",
        "f7f6b5dad9cf5e78c3250dc6bdde3208d063a95c4edf9eeeeae7adcdce5bdc6c",
    ),
    ("backprop", "quick"): (
        "ae2e7c7f0736305569dee84a8c1458c07e0e902e6ac3a6c9e2245c4adb273de3",
        "3698b7cc527c2a6d1cf5676e6d921ade7813a1b54c3db2dbd211a10a00191752",
    ),
    ("aplysia", "quick"): (
        "be9620683e0783a11cdb12a89646d4c443773ab9acebe32a35331a6841aea43d",
        "a00f359a4eb215a93e67c582d7429953a1fac7995a2051c87322f04f26915df2",
    ),
    ("sandpile", "quick"): (
        "ee6dafac3eeff562046f65c75188d46f28bb0775f6fb6a9229d4c492077d0d90",
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    ),
    ("off", "quick"): (
        "14d8eeaecc757640381147d05b9ecdc0e2b5a557512994502273a07aa17d9fc4",
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    ),
    ("hebbian", "odd"): (
        "b294cafa60b1312871626579d8c85bae55d859e3b1ab6a7413b5c92172ced312",
        "0c7bc4220f2b7a9d4fedbf5121819b763ef76d1f0176225e7376ded8c01f5156",
    ),
    ("backprop", "odd"): (
        "7b47dd8980181a5765cedb0796e9fb4bf812af64ed213cd25296261a1b0ff618",
        "6c9e64e9bf0ee710f7aee64b6a0550b74cb1c1419a68bdcd63e54cd7e7298995",
    ),
    ("aplysia", "odd"): (
        "357afde8971eaa35d5ecc66d25b2982615d77ab97634c320418f045f47503804",
        "aae0649328df592b387eb3afd6cf6d0dd4f37649cde74215817c1237be53e8c8",
    ),
    ("sandpile", "odd"): (
        "cf1dada83adc46916b82fea236363182f6c71b0816ce0561818a0030962ff81f",
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    ),
    ("off", "odd"): (
        "14d8eeaecc757640381147d05b9ecdc0e2b5a557512994502273a07aa17d9fc4",
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    ),
}


@pytest.mark.parametrize("name, cfg", list(PINNED_DIGESTS))
def test_generator_output_is_pinned(name, cfg):
    bundle = bundle_of(name, cfg={"quick": QUICK, "odd": ODD}[cfg])
    trace_digest = hashlib.sha256(trace_to_text(bundle.trace).encode()).hexdigest()
    trials_digest = hashlib.sha256(repr(bundle.trials).encode()).hexdigest()
    assert (trace_digest, trials_digest) == PINNED_DIGESTS[name, cfg]


def test_hebbian_shape_and_cycles():
    bundle = bundle_of("hebbian")
    t = bundle.trace
    assert t.n_steps == 3 * (QUICK.trials + QUICK.test_count)
    learning = t.phase("learning")
    test = t.phase("test")
    assert (learning.start, learning.stop) == (0, 18)
    assert (test.start, test.stop) == (18, 27)
    assert attribution(t, (learning.start, learning.stop)) == THREE_STEP * QUICK.trials
    assert attribution(t, (test.start, test.stop)) == THREE_STEP * QUICK.test_count
    assert classify(t, (0, t.n_steps)).verdict


def test_hebbian_learns_the_row_task():
    bundle = bundle_of("hebbian", cfg=ScenarioConfig(seed=3, trials=12, test_count=6))
    assert bundle.accuracy() >= 0.9
    graded = [r for r in bundle.trials if r.phase == "test"]
    assert len(graded) == 6
    assert all(r.correct == (r.prediction == r.label) for r in graded)


def test_hebbian_matches_the_published_task_exactly():
    cfg = ScenarioConfig(seed=11, trials=9, test_count=5)
    bundle = bundle_of("hebbian", cfg=cfg)
    _, learn_labels, _, test_labels = scenario_patterns(cfg)
    assert [r.label for r in bundle.trials if r.phase == "learning"] == [
        str(y) for y in learn_labels
    ]
    assert [r.label for r in bundle.trials if r.phase == "test"] == [
        str(y) for y in test_labels
    ]


def test_backprop_shape_and_cycles():
    bundle = bundle_of("backprop")
    t = bundle.trace
    assert t.n_steps == 5 * QUICK.trials + 3 * QUICK.test_count
    learning = t.phase("learning")
    assert attribution(t, (learning.start, learning.stop)) == FIVE_STEP * QUICK.trials
    test = t.phase("test")
    assert attribution(t, (test.start, test.stop)) == THREE_STEP * QUICK.test_count
    assert classify(t, (0, t.n_steps)).verdict
    assert bundle.expected_cycles == (("learning", FIVE_STEP), ("test", THREE_STEP))


def test_backprop_loss_falls_and_batches_retire():
    cfg = ScenarioConfig(seed=5, trials=15, test_count=5)
    bundle = bundle_of("backprop", cfg=cfg)
    losses = [r.score for r in bundle.trials if r.phase == "learning"]
    assert losses[-1] < losses[0]
    assert bundle.accuracy() >= 0.9
    final = bundle.trace.snapshots[-1]
    retired = final.members("trained_pool")
    # every learning batch's pixel tokens end up retired inside the system
    assert retired and all(e.startswith("stim_") for e in retired)


def test_backprop_learning_trials_do_not_touch_the_environment():
    bundle = bundle_of("backprop")
    t = bundle.trace
    learning = t.phase("learning")
    # arrivals only: the verdict over the learning window lacks output
    report = classify(t, (learning.start, learning.stop))
    assert report.has_input and report.has_processing
    assert not report.has_output
    assert classify(t, (0, t.n_steps)).verdict


def test_aplysia_strong_reinforcement_always_responds():
    bundle = bundle_of("aplysia")
    assert all(r.prediction == "response" for r in bundle.trials)
    strengths = [
        snap.states["syn"]["strength"] for snap in bundle.trace.snapshots
    ]
    assert strengths[-1] > strengths[0]
    assert strengths == sorted(strengths)


HABITUATION = ScenarioConfig(
    seed=0,
    trials=8,
    test_count=2,
    aplysia_stimuli="weak",
    initial_strength=1.0,
    habituation_decrement=0.2,
    threshold=0.35,
    stimulus_magnitude=1.0,
)


def test_aplysia_habituation_extinguishes_on_schedule():
    point = habituation_extinction_point(HABITUATION)
    assert point == 4
    bundle = bundle_of("aplysia", cfg=HABITUATION)
    predictions = [r.prediction for r in bundle.trials]
    assert predictions == ["response"] * point + ["none"] * (10 - point)
    drives = [r.score for r in bundle.trials if r.phase == "learning"]
    assert drives == sorted(drives, reverse=True)
    # the synapse floors at zero rather than going negative
    assert bundle.trace.snapshots[-1].states["syn"]["strength"] == 0.0


def test_habituated_reflex_fails_the_verdict_on_its_quiet_tail():
    bundle = bundle_of("aplysia", cfg=HABITUATION)
    t = bundle.trace
    test = t.phase("test")
    tail = classify(t, (test.start, test.stop))
    assert tail.has_input and tail.has_processing
    assert not tail.has_output and not tail.verdict
    assert classify(t, (0, t.n_steps)).verdict  # early responses still count


def test_extinction_point_edge_cases():
    assert habituation_extinction_point(
        ScenarioConfig(initial_strength=0.2, threshold=0.5, habituation_decrement=0.1)
    ) == 0
    with pytest.raises(ConstructionError, match="positive decrement"):
        habituation_extinction_point(ScenarioConfig(habituation_decrement=0.0))


def test_sandpile_qualifies_without_any_task():
    bundle = bundle_of("sandpile", cfg=ScenarioConfig(seed=2, trials=8))
    t = bundle.trace
    assert bundle.trials == ()
    assert t.n_steps == 24
    gusts = t.phase("gusts")
    assert attribution(t, (gusts.start, gusts.stop)) == THREE_STEP * 8
    assert classify(t, (0, t.n_steps)).verdict


def test_powered_off_is_structured_but_inert():
    bundle = bundle_of("off", steps=9)
    t = bundle.trace
    assert t.n_steps == 9
    assert all(events == () for events in t.events)
    assert not classify(t, (0, 9)).verdict
    assert classify(t, (0, 9)).witnesses == ()
    assert activity(t, (0, 9)).step_activity == 0.0
    assert bundle.config is None
    with pytest.raises(ConstructionError, match="steps must be"):
        bundle_of("off", steps=0)


def test_config_validation_catches_bad_knobs():
    bad = [
        ScenarioConfig(seed=-1),
        ScenarioConfig(trials=0),
        ScenarioConfig(class_count=9),
        ScenarioConfig(noise=1.0),
        ScenarioConfig(learning_rate=0.0),
        ScenarioConfig(aplysia_stimuli="medium"),
        ScenarioConfig(grain_count=1),
    ]
    float_fields = [f.name for f in fields(ScenarioConfig) if isinstance(f.default, float)]
    assert len(float_fields) == 6
    for name in float_fields:
        for value in (float("nan"), float("inf"), float("-inf")):
            bad.append(replace(ScenarioConfig(), **{name: value}))
    for cfg in bad:
        with pytest.raises(ConstructionError):
            cfg.validate()


@pytest.mark.parametrize("name, step", [("hebbian", 10), ("aplysia", 4), ("backprop", 13)])
def test_weights_that_overflow_are_refused_at_their_step(name, step):
    # a finite learning rate can still overflow the weights: no built trace
    # holds an infinity, in memory or in a file
    cfg = ScenarioConfig(learning_rate=1e308, trials=40)
    message = f"^step {step}: a state update holds a number that is not finite$"
    with warnings.catch_warnings(), pytest.raises(StepError, match=message):
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy warns as they overflow
        make_scenario(name, cfg)


def test_accuracy_needs_graded_trials():
    bundle = bundle_of("sandpile")
    with pytest.raises(ConstructionError, match="no graded test trials"):
        bundle.accuracy()


def test_nearest_centroid_oracle_solves_the_task_too():
    # sanity for the acceptance cross-check: the independent classifier and
    # the scenario agree the task is learnable at these settings
    cfg = ScenarioConfig(seed=13, trials=30, test_count=10)
    train_x, train_y, test_x, test_y = scenario_patterns(cfg)
    oracle = nearest_centroid_predictions(train_x, train_y, test_x)
    oracle_accuracy = sum(p == y for p, y in zip(oracle, test_y)) / len(test_y)
    assert oracle_accuracy >= 0.9
    for name in ("hebbian", "backprop"):
        assert bundle_of(name, cfg=cfg).accuracy() >= 0.9
