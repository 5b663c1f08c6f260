"""Deterministic trace generators for the worked systems and edge cases.

Five generators share one config: a Hebbian bank of per-class networks, a
small backprop network with an internal loss apparatus, a sensory-motor
withdrawal reflex, a wind-blown sand pile, and a powered-off machine that
never moves anything. Each emits a ScenarioBundle whose trace carries
structure declarations, phase intervals, and per-event role tags, so the
classifier, the attribution tables, and the functor layer all read from the
same artifact.

Conventions shared by the generators: apparatus elements (sensors, weights,
judges) stay in their home regions forever while token elements flow through
them; every learning or test trial is a fixed step cycle; all randomness
comes from one seeded generator, so equal configs give identical bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .evolution import (
    EXTERNAL_IN,
    EXTERNAL_OUT,
    INTERNAL,
    Phase,
    Trace,
    TransferEvent,
    build_trace,
)
from .universe import ConstructionError, Snapshot, StructureRelation, make_snapshot

__all__ = [
    "ScenarioConfig",
    "TrialRecord",
    "ScenarioBundle",
    "hebbian_scenario",
    "backprop_scenario",
    "aplysia_scenario",
    "sandpile_scenario",
    "powered_off_scenario",
    "make_scenario",
    "habituation_extinction_point",
    "SCENARIO_NAMES",
]

SCENARIO_NAMES = ("hebbian", "backprop", "aplysia", "sandpile", "off")

LEARNING = "learning"
TEST = "test"
THREE_STEP = ("input", "processing", "output")
FIVE_STEP = ("input", "processing", "output", "input", "processing")


@dataclass(frozen=True, eq=True)
class ScenarioConfig:
    """Knobs shared by the generators; defaults give quick desk-scale runs.

    The first block is task shape, the second learning dynamics. Fields
    past `habituation_decrement` tune corners of single scenarios: pattern
    noise, hidden width, reflex stimulus settings, and the grain count.
    `aplysia_stimuli` selects whether learning trials reinforce ("strong")
    or habituate ("weak").
    """

    seed: int = 0
    pattern_size: int = 4
    class_count: int = 3
    trials: int = 20
    test_count: int = 10
    learning_rate: float = 0.5
    threshold: float = 1.0
    habituation_decrement: float = 0.25
    noise: float = 0.05
    hidden_size: int = 8
    stimulus_magnitude: float = 1.0
    initial_strength: float = 1.5
    aplysia_stimuli: str = "strong"
    grain_count: int = 12

    def validate(self) -> None:
        if self.pattern_size < 1:
            raise ConstructionError("pattern_size must be >= 1")
        if not (1 <= self.class_count <= self.pattern_size):
            raise ConstructionError(
                "class_count must be between 1 and pattern_size "
                "(one prototype row per class)"
            )
        if self.trials < 1:
            raise ConstructionError("trials must be >= 1")
        if self.test_count < 0:
            raise ConstructionError("test_count must be >= 0")
        if self.learning_rate <= 0:
            raise ConstructionError("learning_rate must be positive")
        if self.threshold <= 0:
            raise ConstructionError("threshold must be positive")
        if self.habituation_decrement < 0:
            raise ConstructionError("habituation_decrement must be >= 0")
        if not (0 <= self.noise < 1):
            raise ConstructionError("noise must lie in [0, 1)")
        if self.hidden_size < 1:
            raise ConstructionError("hidden_size must be >= 1")
        if self.stimulus_magnitude <= 0:
            raise ConstructionError("stimulus_magnitude must be positive")
        if self.initial_strength < 0:
            raise ConstructionError("initial_strength must be >= 0")
        if self.aplysia_stimuli not in ("strong", "weak"):
            raise ConstructionError("aplysia_stimuli must be 'strong' or 'weak'")
        if self.grain_count < 2:
            raise ConstructionError("grain_count must be >= 2")


@dataclass(frozen=True, eq=True)
class TrialRecord:
    phase: str
    index: int
    label: str
    prediction: str | None
    correct: bool | None
    score: float | None = None


@dataclass(frozen=True, eq=True)
class ScenarioBundle:
    """A generated trace plus its task bookkeeping.

    `expected_cycles` states, per phase, the nominal per-trial role cycle
    the generator aims at (the canonical attribution shape; a habituated
    reflex may fall short of it by skipping its response step).
    """

    name: str
    trace: Trace
    trials: tuple[TrialRecord, ...]
    expected_cycles: tuple[tuple[str, tuple[str, ...]], ...]
    config: ScenarioConfig | None

    def accuracy(self) -> float:
        graded = [r for r in self.trials if r.phase == TEST and r.correct is not None]
        if not graded:
            raise ConstructionError("bundle has no graded test trials")
        return sum(r.correct for r in graded) / len(graded)


# ---------------------------------------------------------------------------
# shared pattern task


def _prototypes(pattern_size: int, class_count: int) -> np.ndarray:
    """Class c lights row c of the grid; rows are disjoint, so separable."""
    protos = np.zeros((class_count, pattern_size * pattern_size), dtype=np.int64)
    for c in range(class_count):
        protos[c, c * pattern_size : (c + 1) * pattern_size] = 1
    return protos


def _sample_patterns(
    rng: np.random.Generator, protos: np.ndarray, labels: list[int], noise: float
) -> np.ndarray:
    """Noisy copies of the labelled prototypes; never all-dark."""
    n_px = protos.shape[1]
    out = np.empty((len(labels), n_px), dtype=np.int64)
    for i, y in enumerate(labels):
        flips = rng.random(n_px) < noise
        x = protos[y] ^ flips
        if x.sum() == 0:
            x = protos[y].copy()
        out[i] = x
    return out


def _lit(x: np.ndarray) -> list[int]:
    return [int(p) for p in np.flatnonzero(x)]


def _weight_state(prefix: str, vec: np.ndarray, bias: float | None = None) -> dict:
    state = {f"{prefix}{i}": float(v) for i, v in enumerate(vec)}
    if bias is not None:
        state["b"] = float(bias)
    return state


def _token_event(step, kind, tokens, src, dst, via, updates=None) -> TransferEvent:
    return TransferEvent.make(
        step=step,
        kind=kind,
        moved=frozenset(tokens),
        from_region=src,
        to_region=dst,
        via_structure=via,
        state_updates=updates,
    )


def _unary(decl_id: str, role: str, ids, scope) -> StructureRelation:
    return StructureRelation(
        id=decl_id,
        role=role,
        arity=1,
        tuples=frozenset((eid,) for eid in ids),
        scope=frozenset(scope),
    )


# ---------------------------------------------------------------------------
# Hebbian bank


def hebbian_scenario(cfg: ScenarioConfig) -> ScenarioBundle:
    """One tiny network per class, trained with the product rule.

    Each trial is the three-step cycle: pattern tokens arrive at the input
    layer, move inward while the matching network's weights grow by
    rate * pixel, and a response token leaves. Learning responses carry
    meaningful=0; test responses carry the judged class, picked by the
    largest norm of weights gated by the pattern.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n_px = cfg.pattern_size * cfg.pattern_size
    protos = _prototypes(cfg.pattern_size, cfg.class_count)

    learn_labels = [t % cfg.class_count for t in range(cfg.trials)]
    test_labels = [u % cfg.class_count for u in range(cfg.test_count)]
    learn_x = _sample_patterns(rng, protos, learn_labels, cfg.noise)
    test_x = _sample_patterns(rng, protos, test_labels, cfg.noise)

    region_side = {
        "world": "environment",
        "input_layer": "system",
        "hidden_layer": "system",
        "output_layer": "system",
    }
    elements: list[tuple[str, dict | None]] = []
    membership: dict[str, str] = {}

    def add(eid, region, state=None):
        elements.append((eid, state))
        membership[eid] = region

    for p in range(n_px):
        add(f"in_px_{p}", "input_layer")
    for c in range(cfg.class_count):
        add(f"net_{c}", "hidden_layer", _weight_state("w", np.zeros(n_px)))
    add("judge", "output_layer")
    total_trials = cfg.trials + cfg.test_count
    for t in range(total_trials):
        add(f"resp_{t}", "output_layer")
    for t in range(cfg.trials):
        for p in _lit(learn_x[t]):
            add(f"stim_{t}_{p}", "world")
    for u in range(cfg.test_count):
        for p in _lit(test_x[u]):
            add(f"probe_{u}_{p}", "world")

    initial = make_snapshot(elements, membership, region_side)

    weights = np.zeros((cfg.class_count, n_px))
    schedule: list[list[TransferEvent]] = []
    records: list[TrialRecord] = []

    for t in range(cfg.trials):
        y = learn_labels[t]
        tokens = [f"stim_{t}_{p}" for p in _lit(learn_x[t])]
        step = len(schedule)
        schedule.append(
            [_token_event(step, EXTERNAL_IN, tokens, "world", "input_layer", "input_structure")]
        )
        weights[y] = weights[y] + cfg.learning_rate * learn_x[t]
        schedule.append(
            [
                _token_event(
                    step + 1,
                    INTERNAL,
                    tokens,
                    "input_layer",
                    "hidden_layer",
                    "processing_structure",
                    updates={f"net_{y}": _weight_state("w", weights[y])},
                )
            ]
        )
        schedule.append(
            [
                _token_event(
                    step + 2,
                    EXTERNAL_OUT,
                    [f"resp_{t}"],
                    "output_layer",
                    "world",
                    "output_structure",
                    updates={f"resp_{t}": {"meaningful": 0}},
                )
            ]
        )
        records.append(TrialRecord(LEARNING, t, str(y), None, None))

    for u in range(cfg.test_count):
        y = test_labels[u]
        scores = np.linalg.norm(weights * test_x[u], axis=1)
        judged = int(np.argmax(scores))
        tokens = [f"probe_{u}_{p}" for p in _lit(test_x[u])]
        step = len(schedule)
        schedule.append(
            [_token_event(step, EXTERNAL_IN, tokens, "world", "input_layer", "input_structure")]
        )
        schedule.append(
            [
                _token_event(
                    step + 1,
                    INTERNAL,
                    tokens,
                    "input_layer",
                    "hidden_layer",
                    "processing_structure",
                )
            ]
        )
        resp = f"resp_{cfg.trials + u}"
        schedule.append(
            [
                _token_event(
                    step + 2,
                    EXTERNAL_OUT,
                    [resp],
                    "output_layer",
                    "world",
                    "output_structure",
                    updates={resp: {"meaningful": 1, "predicted": judged}},
                )
            ]
        )
        records.append(TrialRecord(TEST, u, str(y), str(judged), judged == y))

    declarations = [
        _unary("input_structure", "input", (f"in_px_{p}" for p in range(n_px)), ["input_layer"]),
        _unary(
            "processing_structure",
            "processing",
            (f"net_{c}" for c in range(cfg.class_count)),
            ["hidden_layer"],
        ),
        _unary("output_structure", "output", ["judge"], ["output_layer"]),
    ]
    phases = [
        Phase(LEARNING, 0, 3 * cfg.trials),
        Phase(TEST, 3 * cfg.trials, 3 * total_trials),
    ]
    trace = build_trace(initial, schedule, phases, declarations)
    return ScenarioBundle(
        name="hebbian",
        trace=trace,
        trials=tuple(records),
        expected_cycles=((LEARNING, THREE_STEP), (TEST, THREE_STEP)),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# backprop network


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def backprop_scenario(cfg: ScenarioConfig) -> ScenarioBundle:
    """One gradient-trained network whose loss apparatus is itself internal.

    The learning cycle is five steps: pattern tokens in, forward move
    inward, the signal token carried from the output units to the loss
    unit, the signal returned with the output-side weight corrections, and
    the batch retired inward while the hidden weights update. Only test
    trials emit anything to the environment.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n_px = cfg.pattern_size * cfg.pattern_size
    protos = _prototypes(cfg.pattern_size, cfg.class_count)

    learn_labels = [t % cfg.class_count for t in range(cfg.trials)]
    test_labels = [u % cfg.class_count for u in range(cfg.test_count)]
    learn_x = _sample_patterns(rng, protos, learn_labels, cfg.noise)
    test_x = _sample_patterns(rng, protos, test_labels, cfg.noise)

    w1 = rng.normal(0.0, 0.5, size=(cfg.hidden_size, n_px))
    b1 = np.zeros(cfg.hidden_size)
    w2 = rng.normal(0.0, 0.5, size=(cfg.class_count, cfg.hidden_size))
    b2 = np.zeros(cfg.class_count)

    region_side = {
        "world": "environment",
        "input_layer": "system",
        "hidden_layer": "system",
        "trained_pool": "system",
        "output_layer": "system",
        "loss_unit": "system",
    }
    elements: list[tuple[str, dict | None]] = []
    membership: dict[str, str] = {}

    def add(eid, region, state=None):
        elements.append((eid, state))
        membership[eid] = region

    for p in range(n_px):
        add(f"in_px_{p}", "input_layer")
    for j in range(cfg.hidden_size):
        add(f"h_{j}", "hidden_layer", _weight_state("w", w1[j], b1[j]))
    for c in range(cfg.class_count):
        add(f"o_{c}", "output_layer", _weight_state("h", w2[c], b2[c]))
    add("sig", "output_layer")
    add("loss", "loss_unit")
    for u in range(cfg.test_count):
        add(f"resp_{u}", "output_layer")
    for t in range(cfg.trials):
        for p in _lit(learn_x[t]):
            add(f"stim_{t}_{p}", "world")
    for u in range(cfg.test_count):
        for p in _lit(test_x[u]):
            add(f"probe_{u}_{p}", "world")

    initial = make_snapshot(elements, membership, region_side)
    schedule: list[list[TransferEvent]] = []
    records: list[TrialRecord] = []

    for t in range(cfg.trials):
        x = learn_x[t].astype(float)
        y = learn_labels[t]
        hidden = np.tanh(w1 @ x + b1)
        probs = _softmax(w2 @ hidden + b2)
        loss = -float(np.log(probs[y]))

        dz = probs.copy()
        dz[y] -= 1.0
        dw2 = np.outer(dz, hidden)
        db2 = dz
        dh = (w2.T @ dz) * (1.0 - hidden**2)
        dw1 = np.outer(dh, x)
        db1 = dh
        w2 = w2 - cfg.learning_rate * dw2
        b2 = b2 - cfg.learning_rate * db2
        w1 = w1 - cfg.learning_rate * dw1
        b1 = b1 - cfg.learning_rate * db1

        tokens = [f"stim_{t}_{p}" for p in _lit(learn_x[t])]
        step = len(schedule)
        schedule.append(
            [_token_event(step, EXTERNAL_IN, tokens, "world", "input_layer", "input_structure")]
        )
        schedule.append(
            [
                _token_event(
                    step + 1, INTERNAL, tokens, "input_layer", "hidden_layer", "processing_structure"
                )
            ]
        )
        schedule.append(
            [
                _token_event(
                    step + 2, INTERNAL, ["sig"], "output_layer", "loss_unit", "output_structure"
                )
            ]
        )
        schedule.append(
            [
                _token_event(
                    step + 3,
                    INTERNAL,
                    ["sig"],
                    "loss_unit",
                    "output_layer",
                    "input_structure",
                    updates={
                        f"o_{c}": _weight_state("h", w2[c], b2[c])
                        for c in range(cfg.class_count)
                    },
                )
            ]
        )
        schedule.append(
            [
                _token_event(
                    step + 4,
                    INTERNAL,
                    tokens,
                    "hidden_layer",
                    "trained_pool",
                    "processing_structure",
                    updates={
                        f"h_{j}": _weight_state("w", w1[j], b1[j])
                        for j in range(cfg.hidden_size)
                    },
                )
            ]
        )
        records.append(TrialRecord(LEARNING, t, str(y), None, None, score=loss))

    for u in range(cfg.test_count):
        x = test_x[u].astype(float)
        y = test_labels[u]
        hidden = np.tanh(w1 @ x + b1)
        probs = _softmax(w2 @ hidden + b2)
        judged = int(np.argmax(probs))

        tokens = [f"probe_{u}_{p}" for p in _lit(test_x[u])]
        step = len(schedule)
        schedule.append(
            [_token_event(step, EXTERNAL_IN, tokens, "world", "input_layer", "input_structure")]
        )
        schedule.append(
            [
                _token_event(
                    step + 1, INTERNAL, tokens, "input_layer", "hidden_layer", "processing_structure"
                )
            ]
        )
        schedule.append(
            [
                _token_event(
                    step + 2,
                    EXTERNAL_OUT,
                    [f"resp_{u}"],
                    "output_layer",
                    "world",
                    "output_structure",
                    updates={f"resp_{u}": {"meaningful": 1, "predicted": judged}},
                )
            ]
        )
        records.append(TrialRecord(TEST, u, str(y), str(judged), judged == y))

    declarations = [
        _unary("input_structure", "input", (f"in_px_{p}" for p in range(n_px)), ["input_layer"]),
        _unary(
            "processing_structure",
            "processing",
            (f"h_{j}" for j in range(cfg.hidden_size)),
            ["hidden_layer"],
        ),
        _unary(
            "output_structure",
            "output",
            (f"o_{c}" for c in range(cfg.class_count)),
            ["output_layer"],
        ),
    ]
    phases = [
        Phase(LEARNING, 0, 5 * cfg.trials),
        Phase(TEST, 5 * cfg.trials, 5 * cfg.trials + 3 * cfg.test_count),
    ]
    trace = build_trace(initial, schedule, phases, declarations)
    return ScenarioBundle(
        name="backprop",
        trace=trace,
        trials=tuple(records),
        expected_cycles=((LEARNING, FIVE_STEP), (TEST, THREE_STEP)),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# withdrawal reflex


def aplysia_scenario(cfg: ScenarioConfig) -> ScenarioBundle:
    """Two receptor cells, one synapse scalar, one gill response per trial.

    A trial decides with the current strength (respond iff strength times
    magnitude reaches the threshold), then updates it: strong learning
    stimuli reinforce by rate * magnitude, weak ones habituate by the
    decrement (floored at zero). Test trials freeze the synapse. A trial
    without a response simply has a quiet third step.
    """
    cfg.validate()
    total = cfg.trials + cfg.test_count

    region_side = {
        "sea": "environment",
        "receptors": "system",
        "motor_pool": "system",
        "gill_muscle": "system",
    }
    elements: list[tuple[str, dict | None]] = [
        ("skin_0", None),
        ("skin_1", None),
        ("syn", {"strength": cfg.initial_strength}),
        ("motor", None),
        ("gill", None),
    ]
    membership = {
        "skin_0": "receptors",
        "skin_1": "receptors",
        "syn": "motor_pool",
        "motor": "motor_pool",
        "gill": "gill_muscle",
    }
    for t in range(total):
        elements.append((f"stim_{t}", None))
        membership[f"stim_{t}"] = "sea"
        elements.append((f"resp_{t}", None))
        membership[f"resp_{t}"] = "gill_muscle"

    initial = make_snapshot(elements, membership, region_side)
    schedule: list[list[TransferEvent]] = []
    records: list[TrialRecord] = []

    strength = cfg.initial_strength
    m = cfg.stimulus_magnitude
    for t in range(total):
        learning = t < cfg.trials
        drive = strength * m
        respond = drive >= cfg.threshold

        step = len(schedule)
        schedule.append(
            [
                _token_event(
                    step, EXTERNAL_IN, [f"stim_{t}"], "sea", "receptors", "input_structure"
                )
            ]
        )
        updates = None
        if learning:
            if cfg.aplysia_stimuli == "strong":
                strength = strength + cfg.learning_rate * m
            else:
                strength = max(strength - cfg.habituation_decrement, 0.0)
            updates = {"syn": {"strength": float(strength)}}
        schedule.append(
            [
                _token_event(
                    step + 1,
                    INTERNAL,
                    [f"stim_{t}"],
                    "receptors",
                    "motor_pool",
                    "processing_structure",
                    updates=updates,
                )
            ]
        )
        if respond:
            schedule.append(
                [
                    _token_event(
                        step + 2,
                        EXTERNAL_OUT,
                        [f"resp_{t}"],
                        "gill_muscle",
                        "sea",
                        "output_structure",
                    )
                ]
            )
        else:
            schedule.append([])

        phase = LEARNING if learning else TEST
        label = cfg.aplysia_stimuli if learning else "test"
        records.append(
            TrialRecord(
                phase,
                t if learning else t - cfg.trials,
                label,
                "response" if respond else "none",
                None,
                score=float(drive),
            )
        )

    declarations = [
        _unary("input_structure", "input", ["skin_0", "skin_1"], ["receptors"]),
        _unary("processing_structure", "processing", ["syn", "motor"], ["motor_pool"]),
        _unary("output_structure", "output", ["gill"], ["gill_muscle"]),
    ]
    phases = [
        Phase(LEARNING, 0, 3 * cfg.trials),
        Phase(TEST, 3 * cfg.trials, 3 * total),
    ]
    trace = build_trace(initial, schedule, phases, declarations)
    return ScenarioBundle(
        name="aplysia",
        trace=trace,
        trials=tuple(records),
        expected_cycles=((LEARNING, THREE_STEP), (TEST, THREE_STEP)),
        config=cfg,
    )


def habituation_extinction_point(cfg: ScenarioConfig) -> int:
    """Closed-form count of responses before a weak-stimulus run goes quiet.

    With strength g0, magnitude m, threshold th, and decrement d > 0, the
    reflex responds while g0 - k*d >= th/m, so it ceases after
    ceil((g0*m - th) / (d*m)) repetitions. Callers should keep that ratio
    away from integers: the >= boundary makes exact hits fragile.
    """
    if cfg.habituation_decrement <= 0:
        raise ConstructionError("extinction needs a positive decrement")
    excess = cfg.initial_strength * cfg.stimulus_magnitude - cfg.threshold
    if excess < 0:
        return 0
    return ceil(excess / (cfg.habituation_decrement * cfg.stimulus_magnitude))


# ---------------------------------------------------------------------------
# sand pile


def sandpile_scenario(cfg: ScenarioConfig) -> ScenarioBundle:
    """Wind gusts over a grain pile: in, rearrange, out, every three steps.

    Exists to show the conditions are satisfiable without anything like
    learning. Grains drift between slope and base, occasionally blow away
    or back in; the schedule keeps at least a few grains inside so the
    internal step always has something to shuffle.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    gusts = cfg.trials

    region_side = {"air": "environment", "slope": "system", "base": "system"}
    grains = [f"grain_{i}" for i in range(cfg.grain_count)]
    n_slope = ceil(cfg.grain_count / 2)
    n_base = cfg.grain_count // 4
    placement: dict[str, str] = {}
    for i, g in enumerate(grains):
        if i < n_slope:
            placement[g] = "slope"
        elif i < n_slope + n_base:
            placement[g] = "base"
        else:
            placement[g] = "air"
    elements = [(g, None) for g in grains] + [("wind_0", None)]
    membership = dict(placement)
    membership["wind_0"] = "air"

    initial = make_snapshot(elements, membership, region_side)
    where = dict(placement)

    def grains_in(region: str) -> list[str]:
        return sorted(g for g in grains if where[g] == region)

    schedule: list[list[TransferEvent]] = []
    for _ in range(gusts):
        step = len(schedule)
        inside = len(grains_in("slope")) + len(grains_in("base"))

        movers = ["wind_0"]
        airborne = grains_in("air")
        if airborne and (inside <= 3 or rng.random() < 0.5):
            picked = airborne[int(rng.integers(0, len(airborne)))]
            movers.append(picked)
            where[picked] = "slope"
        schedule.append(
            [_token_event(step, EXTERNAL_IN, movers, "air", "slope", "input_structure")]
        )

        slope_g, base_g = grains_in("slope"), grains_in("base")
        src, dst = ("slope", "base") if len(slope_g) >= len(base_g) else ("base", "slope")
        pool = grains_in(src)
        k = int(rng.integers(1, min(3, len(pool)) + 1))
        shuffled = [pool[i] for i in sorted(rng.choice(len(pool), size=k, replace=False))]
        for g in shuffled:
            where[g] = dst
        schedule.append(
            [_token_event(step + 1, INTERNAL, shuffled, src, dst, "processing_structure")]
        )

        out_events = [
            _token_event(step + 2, EXTERNAL_OUT, ["wind_0"], "slope", "air", "output_structure")
        ]
        base_g = grains_in("base")
        inside = len(grains_in("slope")) + len(base_g)
        if base_g and inside >= 4 and rng.random() < 0.5:
            blown = base_g[int(rng.integers(0, len(base_g)))]
            where[blown] = "air"
            out_events.append(
                _token_event(step + 2, EXTERNAL_OUT, [blown], "base", "air", "output_structure")
            )
        schedule.append(out_events)

    declarations = [
        _unary("input_structure", "input", grains, ["slope"]),
        _unary("processing_structure", "processing", grains, ["slope", "base"]),
        _unary("output_structure", "output", grains, ["base"]),
    ]
    phases = [Phase("gusts", 0, 3 * gusts)]
    trace = build_trace(initial, schedule, phases, declarations)
    return ScenarioBundle(
        name="sandpile",
        trace=trace,
        trials=(),
        expected_cycles=(("gusts", THREE_STEP),),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# powered-off machine


def powered_off_scenario(steps: int) -> ScenarioBundle:
    """Full structure declarations, zero events: the idle edge case."""
    if steps < 1:
        raise ConstructionError("steps must be >= 1")
    region_side = {
        "mains": "environment",
        "cpu": "system",
        "ram": "system",
        "io_port": "system",
    }
    elements = [
        ("core_0", None),
        ("dimm_0", None),
        ("nic_0", None),
        ("dust_0", None),
        ("dust_1", None),
    ]
    membership = {
        "core_0": "cpu",
        "dimm_0": "ram",
        "nic_0": "io_port",
        "dust_0": "mains",
        "dust_1": "mains",
    }
    initial = make_snapshot(elements, membership, region_side)
    declarations = [
        _unary("input_structure", "input", ["nic_0"], ["io_port"]),
        _unary("processing_structure", "processing", ["core_0", "dimm_0"], ["cpu", "ram"]),
        _unary("output_structure", "output", ["nic_0"], ["io_port"]),
    ]
    phases = [Phase("idle", 0, steps)]
    trace = build_trace(initial, [[] for _ in range(steps)], phases, declarations)
    return ScenarioBundle(
        name="off",
        trace=trace,
        trials=(),
        expected_cycles=(("idle", ()),),
        config=None,
    )


def make_scenario(name: str, cfg: ScenarioConfig, steps: int = 200) -> ScenarioBundle:
    """Dispatch by scenario name; `steps` applies to the powered-off case."""
    if name == "hebbian":
        return hebbian_scenario(cfg)
    if name == "backprop":
        return backprop_scenario(cfg)
    if name == "aplysia":
        return aplysia_scenario(cfg)
    if name == "sandpile":
        return sandpile_scenario(cfg)
    if name == "off":
        return powered_off_scenario(steps)
    raise ConstructionError(f"unknown scenario {name!r}")
