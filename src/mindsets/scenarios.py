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
them; every learning or test trial is a fixed step cycle; one builder holds
each roster and schedule, numbers every step by its position, and declares
the three arity-1 role structures (input, processing, output); all
randomness comes from one seeded generator, so equal configs give identical
bundles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import ceil, isfinite
from typing import TYPE_CHECKING

from .evolution import (
    EXTERNAL_IN,
    EXTERNAL_OUT,
    INTERNAL,
    Phase,
    Trace,
    TransferEvent,
    build_trace,
)
from .universe import (
    ENVIRONMENT,
    SYSTEM,
    ConstructionError,
    StructureRelation,
    make_snapshot,
)

if TYPE_CHECKING:  # numpy is imported by the generators that draw numbers
    import numpy as np

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
        # each bound below is false for NaN, so non-finite floats go first
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not isfinite(value):
                raise ConstructionError(f"{f.name} must be finite")
        if self.seed < 0:
            raise ConstructionError("seed must be >= 0")
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
# trace builder


class _TraceBuilder:
    """Roster and schedule of one generated trace.

    The first region is the single environment region, the rest are system
    regions. `step` appends one step whose events take their step number
    from its position; each move is (kind, tokens, from, to, via[, updates]).
    """

    def __init__(self, environment: str, *system: str):
        self.region_side = {environment: ENVIRONMENT, **{r: SYSTEM for r in system}}
        self.elements: list[tuple[str, dict | None]] = []
        self.membership: dict[str, str] = {}
        self.schedule: list[list[TransferEvent]] = []

    def add(self, eid: str, region: str, state: dict | None = None) -> None:
        self.elements.append((eid, state))
        self.membership[eid] = region

    def step(self, *moves) -> None:
        step = len(self.schedule)
        self.schedule.append([TransferEvent.make(step, *move) for move in moves])

    def trace(self, phases, inputs, processing, outputs) -> Trace:
        """Replay the schedule under the three arity-1 role structures, each
        given as (element ids, scope regions)."""
        declarations = [
            StructureRelation(
                id=f"{role}_structure",
                role=role,
                arity=1,
                tuples=frozenset((eid,) for eid in ids),
                scope=frozenset(scope),
            )
            for role, (ids, scope) in zip(THREE_STEP, (inputs, processing, outputs))
        ]
        initial = make_snapshot(self.elements, self.membership, self.region_side)
        return build_trace(initial, self.schedule, phases, declarations)


def _two_phases(learning_stop: int, test_stop: int) -> list[Phase]:
    return [Phase(LEARNING, 0, learning_stop), Phase(TEST, learning_stop, test_stop)]


# ---------------------------------------------------------------------------
# shared pattern task


def _prototypes(pattern_size: int, class_count: int) -> np.ndarray:
    """Class c lights row c of the grid; rows are disjoint, so separable."""
    import numpy as np

    protos = np.zeros((class_count, pattern_size * pattern_size), dtype=np.int64)
    for c in range(class_count):
        protos[c, c * pattern_size : (c + 1) * pattern_size] = 1
    return protos


def _sample_patterns(
    rng: np.random.Generator, protos: np.ndarray, labels: list[int], noise: float
) -> np.ndarray:
    """Noisy copies of the labelled prototypes; never all-dark."""
    import numpy as np

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
    import numpy as np

    return [int(p) for p in np.flatnonzero(x)]


def _pattern_task(cfg: ScenarioConfig, rng: np.random.Generator):
    """Input pixel ids, then the learning and the test trials as (label,
    pattern, token ids) triples; learning patterns are drawn first. Token
    `stim_t_p` / `probe_u_p` carries lit pixel p of trial t / u."""
    protos = _prototypes(cfg.pattern_size, cfg.class_count)
    pixels = [f"in_px_{p}" for p in range(protos.shape[1])]
    trials = []
    for count, prefix in ((cfg.trials, "stim"), (cfg.test_count, "probe")):
        labels = [i % cfg.class_count for i in range(count)]
        patterns = _sample_patterns(rng, protos, labels, cfg.noise)
        trials.append(
            [
                (y, x, [f"{prefix}_{i}_{p}" for p in _lit(x)])
                for i, (y, x) in enumerate(zip(labels, patterns))
            ]
        )
    return pixels, trials[0], trials[1]


def _pattern_trial(b: _TraceBuilder, tokens, resp: str, response: dict, updates=None) -> None:
    """Tokens arrive at the input layer, move inward (optionally updating
    weights), and the response token leaves carrying `response`."""
    b.step((EXTERNAL_IN, tokens, "world", "input_layer", "input_structure"))
    b.step((INTERNAL, tokens, "input_layer", "hidden_layer", "processing_structure", updates))
    b.step((EXTERNAL_OUT, [resp], "output_layer", "world", "output_structure", {resp: response}))


def _weight_state(prefix: str, vec: np.ndarray, bias: float | None = None) -> dict:
    state = {f"{prefix}{i}": float(v) for i, v in enumerate(vec)}
    if bias is not None:
        state["b"] = float(bias)
    return state


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
    import numpy as np

    cfg.validate()
    pixels, learn, test = _pattern_task(cfg, np.random.default_rng(cfg.seed))
    nets = [f"net_{c}" for c in range(cfg.class_count)]

    b = _TraceBuilder("world", "input_layer", "hidden_layer", "output_layer")
    for px in pixels:
        b.add(px, "input_layer")
    for net in nets:
        b.add(net, "hidden_layer", _weight_state("w", np.zeros(len(pixels))))
    b.add("judge", "output_layer")
    total_trials = cfg.trials + cfg.test_count
    for t in range(total_trials):
        b.add(f"resp_{t}", "output_layer")
    for _, _, tokens in learn + test:
        for token in tokens:
            b.add(token, "world")

    weights = np.zeros((cfg.class_count, len(pixels)))
    records: list[TrialRecord] = []
    for t, (y, x, tokens) in enumerate(learn):
        weights[y] = weights[y] + cfg.learning_rate * x
        update = {nets[y]: _weight_state("w", weights[y])}
        _pattern_trial(b, tokens, f"resp_{t}", {"meaningful": 0}, update)
        records.append(TrialRecord(LEARNING, t, str(y), None, None))

    for u, (y, x, tokens) in enumerate(test):
        judged = int(np.argmax(np.linalg.norm(weights * x, axis=1)))
        resp = f"resp_{cfg.trials + u}"
        _pattern_trial(b, tokens, resp, {"meaningful": 1, "predicted": judged})
        records.append(TrialRecord(TEST, u, str(y), str(judged), judged == y))

    trace = b.trace(
        _two_phases(3 * cfg.trials, 3 * total_trials),
        (pixels, ["input_layer"]),
        (nets, ["hidden_layer"]),
        (["judge"], ["output_layer"]),
    )
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
    import numpy as np

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
    import numpy as np

    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    pixels, learn, test = _pattern_task(cfg, rng)

    w1 = rng.normal(0.0, 0.5, size=(cfg.hidden_size, len(pixels)))
    b1 = np.zeros(cfg.hidden_size)
    w2 = rng.normal(0.0, 0.5, size=(cfg.class_count, cfg.hidden_size))
    b2 = np.zeros(cfg.class_count)

    b = _TraceBuilder(
        "world", "input_layer", "hidden_layer", "trained_pool", "output_layer", "loss_unit"
    )
    hidden_units = [f"h_{j}" for j in range(cfg.hidden_size)]
    output_units = [f"o_{c}" for c in range(cfg.class_count)]
    for px in pixels:
        b.add(px, "input_layer")
    for j, unit in enumerate(hidden_units):
        b.add(unit, "hidden_layer", _weight_state("w", w1[j], b1[j]))
    for c, unit in enumerate(output_units):
        b.add(unit, "output_layer", _weight_state("h", w2[c], b2[c]))
    b.add("sig", "output_layer")
    b.add("loss", "loss_unit")
    for u in range(cfg.test_count):
        b.add(f"resp_{u}", "output_layer")
    for _, _, tokens in learn + test:
        for token in tokens:
            b.add(token, "world")

    records: list[TrialRecord] = []
    for t, (y, pattern, tokens) in enumerate(learn):
        x = pattern.astype(float)
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

        o_update = {o: _weight_state("h", w2[c], b2[c]) for c, o in enumerate(output_units)}
        h_update = {h: _weight_state("w", w1[j], b1[j]) for j, h in enumerate(hidden_units)}
        b.step((EXTERNAL_IN, tokens, "world", "input_layer", "input_structure"))
        b.step((INTERNAL, tokens, "input_layer", "hidden_layer", "processing_structure"))
        b.step((INTERNAL, ["sig"], "output_layer", "loss_unit", "output_structure"))
        b.step((INTERNAL, ["sig"], "loss_unit", "output_layer", "input_structure", o_update))
        b.step((INTERNAL, tokens, "hidden_layer", "trained_pool", "processing_structure", h_update))
        records.append(TrialRecord(LEARNING, t, str(y), None, None, score=loss))

    for u, (y, pattern, tokens) in enumerate(test):
        x = pattern.astype(float)
        hidden = np.tanh(w1 @ x + b1)
        probs = _softmax(w2 @ hidden + b2)
        judged = int(np.argmax(probs))
        _pattern_trial(b, tokens, f"resp_{u}", {"meaningful": 1, "predicted": judged})
        records.append(TrialRecord(TEST, u, str(y), str(judged), judged == y))

    trace = b.trace(
        _two_phases(5 * cfg.trials, 5 * cfg.trials + 3 * cfg.test_count),
        (pixels, ["input_layer"]),
        (hidden_units, ["hidden_layer"]),
        (output_units, ["output_layer"]),
    )
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

    b = _TraceBuilder("sea", "receptors", "motor_pool", "gill_muscle")
    b.add("skin_0", "receptors")
    b.add("skin_1", "receptors")
    b.add("syn", "motor_pool", {"strength": cfg.initial_strength})
    b.add("motor", "motor_pool")
    b.add("gill", "gill_muscle")
    for t in range(total):
        b.add(f"stim_{t}", "sea")
        b.add(f"resp_{t}", "gill_muscle")

    records: list[TrialRecord] = []
    strength = cfg.initial_strength
    m = cfg.stimulus_magnitude
    for t in range(total):
        learning = t < cfg.trials
        drive = strength * m
        respond = drive >= cfg.threshold

        updates = None
        if learning:
            if cfg.aplysia_stimuli == "strong":
                strength = strength + cfg.learning_rate * m
            else:
                strength = max(strength - cfg.habituation_decrement, 0.0)
            updates = {"syn": {"strength": float(strength)}}
        stim = [f"stim_{t}"]
        b.step((EXTERNAL_IN, stim, "sea", "receptors", "input_structure"))
        b.step((INTERNAL, stim, "receptors", "motor_pool", "processing_structure", updates))
        if respond:
            b.step((EXTERNAL_OUT, [f"resp_{t}"], "gill_muscle", "sea", "output_structure"))
        else:
            b.step()

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

    trace = b.trace(
        _two_phases(3 * cfg.trials, 3 * total),
        (["skin_0", "skin_1"], ["receptors"]),
        (["syn", "motor"], ["motor_pool"]),
        (["gill"], ["gill_muscle"]),
    )
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
    import numpy as np

    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    gusts = cfg.trials

    b = _TraceBuilder("air", "slope", "base")
    grains = [f"grain_{i}" for i in range(cfg.grain_count)]
    n_slope = ceil(cfg.grain_count / 2)
    n_base = cfg.grain_count // 4
    for i, g in enumerate(grains):
        b.add(g, "slope" if i < n_slope else "base" if i < n_slope + n_base else "air")
    b.add("wind_0", "air")
    members: dict[str, set[str]] = {"air": set(), "slope": set(), "base": set()}
    for g in grains:
        members[b.membership[g]].add(g)

    def move(g: str, src: str, dst: str) -> None:
        members[src].remove(g)
        members[dst].add(g)

    for _ in range(gusts):
        inside = len(members["slope"]) + len(members["base"])

        movers = ["wind_0"]
        airborne = sorted(members["air"])
        if airborne and (inside <= 3 or rng.random() < 0.5):
            picked = airborne[int(rng.integers(0, len(airborne)))]
            movers.append(picked)
            move(picked, "air", "slope")
        b.step((EXTERNAL_IN, movers, "air", "slope", "input_structure"))

        if len(members["slope"]) >= len(members["base"]):
            src, dst = "slope", "base"
        else:
            src, dst = "base", "slope"
        pool = sorted(members[src])
        k = int(rng.integers(1, min(3, len(pool)) + 1))
        shuffled = [pool[i] for i in sorted(rng.choice(len(pool), size=k, replace=False))]
        for g in shuffled:
            move(g, src, dst)
        b.step((INTERNAL, shuffled, src, dst, "processing_structure"))

        out_moves = [(EXTERNAL_OUT, ["wind_0"], "slope", "air", "output_structure")]
        inside = len(members["slope"]) + len(members["base"])
        if members["base"] and inside >= 4 and rng.random() < 0.5:
            base_g = sorted(members["base"])
            blown = base_g[int(rng.integers(0, len(base_g)))]
            move(blown, "base", "air")
            out_moves.append((EXTERNAL_OUT, [blown], "base", "air", "output_structure"))
        b.step(*out_moves)

    trace = b.trace(
        [Phase("gusts", 0, 3 * gusts)],
        (grains, ["slope"]),
        (grains, ["slope", "base"]),
        (grains, ["base"]),
    )
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
    b = _TraceBuilder("mains", "cpu", "ram", "io_port")
    b.add("core_0", "cpu")
    b.add("dimm_0", "ram")
    b.add("nic_0", "io_port")
    b.add("dust_0", "mains")
    b.add("dust_1", "mains")
    for _ in range(steps):
        b.step()
    trace = b.trace(
        [Phase("idle", 0, steps)],
        (["nic_0"], ["io_port"]),
        (["core_0", "dimm_0"], ["cpu", "ram"]),
        (["nic_0"], ["io_port"]),
    )
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
        cfg.validate()  # the generator reads no knob, but a bad config is refused here too
        return powered_off_scenario(steps)
    raise ConstructionError(f"unknown scenario {name!r}")
