"""The benchmark's four workloads.

Each workload is driven by one client in a closed loop: the next job starts
only when the previous one has finished. Jobs come in blocks; a block holds
every size of the workload once, in a seeded order, so a run of whole
blocks always has the same mix and its median and tail stay put from seed
to seed. Every input a job reads (config files, traces) is generated here
from the workload seed; mindsets only sees those files.

A workload object offers:

- ``prepare()``: the timed set-up (input generation and a warm-up job);
- ``prepare_checks()``: untimed reference data for the correctness checks;
- ``blocks()``: the endless seeded sequence of job blocks;
- ``stage(spec)``: untimed per-job input files;
- ``run(spec)``: the timed job;
- ``check(spec, out)``: untimed checks, giving (steps handled, problems).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from pathlib import Path

import mindsets.cli as cli
from mindsets.classify import CONDITIONS, ActivityScore, IntelligenceReport
from mindsets.evolution import verify_conservation
from mindsets.io import read_trace, trace_to_text, write_trace
from mindsets.scenarios import ScenarioConfig, make_scenario

# the package root rebinds the name `classify` to the function
classify_mod = importlib.import_module("mindsets.classify")

# trial counts per job and the traced run's block count, per scale; "tiny"
# is the smoke test's size
SIZES = {
    "default": {
        "analyze-hebbian": {"trials": (50, 100, 200), "trace_blocks": 10},
        "analyze-sandpile": {"trials": (400, 800, 1600), "trace_blocks": 8},
        "window-queries": {"trials": 600, "trace_blocks": 7},
        "functor-mimicry": {"trials": (9, 11, 13), "trace_blocks": 4},
    },
    "tiny": {
        "analyze-hebbian": {"trials": (4, 8), "trace_blocks": 1},
        "analyze-sandpile": {"trials": (20, 40), "trace_blocks": 1},
        "window-queries": {"trials": 8, "trace_blocks": 1},
        "functor-mimicry": {"trials": (4, 6), "trace_blocks": 1},
    },
}

WINDOW_MAX = 29  # longest window a window job asks for; odd, so the median length is whole
MIMICRY_MAP = Path(__file__).resolve().parents[1] / "src/mindsets/data/aplysia_to_hebbian.json"


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; return its exit code and stdout."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main([str(a) for a in argv])
    return code, captured.getvalue()


def boundary_crossings(t, start: int, stop: int) -> tuple[int, int]:
    """Steps with a boundary crossing and elements moved across, from the events.

    Sides come from the regions an event connects, not from its kind tag.
    """
    side = t.snapshots[0].region_side
    active = moved = 0
    for events in t.events[start:stop]:
        count = sum(
            len(ev.moved) for ev in events if side[ev.from_region] != side[ev.to_region]
        )
        if count:
            active += 1
            moved += count
    return active, moved


def expected_activity(t, start: int, stop: int, mode: str) -> ActivityScore:
    active, moved = boundary_crossings(t, start, stop)
    length = stop - start
    return ActivityScore((start, stop), active / length, moved / length, mode)


def check_trace_file(path: Path) -> tuple[object, list[str]]:
    """Read a written trace back; it must round-trip byte for byte and conserve."""
    t = read_trace(path)
    problems = []
    if trace_to_text(t).encode() != path.read_bytes():
        problems.append(f"{path.name}: read/write round trip is not byte-identical")
    if verify_conservation(t):
        problems.append(f"{path.name}: conservation violated")
    return t, problems


def check_codes(outs: list[tuple[int, str]]) -> list[str]:
    codes = [code for code, _ in outs]
    return [] if not any(codes) else [f"exit codes {codes}, expected all 0"]


class Workload:
    name = ""
    why = ""

    def __init__(self, work: Path, seed: int, scale: str) -> None:
        self.work = work
        self.seed = seed
        self.sizes = SIZES[scale][self.name]
        self.trace_blocks = self.sizes["trace_blocks"]
        self.rng = random.Random(f"{self.name}/{seed}")

    def blocks(self):
        """Every size once per block, in a seeded order, each with its own seed."""
        while True:
            sizes = list(self.sizes["trials"])
            self.rng.shuffle(sizes)
            yield [(n, self.rng.randrange(2**31)) for n in sizes]

    def prepare(self) -> None:
        """Warm up with one checked job of the smallest size."""
        spec = (min(self.sizes["trials"]), self.seed)
        self.stage(spec)
        _, problems = self.check(spec, self.run(spec))
        if problems:
            raise RuntimeError(f"warm-up job failed: {problems}")

    def prepare_checks(self) -> None:
        pass

    def stage(self, spec) -> None:
        pass


class Analyze(Workload):
    """CLI sequence run -> classify -> activity -> report on a fresh trace."""

    scenario = ""

    def stage(self, spec) -> None:
        trials, seed = spec
        self.work.joinpath("job.cfg").write_text(
            f"seed = {seed}\ntrials = {trials}\n{self.extra_config(trials)}"
        )

    def run(self, spec):
        cfg, trace = self.work / "job.cfg", self.work / "job.trace"
        return [
            call_cli(["run", "--scenario", self.scenario, "--config", cfg, "--out", trace]),
            call_cli(["classify", "--trace", trace]),
            call_cli(["activity", "--trace", trace, "--mode", "element"]),
            call_cli(["report", "--trace", trace]),
        ]

    def check(self, spec, out):
        problems = check_codes(out)
        t, trace_problems = check_trace_file(self.work / "job.trace")
        problems += trace_problems
        score = expected_activity(t, 0, t.n_steps, "element")
        if f"element_rate: {score.element_rate}\n" not in out[2][1]:
            problems.append(f"activity output disagrees with {score.element_rate}")
        if not out[3][1].startswith("# Structures"):
            problems.append("report printed no structure table")
        return t.n_steps, problems


class AnalyzeHebbian(Analyze):
    name = "analyze-hebbian"
    why = (
        "roster grows with trials, so per-step roster scans and whole-dict "
        "snapshot copies dominate run/classify/activity/report"
    )
    scenario = "hebbian"

    @staticmethod
    def extra_config(trials: int) -> str:
        return f"test_count = {trials // 4}\n"


class AnalyzeSandpile(Analyze):
    name = "analyze-sandpile"
    why = (
        "41-element roster bypasses the roster scans; long traces put the "
        "time in JSON parsing and event replay in io/evolution"
    )
    scenario = "sandpile"

    @staticmethod
    def extra_config(trials: int) -> str:
        return "test_count = 0\ngrain_count = 40\n"


class WindowQueries(Workload):
    """Seeded library queries on short stretches of one long loaded trace."""

    name = "window-queries"
    why = (
        "random access to short windows of one long hebbian history: "
        "classify, activity and witness queries on a loaded Trace"
    )
    witness_functions = ("witness_input", "witness_processing", "witness_output")

    def prepare(self) -> None:
        trials = self.sizes["trials"]
        cfg = ScenarioConfig(seed=self.seed, trials=trials, test_count=trials // 4)
        path = self.work / "window.trace"
        write_trace(make_scenario("hebbian", cfg).trace, path)
        self.trace = read_trace(path)
        self.run((0, 3, "step", 1))

    def prepare_checks(self) -> None:
        t = self.trace
        full = classify_mod.classify(t, (0, t.n_steps))
        self.attribution = full.attribution
        self.by_step = [[] for _ in range(t.n_steps)]
        for w in full.witnesses:
            self.by_step[w.step].append(w)

    def blocks(self):
        """A window of every length from 1 to WINDOW_MAX steps per block.

        Each job is a window at a random position, an activity mode and a
        witness step drawn from the whole trace, apart from the window.
        Whole blocks give every run the same median window length.
        """
        n = self.trace.n_steps
        while True:
            lengths = list(range(1, min(WINDOW_MAX, n) + 1))
            self.rng.shuffle(lengths)
            block = []
            for length in lengths:
                start = self.rng.randint(0, n - length)
                mode = self.rng.choice(("step", "element"))
                block.append((start, start + length, mode, self.rng.randrange(n)))
            yield block

    def run(self, spec):
        start, stop, mode, step = spec
        return (
            classify_mod.classify(self.trace, (start, stop)),
            classify_mod.activity(self.trace, (start, stop), mode=mode),
            [getattr(classify_mod, f)(self.trace, step) for f in self.witness_functions],
        )

    def check(self, spec, out):
        start, stop, mode, step = spec
        report, score, found = out
        witnesses = tuple(w for i in range(start, stop) for w in self.by_step[i])
        has = {c: any(w.condition == c for w in witnesses) for c in CONDITIONS}
        expected_report = IntelligenceReport(
            window=(start, stop),
            witnesses=witnesses,
            has_input=has["input"],
            has_processing=has["processing"],
            has_output=has["output"],
            verdict=all(has.values()),
            attribution=self.attribution[start:stop],
        )
        problems = []
        if report != expected_report:
            problems.append(f"{spec}: classify differs from the full-window reference")
        if score != expected_activity(self.trace, start, stop, mode):
            problems.append(f"{spec}: activity differs from the boundary-crossing count")
        for condition, got in zip(CONDITIONS, found):
            first = next((w for w in self.by_step[step] if w.condition == condition), None)
            if got != first:
                problems.append(f"{spec}: witness_{condition} differs from the full-window reference")
        return stop - start + 1, problems


class FunctorMimicry(Workload):
    """Generate an aplysia/hebbian pair, law-check both, check the shipped mapping."""

    name = "functor-mimicry"
    why = (
        "only workload that runs categories: O(n^2) morphism tables and "
        "O(n^3) law sweeps over an aplysia/hebbian trace pair"
    )

    def stage(self, spec) -> None:
        total, seed = spec
        self.work.joinpath("pair.cfg").write_text(
            f"seed = {seed}\ntrials = {total - total // 4}\ntest_count = {total // 4}\n"
        )

    def run(self, spec):
        cfg = self.work / "pair.cfg"
        source, target = self.work / "aplysia.trace", self.work / "hebbian.trace"
        return [
            call_cli(["run", "--scenario", "aplysia", "--config", cfg, "--out", source]),
            call_cli(["run", "--scenario", "hebbian", "--config", cfg, "--out", target]),
            call_cli(["functor-check", "--trace", source]),
            call_cli(["functor-check", "--trace", target]),
            call_cli(["mimic-check", "--source", source, "--target", target, "--map", MIMICRY_MAP]),
        ]

    def check(self, spec, out):
        problems = check_codes(out)
        steps = 0
        for name in ("aplysia.trace", "hebbian.trace"):
            t, trace_problems = check_trace_file(self.work / name)
            problems += trace_problems
            steps += t.n_steps
        for code, text in out[2:]:
            if "result: all laws hold\n" not in text:
                problems.append("a law check did not report that all laws hold")
        return steps, problems


WORKLOADS = {w.name: w for w in (AnalyzeHebbian, AnalyzeSandpile, WindowQueries, FunctorMimicry)}
