"""Trace persistence, mapping and config files, and report rendering.

The trace file is line-oriented: one JSON header naming the roster, regions,
declarations, and phases, then one JSON line per step carrying that step's
events. Reading decodes each distinct step line once, into its events. A
line in the strict form the writer gives, ``{"events":[...],"step":N}`` with
no other byte, is taken by one check of its events array's shape; a later
line of the same body, all before ``,"step":``, and its own step N is not
decoded again: its events are new records of its step over the first one's
fields, so events of repeated lines share their immutable movers and
updates, equal and identical. Any other line, spaced JSON too, has its
fields checked in a fixed order, which names its first format fault. No
step rule is stated here: the events then go once through the
construction path used everywhere else, `build_trace`, so a broken file
fails with the first offending line or step named. The cyclic collector is
paused while a file is read, since nothing decoded forms a cycle. The field
checks say what is wrong, never where: `read_trace`'s one handler prefixes
"line N:", `load_config` names its lines, and the mapping readers turn a
failed check into their own message.
Writing formats each line from the fields, ids quoted by the encoder's own
C function and only states and updates encoded whole. All serialization
sorts rosters, movers, and keys, which makes equal traces produce
byte-identical files. A trace file holds finite numbers and string ids
only, and a list that is read into a set lists each entry once.
"""

from __future__ import annotations

import gc
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from importlib import resources
from math import isfinite
from pathlib import Path

from .classify import ActivityScore, IntelligenceReport, attribution
from .categories import FUNCTOR_ROLES, LawReport
from .evolution import (
    Phase,
    StepError,
    Trace,
    TransferEvent,
    _event,
    _pack,
    build_trace,
)
from .scenarios import ScenarioBundle, ScenarioConfig
from .universe import SIDES, ConstructionError, Snapshot, StructureRelation

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "TraceFormatError",
    "ConfigError",
    "MappingFormatError",
    "write_trace",
    "trace_to_text",
    "read_trace",
    "parse_window",
    "load_config",
    "load_mapping",
    "default_mimicry_mapping",
    "mapping_object_map",
    "mapping_components",
    "ReportDocument",
    "render_report",
]

FORMAT_NAME = "mindsets-trace"
FORMAT_VERSION = 1
MAPPING_FORMAT_NAME = "mindsets-mimicry"


class TraceFormatError(ConstructionError):
    """A trace file cannot be understood."""


class ConfigError(ConstructionError):
    """A scenario config file cannot be understood."""


class MappingFormatError(ConstructionError):
    """A mimicry mapping file cannot be understood."""


# compact sorted JSON, in which a number that is not finite raises ValueError;
# built once, as json.dumps with these keyword arguments builds one per call
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode
# the C function that quotes a string for `_dumps`; any other value raises TypeError
_quote = json.encoder.encode_basestring_ascii


def trace_to_text(t: Trace) -> str:
    """The text `_dumps` gives for the header object, then for each step's
    ``{"events": [...], "step": i}``, rosters and movers sorted. Each line is
    formatted from the fields, keys in sorted order; only a non-empty state
    or update goes through `_dumps`, which writes its numbers and refuses one
    that is not finite. An id that is not a string is refused too."""
    q, initial, states = _quote, t.initial, t.initial.states
    lines: list[str] = []
    try:
        elements = ",".join([
            f"[{q(eid)},{q(region)},{_dumps(states[eid]) if states[eid] else '{}'}]"
            for eid, region in sorted(initial.membership.items())
        ])
        regions = ",".join([f"[{q(r)},{q(s)}]" for r, s in sorted(initial.region_side.items())])
        declarations = _dumps([
            {"arity": d.arity, "factors": list(d.factors), "id": d.id, "role": d.role,
             "scope": sorted(d.scope), "tuples": sorted(list(tup) for tup in d.tuples)}
            for d in t.declarations
        ])
        lines.append(
            f'{{"declarations":{declarations},"elements":[{elements}],"format":{q(FORMAT_NAME)},'
            f'"phases":{_dumps([[p.label, p.start, p.stop] for p in t.phases])},'
            f'"regions":[{regions}],"version":{FORMAT_VERSION}}}'
        )
        for i, step_events in enumerate(t.events):
            events = ",".join([
                f'{{"from":{q(ev.from_region)},"kind":{q(ev.kind)},'
                f'"moved":[{",".join(map(q, sorted(ev.moved)))}],"to":{q(ev.to_region)},'
                f'"updates":{_dumps(ev.updates()) if ev.state_updates else "{}"},'
                f'"via":{"null" if ev.via_structure is None else q(ev.via_structure)}}}'
                for ev in step_events
            ])
            lines.append(f'{{"events":[{events}],"step":{i}}}')
    except ValueError:
        where = f"step {len(lines) - 1}: a state update" if lines else "an initial state"
        raise ConstructionError(f"{where} holds a number that is not finite") from None
    except TypeError:  # from a sort or `_quote`; one from `_dumps` is raised as it is
        step, members = len(lines) - 1, initial.membership
        ids = [*members, *members.values(), *initial.region_side] if step < 0 else [
            i for ev in t.events[step] for i in (
                ev.kind, ev.from_region, ev.to_region, *sorted(ev.moved, key=repr),
                "" if ev.via_structure is None else ev.via_structure,
            )
        ]
        for i in ids:
            if not isinstance(i, str):
                where = f"step {step}: " if step >= 0 else ""
                raise ConstructionError(f"{where}id {i!r} is not a string") from None
        raise
    lines.append("")  # for the last newline, so the joined text is not copied again
    return "\n".join(lines)


def write_trace(t: Trace, destination: str | Path) -> None:
    Path(destination).write_text(trace_to_text(t))


def _read_text(path: str | Path, error: type[ConstructionError]) -> str:
    """The file's text; bytes that are not UTF-8 raise `error` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start} is not UTF-8 text") from None


class _FieldError(ConstructionError):
    """A field holds the wrong kind of value; the file's reader says where."""

    def __init__(self, what: str, kind: str):
        super().__init__(f"{what} is not {kind}")


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise _FieldError(what, "a string")
    return value


def _is_integer(value) -> bool:
    """JSON's integers only: `true` and `1.0` compare equal to 1 but are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, what: str) -> int:
    if not _is_integer(value):
        raise _FieldError(what, "an integer")
    return value


def _list(value, what: str, size: int | None = None) -> list:
    """A list, of `size` fields if given; a string of that length would unpack too."""
    if not isinstance(value, list) or size is not None and len(value) != size:
        raise _FieldError(what, "a list" if size is None else f"a list of {size}")
    return value


def _texts(value, what: str) -> list[str]:
    """A list of strings; a bare string would split into its characters."""
    return [_text(v, f"{what} entry") for v in _list(value, what)]


def _set(entries: list, what: str) -> frozenset:
    """The entries of a list that stands for a set; an entry listed twice is
    refused, the sorted-first one named, since the set would drop it."""
    found = frozenset(entries)
    if len(found) < len(entries):
        twice = min(e for e, count in Counter(entries).items() if count > 1)
        raise TraceFormatError(f"{what} lists {twice!r} twice")
    return found


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise _FieldError(what, "an object")
    return value


def _state(value, label: str, eid: str) -> bool:
    """Whether the numbers of an element state, an object whose values are
    scalars as `State` holds, are all finite. A failed check names the state
    "`label` `eid`", a name built only then."""
    if not isinstance(value, dict):
        raise _FieldError(f"{label} {eid!r}", "an object")
    finite = True
    for key, v in value.items():
        if isinstance(v, float):
            finite = finite and isfinite(v)
        elif not isinstance(v, (int, str)):
            raise _FieldError(f"{label} {eid!r} value {key!r}", "a scalar")
    return finite


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} listed twice")
        obj[key] = value
    return obj


# one decoder each, built once: keyword arguments to json.loads build one per call;
# step lines, by far the most, skip the duplicate-key hook the header and mappings pay
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)
_UNIQUE_KEY_DECODER = json.JSONDecoder(
    parse_constant=_refuse_constant, object_pairs_hook=_unique_keys
)
_scan_once = _DECODER.scan_once
# the types of the scalars a state holds, as the decoder gives them
_SCALARS = frozenset((int, float, str, bool))


def _loads(text: str, error: type[ConstructionError], decoder=_DECODER):
    """The JSON value `text` holds; text that is not JSON, holds NaN or an
    infinity, nests too deeply for the parser or, for `decoder`'s hook, lists
    a key twice, raises `error`."""
    if text.startswith("\ufeff"):  # as json.loads refuses it
        raise error("invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))")
    try:
        return decoder.decode(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON ({exc.msg})") from None
    except ValueError as exc:  # from a hook, or an integer too long to convert
        raise error(f"invalid JSON ({exc})") from None
    except RecursionError:
        raise error("invalid JSON (nested too deeply)") from None


def _header(line: str) -> tuple[Snapshot, list[StructureRelation], list[Phase]]:
    """The initial snapshot, declarations and phases that the header describes.
    Each element entry is checked once and the snapshot built from what was
    read. The faults `make_snapshot` would name (a duplicate id, a state number
    that is not finite, an unknown side, a region without a side) keep its
    messages and order, after every format fault: the first is raised last."""
    header = _loads(line, TraceFormatError, _UNIQUE_KEY_DECODER)
    if not isinstance(header, dict):
        raise TraceFormatError("expected an object")
    if header.get("format") != FORMAT_NAME:
        raise TraceFormatError("not a trace file")
    version = header.get("version")
    if not _is_integer(version) or version != FORMAT_VERSION:
        raise TraceFormatError(f"unsupported format version {version!r}")
    states, membership, region_side, faults = {}, {}, {}, []
    for entry in _list(header["elements"], "elements"):
        if not isinstance(entry, list) or len(entry) != 3:
            raise _FieldError("element entry", "a list of 3")
        eid, region, state = entry
        if not isinstance(eid, str):
            raise _FieldError("element id", "a string")
        finite = state == {} or _state(state, "state of", eid)  # most states are empty
        if not isinstance(region, str):
            raise _FieldError(f"region of {eid!r}", "a string")
        if eid in states:
            faults.append(f"duplicate element id {eid!r}")
        elif not finite:
            faults.append(f"initial state of {eid!r} holds a number that is not finite")
        states[eid] = state
        membership[eid] = region
    for entry in _list(header["regions"], "regions"):
        region, side = _list(entry, "region entry", 2)
        if _text(region, "region id") in region_side:
            raise TraceFormatError(f"region {region!r} listed twice")
        region_side[region] = side
        if side not in SIDES:
            faults.append(f"region {region!r} has unknown side {side!r}")
    declarations = []
    for d in _list(header["declarations"], "declarations"):
        did = _text(_object(d, "declaration")["id"], "declaration id")
        tuples, scope, each = f"tuples of {did!r}", f"scope of {did!r}", f"tuple of {did!r}"
        declarations.append(StructureRelation(
            id=did, role=d["role"], arity=_integer(d["arity"], f"arity of {did!r}"),
            tuples=_set([tuple(_texts(t, each)) for t in _list(d["tuples"], tuples)], tuples),
            scope=_set(_texts(d["scope"], scope), scope),
            factors=tuple(_texts(d["factors"], f"factors of {did!r}")),
        ))
    phases = []
    for entry in _list(header["phases"], "phases"):
        label, start, stop = _list(entry, "phase entry", 3)
        label = _text(label, "phase label")
        start = _integer(start, f"start of phase {label!r}")
        phases.append(Phase(label, start, _integer(stop, f"stop of phase {label!r}")))
    if not faults and not region_side.keys() >= set(membership.values()):
        faults = [f"region {r!r} without side" for r in membership.values() if r not in region_side]
    if faults:
        raise ConstructionError(faults[0])
    return Snapshot(0, membership, region_side, states), declarations, phases


def _step(line: str, step: int) -> list[TransferEvent]:
    """The events of the line that must hold step `step`, checked field by
    field in a fixed order, so the first wrong field is the one named."""
    obj = _loads(line, TraceFormatError)
    if not isinstance(obj, dict):
        raise TraceFormatError("expected an object")
    if _integer(obj.get("step"), "step") != step:
        raise TraceFormatError(f"expected step {step}")
    events = []
    for e in _list(obj.get("events"), "events"):
        kind = _text(_object(e, "event")["kind"], "kind")
        moved = _set(_texts(e["moved"], "moved"), "moved")  # each a string before it is hashed
        from_region, to_region = _text(e["from"], "from"), _text(e["to"], "to")
        via = None if e["via"] is None else _text(e["via"], "via")
        updates = _object(e["updates"], "updates")
        for eid, attrs in updates.items():
            _state(attrs, "update of", eid)
        packed = _pack(updates) if updates else ()
        events.append(_event(step, kind, moved, from_region, to_region, via, packed))
    return events


def _written_step(
    line: str, step: int, seen: dict[str, list[TransferEvent]]
) -> list[TransferEvent] | None:
    """The events of the line that must hold step `step`, if it is in the form
    `trace_to_text` writes, else None. That form is ``{"events":[...],"step":N}``
    exactly, with N the canonical `step`, an event's six keys only, each field
    of its kind, every id a string and each mover listed once. The line is
    split at its last ``,"step":``, which is the outer key, as a quote inside
    a JSON string is escaped; the events array is then decoded alone, so no
    outer object is built. `seen` maps each body (the line before that key)
    already taken to its events: a line of the same body is decoded as that
    one was, so it gets fresh events of its own step over the same field
    objects. Applies no step rule: `build_trace` validates what it returns."""
    body, _, tail = line.rpartition(',"step":')
    if tail != f"{step}}}":
        return None
    known = seen.get(body)
    if known is not None:
        return [
            _event(step, ev.kind, ev.moved, ev.from_region, ev.to_region, ev.via_structure,
                   ev.state_updates)
            for ev in known
        ]
    if not body.startswith('{"events":['):
        return None
    try:
        events, end = _scan_once(line, 10)  # the array after '{"events":'
        if end != len(body):
            return None
        decoded = []
        for e in events:
            kind, moved, src, dst = e["kind"], e["moved"], e["from"], e["to"]
            via, updates = e["via"], e["updates"]
            if (
                len(e) != 6
                or type(kind) is not str
                or type(src) is not str
                or type(dst) is not str
                or via is not None and type(via) is not str
                or type(moved) is not list
                or type(updates) is not dict
            ):
                return None
            "".join(moved)  # raises TypeError for a mover that is not a string
            movers = frozenset(moved)
            if len(movers) != len(moved):
                return None
            packed = ()
            if updates:
                for attrs in updates.values():
                    if type(attrs) is not dict:
                        return None
                    if not _SCALARS.issuperset(map(type, attrs.values())):
                        return None
                packed = _pack(updates)
            decoded.append(_event(step, kind, movers, src, dst, via, packed))
    except (KeyError, TypeError, ValueError, RecursionError, StopIteration):
        return None
    seen[body] = decoded
    return decoded


def read_trace(source: str | Path) -> Trace:
    """Parse and replay a trace file; failures name the line or step.

    After the header (`_header`), each step line is decoded once: by
    `_written_step`, which takes a line in the strict written form and, from a
    memo local to this call, a line whose body repeats one it took, or, for a
    line it doubts, by `_step`, which names the line's first format fault.
    Each line is let go once decoded, so the memo's bodies hold no more than
    the lines they stand for. Then `build_trace` validates the declarations,
    the steps and the phases, in that order. So the first fault is named, with
    format faults on any line before the declaration checks, then the step
    faults, then the phase checks.
    """
    lines = _read_text(source, TraceFormatError).splitlines()
    if not lines:
        raise TraceFormatError("empty trace file")
    lines.reverse()  # popped from the end, so each line is let go once read
    line_no = 1
    # the cyclic collector would pass over every event read so far, again and
    # again as they pile up; nothing read here forms a cycle
    collecting = gc.isenabled()
    gc.disable()
    try:
        initial, declarations, phases = _header(lines.pop())
        schedule, seen = [], {}
        for step in range(len(lines)):
            line = lines.pop()
            events = _written_step(line, step, seen)
            if events is None:
                line_no = step + 2
                events = _step(line, step)
            schedule.append(events)
        seen.clear()  # its bodies are let go before build_trace allocates
        # outside its steps, build_trace checks the header's declarations and phases
        line_no = 1
        return build_trace(initial, schedule, phases, declarations)
    except StepError:
        raise
    except KeyError as exc:
        part = "header" if line_no == 1 else "event"
        raise TraceFormatError(f"line {line_no}: malformed {part} (missing {exc})") from None
    except ConstructionError as exc:
        raise TraceFormatError(f"line {line_no}: {exc}") from None
    finally:
        if collecting:
            gc.enable()


def parse_window(text: str) -> tuple[int, int]:
    """Half-open step interval written as A:B."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError("window must be written A:B (half-open)")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError("window bounds must be integers") from None


# ---------------------------------------------------------------------------
# config and mapping files


def load_config(path: str | Path) -> ScenarioConfig:
    """Flat key=value file over ScenarioConfig fields; each value is parsed
    with the type of its field's default, and each key may be given once."""
    names = {f.name for f in fields(ScenarioConfig)}
    defaults = ScenarioConfig()
    values: dict[str, object] = {}
    for line_no, raw in enumerate(_read_text(path, ConfigError).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in names:
            raise ConfigError(f"line {line_no}: unknown config key {key!r}")
        try:
            parsed = type(getattr(defaults, key))(value)
        except ValueError:
            raise ConfigError(f"line {line_no}: bad value for {key!r}") from None
        if key in values:
            raise ConfigError(f"line {line_no}: config key {key!r} listed twice")
        values[key] = parsed
    return replace(defaults, **values)


@contextmanager
def _refusing(message: str):
    """Turn a failed field check of a mapping into a MappingFormatError."""
    try:
        yield
    except _FieldError:
        raise MappingFormatError(message) from None


def load_mapping(path: str | Path) -> dict:
    return _mapping(_read_text(path, MappingFormatError))


def default_mimicry_mapping() -> dict:
    return _mapping(
        resources.files("mindsets").joinpath("data/aplysia_to_hebbian.json").read_text()
    )


def _mapping(text: str) -> dict:
    """The mapping `text` holds, with its format, version and tables checked."""
    data = _loads(text, MappingFormatError, _UNIQUE_KEY_DECODER)
    if not isinstance(data, dict) or data.get("format") != MAPPING_FORMAT_NAME:
        raise MappingFormatError("not a mimicry mapping file")
    version = data.get("version")
    if not _is_integer(version) or version != 1:
        raise MappingFormatError(f"unsupported mapping version {version!r}")
    with _refusing("mapping lacks a components table"):
        _object(data.get("components"), "components")
    if data.get("object_map") != "identity":
        with _refusing('object_map must be "identity" or a pair list'):
            _list(data.get("object_map"), "object_map")
    return data


def mapping_object_map(data: dict, source_len: int) -> tuple[int, ...]:
    """Object table from the file: identity, or explicit [source, target] pairs."""
    om = data["object_map"]
    if om == "identity":
        return tuple(range(source_len))
    pairs: dict[int, int] = {}
    for pair in om:
        with _refusing("object_map pairs must be [int, int]"):
            src, dst = (_integer(v, "object") for v in _list(pair, "object_map pair", 2))
        if not 0 <= src < source_len:
            raise MappingFormatError(
                f"object_map names source object {src}, outside 0..{source_len - 1}"
            )
        if src in pairs:
            raise MappingFormatError(f"object_map lists source object {src} twice")
        pairs[src] = dst
    missing = [i for i in range(source_len) if i not in pairs]
    if len(missing) > 5:  # a long source can miss thousands: the first few and the count
        listed = ", ".join(map(str, missing[:5]))
        raise MappingFormatError(
            f"object_map misses source objects [{listed}, ...] ({len(missing)} of {source_len})"
        )
    if missing:
        raise MappingFormatError(f"object_map misses source objects {missing}")
    return tuple(pairs[i] for i in range(source_len))


def mapping_components(data: dict) -> dict[str, dict[tuple, tuple]]:
    """One tuple map per role of FUNCTOR_ROLES, from [source, target] pairs."""
    components: dict[str, dict[tuple, tuple]] = {}
    for role, pairs in data["components"].items():
        shape = f"component map for {role!r} must list [source_tuple, target_tuple] pairs"
        with _refusing(shape):
            pairs = [
                [tuple(_texts(side, "tuple")) for side in _list(pair, "pair", 2)]
                for pair in _list(pairs, "component map")
            ]
        if role not in FUNCTOR_ROLES:
            raise MappingFormatError(f"component map for unknown role {role!r}")
        comp = components[role] = {}
        for src, dst in pairs:
            if src in comp:
                raise MappingFormatError(
                    f"component map for {role!r} lists source tuple {src} twice"
                )
            comp[src] = dst
    return components


# ---------------------------------------------------------------------------
# report rendering


@dataclass(frozen=True, eq=True)
class ReportDocument:
    kind: str  # classification, activity, law, oracle, or table
    body: str


def _compress_steps(steps) -> str:
    """Sorted step set as run ranges: 0-5, 9, 12-13."""
    items = sorted(steps)
    if not items:
        return "none"
    runs: list[str] = []
    lo = prev = items[0]
    for s in items[1:]:
        if s == prev + 1:
            prev = s
            continue
        runs.append(str(lo) if lo == prev else f"{lo}-{prev}")
        lo = prev = s
    runs.append(str(lo) if lo == prev else f"{lo}-{prev}")
    return ", ".join(runs)


def _cycle_of(seq: tuple[str, ...]) -> str:
    """Smallest repeating unit when one exists, else a truncated listing."""
    n = len(seq)
    if n == 0:
        return "(quiet)"
    for unit_len in range(1, min(8, n) + 1):
        if n % unit_len == 0 and seq == seq[:unit_len] * (n // unit_len):
            unit = " -> ".join(seq[:unit_len])
            reps = n // unit_len
            return unit if reps == 1 else f"[{unit}] x {reps}"
    shown = ", ".join(seq[:12])
    return shown if n <= 12 else f"{shown}, ..."


def _window_str(window: tuple[int, int]) -> str:
    return f"{window[0]}:{window[1]}"


def _classification_body(report: IntelligenceReport) -> str:
    lines = [
        "# Classification",
        "",
        f"window: {_window_str(report.window)}",
        f"verdict: {'true' if report.verdict else 'false'}",
        "",
        "| condition | held | witnessed steps |",
        "| --- | --- | --- |",
    ]
    held = {
        "input": report.has_input,
        "processing": report.has_processing,
        "output": report.has_output,
    }
    for condition in ("input", "processing", "output"):
        steps = report.steps_with(condition)
        lines.append(
            f"| {condition} | {'yes' if held[condition] else 'no'} | {_compress_steps(steps)} |"
        )
    lines += ["", f"attribution: {_cycle_of(report.attribution)}"]
    return "\n".join(lines) + "\n"


def _activity_body(score: ActivityScore) -> str:
    emphasis = "step_activity" if score.mode == "step" else "element_rate"
    return (
        "# Activity\n\n"
        f"window: {_window_str(score.window)}\n"
        f"step_activity: {score.step_activity}\n"
        f"element_rate: {score.element_rate}\n"
        f"reported metric: {emphasis}\n"
    )


def _law_body(report: LawReport) -> str:
    lines = [
        "# Functor laws",
        "",
        f"objects checked: {report.objects_checked}",
        f"composition triples checked: {report.triples_checked}",
    ]
    if report.passed:
        lines.append("result: all laws hold")
    else:
        lines.append(f"result: {len(report.failures)} failure(s)")
        lines.append("")
        lines.append("| law | at | detail |")
        lines.append("| --- | --- | --- |")
        for f in report.failures:
            lines.append(f"| {f.law} | {f.at} | {f.detail} |")
    return "\n".join(lines) + "\n"


def _oracle_body(reports: tuple[IntelligenceReport, IntelligenceReport]) -> str:
    fast, oracle = reports
    lines = [
        "# Oracle comparison",
        "",
        f"window: {_window_str(fast.window)}",
        f"classify verdict: {'true' if fast.verdict else 'false'}",
        f"oracle verdict: {'true' if oracle.verdict else 'false'}",
    ]
    mismatches = []
    if fast.verdict != oracle.verdict:
        mismatches.append("verdict")
    for condition in ("input", "processing", "output"):
        a, b = fast.steps_with(condition), oracle.steps_with(condition)
        if a != b:
            mismatches.append(
                f"{condition} steps ({_compress_steps(a)} vs {_compress_steps(b)})"
            )
    if mismatches:
        lines.append("agreement: no")
        for m in mismatches:
            lines.append(f"- mismatch: {m}")
    else:
        lines.append("agreement: yes")
    return "\n".join(lines) + "\n"


def _table_body(trace: Trace, name: str | None = None, extra: list[str] | None = None) -> str:
    lines = ["# Structures" if name is None else f"# Structures: {name}", ""]
    lines.append("| structure | role | arity | members | scope |")
    lines.append("| --- | --- | --- | --- | --- |")
    for d in trace.declarations:
        lines.append(
            f"| {d.id} | {d.role} | {d.arity} | {len(d.tuples)} | {', '.join(sorted(d.scope))} |"
        )
    lines += ["", "# Phases", "", "| phase | steps | role cycle |", "| --- | --- | --- |"]
    for p in trace.phases:
        if p.stop > p.start:
            cycle = _cycle_of(attribution(trace, (p.start, p.stop)))
        else:
            cycle = "(empty)"
        lines.append(f"| {p.label} | {p.start}:{p.stop} | {cycle} |")
    if extra:
        lines += [""] + extra
    return "\n".join(lines) + "\n"


def render_report(subject) -> ReportDocument:
    """Deterministic markdown for any of the library's result values."""
    if isinstance(subject, IntelligenceReport):
        return ReportDocument("classification", _classification_body(subject))
    if isinstance(subject, ActivityScore):
        return ReportDocument("activity", _activity_body(subject))
    if isinstance(subject, LawReport):
        return ReportDocument("law", _law_body(subject))
    if isinstance(subject, tuple) and len(subject) == 2 and all(
        isinstance(r, IntelligenceReport) for r in subject
    ):
        return ReportDocument("oracle", _oracle_body(subject))
    if isinstance(subject, ScenarioBundle):
        extra = []
        graded = [r for r in subject.trials if r.correct is not None]
        if graded:
            extra.append(f"test accuracy: {subject.accuracy():.3f}")
        return ReportDocument("table", _table_body(subject.trace, subject.name, extra))
    if isinstance(subject, Trace):
        return ReportDocument("table", _table_body(subject))
    raise ConstructionError(f"cannot render a report for {type(subject).__name__}")
