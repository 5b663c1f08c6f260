"""Shared builders for the test suite.

`random_trace` draws small universes and schedules for fuzzing. Steps keep
their events' region footprints pairwise disjoint, matching the discipline
the library's own generators follow; the oracle-equivalence argument leans
on that, so the factory is the place where it is enforced. `out_and_back`
and `steady_trace` stage carriers that blink or stay put, for the functor
and mimicry checks. `eager_snapshots`, `conservation_scan` and
`snapshot_functor` are the oracles for the trace replay, for
`verify_conservation` and for `functor_from_trace`; `intersection_table`,
`table_pullback` and `check_every_arrow` build arrow tables as dicts and
are the oracles for a functor's table view, for a mimicry functor's
pullback and for mimicry's survival check; `reference_trace_text` is the
oracle for `trace_to_text`: the writer that builds a dict per line and
encodes it with the sorting encoder; `read_ordered` is the oracle for
`read_trace`: every step line's fields checked in a fixed order by
`_step`, never by the reader's decode of the written form, and `outcome`
gives a reader's trace or refusal, for comparing the two.
"""

from __future__ import annotations

import json
import random

import numpy as np

from mindsets import (
    EXTERNAL_IN,
    EXTERNAL_OUT,
    INTERNAL,
    ConservationViolation,
    IntelligenceMorphism,
    IntelligenceObject,
    MimicryError,
    Phase,
    Snapshot,
    StructureRelation,
    TimeFunctor,
    Trace,
    TransferEvent,
    apply_step,
    build_trace,
    carrier_at,
    make_snapshot,
)
from mindsets.categories import FUNCTOR_ROLES
from mindsets.evolution import StepError
from mindsets.io import FORMAT_NAME, FORMAT_VERSION, TraceFormatError, _header, _read_text, _step
from mindsets.universe import ConstructionError

SYSTEM_REGIONS = ("s0", "s1", "s2")
ENV_REGIONS = ("v0", "v1")


def two_region_snapshot(
    system_members=("a",), env_members=("b", "c")
) -> Snapshot:
    """One system region "in", one environment region "out"."""
    membership = {e: "in" for e in system_members}
    membership.update({e: "out" for e in env_members})
    return make_snapshot(
        [(e, None) for e in (*system_members, *env_members)],
        membership,
        {"in": "system", "out": "environment"},
    )


def random_trace(
    rng: random.Random, with_metadata: bool = False, max_steps: int = 6, min_steps: int = 1
) -> Trace:
    """A small valid trace: at most 8 elements, 3+2 regions, `min_steps` to
    `max_steps` steps.

    Each step draws up to two events whose {from, to} footprints do not
    overlap, and no element moves twice in a step. With `with_metadata`,
    declarations, phases, and state updates are sprinkled in for
    serialization coverage.
    """
    n_elements = rng.randint(2, 8)
    elements = [f"e{i}" for i in range(n_elements)]
    region_side = {r: "system" for r in SYSTEM_REGIONS}
    region_side.update({r: "environment" for r in ENV_REGIONS})
    regions = SYSTEM_REGIONS + ENV_REGIONS
    membership = {e: rng.choice(regions) for e in elements}

    declarations = []
    if with_metadata:
        declarations = [
            StructureRelation(
                id=f"{role}_structure",
                role=role,
                arity=1,
                tuples=frozenset((e,) for e in rng.sample(elements, rng.randint(1, n_elements))),
                scope=frozenset(rng.sample(SYSTEM_REGIONS, rng.randint(1, 3))),
            )
            for role in ("input", "processing", "output")
        ]

    where = dict(membership)
    n_steps = rng.randint(min_steps, max_steps)
    schedule: list[list[TransferEvent]] = []
    for step in range(n_steps):
        events: list[TransferEvent] = []
        used_regions: set[str] = set()
        moved_this_step: set[str] = set()
        updated_this_step: set[str] = set()
        for _ in range(rng.randint(0, 2)):
            kind = rng.choice((EXTERNAL_IN, EXTERNAL_OUT, INTERNAL))
            side_of = {"system": SYSTEM_REGIONS, "environment": ENV_REGIONS}
            src_side, dst_side = {
                EXTERNAL_IN: ("environment", "system"),
                EXTERNAL_OUT: ("system", "environment"),
                INTERNAL: ("system", "system"),
            }[kind]
            src_options = [
                r
                for r in side_of[src_side]
                if r not in used_regions
                and any(where[e] == r and e not in moved_this_step for e in elements)
            ]
            if not src_options:
                continue
            src = rng.choice(src_options)
            dst_options = [
                r for r in side_of[dst_side] if r not in used_regions and r != src
            ]
            if not dst_options:
                continue
            dst = rng.choice(dst_options)
            pool = [e for e in elements if where[e] == src and e not in moved_this_step]
            movers = rng.sample(pool, rng.randint(1, len(pool)))
            updates = None
            if with_metadata and rng.random() < 0.3:
                fresh = [e for e in elements if e not in updated_this_step]
                if fresh:
                    target = rng.choice(fresh)
                    updated_this_step.add(target)
                    updates = {target: {"v": rng.randint(0, 9), "tag": "probe"}}
            via = None
            if declarations and rng.random() < 0.4:
                via = rng.choice(declarations).id
            events.append(
                TransferEvent.make(
                    step=step,
                    kind=kind,
                    moved=frozenset(movers),
                    from_region=src,
                    to_region=dst,
                    via_structure=via,
                    state_updates=updates,
                )
            )
            used_regions.update((src, dst))
            moved_this_step.update(movers)
            for e in movers:
                where[e] = dst
        schedule.append(events)

    phases = []
    if with_metadata and rng.random() < 0.7:
        cut = rng.randint(0, n_steps)
        phases = [Phase("head", 0, cut), Phase("tail", cut, n_steps)]

    initial = make_snapshot(
        [(e, {"v": 0} if with_metadata and rng.random() < 0.5 else None) for e in elements],
        membership,
        region_side,
    )
    return build_trace(initial, schedule, phases, declarations)


REGION_SIDE = {"lab": "environment", "core": "system", "sink": "system"}


def ev(step, kind, moved, src, dst):
    return TransferEvent.make(
        step=step, kind=kind, moved=frozenset(moved), from_region=src, to_region=dst
    )


def declarations_over(elements, scope=("core", "sink")):
    """One structure per role; input holds all singletons, the others are
    kept single-tuple so carrier changes are easy to stage."""
    first = sorted(elements)[0]
    return [
        StructureRelation(id="accepting", role="input", arity=1,
                          tuples=frozenset((e,) for e in elements),
                          scope=frozenset(scope)),
        StructureRelation(id="routing", role="processing", arity=2,
                          tuples=frozenset({(first, first)}),
                          scope=frozenset(scope)),
        StructureRelation(id="emitting", role="output", arity=1,
                          tuples=frozenset({(first,)}),
                          scope=frozenset(scope)),
    ]


def out_and_back(wanderer, bystander, extra_steps=0, trips=1):
    """`wanderer` leaves at step 0 and returns at step 1, `trips` times over;
    carriers blink."""
    s0 = make_snapshot(
        [(wanderer, None), (bystander, None)],
        {wanderer: "core", bystander: "core"},
        dict(REGION_SIDE),
    )
    schedule = []
    for trip in range(trips):
        schedule.append([ev(2 * trip, EXTERNAL_OUT, (wanderer,), "core", "lab")])
        schedule.append([ev(2 * trip + 1, EXTERNAL_IN, (wanderer,), "lab", "core")])
    schedule.extend([] for _ in range(extra_steps))
    return build_trace(
        s0, schedule, declarations=declarations_over((wanderer, bystander))
    )


def steady_trace(names, steps=2):
    """Carrier elements never move; a courier shuttles to make real steps."""
    rows = [(n, None) for n in names] + [("courier", None)]
    membership = {n: "core" for n in names}
    membership["courier"] = "lab"
    s0 = make_snapshot(rows, membership, dict(REGION_SIDE))
    schedule = []
    for i in range(steps):
        src, dst, kind = (
            ("lab", "core", EXTERNAL_IN) if i % 2 == 0 else ("core", "lab", EXTERNAL_OUT)
        )
        schedule.append([ev(i, kind, ("courier",), src, dst)])
    return build_trace(s0, schedule, declarations=declarations_over(names))


def eager_snapshots(t: Trace) -> list[Snapshot]:
    """Every snapshot of `t`, folded by apply_step from the initial one."""
    snapshots = [t.initial]
    for events in t.events:
        snapshots.append(apply_step(snapshots[-1], list(events)))
    return snapshots


def conservation_scan(snapshots) -> list[ConservationViolation]:
    """The oracle for `verify_conservation`: compare each snapshot's count
    and element ids with the first snapshot's."""
    violations = []
    base, *later = snapshots
    expected_total = len(base.membership)
    roster = base.membership.keys()
    for i, snap in enumerate(later):
        total = len(snap.membership)
        if total != expected_total:
            violations.append(
                ConservationViolation(
                    step=i, kind="cardinality", expected=expected_total, actual=total
                )
            )
        elif snap.membership.keys() != roster:
            violations.append(
                ConservationViolation(
                    step=i,
                    kind="roster",
                    expected=expected_total,
                    actual=len(roster & snap.membership.keys()),
                )
            )
    return violations


def snapshot_functor(t: Trace) -> TimeFunctor:
    """The oracle for `functor_from_trace`: `carrier_at` on each replayed
    snapshot, then one backward pass in which a tuple present at i+1 keeps
    its run end from there and any other tuple's run ends at i."""
    decls = [t.declarations_by_role()[role][0] for role in FUNCTOR_ROLES]
    objects = tuple(
        IntelligenceObject(i, *(carrier_at(decl, snap) for decl in decls))
        for i, snap in enumerate(t.snapshots)
    )
    runs, later = [], ({},) * len(FUNCTOR_ROLES)
    for obj in reversed(objects):
        later = tuple(
            {x: ends.get(x, obj.step) for x in carrier}
            for carrier, ends in zip(obj.carriers(), later)
        )
        runs.append(later)
    return TimeFunctor(n=t.n_steps, objects=objects, run_ends=tuple(reversed(runs)))


def intersection_table(objects):
    """Arrow (i, j) as the identity on the tuples of every carrier from i to j,
    built by intersecting the carriers: the table a trace functor's run ends
    must reproduce."""
    table = {}
    for i, a in enumerate(objects):
        kept = a.carriers()
        for j in range(i, len(objects)):
            b = objects[j]
            kept = tuple(x & y for x, y in zip(kept, b.carriers()))
            table[(i, j)] = IntelligenceMorphism(a, b, *({x: x for x in c} for c in kept))
    return table


def table_pullback(o, table):
    """Arrow (i, j) over the steps of object map `o` as `table`'s arrow
    (o(i), o(j)): the table of a mimicry functor's pullback."""
    return {(i, j): table[(o[i], o[j])] for i in range(len(o)) for j in range(i, len(o))}


def check_every_arrow(src_table, tgt_table, count, components) -> None:
    """The oracle for mimicry's survival check: raise on the first source
    arrow among `count` steps, in sorted order, that is missing, maps to a
    target arrow the pulled-back table lacks, or has a square that fails."""
    for i, j in ((i, j) for i in range(count) for j in range(i, count)):
        if (i, j) not in src_table:
            raise MimicryError("source category lacks an arrow", counterexample=(i, j))
        if (i, j) not in tgt_table:
            raise MimicryError("target category lacks the mapped arrow", counterexample=(i, j))
        src_m, tgt_m = src_table[(i, j)], tgt_table[(i, j)]
        for role in FUNCTOR_ROLES:
            comp = components[role]
            tgt_map = tgt_m.component(role)
            for x, y in sorted(src_m.component(role).items()):
                if comp[x] not in tgt_map:
                    raise MimicryError(
                        f"{role} image does not survive in the target",
                        counterexample=(i, j, role, x),
                    )
                if tgt_map[comp[x]] != comp[y]:
                    raise MimicryError(
                        f"{role} square does not commute",
                        counterexample=(i, j, role, x),
                    )


# compact sorted JSON, in which a number that is not finite raises ValueError;
# built once, as json.dumps with these keyword arguments builds one per call
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def _declaration_to_dict(d: StructureRelation) -> dict:
    return {
        "id": d.id,
        "role": d.role,
        "arity": d.arity,
        "factors": list(d.factors),
        "scope": sorted(d.scope),
        "tuples": sorted(list(t) for t in d.tuples),
    }


def _event_to_dict(ev: TransferEvent) -> dict:
    return {
        "kind": ev.kind,
        "from": ev.from_region,
        "to": ev.to_region,
        "moved": sorted(ev.moved),
        "via": ev.via_structure,
        "updates": {eid: dict(attrs) for eid, attrs in ev.state_updates},
    }


def reference_trace_text(t: Trace) -> str:
    """The oracle for `trace_to_text`: a dict for the header and for each
    step, each encoded by the sorting encoder."""
    initial = t.initial
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "elements": sorted(
            [eid, region, initial.states[eid]]
            for eid, region in initial.membership.items()
        ),
        "regions": sorted([r, side] for r, side in initial.region_side.items()),
        "declarations": [_declaration_to_dict(d) for d in t.declarations],
        "phases": [[p.label, p.start, p.stop] for p in t.phases],
    }
    lines = []
    try:
        lines.append(_dumps(header))
        for i, step_events in enumerate(t.events):
            lines.append(_dumps({"step": i, "events": [_event_to_dict(e) for e in step_events]}))
    except ValueError:
        where = f"step {len(lines) - 1}: a state update" if lines else "an initial state"
        raise ConstructionError(f"{where} holds a number that is not finite") from None
    return "\n".join(lines) + "\n"


def nearest_centroid_predictions(
    train_x: np.ndarray, train_y: list[int], test_x: np.ndarray
) -> list[int]:
    """Independent oracle for the pattern task: closest class mean wins."""
    classes = sorted(set(train_y))
    centroids = np.stack(
        [train_x[[i for i, y in enumerate(train_y) if y == c]].mean(axis=0) for c in classes]
    )
    out = []
    for x in test_x:
        d = np.linalg.norm(centroids - x, axis=1)
        out.append(classes[int(np.argmin(d))])
    return out


def scenario_patterns(cfg):
    """Re-derive the pattern task a seeded scenario used, without its code.

    Mirrors the documented sampling contract: one seeded generator, class
    labels round-robin, prototypes are grid rows, noise flips pixels, an
    all-dark draw falls back to the prototype. Kept here so accuracy checks
    rest on an implementation the package does not share.
    """
    rng = np.random.default_rng(cfg.seed)
    n_px = cfg.pattern_size * cfg.pattern_size
    protos = np.zeros((cfg.class_count, n_px), dtype=np.int64)
    for c in range(cfg.class_count):
        protos[c, c * cfg.pattern_size : (c + 1) * cfg.pattern_size] = 1

    def draw(labels):
        out = np.empty((len(labels), n_px), dtype=np.int64)
        for i, y in enumerate(labels):
            flips = rng.random(n_px) < cfg.noise
            x = protos[y] ^ flips
            if x.sum() == 0:
                x = protos[y].copy()
            out[i] = x
        return out

    learn_labels = [t % cfg.class_count for t in range(cfg.trials)]
    test_labels = [u % cfg.class_count for u in range(cfg.test_count)]
    return draw(learn_labels), learn_labels, draw(test_labels), test_labels


def read_ordered(path) -> Trace:
    """The oracle for `read_trace`: the header, then `_step` on every step
    line, then `build_trace`, with faults named as `read_trace` names them."""
    lines = _read_text(path, TraceFormatError).splitlines()
    if not lines:
        raise TraceFormatError("empty trace file")
    line_no = 1
    try:
        initial, declarations, phases = _header(lines[0])
        schedule = []
        for line_no, line in enumerate(lines[1:], start=2):
            schedule.append(_step(line, line_no - 2))
        line_no = 1
        return build_trace(initial, schedule, phases, declarations)
    except StepError:
        raise
    except KeyError as exc:
        part = "header" if line_no == 1 else "event"
        raise TraceFormatError(f"line {line_no}: malformed {part} (missing {exc})") from None
    except ConstructionError as exc:
        raise TraceFormatError(f"line {line_no}: {exc}") from None


def outcome(read, path):
    """The trace `read` reads from `path`, or the type and message of its refusal."""
    try:
        return read(path)
    except ConstructionError as exc:
        return type(exc), str(exc)
