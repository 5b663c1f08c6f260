"""Finite time category, intelligence objects, and functors between them.

Objects of the time category are step indices 0..n with exactly one arrow
i -> j when i <= j. A trace induces a functor into intelligence objects:
each step yields the triple of role carriers in scope at that step, and
each arrow yields the map that follows tuples which stay in scope the
whole way (tuples that leave scope drop out of the map's domain). An
intelligence category is its time functor's own object and arrow tables,
so `IntelligenceCategory` is another name for `TimeFunctor`. Mimicry
functors relate two such intelligence categories through per-role tuple
maps; validation demands totality on the source carriers and commutation
with time evolution, decided on the mimicry functor's pullback: the time
functor it makes of its source's steps, built once and shared with the
law check and composition.

A time functor stores no arrows. The category is generated by its steps
(i, i+1), and arrow (i, j) is the identity on the tuples present at every
step from i to j, so the functor keeps, per step and role, each carrier
tuple's run end: the last step its presence reaches without a gap, and
`morphism(i, j)` is the partial identity on the tuples of carrier i whose
run end is >= j. The carriers come from the trace's initial snapshot and
its events, not from replayed snapshots: a step re-tests only the declared
tuples that hold an element it moved, and a role's carrier that a step
leaves as it was is the last step's frozenset. One backward pass gives the
run ends, and a step whose carrier is the next step's object shares that
step's run-end dict. Every reader of the steps then follows one rule: a
step whose inputs are the same objects as its neighbour's has its
neighbour's answer. The table of all O(n^2) arrows is a view of the run
ends, built only when `table()` is read.

Law checking is extensional, so every report can name the object, arrow or
triple that broke. `check_functor_laws` checks run ends in one linear pass:
run ends that pass make each arrow the composite of its steps, so every
triple commutes. Only when they fail does it fall back to the sweep over
all triples i <= j <= k of the table view, `sweep_functor_laws`, which is
its oracle and names every broken triple. A mimicry functor's object map
must be monotone and in range, and along such a map the pullback holds run
ends too. Mimicry validation compares each tuple's run end with its image's
in the pullback and names the first counterexample of the loop over every
source arrow, its oracle in the tests.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

from .evolution import Trace
from .universe import ConstructionError, ElementId, StructureRelation, _in_scope, carrier_at

__all__ = [
    "FUNCTOR_ROLES",
    "TimeMorphism",
    "TimeCategoryDescriptor",
    "time_category",
    "IntelligenceObject",
    "IntelligenceMorphism",
    "identity_morphism",
    "compose_morphisms",
    "TimeFunctor",
    "functor_from_trace",
    "IntelligenceCategory",
    "intelligence_category",
    "MimicryError",
    "MimicryFunctor",
    "mimicry_functor",
    "identity_functor",
    "compose_functors",
    "LawFailure",
    "LawReport",
    "check_functor_laws",
    "sweep_functor_laws",
]

FUNCTOR_ROLES = ("input", "processing", "output")

Tuple_ = tuple[ElementId, ...]
Carrier = frozenset[Tuple_]
# per role, in FUNCTOR_ROLES order: each tuple of one step's carrier to its run end
RunEnds = tuple[dict[Tuple_, int], ...]


def _by_role(role: str, per_role: tuple):
    """The entry of `per_role`, listed in FUNCTOR_ROLES order, for `role`."""
    if role not in FUNCTOR_ROLES:
        raise ConstructionError(f"unknown role {role!r}")
    return per_role[FUNCTOR_ROLES.index(role)]


def _compose_maps(f: dict[Tuple_, Tuple_], g: dict[Tuple_, Tuple_]) -> dict:
    """`f` then `g` as partial maps: defined where both steps are."""
    return {x: g[y] for x, y in f.items() if y in g}


def _arrows(count: int):
    """The arrows (i, j), i <= j, among `count` steps, in sorted order."""
    return ((i, j) for i in range(count) for j in range(i, count))


@dataclass(frozen=True, eq=True)
class TimeMorphism:
    """The unique arrow from step `source` to step `target`, source <= target."""

    source: int
    target: int


@dataclass(frozen=True, eq=True)
class TimeCategoryDescriptor:
    """Steps 0..n with hom(i, j) a singleton iff i <= j, empty otherwise."""

    n: int

    def objects(self) -> range:
        return range(self.n + 1)

    def _check(self, i: int) -> None:
        if not (0 <= i <= self.n):
            raise ConstructionError(f"object {i} outside 0..{self.n}")

    def hom(self, i: int, j: int) -> tuple[TimeMorphism, ...]:
        self._check(i)
        self._check(j)
        if i <= j:
            return (TimeMorphism(i, j),)
        return ()

    def identity(self, i: int) -> TimeMorphism:
        self._check(i)
        return TimeMorphism(i, i)

    def compose(self, first: TimeMorphism, second: TimeMorphism) -> TimeMorphism:
        """Arrow for `first` followed by `second`: both arrows of this
        category, with endpoints that chain."""
        for arrow in (first, second):
            self._check(arrow.source)
            self._check(arrow.target)
            if arrow.source > arrow.target:
                raise ConstructionError(
                    f"no arrow {arrow.source}->{arrow.target}: it runs backwards"
                )
        if first.target != second.source:
            raise ConstructionError(
                f"arrows do not chain: {first.source}->{first.target} "
                f"then {second.source}->{second.target}"
            )
        return TimeMorphism(first.source, second.target)


def time_category(n: int) -> TimeCategoryDescriptor:
    if n < 0:
        raise ConstructionError("object count bound must be >= 0")
    return TimeCategoryDescriptor(n=n)


@dataclass(frozen=True, eq=True)
class IntelligenceObject:
    """Role carriers frozen at one step: the (input, processing, output) triple."""

    step: int
    input_carrier: Carrier
    processing_carrier: Carrier
    output_carrier: Carrier

    def carriers(self) -> tuple[Carrier, Carrier, Carrier]:
        """The three carriers in FUNCTOR_ROLES order."""
        return (self.input_carrier, self.processing_carrier, self.output_carrier)

    def carrier(self, role: str) -> Carrier:
        return _by_role(role, self.carriers())


@dataclass(frozen=True, eq=True)
class IntelligenceMorphism:
    """Extensional per-role tuple maps between two intelligence objects.

    Map domains may be proper subsets of the source carriers: a tuple with
    no surviving image is simply absent. Each map is a dict, shared by every
    reader and never mutated.
    """

    source: IntelligenceObject
    target: IntelligenceObject
    input_map: dict[Tuple_, Tuple_]
    processing_map: dict[Tuple_, Tuple_]
    output_map: dict[Tuple_, Tuple_]

    def maps(self) -> tuple[dict[Tuple_, Tuple_], ...]:
        """The three map tables in FUNCTOR_ROLES order."""
        return (self.input_map, self.processing_map, self.output_map)

    def component(self, role: str) -> dict[Tuple_, Tuple_]:
        return _by_role(role, self.maps())


def _make_morphism(
    source: IntelligenceObject, target: IntelligenceObject, maps: list[dict[Tuple_, Tuple_]]
) -> IntelligenceMorphism:
    """Check one map per role, given in FUNCTOR_ROLES order."""
    roles = zip(FUNCTOR_ROLES, maps, source.carriers(), target.carriers())
    for role, mapping, src, dst in roles:
        for x, y in mapping.items():
            if x not in src or y not in dst:
                raise ConstructionError(
                    f"{role} map pair {x} -> {y} leaves the carriers"
                )
    return IntelligenceMorphism(source, target, *maps)


def identity_morphism(obj: IntelligenceObject) -> IntelligenceMorphism:
    return IntelligenceMorphism(obj, obj, *({x: x for x in c} for c in obj.carriers()))


def compose_morphisms(
    first: IntelligenceMorphism, second: IntelligenceMorphism
) -> IntelligenceMorphism:
    """`first` followed by `second`; composition of partial maps."""
    if first.target != second.source:
        raise ConstructionError("morphisms do not chain")
    maps = [_compose_maps(f, g) for f, g in zip(first.maps(), second.maps())]
    return _make_morphism(first.source, second.target, maps)


@dataclass(frozen=True)
class TimeFunctor:
    """Step i to an object and arrow (i, j) to a morphism, held as run ends.

    `run_ends` holds, at each step i and for each role, every tuple of
    carrier i mapped to the last step j >= i such that the tuple is present
    at every step from i to j. Arrow (i, j) is the partial identity on the
    tuples whose run end is >= j, made on demand. Equality compares `n`,
    the objects and the run ends.

    The same data are the intelligence category the functor carves out, so a
    time functor also serves as a mimicry functor's source or target.
    """

    n: int
    objects: tuple[IntelligenceObject, ...]
    run_ends: tuple[RunEnds, ...] = field(repr=False)

    def __post_init__(self) -> None:
        steps = self.n + 1
        if steps < 1 or len(self.objects) != steps or len(self.run_ends) != steps:
            raise ConstructionError(
                f"a time functor with n = {self.n} holds n+1 objects and n+1 steps of run "
                f"ends, not {len(self.objects)} and {len(self.run_ends)}"
            )
        if set(map(len, self.run_ends)) != {len(FUNCTOR_ROLES)}:
            raise ConstructionError("each step of run ends holds one dict per role")

    def table(self) -> dict[tuple[int, int], IntelligenceMorphism]:
        """Arrow (i, j) to its morphism, built on first use: O(n^2) morphisms,
        shared by every caller and not to be mutated."""
        return self._run_table

    @cached_property
    def _run_table(self) -> dict[tuple[int, int], IntelligenceMorphism]:
        return {(i, j): self.morphism(i, j) for i, j in _arrows(self.n + 1)}

    @cached_property
    def _lawful_runs(self) -> bool:
        """`_runs_hold` on this functor, computed once: the law check and
        mimicry validation both read it."""
        return _runs_hold(self)

    def object_at(self, i: int) -> IntelligenceObject:
        return self.objects[i]

    def morphism(self, i: int, j: int) -> IntelligenceMorphism:
        if not 0 <= i <= j <= self.n:
            raise KeyError((i, j))
        kept = ({x: x for x, end in ends.items() if end >= j} for ends in self.run_ends[i])
        return IntelligenceMorphism(self.objects[i], self.objects[j], *kept)


IntelligenceCategory = TimeFunctor


def _role_declarations(t: Trace) -> dict[str, StructureRelation]:
    by_role = t.declarations_by_role()
    picked: dict[str, StructureRelation] = {}
    for role in FUNCTOR_ROLES:
        found = by_role.get(role, [])
        if len(found) != 1:
            raise ConstructionError(
                f"trace must declare exactly one {role} structure, found {len(found)}"
            )
        picked[role] = found[0]
    return picked


def functor_from_trace(t: Trace) -> TimeFunctor:
    """Build the step-indexed functor a trace induces.

    Morphisms follow tuples that stay in scope through every intermediate
    snapshot; everything else drops out of the domain. The functor stores
    the run ends of its carrier tuples, not its arrows.

    No snapshot is replayed. One running membership follows the events
    from the initial snapshot, and an index from each element to the
    declared tuples that hold it names the tuples a step re-tests, with
    `carrier_at`'s presence test. A role whose carrier a step leaves as it
    was keeps the last step's frozenset, and so the same run-end dict. The
    build is O(steps + moves + declared tuples), and the functor holds one
    frozenset and one dict per role for each stretch of unchanged steps.
    """
    decls = list(_role_declarations(t).values())  # in FUNCTOR_ROLES order
    holding: dict[ElementId, list[tuple[int, Tuple_]]] = {}
    for r, decl in enumerate(decls):
        for tup in decl.tuples:
            for e in set(tup):
                holding.setdefault(e, []).append((r, tup))
    membership = dict(t.initial.membership)
    present = [set(carrier_at(decl, t.initial)) for decl in decls]
    carriers = [tuple(frozenset(c) for c in present)]
    for events in t.events:
        retest = set()
        for ev in events:
            for e in ev.moved:  # the replay's moves, in its order
                membership[e] = ev.to_region
                retest.update(holding.get(e, ()))
        changed = set()
        for r, tup in retest:
            if _in_scope(tup, membership, decls[r].scope) != (tup in present[r]):
                present[r] ^= {tup}
                changed.add(r)
        last = carriers[-1]
        if changed:
            last = tuple(frozenset(c) if r in changed else was
                         for r, (c, was) in enumerate(zip(present, last)))
        carriers.append(last)
    objects = tuple(IntelligenceObject(i, *c) for i, c in enumerate(carriers))

    # backwards: a tuple present at i+1 keeps its run end from there, any
    # other tuple's run ends at i; a carrier that is step i+1's object has
    # step i+1's ends
    runs: list[RunEnds] = []
    later: RunEnds = ({},) * len(FUNCTOR_ROLES)
    after: tuple = (None,) * len(FUNCTOR_ROLES)
    for i in range(t.n_steps, -1, -1):
        if carriers[i] is not after:
            later = tuple(
                ends if carrier is next_carrier else {x: ends.get(x, i) for x in carrier}
                for carrier, next_carrier, ends in zip(carriers[i], after, later)
            )
            after = carriers[i]
        runs.append(later)
    return TimeFunctor(n=t.n_steps, objects=objects, run_ends=tuple(reversed(runs)))


def intelligence_category(f: TimeFunctor) -> IntelligenceCategory:
    """The category `f` carves out, which is `f` itself."""
    return f


class MimicryError(ConstructionError):
    """A mimicry candidate fails validation; carries the breaking case."""

    def __init__(self, message: str, counterexample: tuple | None = None):
        if counterexample is not None:
            message = f"{message} (counterexample: {counterexample})"
        super().__init__(message)
        self.counterexample = counterexample


@dataclass(frozen=True, eq=True)
class MimicryFunctor:
    """Structure-preserving map from one intelligence category into another.

    ``object_map[i]`` names the target object imitating source object i; the
    three component tables translate carrier tuples role by role. Arrows map
    to the target's own arrows between the mapped endpoints.
    """

    source: IntelligenceCategory
    target: IntelligenceCategory
    object_map: tuple[int, ...]
    input_component: dict[Tuple_, Tuple_]
    processing_component: dict[Tuple_, Tuple_]
    output_component: dict[Tuple_, Tuple_]

    def component(self, role: str) -> dict[Tuple_, Tuple_]:
        maps = (self.input_component, self.processing_component, self.output_component)
        return _by_role(role, maps)

    def morphism_for(self, i: int, j: int) -> IntelligenceMorphism:
        return self.target.morphism(self.object_map[i], self.object_map[j])

    @cached_property
    def _pullback(self) -> TimeFunctor:
        """The time functor over the source steps that sends step i to target
        object o(i) and arrow (i, j) to the target's arrow (o(i), o(j)).

        The object map o must stay in the target and be monotone, or this
        raises `mimicry_functor`'s error for it. Run ends then pull back to
        run ends: a tuple of target carrier o(i) whose run end there is R runs
        to the last step j with o(j) <= R. That depends on the target's dict
        alone, so each distinct one is pulled back once and shared by every
        step that reads it.
        """
        o, tgt = self.object_map, self.target
        for i, oi in enumerate(o):
            if not (0 <= oi <= tgt.n):
                raise MimicryError("object map leaves the target", counterexample=(i, oi))
        for i in range(len(o) - 1):
            if o[i] > o[i + 1]:
                raise MimicryError("object map is not monotone", counterexample=(i, i + 1))
        objects = tuple(tgt.objects[x] for x in o)
        distinct = {id(ends): ends for x in set(o) for ends in tgt.run_ends[x]}
        pulled = {
            key: {y: bisect_right(o, end) - 1 for y, end in ends.items()}
            for key, ends in distinct.items()
        }
        runs = tuple(tuple(pulled[id(ends)] for ends in tgt.run_ends[x]) for x in o)
        return TimeFunctor(n=len(o) - 1, objects=objects, run_ends=runs)


def mimicry_functor(
    source: IntelligenceCategory,
    target: IntelligenceCategory,
    object_map: tuple[int, ...] | list[int],
    components: dict[str, dict[Tuple_, Tuple_]],
) -> MimicryFunctor:
    """Validate and build a mimicry functor.

    Checks, in order: all three component maps present; object map total,
    then in range and monotone, as the pullback that the returned functor
    keeps is built; components total on every source carrier and landing in
    the mapped object's carrier of the same role; run ends of the source and
    of the pullback that meet the laws; commutation with time evolution (a
    tuple that survives from i to j in the source must have an image
    surviving from o(i) to o(j) in the target), decided once per tuple from
    the run ends of the source and the pullback.
    """
    for role in FUNCTOR_ROLES:
        if role not in components:
            raise MimicryError(f"missing component map for role {role!r}")

    o = tuple(object_map)
    if len(o) != len(source.objects):
        raise MimicryError(
            f"object map covers {len(o)} objects, source has {len(source.objects)}"
        )
    # copies, so the caller's later edits cannot reach a validated functor
    g = MimicryFunctor(source, target, o, *(dict(components[role]) for role in FUNCTOR_ROLES))
    pulled = g._pullback  # refuses an object map out of range or not monotone

    # a role whose source and target carriers are the step before's passes again
    before = ((None, None),) * len(FUNCTOR_ROLES)
    for i, (obj, image) in enumerate(zip(source.objects, pulled.objects)):
        pairs = tuple(zip(obj.carriers(), image.carriers()))
        for role, pair, (was, target_was) in zip(FUNCTOR_ROLES, pairs, before):
            carrier, target_carrier = pair
            if carrier is was and target_carrier is target_was:
                continue
            comp = components[role]
            for x in sorted(carrier):
                if x not in comp:
                    raise MimicryError(
                        f"{role} component undefined on a source tuple",
                        counterexample=(i, role, x),
                    )
                if comp[x] not in target_carrier:
                    raise MimicryError(
                        f"image tuple outside target {role} carrier",
                        counterexample=(i, role, x, comp[x]),
                    )
        before = pairs

    for name, f in (("source", source), ("target", pulled)):
        if not f._lawful_runs:
            raise MimicryError(f"the {name}'s run ends break the functor laws")
    _check_run_ends(source, pulled, components)
    return g


def _check_run_ends(source, pulled: TimeFunctor, components) -> None:
    """Raise on the first source arrow (i, j), in sorted order, whose image
    does not survive, from run ends that hold and components total on the
    source carriers and landing in the mapped ones.

    Every arrow is then a partial identity, so only survival can fail: tuple x
    of carrier i with run end e survives (i, j) while j <= e, and its image,
    with run end P in the pullback at i, survives while j <= P. The image is
    lost exactly when P < e, first at j = P + 1. That reads the two dicts
    alone, so a role whose dicts are the step before's loses nothing there.
    """
    maps = [components[role] for role in FUNCTOR_ROLES]
    was, images_were = (None,) * len(maps), (None,) * len(maps)
    for i, (ends, images) in enumerate(zip(source.run_ends, pulled.run_ends)):
        lost = [
            (images[r][comp[x]] + 1, r, x)
            for r, comp in enumerate(maps)
            if ends[r] is not was[r] or images[r] is not images_were[r]
            for x, e in ends[r].items()
            if images[r][comp[x]] < e
        ]
        if lost:  # the loop's order: least j, then role, then tuple
            j, r, x = min(lost)
            role = FUNCTOR_ROLES[r]
            raise MimicryError(
                f"{role} image does not survive in the target", counterexample=(i, j, role, x)
            )
        was, images_were = ends, images


def identity_functor(cat: IntelligenceCategory) -> MimicryFunctor:
    components = {
        role: {x: x for obj in cat.objects for x in obj.carrier(role)}
        for role in FUNCTOR_ROLES
    }
    return mimicry_functor(cat, cat, tuple(range(len(cat.objects))), components)


def compose_functors(first, second):
    """Diagrammatic composition: apply `first`, then `second`.

    A time functor composed with a mimicry functor yields a time functor
    into the mimicry's target, the pullback it keeps, which holds run ends
    and builds no table; two mimicry functors compose into one. The
    categories must actually meet in the middle; nothing is reordered.
    """
    if isinstance(first, TimeFunctor) and isinstance(second, MimicryFunctor):
        if first != second.source:
            raise ConstructionError(
                "functor composition mismatch: first functor's image is not "
                "the second functor's source category"
            )
        return second._pullback
    if isinstance(first, MimicryFunctor) and isinstance(second, MimicryFunctor):
        if first.target != second.source:
            raise ConstructionError(
                "functor composition mismatch: first functor's target is not "
                "the second functor's source category"
            )
        o = tuple(second.object_map[i] for i in first.object_map)
        components = {
            role: _compose_maps(first.component(role), second.component(role))
            for role in FUNCTOR_ROLES
        }
        return mimicry_functor(first.source, second.target, o, components)
    raise ConstructionError(
        "cannot compose: expected time-then-mimicry or mimicry-then-mimicry"
    )


@dataclass(frozen=True, eq=True)
class LawFailure:
    law: str  # "identity" or "composition"
    at: tuple[int, ...]
    detail: str


@dataclass(frozen=True, eq=True)
class LawReport:
    objects_checked: int
    triples_checked: int
    failures: tuple[LawFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _time_functor(f) -> TimeFunctor:
    """`f` itself, or a mimicry functor's pullback."""
    if isinstance(f, MimicryFunctor):
        f = f._pullback
    if not isinstance(f, TimeFunctor):
        raise ConstructionError("law check expects a time or mimicry functor")
    return f


def sweep_functor_laws(f) -> LawReport:
    """Extensional identity and composition sweep over the table view.

    The oracle for `check_functor_laws`: it compares each diagonal arrow
    with the identity, then composes every triple i <= j <= k. A composite
    that cannot be formed is a composition failure.
    """
    f = _time_functor(f)
    table = f.table()
    failures = [
        LawFailure("identity", (i,), f"table entry at {(i, i)} is not the identity")
        for i in range(f.n + 1)
        if table[(i, i)] != identity_morphism(f.objects[i])
    ]
    for i, j in _arrows(f.n + 1):
        for k in range(j, f.n + 1):
            try:
                composite = compose_morphisms(table[(i, j)], table[(j, k)])
            except ConstructionError as exc:
                detail = f"composite of the two legs cannot be formed: {exc}"
            else:
                if composite == table[(i, k)]:
                    continue
                detail = "composite of the two legs differs from the table entry"
            failures.append(LawFailure("composition", (i, j, k), detail))
    return LawReport(f.n + 1, comb(f.n + 3, 3), failures=tuple(failures))


def _runs_hold(f: TimeFunctor) -> bool:
    """Whether `f`'s run ends meet the laws.

    At each step i the run ends' keys must be carrier i, no end may lie
    below i, and an end beyond i must reappear unchanged at step i+1, so no
    end passes n. One backward pass. A role whose dict and carrier at i are
    the objects it has at i+1 meets these at i because it met them at i+1,
    so the pass costs O(n) plus the sizes of the distinct dicts. A functor
    keeps the answer as `_lawful_runs`, so mimicry validation and the law
    check make this pass once per functor. A tuple whose end at i is R then
    stays in every carrier from i to R with that end, so arrow (i, j), the
    identity on the tuples whose end is >= j, is (i, k-1) ; (k-1, k): each
    arrow is the composite of its steps, and every law holds. The ends need
    not be the longest runs: a pullback ends a run at i when its tuple
    leaves and comes back between target steps o(i) and o(i+1).
    """
    later: RunEnds = ({},) * len(FUNCTOR_ROLES)
    later_carriers: tuple = (None,) * len(FUNCTOR_ROLES)
    for i in range(f.n, -1, -1):
        carriers = f.objects[i].carriers()
        for ends, carrier, after, after_carrier in zip(
            f.run_ends[i], carriers, later, later_carriers
        ):
            if ends is after and carrier is after_carrier:
                continue
            if ends.keys() != carrier:
                return False
            if any(end < i or end > i and after.get(x) != end for x, end in ends.items()):
                return False
        later, later_carriers = f.run_ends[i], carriers
    return True


def check_functor_laws(f) -> LawReport:
    """Identity and composition laws.

    A mimicry functor is checked as its pullback, the time functor it
    induces over its source's steps. Run ends that meet the laws pass, with
    all C(n+3, 3) triples counted; anything else gets the report of
    `sweep_functor_laws`.
    """
    f = _time_functor(f)
    if f._lawful_runs:
        return LawReport(f.n + 1, comb(f.n + 3, 3), failures=())
    return sweep_functor_laws(f)
