"""Finite time category, intelligence objects, and functors between them.

Objects of the time category are step indices 0..n with exactly one arrow
i -> j when i <= j. A trace induces a functor into intelligence objects:
each step yields the triple of role carriers evaluated at that snapshot,
and each arrow yields the map that follows tuples which stay in scope the
whole way (tuples that leave scope drop out of the map's domain). An
intelligence category is its time functor's own object and arrow tables,
so `IntelligenceCategory` is another name for `TimeFunctor`. Mimicry
functors relate two such intelligence categories through per-role tuple
maps; validation demands totality on the source carriers and commutation
with time evolution. A mimicry functor applied after its source's time
functor is itself a time functor, its pullback, so a mimicry functor's laws
are checked as its pullback's. All law checking is extensional, so every
report can name the object, arrow or triple that broke.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .evolution import Trace
from .universe import ConstructionError, ElementId, StructureRelation, carrier_at

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
]

FUNCTOR_ROLES = ("input", "processing", "output")

Tuple_ = tuple[ElementId, ...]
Carrier = frozenset[Tuple_]
MapPairs = tuple[tuple[Tuple_, Tuple_], ...]


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
        """Arrow for `first` followed by `second`; endpoints must chain."""
        self._check(first.source)
        self._check(second.target)
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
    no surviving image is simply absent. Pairs are kept sorted so equality
    is extensional.
    """

    source: IntelligenceObject
    target: IntelligenceObject
    input_map: MapPairs
    processing_map: MapPairs
    output_map: MapPairs

    def maps(self) -> tuple[MapPairs, MapPairs, MapPairs]:
        """The three map tables in FUNCTOR_ROLES order."""
        return (self.input_map, self.processing_map, self.output_map)

    def component(self, role: str) -> dict[Tuple_, Tuple_]:
        return dict(_by_role(role, self.maps()))


def _pack(mapping: dict[Tuple_, Tuple_]) -> MapPairs:
    return tuple(sorted(mapping.items()))


def _make_morphism(
    source: IntelligenceObject,
    target: IntelligenceObject,
    maps: list[dict[Tuple_, Tuple_]],
) -> IntelligenceMorphism:
    """Check and pack one map per role, given in FUNCTOR_ROLES order."""
    roles = zip(FUNCTOR_ROLES, maps, source.carriers(), target.carriers())
    for role, mapping, src, dst in roles:
        for x, y in mapping.items():
            if x not in src or y not in dst:
                raise ConstructionError(
                    f"{role} map pair {x} -> {y} leaves the carriers"
                )
    return IntelligenceMorphism(source, target, *map(_pack, maps))


def _partial_identity(
    source: IntelligenceObject, target: IntelligenceObject, kept: tuple[Carrier, ...]
) -> IntelligenceMorphism:
    """The morphism fixing the `kept` tuples of each role and nothing else."""
    return _make_morphism(source, target, [{x: x for x in c} for c in kept])


def identity_morphism(obj: IntelligenceObject) -> IntelligenceMorphism:
    return _partial_identity(obj, obj, obj.carriers())


def compose_morphisms(
    first: IntelligenceMorphism, second: IntelligenceMorphism
) -> IntelligenceMorphism:
    """`first` followed by `second`; composition of partial maps."""
    if first.target != second.source:
        raise ConstructionError("morphisms do not chain")
    maps = [_compose_maps(dict(f), dict(g)) for f, g in zip(first.maps(), second.maps())]
    return _make_morphism(first.source, second.target, maps)


@dataclass(frozen=True, eq=True)
class TimeFunctor:
    """Tables sending step i to an object and arrow (i, j) to a morphism.

    The same tables are the intelligence category the functor carves out,
    so a time functor also serves as a mimicry functor's source or target.
    """

    n: int
    objects: tuple[IntelligenceObject, ...]
    morphism_table: tuple[tuple[tuple[int, int], IntelligenceMorphism], ...]

    @cached_property
    def _arrows(self) -> dict[tuple[int, int], IntelligenceMorphism]:
        return dict(self.morphism_table)

    def table(self) -> dict[tuple[int, int], IntelligenceMorphism]:
        """Arrow (i, j) to its morphism; shared by every caller, not to be mutated."""
        return self._arrows

    def object_at(self, i: int) -> IntelligenceObject:
        return self.objects[i]

    def morphism(self, i: int, j: int) -> IntelligenceMorphism:
        return self._arrows[(i, j)]


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
    snapshot; everything else drops out of the domain, and the table is
    closed under composition by construction.
    """
    decls = _role_declarations(t)
    n = t.n_steps
    objects = tuple(
        IntelligenceObject(
            i, *(carrier_at(decls[role], t.snapshots[i]) for role in FUNCTOR_ROLES)
        )
        for i in range(n + 1)
    )

    # arrow (i, j) keeps the tuples present in every carrier from i to j
    table: dict[tuple[int, int], IntelligenceMorphism] = {}
    for i in range(n + 1):
        kept = objects[i].carriers()
        for j in range(i, n + 1):
            kept = tuple(a & b for a, b in zip(kept, objects[j].carriers()))
            table[(i, j)] = _partial_identity(objects[i], objects[j], kept)

    return TimeFunctor(
        n=n, objects=objects, morphism_table=tuple(sorted(table.items()))
    )


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
    input_component: MapPairs
    processing_component: MapPairs
    output_component: MapPairs

    def component(self, role: str) -> dict[Tuple_, Tuple_]:
        maps = (self.input_component, self.processing_component, self.output_component)
        return dict(_by_role(role, maps))

    def morphism_for(self, i: int, j: int) -> IntelligenceMorphism:
        return self.target.morphism(self.object_map[i], self.object_map[j])


def _pullback(g: MimicryFunctor) -> TimeFunctor:
    """The time functor over g's source steps that sends step i to target
    object o(i) and arrow (i, j) to the target's arrow (o(i), o(j)).

    Arrows the target lacks are left out, so the law sweep reports them.
    """
    o = g.object_map
    tgt_table = g.target.table()
    return TimeFunctor(
        n=len(o) - 1,
        objects=tuple(g.target.objects[x] for x in o),
        morphism_table=tuple(
            ((i, j), tgt_table[(o[i], o[j])])
            for i, j in _arrows(len(o))
            if (o[i], o[j]) in tgt_table
        ),
    )


def mimicry_functor(
    source: IntelligenceCategory,
    target: IntelligenceCategory,
    object_map: tuple[int, ...] | list[int],
    components: dict[str, dict[Tuple_, Tuple_]],
) -> MimicryFunctor:
    """Validate and build a mimicry functor.

    Checks, in order: all three component maps present; object map total,
    in range, and monotone; components total on every source carrier and
    landing in the mapped object's carrier of the same role; every source
    arrow (i, j) present, with the target's (o(i), o(j)) present too;
    commutation with time evolution (a tuple that survives from i to j in
    the source must have an image surviving from o(i) to o(j) in the
    target, and the two paths around the square must agree).
    """
    for role in FUNCTOR_ROLES:
        if role not in components:
            raise MimicryError(f"missing component map for role {role!r}")

    o = tuple(object_map)
    if len(o) != len(source.objects):
        raise MimicryError(
            f"object map covers {len(o)} objects, source has {len(source.objects)}"
        )
    for i, oi in enumerate(o):
        if not (0 <= oi < len(target.objects)):
            raise MimicryError(
                "object map leaves the target", counterexample=(i, oi)
            )
    for i in range(len(o) - 1):
        if o[i] > o[i + 1]:
            raise MimicryError(
                "object map is not monotone", counterexample=(i, i + 1)
            )

    for i, obj in enumerate(source.objects):
        for role in FUNCTOR_ROLES:
            comp = components[role]
            target_carrier = target.objects[o[i]].carrier(role)
            for x in sorted(obj.carrier(role)):
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

    src_table = source.table()
    tgt_table = target.table()
    for i, j in _arrows(len(o)):
        if (i, j) not in src_table:
            raise MimicryError("source category lacks an arrow", counterexample=(i, j))
        if (o[i], o[j]) not in tgt_table:
            raise MimicryError(
                "target category lacks the mapped arrow", counterexample=(i, j)
            )
        src_m, tgt_m = src_table[(i, j)], tgt_table[(o[i], o[j])]
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

    return MimicryFunctor(
        source, target, o, *(_pack(components[role]) for role in FUNCTOR_ROLES)
    )


def identity_functor(cat: IntelligenceCategory) -> MimicryFunctor:
    components = {
        role: {x: x for obj in cat.objects for x in obj.carrier(role)}
        for role in FUNCTOR_ROLES
    }
    return mimicry_functor(cat, cat, tuple(range(len(cat.objects))), components)


def compose_functors(first, second):
    """Diagrammatic composition: apply `first`, then `second`.

    A time functor composed with a mimicry functor yields a time functor
    into the mimicry's target; two mimicry functors compose into one. The
    categories must actually meet in the middle; nothing is reordered.
    """
    if isinstance(first, TimeFunctor) and isinstance(second, MimicryFunctor):
        if first != second.source:
            raise ConstructionError(
                "functor composition mismatch: first functor's image is not "
                "the second functor's source category"
            )
        return _pullback(second)
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
    law: str  # "identity", "composition", or "gap"
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


def check_functor_laws(f) -> LawReport:
    """Extensional identity and composition sweep; gaps are failures too.

    A mimicry functor is checked as its pullback, the time functor it
    induces over its source's steps.
    """
    if isinstance(f, MimicryFunctor):
        f = _pullback(f)
    if not isinstance(f, TimeFunctor):
        raise ConstructionError("law check expects a time or mimicry functor")
    table = f.table()
    failures: list[LawFailure] = []
    for i, j in _arrows(f.n + 1):
        m = table.get((i, j))
        if m is None:
            failures.append(LawFailure("gap", (i, j), "missing morphism entry"))
        elif m.source != f.objects[i] or m.target != f.objects[j]:
            failures.append(LawFailure("gap", (i, j), "table entry has wrong endpoints"))
        elif i == j and m != identity_morphism(f.objects[i]):
            failures.append(
                LawFailure("identity", (i,), f"table entry at {(i, j)} is not the identity")
            )

    triples = 0
    for i, j in _arrows(f.n + 1):
        if (i, j) not in table:
            continue
        for k in range(j, f.n + 1):
            if (j, k) not in table or (i, k) not in table:
                continue
            triples += 1
            if compose_morphisms(table[(i, j)], table[(j, k)]) != table[(i, k)]:
                failures.append(
                    LawFailure(
                        "composition",
                        (i, j, k),
                        "composite of the two legs differs from the table entry",
                    )
                )
    return LawReport(
        objects_checked=f.n + 1, triples_checked=triples, failures=tuple(failures)
    )
