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

A trace functor stores no arrows. The category is generated by its steps
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
neighbour's answer. The full table, O(n^2) morphisms, is built only when
`table()` is read: by the oracles and by hand-built functors, which hold a
table instead.

Law checking is extensional, so every report can name the object, arrow or
triple that broke. Along a monotone, in-range object map into a trace
functor the pullback is run-encoded too, and `check_functor_laws` checks
run ends in one linear pass for the law condition, which is the
factorisation through the steps. A table passes once every arrow i <= j is
present, with the right endpoints and identities on the diagonal, and each
arrow factors through its last step: (i, k) = (i, k-1) ; (k-1, k). By
induction each arrow is then the composite of its steps, and associativity
of partial maps makes every triple commute. Only when those checks fail
does it fall back to the sweep over all triples i <= j <= k of the table,
`sweep_functor_laws`, which is its oracle and names every broken triple.
Mimicry validation compares each tuple's run end with its image's in the
pullback and names the first counterexample of its oracle, the loop over
the arrows of the source and pullback tables, taken for hand-built ones.
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
    """Step i to an object and arrow (i, j) to a morphism, in one of two forms.

    A trace functor holds `run_ends`: at each step i and for each role, every
    tuple of carrier i mapped to the last step j >= i such that the tuple is
    present at every step from i to j. Arrow (i, j) is the partial identity
    on the tuples whose run end is >= j, made on demand. A hand-built functor
    holds `morphism_table` instead, arrow (i, j) to its morphism.

    The same data are the intelligence category the functor carves out, so a
    time functor also serves as a mimicry functor's source or target.
    """

    n: int
    objects: tuple[IntelligenceObject, ...]
    morphism_table: dict[tuple[int, int], IntelligenceMorphism] | None = None
    run_ends: tuple[RunEnds, ...] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if (self.morphism_table is None) == (self.run_ends is None):
            raise ConstructionError("a time functor holds either a table or run ends")

    def __eq__(self, other):
        if not isinstance(other, TimeFunctor):
            return NotImplemented
        if self is other:
            return True
        if self.n != other.n or self.objects != other.objects:
            return False
        if self.run_ends is not None and other.run_ends is not None:
            return self.run_ends == other.run_ends
        return self.table() == other.table()

    def table(self) -> dict[tuple[int, int], IntelligenceMorphism]:
        """Arrow (i, j) to its morphism; shared by every caller, not to be mutated.

        A trace functor builds it on first use, O(n^2) morphisms.
        """
        if self.run_ends is None:
            return self.morphism_table
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
        if self.run_ends is None:
            return self.morphism_table[(i, j)]
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

        Along a monotone o in range, run ends pull back to run ends: a tuple of
        target carrier o(i) whose run end there is R runs to the last step j
        with o(j) <= R. That depends on the target's dict alone, so each
        distinct one is pulled back once and shared by every step that reads
        it. Otherwise the table is pulled back, leaving out arrows the target
        lacks, so the law sweep reports them.
        """
        o, tgt = self.object_map, self.target
        objects = tuple(tgt.objects[x] for x in o)
        if tgt.run_ends is not None and all(0 <= x <= tgt.n for x in o) and sorted(o) == list(o):
            distinct = {id(ends): ends for x in set(o) for ends in tgt.run_ends[x]}
            pulled = {
                key: {y: bisect_right(o, end) - 1 for y, end in ends.items()}
                for key, ends in distinct.items()
            }
            runs = tuple(tuple(pulled[id(ends)] for ends in tgt.run_ends[x]) for x in o)
            return TimeFunctor(n=len(o) - 1, objects=objects, run_ends=runs)
        tgt_table = tgt.table()
        pulled = {(i, j): (o[i], o[j]) for i, j in _arrows(len(o))}
        table = {a: tgt_table[b] for a, b in pulled.items() if b in tgt_table}
        return TimeFunctor(n=len(o) - 1, objects=objects, morphism_table=table)


def mimicry_functor(
    source: IntelligenceCategory,
    target: IntelligenceCategory,
    object_map: tuple[int, ...] | list[int],
    components: dict[str, dict[Tuple_, Tuple_]],
) -> MimicryFunctor:
    """Validate and build a mimicry functor.

    Checks, in order: all three component maps present; object map total,
    in range, and monotone; components total on every source carrier and
    landing in the mapped object's carrier of the same role; commutation
    with time evolution (a tuple that survives from i to j in the source
    must have an image surviving from o(i) to o(j) in the target, and the
    two paths around the square must agree), decided on the pullback that
    the returned functor keeps: once per tuple where source and pullback
    hold run ends; else each source arrow (i, j) and the target's (o(i),
    o(j)) must be present, and each square is checked.
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
            raise MimicryError("object map leaves the target", counterexample=(i, oi))
    for i in range(len(o) - 1):
        if o[i] > o[i + 1]:
            raise MimicryError("object map is not monotone", counterexample=(i, i + 1))

    # a role whose source and target carriers are the step before's passes again
    before = ((None, None),) * len(FUNCTOR_ROLES)
    for i, obj in enumerate(source.objects):
        pairs = tuple(zip(obj.carriers(), target.objects[o[i]].carriers()))
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

    # copies, so the caller's later edits cannot reach a validated functor
    g = MimicryFunctor(source, target, o, *(dict(components[role]) for role in FUNCTOR_ROLES))
    pulled = g._pullback
    if isinstance(source, TimeFunctor) and source._lawful_runs and pulled._lawful_runs:
        _check_run_ends(source, pulled, components)
    else:
        _check_every_arrow(source, pulled, components)
    return g


def _check_every_arrow(source, pulled: TimeFunctor, components) -> None:
    """Raise on the first source arrow, in sorted order, that is missing,
    maps to a target arrow the pullback lacks, or has a square that fails."""
    src_table = source.table()
    tgt_table = pulled.table()
    for i, j in _arrows(pulled.n + 1):
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


def _check_run_ends(source, pulled: TimeFunctor, components) -> None:
    """Raise what `_check_every_arrow` raises first, from run ends that hold and
    components total on the source carriers and landing in the mapped ones.

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
    into the mimicry's target, the pullback it keeps: run-encoded, with no table,
    when the target is; two mimicry functors compose into one. The
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


def _time_functor(f) -> TimeFunctor:
    """`f` itself, or a mimicry functor's pullback."""
    if isinstance(f, MimicryFunctor):
        f = f._pullback
    if not isinstance(f, TimeFunctor):
        raise ConstructionError("law check expects a time or mimicry functor")
    return f


def _factors_through_steps(f: TimeFunctor) -> bool:
    """Whether each arrow (i, k), i < k, is (i, k-1) ; (k-1, k).

    Meaningful only on a table with every arrow i <= j present, with the
    right endpoints and identities. At i = k-1 the composite is
    id ; (k-1, k), which also refuses a step whose pairs leave the carriers.
    """
    table = f.table()
    try:
        return all(
            compose_morphisms(table[(i, k - 1)], table[(k - 1, k)]) == table[(i, k)]
            for k in range(1, f.n + 1)
            for i in range(k)
        )
    except ConstructionError:
        return False


def _arrow_failures(f: TimeFunctor) -> list[LawFailure]:
    """Gaps, wrong endpoints and non-identities among the arrows i <= j."""
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
    return failures


def sweep_functor_laws(f) -> LawReport:
    """Extensional identity and composition sweep; gaps are failures too.

    The oracle for `check_functor_laws`: after the arrow pass it composes
    every triple i <= j <= k whose three arrows are present and not flagged
    as gaps. A composite that cannot be formed is a composition failure.
    """
    f = _time_functor(f)
    failures = _arrow_failures(f)
    gaps = {failure.at for failure in failures if failure.law == "gap"}
    table = {a: m for a, m in f.table().items() if a not in gaps}
    triples = 0
    for i, j in _arrows(f.n + 1):
        if (i, j) not in table:
            continue
        for k in range(j, f.n + 1):
            if (j, k) not in table or (i, k) not in table:
                continue
            triples += 1
            try:
                composite = compose_morphisms(table[(i, j)], table[(j, k)])
            except ConstructionError as exc:
                detail = f"composite of the two legs cannot be formed: {exc}"
            else:
                if composite == table[(i, k)]:
                    continue
                detail = "composite of the two legs differs from the table entry"
            failures.append(LawFailure("composition", (i, j, k), detail))
    return LawReport(
        objects_checked=f.n + 1, triples_checked=triples, failures=tuple(failures)
    )


def _runs_hold(f) -> bool:
    """Whether `f` holds run ends that meet the laws.

    At each step i the run ends' keys must be carrier i, no end may lie
    below i, and an end beyond i must reappear unchanged at step i+1, so no
    end passes n. One backward pass. A role whose dict and carrier at i are
    the objects it has at i+1 meets these at i because it met them at i+1,
    so the pass costs O(n) plus the sizes of the distinct dicts. A functor
    keeps the answer as `_lawful_runs`, so mimicry validation and the law
    check make this pass once per functor. A tuple whose end at i is R then
    stays in every carrier from i to R with that end, so arrow (i, j), the
    identity on the tuples whose end is >= j, is (i, k-1) ; (k-1, k) and
    every law holds, as on a table that factors through its steps. The ends need not be the longest runs: a pullback
    ends a run at i when its tuple leaves and comes back between target
    steps o(i) and o(i+1).
    """
    if not isinstance(f, TimeFunctor) or f.run_ends is None:
        return False
    if len(f.run_ends) != f.n + 1 or len(f.objects) != f.n + 1:
        return False
    later: RunEnds = ({},) * len(FUNCTOR_ROLES)
    later_carriers: tuple = (None,) * len(FUNCTOR_ROLES)
    for i in range(f.n, -1, -1):
        if len(f.run_ends[i]) != len(FUNCTOR_ROLES):
            return False
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
    """Identity and composition laws; gaps are failures too.

    A mimicry functor is checked as its pullback, the time functor it
    induces over its source's steps. Run ends that meet the laws pass, and
    so does a table with no gap, wrong endpoint or non-identity that
    factors through its steps. A pass counts all C(n+3, 3) triples;
    anything else gets the report of `sweep_functor_laws` on the table.
    """
    f = _time_functor(f)
    if f._lawful_runs or (not _arrow_failures(f) and _factors_through_steps(f)):
        return LawReport(f.n + 1, comb(f.n + 3, 3), failures=())
    return sweep_functor_laws(f)
