"""Finite universe model: elements with states, region partitions, and
structures as finite extensional relations.

A universe at one instant is a ``Snapshot``: a fixed roster of elements, each
assigned to exactly one named region, with every region tagged as belonging to
the system side (the existence under study) or the environment side (its
complement). Structures over the universe are ``StructureRelation`` values:
finite sets of ordered element tuples, role-tagged as input, processing,
output, or other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import isfinite

__all__ = [
    "ElementId",
    "RegionId",
    "State",
    "SYSTEM",
    "ENVIRONMENT",
    "SIDES",
    "ROLES",
    "ConstructionError",
    "Snapshot",
    "StructureRelation",
    "make_snapshot",
    "cardinality",
    "complement",
    "carrier_at",
    "remove_product",
    "extend_product",
    "is_subrelation",
]

ElementId = str
RegionId = str
# Element states are flat maps of named scalar values (numbers or tags).
State = dict[str, "int | float | str"]

SYSTEM = "system"
ENVIRONMENT = "environment"
SIDES = (SYSTEM, ENVIRONMENT)

ROLES = ("input", "processing", "output", "other")


class ConstructionError(ValueError):
    """Raised when a snapshot, relation, or trace cannot be built as asked."""


def _frozen_state(state: State | None) -> State:
    if state is None:
        return {}
    return dict(state)


def _finite(pairs) -> bool:
    """Whether no value of the (name, value) pairs is an infinity or NaN."""
    for _, v in pairs:  # a plain loop: about half the cost of all() over a generator
        if isinstance(v, float) and not isfinite(v):
            return False
    return True


@dataclass(frozen=True, eq=True)
class Snapshot:
    """One instant of a finite universe.

    ``membership`` assigns every element to exactly one region;
    ``region_side`` assigns every region to the system or environment side.
    Instances are treated as immutable; use :func:`make_snapshot` to build the
    initial one and the evolution module to derive later ones.
    """

    step: int
    membership: dict[ElementId, RegionId]
    region_side: dict[RegionId, str]
    states: dict[ElementId, State]

    @property
    def elements(self) -> tuple[ElementId, ...]:
        return tuple(sorted(self.membership))

    @property
    def regions(self) -> tuple[RegionId, ...]:
        return tuple(sorted(self.region_side))

    def system_regions(self) -> frozenset[RegionId]:
        return frozenset(r for r, s in self.region_side.items() if s == SYSTEM)

    def environment_regions(self) -> frozenset[RegionId]:
        return frozenset(r for r, s in self.region_side.items() if s == ENVIRONMENT)

    def side_of(self, element: ElementId) -> str:
        return self.region_side[self.membership[element]]

    def members(self, region: RegionId) -> frozenset[ElementId]:
        if region not in self.region_side:
            raise ConstructionError(f"unknown region {region!r}")
        return frozenset(e for e, r in self.membership.items() if r == region)

    def region_counts(self) -> dict[RegionId, int]:
        counts = {r: 0 for r in self.region_side}
        for region in self.membership.values():
            counts[region] += 1
        return counts


def make_snapshot(
    elements: list[tuple[ElementId, State | None]],
    membership: dict[ElementId, RegionId],
    region_side: dict[RegionId, str],
) -> Snapshot:
    """Build a validated step-0 snapshot.

    ``elements`` lists every element with its initial state, whose numbers
    must be finite. Every element must be assigned a region and every
    referenced region must carry a side.
    """
    seen: set[ElementId] = set()
    states: dict[ElementId, State] = {}
    for eid, state in elements:
        if eid in seen:
            raise ConstructionError(f"duplicate element id {eid!r}")
        seen.add(eid)
        states[eid] = _frozen_state(state)
        if not _finite(states[eid].items()):
            raise ConstructionError(f"initial state of {eid!r} holds a number that is not finite")

    for region, side in region_side.items():
        if side not in SIDES:
            raise ConstructionError(f"region {region!r} has unknown side {side!r}")

    for eid in seen:
        if eid not in membership:
            raise ConstructionError(f"unassigned element {eid!r}")
    for eid, region in membership.items():
        if eid not in seen:
            raise ConstructionError(f"membership names unknown element {eid!r}")
        if region not in region_side:
            raise ConstructionError(f"region {region!r} without side")

    return Snapshot(
        step=0,
        membership=dict(membership),
        region_side=dict(region_side),
        states=states,
    )


def cardinality(s: Snapshot, regions: frozenset[RegionId] | set[RegionId]) -> int:
    """Number of elements whose region lies in ``regions``."""
    for region in regions:
        if region not in s.region_side:
            raise ConstructionError(f"unknown region {region!r}")
    region_set = set(regions)
    return sum(1 for r in s.membership.values() if r in region_set)


def complement(
    s: Snapshot, existence: frozenset[RegionId] | set[RegionId]
) -> frozenset[RegionId]:
    """Regions outside ``existence``: together they cover all regions, disjointly."""
    for region in existence:
        if region not in s.region_side:
            raise ConstructionError(f"unknown region {region!r}")
    return frozenset(s.region_side) - frozenset(existence)


@dataclass(frozen=True, eq=True)
class StructureRelation:
    """A finite extensional relation over element ids.

    ``tuples`` is the declared tuple set; the tuples that actually count at a
    given instant are those whose members all sit inside ``scope`` regions
    there (see :func:`carrier_at`). ``factors`` names the Cartesian factor
    positions so that products and factor removal can track identity.
    """

    id: str
    role: str
    arity: int
    tuples: frozenset[tuple[ElementId, ...]]
    scope: frozenset[RegionId]
    factors: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ConstructionError(f"unknown role {self.role!r}")
        if self.arity < 0:
            raise ConstructionError("arity must be non-negative")
        factors = self.factors
        if not factors:
            factors = tuple(f"{self.id}.{k}" for k in range(self.arity))
            object.__setattr__(self, "factors", factors)
        if len(factors) != self.arity:
            raise ConstructionError(
                f"relation {self.id!r}: {len(factors)} factor names for arity {self.arity}"
            )
        if len(set(factors)) != len(factors):
            raise ConstructionError(f"relation {self.id!r}: duplicate factor names")
        for tup in self.tuples:
            if len(tup) != self.arity:
                raise ConstructionError(
                    f"relation {self.id!r}: tuple {tup!r} does not match arity {self.arity}"
                )


def carrier_at(
    relation: StructureRelation, snapshot: Snapshot
) -> frozenset[tuple[ElementId, ...]]:
    """Tuples of ``relation`` whose elements are all inside scope at ``snapshot``.

    Elements that have left the scope regions drop the tuples they appear in;
    the declared tuple set itself never changes.
    """
    scope, membership = relation.scope, snapshot.membership
    return frozenset(tup for tup in relation.tuples if _in_scope(tup, membership, scope))


def _in_scope(
    tup: tuple[ElementId, ...], membership: dict[ElementId, RegionId], scope: frozenset[RegionId]
) -> bool:
    """Whether every element of ``tup`` has a region in ``membership``, and
    that region is in ``scope``."""
    return all(e in membership and membership[e] in scope for e in tup)


def remove_product(
    c: StructureRelation, positions: frozenset[int] | set[int]
) -> StructureRelation:
    """Remove the given factor positions, projecting every tuple onto the rest.

    Removing every factor yields the unit relation: arity 0 with the single
    empty tuple.
    """
    for p in positions:
        if not 0 <= p < c.arity:
            raise ConstructionError(
                f"position {p} outside arity {c.arity} of relation {c.id!r}"
            )
    keep = [k for k in range(c.arity) if k not in positions]
    projected = frozenset(tuple(t[k] for k in keep) for t in c.tuples)
    if not keep:
        projected = frozenset({()})
    return StructureRelation(
        id=f"{c.id}/removed",
        role="other",
        arity=len(keep),
        tuples=projected,
        scope=c.scope,
        factors=tuple(c.factors[k] for k in keep),
    )


def extend_product(ce: StructureRelation, cp: StructureRelation) -> StructureRelation:
    """Cartesian product of two relations with disjoint factor names.

    The result is the maximal relation the combined factors allow; any actual
    post-transfer structure must be contained in it (see
    :func:`is_subrelation`).
    """
    overlap = set(ce.factors) & set(cp.factors)
    if overlap:
        raise ConstructionError(f"overlapping factor positions {sorted(overlap)!r}")
    tuples = frozenset(s + t for s in ce.tuples for t in cp.tuples)
    return StructureRelation(
        id=f"{ce.id}*{cp.id}",
        role="other",
        arity=ce.arity + cp.arity,
        tuples=tuples,
        scope=ce.scope | cp.scope,
        factors=ce.factors + cp.factors,
    )


def is_subrelation(sub: StructureRelation, sup: StructureRelation) -> bool:
    """True iff ``sub`` has the same arity and its tuples all lie in ``sup``."""
    return sub.arity == sup.arity and sub.tuples <= sup.tuples
