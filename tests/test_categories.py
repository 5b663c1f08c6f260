"""Time category, trace-induced functors, law checking, and mimicry."""

import json
import random
from dataclasses import replace
from functools import cache

import pytest

from mindsets import categories
from mindsets import (
    EXTERNAL_IN,
    EXTERNAL_OUT,
    ConstructionError,
    IntelligenceMorphism,
    LawReport,
    MimicryError,
    MimicryFunctor,
    SCENARIO_NAMES,
    ScenarioConfig,
    StructureRelation,
    TimeMorphism,
    Trace,
    build_trace,
    check_functor_laws,
    compose_functors,
    compose_morphisms,
    default_mimicry_mapping,
    functor_from_trace,
    identity_functor,
    identity_morphism,
    intelligence_category,
    make_scenario,
    make_snapshot,
    mapping_components,
    mimicry_functor,
    sweep_functor_laws,
    time_category,
    trace_to_text,
)
from mindsets.cli import main

from factories import (
    REGION_SIDE,
    check_every_arrow,
    declarations_over,
    ev,
    intersection_table,
    out_and_back,
    random_trace,
    snapshot_functor,
    steady_trace,
    table_pullback,
)

# --- time category -----------------------------------------------------


def test_time_category_shape():
    cat = time_category(3)
    assert list(cat.objects()) == [0, 1, 2, 3]
    assert cat.hom(1, 3) == (TimeMorphism(1, 3),)
    assert cat.hom(2, 2) == (TimeMorphism(2, 2),)
    assert cat.hom(3, 1) == ()
    assert cat.identity(2) == TimeMorphism(2, 2)


def test_time_category_has_no_backward_arrows_at_all():
    for n in range(13):
        cat = time_category(n)
        for i in cat.objects():
            for j in cat.objects():
                arrows = cat.hom(i, j)
                assert len(arrows) == (1 if i <= j else 0)


def test_time_category_composition():
    cat = time_category(5)
    f, g = TimeMorphism(0, 2), TimeMorphism(2, 4)
    assert cat.compose(f, g) == TimeMorphism(0, 4)
    assert cat.compose(cat.identity(0), f) == f
    assert cat.compose(f, cat.identity(2)) == f
    with pytest.raises(ConstructionError, match="do not chain"):
        cat.compose(TimeMorphism(0, 1), TimeMorphism(2, 3))


@pytest.mark.parametrize(
    "first, second, refusal",
    [
        (TimeMorphism(0, 2), TimeMorphism(2, 1), "no arrow 2->1: it runs backwards"),
        (TimeMorphism(3, 1), TimeMorphism(1, 1), "no arrow 3->1: it runs backwards"),
        (TimeMorphism(0, 4), TimeMorphism(4, 4), "object 4 outside 0..3"),
        (TimeMorphism(-1, 0), TimeMorphism(0, 1), "object -1 outside 0..3"),
    ],
)
def test_time_category_composes_only_its_own_arrows(first, second, refusal):
    with pytest.raises(ConstructionError, match=f"^{refusal}$"):
        time_category(3).compose(first, second)


def test_time_category_bounds():
    with pytest.raises(ConstructionError):
        time_category(-1)
    cat = time_category(2)
    with pytest.raises(ConstructionError, match="outside"):
        cat.hom(0, 3)
    with pytest.raises(ConstructionError, match="outside"):
        cat.identity(5)


# --- trace-induced functor ----------------------------------------------


def test_functor_objects_track_scope_membership():
    t = out_and_back("a", "b")
    f = functor_from_trace(t)
    assert f.n == 2
    assert [o.input_carrier for o in f.objects] == [
        frozenset({("a",), ("b",)}),
        frozenset({("b",)}),
        frozenset({("a",), ("b",)}),
    ]
    assert f.objects[1].processing_carrier == frozenset()
    assert f.objects[1].output_carrier == frozenset()


def test_functor_drops_tuples_absent_at_an_intermediate_step():
    t = out_and_back("a", "b")
    f = functor_from_trace(t)
    # ("a",) sits in the carriers at both ends of 0 -> 2 but was out of
    # scope in between, so the span morphism forgets it
    span = f.morphism(0, 2)
    assert span.component("input") == {("b",): ("b",)}
    step = f.morphism(0, 1)
    assert step.component("input") == {("b",): ("b",)}
    assert f.morphism(1, 2).component("input") == {("b",): ("b",)}


def test_functor_identities_and_closure():
    t = out_and_back("a", "b", extra_steps=1)
    f = functor_from_trace(t)
    for i in range(f.n + 1):
        assert f.morphism(i, i) == identity_morphism(f.objects[i])
    table = f.table()
    for i in range(f.n + 1):
        for j in range(i, f.n + 1):
            for k in range(j, f.n + 1):
                assert compose_morphisms(table[(i, j)], table[(j, k)]) == table[(i, k)]
    with pytest.raises(KeyError):
        f.morphism(2, 0)


@pytest.mark.parametrize(
    "make_trace",
    [
        lambda: make_scenario("aplysia", ScenarioConfig()).trace,  # 90 steps
        lambda: out_and_back("a", "b", extra_steps=3),  # tuples drop out
    ],
    ids=["aplysia", "out-and-back"],
)
def test_functor_arrows_are_the_folds_of_the_step_arrows(make_trace):
    # the composition chain over the step arrows (i, i+1), built here from the
    # objects' carriers alone, is the oracle for the direct build
    f = functor_from_trace(make_trace())
    steps = [
        IntelligenceMorphism(
            a,
            b,
            *({x: x for x in ca & cb} for ca, cb in zip(a.carriers(), b.carriers())),
        )
        for a, b in zip(f.objects, f.objects[1:])
    ]
    for i in range(f.n + 1):
        fold = identity_morphism(f.objects[i])
        assert f.morphism(i, i) == fold
        for j in range(i + 1, f.n + 1):
            fold = compose_morphisms(fold, steps[j - 1])
            assert f.morphism(i, j) == fold, (i, j)


def test_components_are_the_stored_maps():
    # one map format: an accessor hands out the map itself, not a rebuilt copy
    f = functor_from_trace(steady_trace(("a", "b")))
    g = identity_functor(f)
    m = f.morphism(0, 2)
    for role in categories.FUNCTOR_ROLES:
        assert m.component(role) is m.component(role)
        assert g.component(role) is g.component(role)
    assert m.component("input") == {("a",): ("a",), ("b",): ("b",)}


def test_roles_outside_the_three_are_refused():
    f = functor_from_trace(steady_trace(("a", "b")))
    with pytest.raises(ConstructionError, match="unknown role"):
        f.objects[0].carrier("bogus")
    with pytest.raises(ConstructionError, match="unknown role"):
        f.morphism(0, 1).component("bogus")
    with pytest.raises(ConstructionError, match="unknown role"):
        identity_functor(f).component("bogus")


def test_functor_requires_one_structure_per_role():
    s0 = make_snapshot([("a", None)], {"a": "core"}, dict(REGION_SIDE))
    with pytest.raises(ConstructionError, match="exactly one input structure, found 0"):
        functor_from_trace(build_trace(s0, []))
    doubled = declarations_over(("a",)) + [
        StructureRelation(id="accepting2", role="input", arity=1,
                          tuples=frozenset({("a",)}), scope=frozenset({"core"}))
    ]
    with pytest.raises(ConstructionError, match="exactly one input structure, found 2"):
        functor_from_trace(build_trace(s0, [], declarations=doubled))


def test_law_check_passes_on_trace_functors():
    f = functor_from_trace(out_and_back("a", "b", extra_steps=2))
    report = check_functor_laws(f)
    assert report.passed
    assert report.objects_checked == 5
    assert report.triples_checked == 35  # C(5+2, 3) ordered i<=j<=k triples


def with_run_end(f, i, role, x, end):
    """`f` with the run end of tuple `x` at step `i` set by hand."""
    step = list(f.run_ends[i])
    step[role] = {**step[role], x: end}
    runs = f.run_ends[:i] + (tuple(step),) + f.run_ends[i + 1 :]
    return type(f)(n=f.n, objects=f.objects, run_ends=runs)


def with_corrupt_span(f):
    """`f` whose ("b",) at step 0 runs to step 1 only, though it stays to the
    end: arrow (0, 2) forgets ("b",) -> ("b",), and (0, 1) ; (1, 2) keeps it."""
    return with_run_end(f, 0, 0, ("b",), 1)


def test_law_check_pinpoints_a_corrupted_entry():
    f = functor_from_trace(out_and_back("a", "b", extra_steps=1))
    report = check_functor_laws(with_corrupt_span(f))
    assert not report.passed
    assert report.failures[0].law == "composition"
    assert report.failures[0].at == (0, 1, 2)


def law_failures(report):
    return [(fail.law, fail.at) for fail in report.failures]


def test_a_run_end_below_its_step_breaks_an_identity():
    # ("b",) at step 1 runs to step 0: the diagonal arrow (1, 1) forgets it
    f = functor_from_trace(out_and_back("a", "b"))
    report = check_functor_laws(with_run_end(f, 1, 0, ("b",), 0))
    assert law_failures(report) == [
        ("identity", (1,)), ("composition", (0, 1, 1)), ("composition", (0, 1, 2))
    ]
    assert report.failures[0].detail == "table entry at (1, 1) is not the identity"
    assert report.triples_checked == 10


def test_the_sweep_reports_entries_it_cannot_compose():
    # ("a",) is away at step 1; its run end at step 0 stretched to 1 puts the
    # pair ("a",) -> ("a",) into arrow (0, 1), outside carrier 1
    f = functor_from_trace(out_and_back("a", "b"))
    report = check_functor_laws(with_run_end(f, 0, 0, ("a",), 1))
    assert law_failures(report) == [("composition", (0, 0, 1)), ("composition", (0, 1, 1))]
    assert report.failures[0].detail.endswith("leaves the carriers")
    assert report.failures[1].detail.endswith("differs from the table entry")
    assert report.triples_checked == 10


@pytest.mark.parametrize(
    "malformed",
    [
        lambda f: replace(f, objects=f.objects[:-1]),
        lambda f: replace(f, run_ends=f.run_ends[:-1]),
        lambda f: replace(f, n=f.n + 1),
        lambda f: replace(f, n=-1, objects=(), run_ends=()),
        lambda f: replace(f, run_ends=tuple(step[:2] for step in f.run_ends)),
        lambda f: replace(f, run_ends=f.run_ends[:1] + ((*f.run_ends[1], {}),) + f.run_ends[2:]),
    ],
    ids=["objects-short", "run-ends-short", "n-long", "no-steps", "two-dicts", "four-dicts"],
)
def test_a_malformed_time_functor_is_refused(malformed):
    f = functor_from_trace(out_and_back("a", "b"))
    with pytest.raises(ConstructionError, match="n\\+1 objects|one dict per role"):
        malformed(f)


def test_laws_hold_on_long_traces_whose_arrows_drop_tuples():
    # 24 round trips: the wanderer's tuples leave scope at every odd step
    f = functor_from_trace(out_and_back("a", "b", trips=24))
    assert f.n == 48
    assert f.morphism(0, 48).component("input") == {("b",): ("b",)}
    assert f.objects[0].input_carrier == f.objects[48].input_carrier == {("a",), ("b",)}
    report = check_functor_laws(f)
    assert report.passed
    assert report.triples_checked == 49 * 50 * 51 // 6
    ident = identity_functor(intelligence_category(f))
    assert check_functor_laws(ident).passed
    assert compose_functors(f, ident) == f


# --- fast law check against the sweep ---------------------------------------


def dropped_pair(f, arrows, rng):
    """A span (i, j) forgets a pair: its tuple's run end at i is j - 1."""
    choices = [
        (i, role, x, j - 1)
        for i, j in arrows
        if i < j
        for role, ends in enumerate(f.run_ends[i])
        for x, end in sorted(ends.items())
        if end >= j
    ]
    return with_run_end(f, *rng.choice(choices))


def non_identity_diagonal(f, arrows, rng):
    """A diagonal arrow (i, i) forgets a pair: its tuple's run end is i - 1."""
    choices = [
        (i, role, x, i - 1)
        for i, j in arrows
        if i == j
        for role, ends in enumerate(f.run_ends[i])
        for x in sorted(ends)
    ]
    return with_run_end(f, *rng.choice(choices))


def pair_outside_the_carriers(f, arrows, rng):
    """An arrow (i, j) holds a pair outside carrier j: a tuple of carrier i
    that is gone at j, or a tuple of no carrier, runs to j."""
    i, j = rng.choice(arrows)
    role = rng.randrange(3)
    here, there = f.objects[i].carriers()[role], f.objects[j].carriers()[role]
    x = rng.choice(sorted(here - there) + [("ghost",)])
    return with_run_end(f, i, role, x, j)


CORRUPTIONS = (dropped_pair, non_identity_diagonal, pair_outside_the_carriers)


@cache
def law_base(kind, n):
    """A trace functor with `n` steps, built once per test run."""
    if kind == "out-and-back":
        t = out_and_back("a", "b", trips=n // 2)
    else:
        trials, test_count = {18: (4, 2), 60: (14, 6)}[n]
        t = make_scenario(kind, ScenarioConfig(seed=1, trials=trials, test_count=test_count)).trace
    f = functor_from_trace(t)
    assert f.n == n
    return f


def pullback_of(target, length, rng):
    """A mimicry functor over `length` source steps along a random monotone
    object map; the law check reads only its target and object map."""
    o = tuple(sorted(rng.choices(range(target.n + 1), k=length)))
    return MimicryFunctor(target, target, o, {}, {}, {})


@cache
def shipped_mimicry():
    """The shipped aplysia-to-hebbian mapping over two 18-step traces."""
    return mimicry_functor(
        law_base("aplysia", 18),
        law_base("hebbian", 18),
        range(19),
        mapping_components(default_mimicry_mapping()),
    )


def arrows(count):
    return [(i, j) for i in range(count) for j in range(i, count)]


def law_outcome(check, f):
    """`check(f)`'s report, or the type and text of what it raised."""
    try:
        return check(f)
    except Exception as exc:  # the two checks must raise alike, whatever it is
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", ["out-and-back", "aplysia", "hebbian"])
def test_fast_law_check_equals_the_sweep_on_lawful_tables(kind):
    rng = random.Random(kind)
    f = law_base(kind, 60)
    report = check_functor_laws(f)
    assert report.passed and report.triples_checked == 61 * 62 * 63 // 6
    assert report == sweep_functor_laws(f)
    for length in (1, 2, rng.randint(3, 30)):
        g = pullback_of(f, length, rng)
        assert check_functor_laws(g) == sweep_functor_laws(g)
    assert check_functor_laws(shipped_mimicry()) == sweep_functor_laws(shipped_mimicry())


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda c: c.__name__)
def test_fast_law_check_equals_the_sweep_on_corrupted_tables(corrupt):
    # each table is corrupted through its run ends, at an arrow the check reads
    rng = random.Random(corrupt.__name__)
    outcomes = []
    for kind in ("out-and-back", "aplysia", "hebbian"):
        # the table itself, corrupted anywhere
        f = law_base(kind, 18)
        outcomes.append(corrupt(f, arrows(f.n + 1), rng))
        # a pullback into a long table, corrupted at an arrow it reads
        target = law_base(kind, 60)
        g = pullback_of(target, rng.randint(8, 24), rng)
        o = g.object_map
        read = sorted({(o[i], o[j]) for i, j in arrows(len(o))})
        outcomes.append(replace(g, target=corrupt(target, read, rng)))
    # a validated mimicry functor whose target is corrupted afterwards
    g = shipped_mimicry()
    outcomes.append(replace(g, target=corrupt(g.target, arrows(19), rng)))

    refused = 0
    for g in outcomes:
        fast = law_outcome(check_functor_laws, g)
        assert isinstance(fast, LawReport), fast
        assert fast == law_outcome(sweep_functor_laws, g)
        refused += not (isinstance(fast, LawReport) and fast.passed)
    assert refused > 0


def test_law_check_composes_each_arrow_once(monkeypatch):
    f = functor_from_trace(
        make_scenario("aplysia", ScenarioConfig(seed=1, trials=40, test_count=10)).trace
    )
    assert f.n == 150
    calls = []
    compose = categories.compose_morphisms
    monkeypatch.setattr(
        categories, "compose_morphisms", lambda a, b: calls.append((a, b)) or compose(a, b)
    )
    report = check_functor_laws(f)
    assert report.passed and report.triples_checked == 151 * 152 * 153 // 6
    assert calls == []  # a trace functor's run ends are checked, no arrow is composed

    # run ends that fail are swept: each triple composed once, nothing before
    f = with_corrupt_span(functor_from_trace(out_and_back("a", "b", trips=3)))
    report = check_functor_laws(f)
    assert law_failures(report) == [("composition", (0, 1, k)) for k in range(2, 7)]
    assert report.triples_checked == 7 * 8 * 9 // 6
    assert len(calls) == report.triples_checked


def test_law_check_rejects_other_values():
    with pytest.raises(ConstructionError, match="law check expects"):
        check_functor_laws(object())


# --- mimicry -------------------------------------------------------------


def component_maps(pairs):
    """Per-role maps sending each source element tuple to its partner."""
    table = dict(pairs)
    first_src, first_dst = sorted(pairs)[0]
    return {
        "input": {(s,): (d,) for s, d in table.items()},
        "processing": {(first_src, first_src): (first_dst, first_dst)},
        "output": {(first_src,): (first_dst,)},
    }


def test_mimicry_accepts_a_faithful_translation():
    source = intelligence_category(functor_from_trace(steady_trace(("a", "b"))))
    target = intelligence_category(functor_from_trace(steady_trace(("p", "q"))))
    g = mimicry_functor(
        source, target, (0, 1, 2), component_maps([("a", "p"), ("b", "q")])
    )
    assert g.component("input")[("a",)] == ("p",)
    assert g.morphism_for(0, 2) == target.table()[(0, 2)]
    assert check_functor_laws(g).passed


def test_mimicry_may_compress_time():
    # constant carriers let three source instants land on one target instant
    source = intelligence_category(functor_from_trace(steady_trace(("a", "b"))))
    target = intelligence_category(functor_from_trace(steady_trace(("p", "q"))))
    g = mimicry_functor(
        source, target, (1, 1, 1), component_maps([("a", "p"), ("b", "q")])
    )
    assert check_functor_laws(g).passed


def test_mimicry_rejection_messages_carry_counterexamples():
    source = intelligence_category(functor_from_trace(steady_trace(("a", "b"))))
    target = intelligence_category(functor_from_trace(steady_trace(("p", "q"))))
    good = component_maps([("a", "p"), ("b", "q")])

    with pytest.raises(MimicryError, match="missing component map"):
        mimicry_functor(source, target, (0, 1, 2), {"input": good["input"]})
    with pytest.raises(MimicryError, match="covers 2 objects"):
        mimicry_functor(source, target, (0, 1), good)
    with pytest.raises(MimicryError, match="leaves the target") as exc:
        mimicry_functor(source, target, (0, 1, 9), good)
    assert exc.value.counterexample == (2, 9)
    with pytest.raises(MimicryError, match="not monotone") as exc:
        mimicry_functor(source, target, (2, 1, 2), good)
    assert exc.value.counterexample == (0, 1)

    gappy = component_maps([("a", "p"), ("b", "q")])
    del gappy["input"][("b",)]
    with pytest.raises(MimicryError, match="undefined on a source tuple") as exc:
        mimicry_functor(source, target, (0, 1, 2), gappy)
    assert exc.value.counterexample == (0, "input", ("b",))

    astray = component_maps([("a", "p"), ("b", "q")])
    astray["input"][("b",)] = ("zzz",)
    with pytest.raises(MimicryError, match="outside target input carrier") as exc:
        mimicry_functor(source, target, (0, 1, 2), astray)
    assert exc.value.counterexample == (0, "input", ("b",), ("zzz",))

    # the source's carriers are one object at every step, but the target's
    # input carrier changes at step 1, where "p" is away
    blink = functor_from_trace(out_and_back("p", "q"))
    with pytest.raises(MimicryError, match="outside target input carrier") as exc:
        mimicry_functor(source, blink, (0, 1, 2), good)
    assert exc.value.counterexample == (1, "input", ("a",), ("p",))


def test_mimicry_rejects_images_that_blink_out():
    # the target's partner for "a" is away exactly between the two mapped
    # instants, so the image of a surviving tuple does not survive
    source = intelligence_category(functor_from_trace(steady_trace(("a", "b"), steps=1)))
    target = intelligence_category(functor_from_trace(out_and_back("p", "q")))
    with pytest.raises(MimicryError, match="input image does not survive") as exc:
        mimicry_functor(
            source, target, (0, 2), component_maps([("a", "p"), ("b", "q")])
        )
    assert exc.value.counterexample == (0, 1, "input", ("a",))


def test_run_encoded_mimicry_reads_no_table(tmp_path, monkeypatch, capsys):
    # trace functors are checked, accepted or rejected, from their run ends
    # alone, through the library and through the CLI
    def no_table(self):
        raise AssertionError("an n^2 table was built")

    monkeypatch.setattr(categories.TimeFunctor, "table", no_table)
    traces = {
        "steady": steady_trace(("a", "b"), steps=12),
        "blink": out_and_back("p", "q", trips=12),
    }
    source, target = (functor_from_trace(t) for t in traces.values())
    components = component_maps([("a", "p"), ("b", "q")])
    assert check_functor_laws(mimicry_functor(source, target, (0,) * 13, components)).passed
    with pytest.raises(MimicryError, match="input image does not survive") as exc:
        mimicry_functor(source, target, tuple(range(0, 25, 2)), components)
    assert exc.value.counterexample == (0, 1, "input", ("a",))

    paths = {name: tmp_path / f"{name}.trace" for name in traces}
    for name, path in paths.items():
        path.write_text(trace_to_text(traces[name]))
        assert main(["functor-check", "--trace", str(path)]) == 0
    pairs = {role: [[x, y] for x, y in comp.items()] for role, comp in components.items()}
    for stride, code in ((0, 0), (2, 1)):
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps({
            "format": "mindsets-mimicry", "version": 1, "components": pairs,
            "object_map": [[i, stride * i] for i in range(13)],
        }))
        capsys.readouterr()
        argv = ["--source", str(paths["steady"]), "--target", str(paths["blink"])]
        assert main(["mimic-check", *argv, "--map", str(mapping)]) == code
    assert capsys.readouterr().out == (
        "mapping rejected: input image does not survive in the target "
        "(counterexample: (0, 1, 'input', ('a',)))\n"
    )


def test_mimicry_law_check_pinpoints_a_corrupted_target_entry():
    # built directly: mimicry_functor's commutation check would refuse it
    f = functor_from_trace(out_and_back("a", "b", extra_steps=1))
    g = MimicryFunctor(f, with_corrupt_span(f), (0, 1, 2, 3), {}, {}, {})
    report = check_functor_laws(g)
    assert report.objects_checked == 4
    assert law_failures(report)[0] == ("composition", (0, 1, 2))


def test_mimicry_refuses_run_ends_that_break_the_laws():
    # ("a",) and ("p",) stay to the end, but each run end at step 0 says 1
    source = functor_from_trace(steady_trace(("a", "b")))
    target = functor_from_trace(steady_trace(("p", "q")))
    components = component_maps([("a", "p"), ("b", "q")])
    broken_source = with_run_end(source, 0, 0, ("a",), 1)
    broken_target = with_run_end(target, 0, 0, ("p",), 1)
    for pair, name in (((broken_source, target), "source"), ((source, broken_target), "target")):
        with pytest.raises(MimicryError) as exc:
            mimicry_functor(*pair, (0, 1, 2), components)
        assert str(exc.value) == f"the {name}'s run ends break the functor laws"
        assert exc.value.counterexample is None


def test_a_hand_built_object_map_is_refused_as_validation_refuses_it():
    # the pullback refuses it, so the law check and composition do too
    source = functor_from_trace(steady_trace(("a", "b"), steps=1))
    target = functor_from_trace(out_and_back("p", "q"))
    empty = {role: {} for role in categories.FUNCTOR_ROLES}
    for o, message, at in (
        ((0, 5), "object map leaves the target", (1, 5)),
        ((-1, 0), "object map leaves the target", (0, -1)),
        ((2, 1), "object map is not monotone", (0, 1)),
    ):
        with pytest.raises(MimicryError) as validated:
            mimicry_functor(source, target, o, empty)
        assert str(validated.value) == f"{message} (counterexample: {at})"
        for use in (check_functor_laws, sweep_functor_laws, lambda g: compose_functors(source, g)):
            with pytest.raises(MimicryError) as exc:
                use(MimicryFunctor(source, target, o, {}, {}, {}))
            assert (str(exc.value), exc.value.counterexample) == (str(validated.value), at)


def test_identity_functor_is_neutral():
    f = functor_from_trace(steady_trace(("a", "b")))
    cat = intelligence_category(f)
    ident = identity_functor(cat)
    assert check_functor_laws(ident).passed
    assert compose_functors(f, ident) == f
    g = mimicry_functor(
        cat,
        intelligence_category(functor_from_trace(steady_trace(("p", "q")))),
        (0, 1, 2),
        component_maps([("a", "p"), ("b", "q")]),
    )
    assert compose_functors(ident, g) == g


def test_time_then_mimicry_composes_to_a_time_functor():
    f = functor_from_trace(steady_trace(("a", "b")))
    target = intelligence_category(functor_from_trace(steady_trace(("p", "q"), steps=4)))
    g = mimicry_functor(
        intelligence_category(f), target, (0, 2, 4),
        component_maps([("a", "p"), ("b", "q")]),
    )
    composite = compose_functors(f, g)
    assert type(composite) is type(f)
    assert composite.n == f.n
    assert composite.objects == tuple(target.objects[i] for i in (0, 2, 4))
    assert check_functor_laws(composite).passed


def test_one_pullback_serves_validation_the_law_check_and_composition(monkeypatch):
    # validation builds the pullback; the law check and composition read it
    source = functor_from_trace(steady_trace(("a", "b"), steps=4))
    target = functor_from_trace(out_and_back("p", "q", trips=3))
    components = component_maps([("a", "p"), ("b", "q")])
    functors = [
        mimicry_functor(source, target, (0,) * 5, components),
        shipped_mimicry(),
    ]
    built = []
    post_init = categories.TimeFunctor.__post_init__
    monkeypatch.setattr(
        categories.TimeFunctor, "__post_init__", lambda f: built.append(f) or post_init(f)
    )
    for g in functors:
        assert check_functor_laws(g).passed
        assert compose_functors(g.source, g) is compose_functors(g.source, g)
    assert built == []


def test_functor_composition_typing():
    f = functor_from_trace(steady_trace(("a", "b")))
    other = intelligence_category(functor_from_trace(steady_trace(("p", "q"), steps=3)))
    ident = identity_functor(other)
    with pytest.raises(ConstructionError, match="composition mismatch"):
        compose_functors(f, ident)
    with pytest.raises(ConstructionError, match="cannot compose"):
        compose_functors(ident, f)


# --- run encoding against the materialized table ------------------------------


def turnover_traces():
    """Traces whose tuples leave scope and come back, up to 60 steps."""
    rng = random.Random("turnover")
    traces = [out_and_back("a", "b", trips=30), out_and_back("a", "b", trips=3, extra_steps=2)]
    traces += [random_trace(rng, with_metadata=True, max_steps=60) for _ in range(6)]
    return traces


def turnover_functors():
    """Trace functors whose tuples leave scope and come back, n up to 60."""
    return [functor_from_trace(t) for t in turnover_traces()]


def with_a_ghost(t, moved_in_at=None):
    """`t` built directly, each declaration holding one more tuple that names
    "ghost", an element off the roster; with `moved_in_at`, an event of that
    step also moves "ghost" into "core", as no checked trace could."""
    ghostly = tuple(
        replace(d, tuples=d.tuples | {(*sorted(t.initial.membership)[: d.arity - 1], "ghost")})
        for d in t.declarations
    )
    events = list(t.events)
    if moved_in_at is not None:
        events[moved_in_at] += (ev(moved_in_at, EXTERNAL_IN, ("ghost",), "lab", "core"),)
    return Trace(t.initial, tuple(events), t.phases, ghostly)


def test_functors_from_the_events_equal_the_snapshot_build():
    rng = random.Random("long turnover")
    traces = turnover_traces()
    traces += [
        random_trace(rng, with_metadata=True, min_steps=1000, max_steps=1200) for _ in range(4)
    ]
    cfg = ScenarioConfig(seed=2, trials=14, test_count=6)
    traces += [make_scenario(name, cfg, steps=40).trace for name in SCENARIO_NAMES]
    blink = out_and_back("a", "b", trips=5, extra_steps=3)
    # step 11 moves nothing else, so only the ghost's own index re-tests
    # ("a", "ghost") there
    traces += [blink, with_a_ghost(blink), with_a_ghost(blink, moved_in_at=11)]
    turnover = 0
    for t in traces:
        f, oracle = functor_from_trace(t), snapshot_functor(t)
        assert f == oracle and f.objects == oracle.objects and f.run_ends == oracle.run_ends
        turnover += len({obj.carriers() for obj in f.objects}) > 1
    assert turnover >= 10
    # the ghost's tuples stay out of every carrier until the ghost is moved in
    ghost_carriers = [functor_from_trace(t).objects[-1].carriers() for t in traces[-2:]]
    assert [sum("ghost" in x for c in cs for x in c) for cs in ghost_carriers] == [0, 3]


def test_steps_without_turnover_share_their_carriers_and_run_ends():
    t = make_scenario("aplysia", ScenarioConfig(seed=1, trials=14, test_count=6)).trace
    f = functor_from_trace(t)
    assert f == snapshot_functor(t)
    for r in range(len(categories.FUNCTOR_ROLES)):
        assert len({id(obj.carriers()[r]) for obj in f.objects}) == 1
        assert len({id(step[r]) for step in f.run_ends}) == 1


def test_run_encoded_arrows_equal_the_intersection_build():
    functors = turnover_functors()
    aplysia = make_scenario("aplysia", ScenarioConfig(seed=1, trials=14, test_count=6)).trace
    functors.append(functor_from_trace(aplysia))
    assert max(f.n for f in functors) == 60
    for f in functors:
        oracle = intersection_table(f.objects)
        assert "_run_table" not in f.__dict__  # no table until one is asked for
        for i, j in arrows(f.n + 1):
            assert f.morphism(i, j) == oracle[(i, j)], (i, j)
        assert f.table() == oracle


def test_run_end_check_equals_the_sweep_on_the_table_form():
    rng = random.Random("run ends")
    for f in turnover_functors():
        oracle = intersection_table(f.objects)
        report = check_functor_laws(f)
        assert report.passed and report == sweep_functor_laws(f)
        # pullbacks along monotone object maps, a constant one among them
        maps = [tuple(sorted(rng.choices(range(f.n + 1), k=k))) for k in (1, rng.randint(2, 20))]
        for o in maps + [(rng.randint(0, f.n),) * 5]:
            fast = MimicryFunctor(f, f, o, {}, {}, {})
            assert fast._pullback.table() == table_pullback(o, oracle)
            assert check_functor_laws(fast) == sweep_functor_laws(fast)
        # hand-set run ends on the shorter traces: one stretched past the
        # step where its tuple leaves the carrier, and one below its step
        # where its tuple's run starts, so that no other end disagrees; the
        # run-end pass refuses both, and the check then sweeps as well
        if f.n > 30:
            continue
        carried = [
            (i, role, x, end)
            for i in range(f.n + 1)
            for role, ends in enumerate(f.run_ends[i])
            for x, end in sorted(ends.items())
        ]
        leaving = [(i, role, x, i + 1) for i, role, x, end in carried if end == i < f.n]
        below = [
            (i, role, x, i - 1)
            for i, role, x, _ in carried
            if i == 0 or f.run_ends[i - 1][role].get(x, i - 1) < i
        ]
        for hand_set in (leaving, below):
            if hand_set:
                bad = with_run_end(f, *rng.choice(hand_set))
                report = check_functor_laws(bad)
                assert not report.passed
                assert report == sweep_functor_laws(bad)


def test_a_stretched_end_among_shared_run_ends_is_refused():
    # "p" is away at step 6 alone, so steps 0 to 5 share one run-end dict
    # per role; an end stretched at step 3 is a new dict there, and the
    # run-end pass refuses it at step 3 or at step 2, which still shares
    f = functor_from_trace(away_once({"p": 6}, 9))
    assert len({id(step[0]) for step in f.run_ends[:6]}) == 1
    assert f.run_ends[3][0][("p",)] == 5
    for role, x in ((0, ("p",)), (1, ("p", "p")), (2, ("p",))):
        bad = with_run_end(f, 3, role, x, 6)
        report = check_functor_laws(bad)
        assert not report.passed
        assert report == sweep_functor_laws(bad)
    # an object whose carrier is not its shared dict's keys is refused too
    objects = list(f.objects)
    objects[3] = replace(objects[3], input_carrier=objects[3].input_carrier - {("p",)})
    bad = replace(f, objects=tuple(objects))
    report = check_functor_laws(bad)
    assert not report.passed
    assert report == sweep_functor_laws(bad)


def test_the_cli_passes_over_run_ends_once_per_functor(tmp_path, monkeypatch):
    # functor-check checks its functor's run ends once; mimic-check checks
    # the source's and the pullback's once each, and the law check reads
    # the pullback's answer from validation
    checked = []
    runs_hold = categories._runs_hold
    monkeypatch.setattr(categories, "_runs_hold", lambda f: checked.append(f) or runs_hold(f))
    traces = {"steady": steady_trace(("a", "b"), steps=12), "blink": out_and_back("p", "q", trips=12)}
    paths = {name: tmp_path / f"{name}.trace" for name in traces}
    for name, path in paths.items():
        path.write_text(trace_to_text(traces[name]))
        checked.clear()
        assert main(["functor-check", "--trace", str(path)]) == 0
        assert checked == [functor_from_trace(traces[name])]
    components = component_maps([("a", "p"), ("b", "q")])
    pairs = {role: [[x, y] for x, y in comp.items()] for role, comp in components.items()}
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({
        "format": "mindsets-mimicry", "version": 1, "components": pairs,
        "object_map": [[i, 0] for i in range(13)],
    }))
    checked.clear()
    argv = ["--source", str(paths["steady"]), "--target", str(paths["blink"])]
    assert main(["mimic-check", *argv, "--map", str(mapping)]) == 0
    seen = list(checked)
    source, target = (functor_from_trace(t) for t in traces.values())
    assert seen == [source, mimicry_functor(source, target, (0,) * 13, components)._pullback]


def composite_cases():
    """Each shorter turnover functor, composed with a hand-built mimicry
    functor into itself or into any turnover functor along random monotone,
    constant and identity object maps, beside its oracle: the target's
    intersection table pulled back along the same object map."""
    rng = random.Random("composites")
    functors = turnover_functors()
    tables = {id(f): intersection_table(f.objects) for f in functors}
    cases = []
    for source in (f for f in functors if f.n <= 30):
        for target in functors:
            count = source.n + 1
            maps = [
                tuple(sorted(rng.choices(range(target.n + 1), k=count))),
                (rng.randint(0, target.n),) * count,
            ]
            if source is target:
                maps.append(tuple(range(count)))
            for o in maps:
                g = MimicryFunctor(source, target, o, {}, {}, {})
                cases.append((compose_functors(source, g), table_pullback(o, tables[id(target)])))
    return cases


def test_composites_hold_run_ends_equal_to_the_table_pullback():
    early = 0
    for composite, oracle in composite_cases():
        assert composite.table() == oracle
        report = check_functor_laws(composite)
        assert report.passed and report == sweep_functor_laws(composite)
        # a tuple that leaves and comes back between two mapped target
        # steps ends its run early, so these run ends are not maximal
        early += composite != longest_runs(composite)
    assert early >= 5


def images_for(source, target, o, rng):
    """Per role, each source tuple to a tuple of every mapped target carrier
    it lands in, where one exists (else to any target tuple)."""
    components = {}
    for r, role in enumerate(categories.FUNCTOR_ROLES):
        seen = {}
        for i, obj in enumerate(source.objects):
            for x in obj.carriers()[r]:
                seen.setdefault(x, []).append(target.objects[o[i]].carriers()[r])
        everything = sorted({y for obj in target.objects for y in obj.carriers()[r]})
        comp = {}
        for x, carriers in sorted(seen.items()):
            fits = sorted(frozenset.intersection(*carriers))
            comp[x] = rng.choice(fits or everything or [x])
        components[role] = comp
    return components


def mimicry_outcome(source, target, o, components):
    try:
        mimicry_functor(source, target, o, components)
    except MimicryError as exc:
        return str(exc), exc.counterexample
    return "accepted", None


def arrow_loop_outcome(source_table, target_table, o, components):
    """The oracle's outcome: the loop over every source arrow and its square,
    on the source table and the target table pulled back along `o`."""
    try:
        check_every_arrow(source_table, table_pullback(o, target_table), len(o), components)
    except MimicryError as exc:
        return str(exc), exc.counterexample
    return "accepted", None


def longest_runs(f):
    """`f`'s objects with the run ends a trace would give them: each tuple's
    run reaches as far as its presence does."""
    runs, later = [], ({},) * len(categories.FUNCTOR_ROLES)
    for i in range(f.n, -1, -1):
        carriers = f.objects[i].carriers()
        later = tuple({x: ends.get(x, i) for x in c} for c, ends in zip(carriers, later))
        runs.append(later)
    return type(f)(n=f.n, objects=f.objects, run_ends=tuple(reversed(runs)))


def away_once(away, steps):
    """`steps` steps over "p", "q" and "z", in scope at every step but that
    one of each element's that `away` gives."""
    names = ("p", "q", "z")
    s0 = make_snapshot([(n, None) for n in names], {n: "core" for n in names}, dict(REGION_SIDE))
    schedule = [[] for _ in range(steps)]
    for at in set(away.values()):
        gone = [n for n in names if away.get(n) == at]
        schedule[at - 1] = [ev(at - 1, EXTERNAL_OUT, gone, "core", "lab")]
        schedule[at] = [ev(at, EXTERNAL_IN, gone, "lab", "core")]
    return build_trace(s0, schedule, declarations=declarations_over(names))


def test_step_survival_check_equals_the_arrow_loop():
    rng = random.Random("mimicry")
    functors = turnover_functors()
    cases = []
    for source, target in [(f, f) for f in functors] + list(zip(functors, reversed(functors))):
        maps = [tuple(sorted(rng.choices(range(target.n + 1), k=source.n + 1)))]
        if source is target:
            maps.append(tuple(range(source.n + 1)))
        for o in maps:
            cases += [(source, target, o, images_for(source, target, o, rng)) for _ in range(3)]
    # a steady source into a target whose "p" tuples are away at every odd
    # step: images land at even steps and survive only a constant object map
    for trips in (1, 9, 30):
        target = functor_from_trace(out_and_back("p", "q", trips=trips))
        for steps in (1, 4, 12):
            source = functor_from_trace(steady_trace(("a", "b"), steps=steps))
            o = tuple(sorted(rng.choices(range(0, target.n + 1, 2), k=steps + 1)))
            for image in ("p", "q"):
                components = {
                    "input": {("a",): (image,), ("b",): ("q",)},
                    "processing": {("a", "a"): ("p", "p")},
                    "output": {("a",): ("p",)},
                }
                for object_map in (o, (0,) * len(o)):
                    cases.append((source, target, object_map, components))
    # two or three roles lose images at the same step, at the same j or at
    # different ones, the later role first or last: the processing and
    # output images are "p"'s, the input image of "a" is "q"'s
    draw = random.Random("two roles")
    components = {
        "input": {("a",): ("q",), ("b",): ("z",)},
        "processing": {("a", "a"): ("p", "p")},
        "output": {("a",): ("p",)},
    }
    for away in ({"p": 3, "q": 3}, {"p": 3, "q": 6}, {"p": 6, "q": 3}, {"p": 4}):
        target = functor_from_trace(away_once(away, 8))
        present = [k for k in range(9) if k not in away.values()]
        for count in (len(present), 4, 2):
            source = functor_from_trace(steady_trace(("a", "b"), steps=count - 1))
            maps = [tuple(sorted(draw.choices(present, k=count))) for _ in range(2)]
            if count == len(present):
                maps.append(tuple(present))
            cases += [(source, target, o, components) for o in maps]
    for away, first in (
        ({"p": 3, "q": 3}, (0, 3, "input", ("a",))),
        ({"p": 3, "q": 6}, (0, 3, "processing", ("a", "a"))),
    ):
        target = functor_from_trace(away_once(away, 8))
        present = tuple(k for k in range(9) if k not in away.values())
        source = functor_from_trace(steady_trace(("a", "b"), steps=len(present) - 1))
        assert mimicry_outcome(source, target, present, components)[1] == first
    # composites as source and target: their run ends need not be the
    # longest, and their oracle is the table pullback. The same objects with
    # the longest runs go into each composite and back, each tuple its own
    # image, so that only survival can fail.
    tables = {}
    first_composite = len(cases)
    for composite, pulled_table in composite_cases():
        tables[id(composite)] = pulled_table
        other = rng.choice(functors)
        for source, target in ((composite, other), (other, composite)):
            o = tuple(sorted(rng.choices(range(target.n + 1), k=source.n + 1)))
            cases.append((source, target, o, images_for(source, target, o, rng)))
        longest = longest_runs(composite)
        own = {
            role: {x: x for obj in composite.objects for x in obj.carrier(role)}
            for role in categories.FUNCTOR_ROLES
        }
        o = tuple(range(composite.n + 1))
        cases += [(longest, composite, o, own), (composite, longest, o, own)]

    outcomes = []
    for source, target, o, components in cases:
        for f in (source, target):
            if id(f) not in tables:
                tables[id(f)] = intersection_table(f.objects)
        fast = mimicry_outcome(source, target, o, components)
        # the loop presumes components that pass mimicry_functor's own checks
        if fast[0] == "accepted" or "image does not survive" in fast[0]:
            assert fast == arrow_loop_outcome(tables[id(source)], tables[id(target)], o, components)
        outcomes.append(fast[0])
    for some in (outcomes[:first_composite], outcomes[first_composite:]):
        survive = {m for m in some if "image does not survive" in m}
        assert some.count("accepted") >= 20
        assert len(survive) >= 5  # distinct counterexamples
