"""Trace files, config and mapping files, and markdown reports."""

import gc
import json
from dataclasses import replace
import random
import re

import numpy as np
import pytest

from mindsets import (
    EXTERNAL_IN,
    EXTERNAL_OUT,
    INTERNAL,
    ConfigError,
    ConstructionError,
    Phase,
    StructureRelation,
    Trace,
    TransferEvent,
    build_trace,
    make_snapshot,
    ScenarioConfig,
    StepError,
    TraceFormatError,
    MappingFormatError,
    make_scenario,
    brute_force_classify,
    check_functor_laws,
    classify,
    activity,
    default_mimicry_mapping,
    functor_from_trace,
    load_config,
    load_mapping,
    mapping_components,
    mapping_object_map,
    parse_window,
    read_trace,
    render_report,
    trace_to_text,
    write_trace,
)

import mindsets.evolution as evolution_module
import mindsets.io as io_module
import mindsets.universe as universe_module
from mindsets.cli import main

from factories import out_and_back, random_trace, reference_trace_text, steady_trace

SMALL = ScenarioConfig(seed=1, trials=4, test_count=2)


def round_trip(t, path):
    write_trace(t, path)
    back = read_trace(path)
    assert back == t
    assert trace_to_text(back) == path.read_text()
    return back


@pytest.mark.parametrize("name", ["hebbian", "backprop", "aplysia", "sandpile", "off"])
def test_scenario_traces_round_trip(name, tmp_path):
    bundle = make_scenario(name, SMALL, steps=6)
    round_trip(bundle.trace, tmp_path / f"{name}.trace")


def test_random_traces_round_trip(tmp_path):
    for seed in range(40):
        t = random_trace(random.Random(seed), with_metadata=True)
        round_trip(t, tmp_path / f"r{seed}.trace")


def test_stepless_trace_round_trips(tmp_path):
    bundle = make_scenario("off", SMALL, steps=1)
    t = type(bundle.trace)(
        initial=bundle.trace.initial,
        events=(),
        phases=(),
        declarations=bundle.trace.declarations,
    )
    back = round_trip(t, tmp_path / "empty.trace")
    assert back.n_steps == 0


def test_header_names_the_format():
    t = make_scenario("off", SMALL, steps=1).trace
    header = json.loads(trace_to_text(t).splitlines()[0])
    assert header["format"] == "mindsets-trace"
    assert header["version"] == 1
    assert [r for r, _ in header["regions"]] == sorted(r for r, _ in header["regions"])


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_read_trace_error_catalog(tmp_path):
    good = trace_to_text(make_scenario("off", SMALL, steps=2).trace).splitlines()

    cases = [
        (["{not json"], "line 1: invalid JSON"),
        (['{"format":"something-else"}'], "line 1: not a trace file"),
        (['{"format":"mindsets-trace","version":9}'], "unsupported format version"),
        # JSON's true and 1.0 equal 1 in Python, but neither is the integer 1
        (['{"format":"mindsets-trace","version":true}'], "unsupported format version True"),
        (['{"format":"mindsets-trace","version":1.0}'], "unsupported format version 1.0"),
        ([good[0].replace('"regions"', '"territories"')], "malformed header"),
        (good[:1] + [good[2].replace('"step":1', '"step":5')], "line 2: expected step"),
        (good[:2] + ["[1,2,3]"], "line 3: expected an object"),
        (
            good[:1] + ['{"step":0,"events":[{"kind":"external_in"}]}'],
            "line 2: malformed event",
        ),
        (
            [good[0].replace('"core_0","cpu",{}', '"core_0","cpu",5')],
            "line 1: state of 'core_0' is not an object",
        ),
        (
            [good[0].replace('"core_0","cpu",{}', '"core_0","cpu",{"v":[1]}')],
            "line 1: state of 'core_0' value 'v' is not a scalar",
        ),
        (
            [good[0].replace('["idle",0,2]', '["idle","0",2]')],
            "line 1: start of phase 'idle' is not an integer",
        ),
        (
            [good[0].replace('"id":"input_structure"', '"id":["input_structure"]')],
            "line 1: declaration id is not a string",
        ),
        # region ids of other types would reach classify's sorting of regions
        ([good[0].replace('"regions":[', '"regions":[[7,"system"],')], "line 1: region id"),
        ([good[0].replace('"regions":[', '"regions":[[null,"system"],')], "line 1: region id"),
        (good[:2] + [good[2].replace('"step":1', '"step":true')], "line 3: step is not an"),
        (good[:2] + [good[2].replace('"step":1', '"step":1.0')], "line 3: step is not an"),
        # a region listed twice, on the same side or not, must not keep its last side
        (
            [good[0].replace('"regions":[', '"regions":[["mains","system"],')] + good[1:],
            "line 1: region 'mains' listed twice",
        ),
        (
            [good[0].replace('"regions":[', '"regions":[["mains","environment"],')] + good[1:],
            "line 1: region 'mains' listed twice",
        ),
    ]
    # entries of the wrong shape, named once on their line
    for field, broken, message in (
        ('"regions":[', '"regions":["ab",', "line 1: region entry is not a list of 2"),
        ('"regions":[', '"regions":[7,', "line 1: region entry is not a list of 2"),
        ('"regions":[', '"regions":[["r","system","x"],', "line 1: region entry is not a"),
        ('"elements":[', '"elements":["abc",', "line 1: element entry is not a list of 3"),
        ('"elements":[', '"elements":[["e","cpu"],', "line 1: element entry is not a"),
        ('"phases":[["idle",0,2]]', '"phases":["abc"]', "line 1: phase entry is not a list of 3"),
        ('"declarations":[', '"declarations":[5,', "line 1: declaration is not an object"),
        ('"elements":[', '"elements":7,"rest":[', "line 1: elements is not a list"),
        ('"arity":1,', "", r"line 1: malformed header \(missing 'arity'\)$"),
        # content errors of the header, found by make_snapshot and build_trace
        ('"elements":[', '"elements":[["core_0","ram",{}],', "line 1: duplicate element id 'core_0'"),
        ('["mains","environment"]', '["mains","outside"]', "line 1: region 'mains' has unknown"),
        ('["mains","environment"],', "", "line 1: region 'mains' without side"),
        ('"scope":["io_port"]', '"scope":["attic"]', "line 1: declaration 'input_structure' "
         "scopes unknown region 'attic'"),
        ('"tuples":[["nic_0"]]', '"tuples":[["nic_9"]]', "line 1: declaration 'input_structure' "
         "names unknown element 'nic_9'"),
        # of two unknown members, the sorted-first one, whatever the string hash
        ('"tuples":[["nic_0"]]', '"tuples":[["nic_9"],["nic_8"]]', "line 1: declaration "
         "'input_structure' names unknown element 'nic_8'"),
        ('"scope":["io_port"]', '"scope":["cellar","attic"]', "line 1: declaration "
         "'input_structure' scopes unknown region 'attic'"),
        ('"id":"output_structure"', '"id":"input_structure"', "line 1: duplicate declaration"),
        ('"role":"input"', '"role":"sensing"', "line 1: unknown role 'sensing'"),
        ('["idle",0,2]', '["idle",0,3]', r"line 1: phase 'idle' interval \[0, 3\) outside 0..2"),
        # a list read into a set may not repeat an entry: the sorted-first one is named
        ('"tuples":[["nic_0"]]', '"tuples":[["nic_9"],["nic_0"],["nic_9"],["nic_0"]]',
         r"line 1: tuples of 'input_structure' lists \('nic_0',\) twice$"),
        ('"scope":["io_port"]', '"scope":["mains","io_port","mains","io_port"]',
         "line 1: scope of 'input_structure' lists 'io_port' twice$"),
        # a trace holds finite numbers only
        ('"core_0","cpu",{}', '"core_0","cpu",{"v":NaN}', r"line 1: invalid JSON \(NaN is not a"),
        ('"core_0","cpu",{}', '"core_0","cpu",{"v":-Infinity}', r"line 1: invalid JSON \(-Inf"),
        # and a number too large for a float, which reads as an infinity
        ('"core_0","cpu",{}', '"core_0","cpu",{"v":1e999}',
         "line 1: initial state of 'core_0' holds a number that is not finite$"),
        ('"core_0","cpu",{}', '"core_0","cpu",{"v":-1e999}',
         "line 1: initial state of 'core_0' holds a number that is not finite$"),
        # a header key listed twice must not keep its last value
        ('"phases":[', '"phases":[["ghost",0,1]],"phases":[',
         r"line 1: invalid JSON \(key 'phases' listed twice\)$"),
        ('"elements":[', '"elements":[],"elements":[',
         r"line 1: invalid JSON \(key 'elements' listed twice\)$"),
        ('"regions":[', '"regions":[],"regions":[',
         r"line 1: invalid JSON \(key 'regions' listed twice\)$"),
        ('"declarations":[', '"declarations":[],"declarations":[',
         r"line 1: invalid JSON \(key 'declarations' listed twice\)$"),
    ):
        assert field in good[0], field
        cases.append(([good[0].replace(field, broken, 1)] + good[1:], message))
    cases.append((good[:1] + ['{"step":0}'], "line 2: events is not a list"))
    cases.append((good[:1] + ['{"step":0,"events":{}}'], "line 2: events is not a list"))
    # the input declaration with one field of the wrong type
    for field, broken, message in (
        ('"arity":1', '"arity":true', "arity of 'input_structure' is not an integer"),
        ('"arity":1', '"arity":1.0', "arity of 'input_structure' is not an integer"),
        ('"scope":["io_port"]', '"scope":"io_port"', "scope of 'input_structure' is not a list"),
        ('"scope":["io_port"]', '"scope":[["io_port"]]', "scope of 'input_structure' entry is"),
        ('"factors":["input_structure.0"]', '"factors":"f"', "factors of 'input_structure' is"),
        ('"tuples":[["nic_0"]]', '"tuples":["n"]', "tuple of 'input_structure' is not a list"),
        ('"tuples":[["nic_0"]]', '"tuples":"n"', "tuples of 'input_structure' is not a list"),
        ('"tuples":[["nic_0"]]', '"tuples":[[0]]', "tuple of 'input_structure' entry is not"),
    ):
        assert field in good[0], field
        cases.append(([good[0].replace(field, broken, 1)] + good[1:], "line 1: .*" + message))
    # one well-formed event line, then the same line with one field broken
    arrival = (
        '{"step":0,"events":[{"kind":"external_in","from":"mains","to":"io_port",'
        '"moved":["dust_0"],"via":null,"updates":{}}]}'
    )
    for field, broken, message in (
        ('"updates":{}', '"updates":[1]', "line 2: updates is not an object"),
        ('"updates":{}', '"updates":{"core_0":5}', "line 2: update of 'core_0' is not an object"),
        ('"updates":{}', '"updates":{"core_0":{"v":[1]}}', "update of 'core_0' value 'v' is not"),
        ('"updates":{}', '"updates":{"core_0":{"v":{}}}', "update of 'core_0' value 'v' is not"),
        ('"from":"mains"', '"from":["mains"]', "line 2: from is not a string"),
        ('"to":"io_port"', '"to":["io_port"]', "line 2: to is not a string"),
        ('"moved":["dust_0"]', '"moved":"dust_0"', "line 2: moved is not a list"),
        ('"moved":["dust_0"]', '"moved":[["dust_0"]]', "line 2: moved entry is not a string"),
        # named before the set of movers is built, which could not hash a list
        ('"moved":["dust_0"]', '"moved":["dust_0",["dust_0"]]', "line 2: moved entry is not a"),
        ('"moved":["dust_0"]', '"moved":[{},{}]', "line 2: moved entry is not a string$"),
        ('"moved":["dust_0"]', '"moved":["dust_1","dust_0","dust_1","dust_0"]',
         "line 2: moved lists 'dust_0' twice$"),
        ('"updates":{}', '"updates":{"dust_0":{"v":Infinity}}',
         r"line 2: invalid JSON \(Infinity is not a finite number\)$"),
        ('"updates":{}', '"updates":{"dust_0":{"v":NaN}}', r"line 2: invalid JSON \(NaN is not a"),
        # an integer too long for Python to convert
        ('"step":0', '"step":' + "1" * 5000, r"line 2: invalid JSON \(Exceeds the limit"),
    ):
        cases.append(([good[0], arrival.replace(field, broken)], message))
    # of two broken fields of an event, the first in the order kind, moved,
    # from, to, via, updates is named
    no_moved = arrival.replace('"moved":["dust_0"],', "")
    for broken, message in (
        (no_moved.replace('"kind":"external_in"', '"kind":5'), "line 2: kind is not a string$"),
        (no_moved.replace('"to":"io_port"', '"to":5'),
         r"line 2: malformed event \(missing 'moved'\)$"),
        (arrival.replace('"from":"mains"', '"from":5').replace('"via":null', '"via":5'),
         "line 2: from is not a string$"),
        (arrival.replace('"via":null', '"via":5').replace('"updates":{}', '"updates":[]'),
         "line 2: via is not a string$"),
        # a line padded with whitespace is checked as any other
        ("  " + arrival.replace('"to":"io_port"', '"to":["io_port"]'),
         "line 2: to is not a string$"),
        # a byte order mark is not whitespace
        ("\ufeff" + arrival,
         r"line 2: invalid JSON \(Unexpected UTF-8 BOM \(decode using utf-8-sig\)\)$"),
    ):
        cases.append(([good[0], broken], message))
    ok = read_trace(write_lines(tmp_path / "ok.trace", [good[0], arrival, good[2]]))
    assert ok.n_steps == 2
    # step lines padded with spaces or tabs read as the unpadded lines
    padded = [good[0], " \t" + arrival + "  ", "\t" + good[2] + "\t"]
    assert read_trace(write_lines(tmp_path / "padded.trace", padded)) == ok
    for lines, message in cases:
        path = write_lines(tmp_path / "bad.trace", lines)
        with pytest.raises(TraceFormatError, match=message) as exc:
            read_trace(path)
        assert len(re.findall(r"\bline \d", str(exc.value))) == 1, str(exc.value)
        assert main(["classify", "--trace", str(path)]) == 3, message
    # an update whose number is too large for a float reads as an infinity,
    # which the replay refuses at its step
    for number in ("1e999", "-1e999"):
        huge = arrival.replace('"updates":{}', '"updates":{"dust_0":{"v":%s}}' % number)
        path = write_lines(tmp_path / "bad.trace", [good[0], huge])
        with pytest.raises(StepError, match="^step 0: a state update holds a number that is not finite$"):
            read_trace(path)
        assert main(["classify", "--trace", str(path)]) == 3, number

    (tmp_path / "void.trace").write_text("")
    with pytest.raises(TraceFormatError, match="empty trace file"):
        read_trace(tmp_path / "void.trace")
    with pytest.raises(OSError):
        read_trace(tmp_path / "does-not-exist.trace")


def test_read_trace_leaves_the_collector_as_it_found_it(tmp_path):
    # the collector is paused while a file is read, and restored on error too
    good = trace_to_text(make_scenario("off", SMALL, steps=2).trace).splitlines()
    files = [
        write_lines(tmp_path / "good.trace", good),
        write_lines(tmp_path / "bad.trace", good[:2] + ["{not json"]),
        write_lines(tmp_path / "skip.trace", good[:2] + [good[2].replace('"step":1', '"step":7')]),
    ]
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert read_trace(files[0]).n_steps == 2
            for path in files[1:]:
                with pytest.raises(TraceFormatError):
                    read_trace(path)
            assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()


def test_read_trace_replays_through_validation(tmp_path):
    # a well-formed file describing an impossible move still fails, with
    # the step named by the shared construction path
    t = make_scenario("aplysia", SMALL).trace
    lines = trace_to_text(t).splitlines()
    tampered = lines[1].replace('"moved":["stim_0"]', '"moved":["stim_3"]')
    assert tampered != lines[1]
    path = write_lines(tmp_path / "impossible.trace", [lines[0], tampered] + lines[2:])
    # stim_3 arrives early without complaint; the replay then breaks at
    # step 1, where the original schedule forwards the absent stim_0
    with pytest.raises(Exception, match="step 1: element 'stim_0'"):
        read_trace(path)


SCENARIOS = ("hebbian", "backprop", "aplysia", "sandpile", "off")


def read_ordered(path):
    """The trace, or the refusal, that `read_trace`'s ordered path gives:
    every line through `_step`, then `build_trace`."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(io_module, "_read_steps", lambda *args: None)
        return read_trace(path)


def reader_corpus():
    """Every scenario at two sizes, random traces, and the small factory traces."""
    traces = [
        make_scenario(name, ScenarioConfig(seed=1, trials=trials, test_count=trials // 2),
                      steps=6 * trials).trace
        for name in SCENARIOS for trials in (3, 30)
    ]
    traces += [random_trace(random.Random(seed), with_metadata=True) for seed in range(30)]
    traces += [out_and_back("w", "b", extra_steps=2, trips=3), steady_trace(["a", "b"], steps=5)]
    return traces


def test_read_trace_equals_the_ordered_path(tmp_path):
    for i, t in enumerate(reader_corpus()):
        path = tmp_path / f"{i}.trace"
        write_trace(t, path)
        fast, ordered = read_trace(path), read_ordered(path)
        assert fast == ordered == t, i
        assert trace_to_text(fast).encode() == trace_to_text(ordered).encode() == path.read_bytes()
    # padded lines and extra keys: the ordered path reads them, as it always has
    t = make_scenario("aplysia", SMALL).trace
    lines = trace_to_text(t).splitlines()
    for changed in (
        [" " + lines[1] + "\t"],
        [lines[1] + "  "],
        [lines[1].replace('{"events":', '{"note":1,"events":', 1)],
        [lines[1].replace('"from":', '"note":[],"from":', 1)],
    ):
        path = write_lines(tmp_path / "changed.trace", lines[:1] + changed + lines[2:])
        initial, declarations, _ = io_module._header(lines[0])
        assert io_module._read_steps(lines[:1] + changed, initial, declarations) is None
        assert read_trace(path) == read_ordered(path) == t


def test_valid_scenario_files_are_read_in_one_pass(tmp_path, monkeypatch):
    # a one-pass reader that always handed its files to the ordered path
    # would still read them right; on valid files it must not
    paths = []
    for i, t in enumerate(reader_corpus()):
        paths.append(tmp_path / f"{i}.trace")
        write_trace(t, paths[-1])

    def no_step(*args):
        raise AssertionError("read a line by the ordered path")

    monkeypatch.setattr(io_module, "_step", no_step)
    for path in paths:
        read_trace(path)


def test_reading_builds_the_snapshot_make_snapshot_builds(tmp_path, monkeypatch):
    paths = []
    for i, t in enumerate(reader_corpus()):
        paths.append(tmp_path / f"{i}.trace")
        write_trace(t, paths[-1])
    for path in paths:
        header = json.loads(path.read_text().splitlines()[0])
        expected = make_snapshot(
            [(eid, state) for eid, _, state in header["elements"]],
            {eid: region for eid, region, _ in header["elements"]},
            {region: side for region, side in header["regions"]},
        )
        initial = read_trace(path).initial
        assert initial == expected, path
        # and in the same order, which later walks of the roster follow
        for field in ("membership", "region_side", "states"):
            assert list(getattr(initial, field).items()) == list(getattr(expected, field).items())

    def no_snapshot(*args):
        raise AssertionError("read a header through make_snapshot")

    for module in (universe_module, evolution_module, io_module):
        monkeypatch.setattr(module, "make_snapshot", no_snapshot, raising=False)
    for path in paths:
        read_trace(path)


def test_of_two_header_faults_the_same_one_is_named(tmp_path):
    # the faults make_snapshot would find come after every format fault of
    # the header, and among themselves in its order: by entry, a duplicate
    # id or a state that is not finite, then an unknown side, then a region
    # without one
    good = trace_to_text(make_scenario("off", SMALL, steps=2).trace).splitlines()
    huge_core = ('"core_0","cpu",{}', '"core_0","cpu",{"v":1e999}')
    huge_dust = ('"dust_1","mains",{}', '"dust_1","mains",{"v":1e999}')
    no_cpu = ('["cpu","system"],', "")
    for faults, message in (
        ([huge_core, ('["idle",0,2]', '["idle",0]')], "phase entry is not a list of 3"),
        ([huge_core, ('"arity":1', '"arity":"x"')],
         "arity of 'input_structure' is not an integer"),
        ([no_cpu, huge_dust], "initial state of 'dust_1' holds a number that is not finite"),
        ([('["ram","system"]', '["ram","nowhere"]'), no_cpu],
         "region 'ram' has unknown side 'nowhere'"),
        ([huge_dust, ('"elements":[', '"elements":[["core_0","ram",{}],')],
         "duplicate element id 'core_0'"),
        # and each fault alone
        ([huge_dust], "initial state of 'dust_1' holds a number that is not finite"),
        ([no_cpu], "region 'cpu' without side"),
        ([('["ram","system"]', '["ram",["system"]]')],
         r"region 'ram' has unknown side \['system'\]"),
    ):
        header = good[0]
        for old, new in faults:
            assert old in header, old
            header = header.replace(old, new, 1)
        path = write_lines(tmp_path / "two.trace", [header] + good[1:])
        for read in (read_trace, read_ordered):
            with pytest.raises(TraceFormatError, match=f"^line 1: {message}$"):
                read(path)


# ids the encoder escapes: non-ASCII characters, some outside the basic
# plane (written as surrogate pairs), quotes, backslashes, control
# characters and the solidus, which it leaves as it is
ODD_IDS = ["caf\u00e9", "\U0001d518", "\U0001f600 x", 'say "hi"', "back\\slash", "tab\tnl\n",
           "nul\x00\x1f\x7f", "a/b", "\u2028\ufeff"]
# state values of every scalar kind the encoder writes
ODD_VALUES = [True, False, 0, -7, 2**70, -(2**70), -0.0, 1e-300, 1e16, 1.5,
              np.float64(0.1), np.float64(-2.5e-8), "tag", "\u00e9t\u00e9"]


def odd_trace(ids, values, steps=4):
    """A trace over `ids` in regions and structures named by odd ids too,
    holding `values` in its states and updates: steps of two events, of
    none, and events with and without ``via``."""
    inside, core, outside = ids[0] + "-in", ids[1] + "-core", ids[2] + "-out"
    sides = {inside: "system", core: "system", outside: "environment"}
    every = {f"k{j}": v for j, v in enumerate(values)}
    states = [{k: v for j, (k, v) in enumerate(every.items()) if (i + j) % 3 == 0}
              for i in range(len(ids))]
    initial = make_snapshot(list(zip(ids, states)), {eid: outside for eid in ids}, sides)
    declarations = [
        StructureRelation(id=f"{ids[k]}:{role}", role=role, arity=1,
                          tuples=frozenset((eid,) for eid in ids[k:]),
                          scope=frozenset({inside, core}))
        for k, role in enumerate(("input", "processing", "output"))
    ]
    via = [d.id for d in declarations]
    a, b, c, d = ids[:4]
    schedule = [
        [TransferEvent.make(0, EXTERNAL_IN, {a, b}, outside, inside, via[0],
                            {c: {"v": values[0]}})],
        [],
        [TransferEvent.make(2, INTERNAL, {a}, inside, core, via[1], {a: every}),
         TransferEvent.make(2, EXTERNAL_IN, {c, d}, outside, inside, None,
                            {b: {"w": values[-1], "x": values[len(values) // 2]}})],
        [TransferEvent.make(3, EXTERNAL_OUT, {b, d}, inside, outside, via[2])],
    ][:steps]
    phases = [Phase(ids[-1], 0, len(schedule)), Phase(ids[0], len(schedule), len(schedule))]
    return build_trace(initial, schedule, phases, declarations)


def test_writer_matches_the_reference_writer(tmp_path):
    bundle = make_scenario("off", SMALL, steps=1)
    traces = reader_corpus() + [Trace(bundle.trace.initial, (), (), bundle.trace.declarations)]
    traces += [odd_trace(ODD_IDS[k:] + ODD_IDS[:k], ODD_VALUES[k:] + ODD_VALUES[:k], steps)
               for k in range(len(ODD_IDS)) for steps in (0, 4)]
    for i, t in enumerate(traces):
        text = trace_to_text(t)
        assert text.encode() == reference_trace_text(t).encode(), i
        path = tmp_path / f"{i}.trace"
        path.write_text(text)
        assert trace_to_text(read_trace(path)) == text, i
    # a number that is not finite, in an initial state or in an update,
    # named as the reference writer names it
    t = odd_trace(ODD_IDS, ODD_VALUES)
    for value in (float("inf"), float("-inf"), float("nan")):
        states = {**t.initial.states, ODD_IDS[3]: {"v": value}}
        event = TransferEvent.make(1, INTERNAL, {ODD_IDS[0]}, t.events[0][0].to_region,
                                   t.events[2][0].to_region, None, {ODD_IDS[3]: {"v": value}})
        for broken, message in (
            (Trace(replace(t.initial, states=states), t.events), "an initial state holds"),
            (Trace(t.initial, t.events[:1] + ((event,),)), "step 1: a state update holds"),
        ):
            for write in (trace_to_text, reference_trace_text):
                with pytest.raises(ConstructionError) as exc:
                    write(broken)
                assert str(exc.value) == f"{message} a number that is not finite"


def test_ids_that_are_not_strings_are_refused(tmp_path):
    # the reader refuses such ids, so the writer writes no file that holds one
    sides = {"env": "environment", "sys": "system"}
    numbered = make_snapshot([(1, {}), (2, {})], {1: "env", 2: "sys"}, sides)
    mixed = make_snapshot([("b", {}), (1, {})], {"b": "env", 1: "sys"}, sides)
    region = make_snapshot([("a", {})], {"a": 5}, {5: "system", "env": "environment"})
    lettered = make_snapshot([("a", {}), ("b", {})], {"a": "env", "b": "env"}, sides)
    numbered_via = StructureRelation(id=7, role="input", arity=1, tuples=frozenset({("a",)}),
                                     scope=frozenset({"sys"}))
    arrival = TransferEvent.make(1, EXTERNAL_IN, {"a"}, "env", "sys", 7)
    for t, message in (
        (build_trace(numbered, []), "id 1 is not a string"),
        (build_trace(mixed, [[]]), "id 1 is not a string"),
        (build_trace(region, []), "id 5 is not a string"),
        (build_trace(lettered, [[], [arrival]], declarations=[numbered_via]),
         "step 1: id 7 is not a string"),
        # events built without validation: a mover, a kind, a region
        (Trace(lettered, ((TransferEvent.make(0, EXTERNAL_IN, {1, "a"}, "env", "sys"),),)),
         "step 0: id 1 is not a string"),
        (Trace(lettered, ((), (TransferEvent.make(1, 3, {"a"}, "env", "sys"),))),
         "step 1: id 3 is not a string"),
        (Trace(lettered, ((TransferEvent.make(0, EXTERNAL_IN, {"a"}, "env", 4),),)),
         "step 0: id 4 is not a string"),
    ):
        path = tmp_path / "ids.trace"
        with pytest.raises(ConstructionError, match=f"^{message}$"):
            write_trace(t, path)
        assert not path.exists()


ARRIVAL = {"from": "sea", "kind": "external_in", "moved": ["stim_0"], "to": "receptors",
           "updates": {}, "via": "input_structure"}


def step_line(*events, step=0):
    return json.dumps({"events": list(events), "step": step}, sort_keys=True)


def arrival(**fields):
    """The first event of the SMALL aplysia trace, with some fields changed."""
    return {**ARRIVAL, **fields}


# step-0 lines of the SMALL aplysia trace, each with one fault, and how it is
# named: first faults whose values every lookup of the one-pass reader takes
FORMAT_FAULTS = [
    (step_line(arrival()) + " x", r"^line 2: invalid JSON \(Extra data\)$"),
    (step_line(arrival(moved={"stim_0": 0})), "^line 2: moved is not a list$"),
    (step_line(arrival(updates=[])), "^line 2: updates is not an object$"),
    (step_line(arrival(updates={"syn": []})), "^line 2: update of 'syn' is not an object$"),
    (step_line(arrival(updates={"syn": {"v": None}})), "^line 2: update of 'syn' value 'v' is"),
    (step_line(arrival(), step=True), "^line 2: step is not an integer$"),
]
# then fields all of the right kind, each failing one check of the validation
STEP_FAULTS = [
    (step_line(arrival(via="ghost")), "step 0: event attributed to undeclared structure 'ghost'$"),
    (step_line(arrival(kind="sideways")), "step 0: unknown event kind 'sideways'$"),
    (step_line(arrival(kind="internal")), "step 0: internal event connects environment to system"),
    (step_line(arrival(to="sea")), "step 0: event moves nothing across regions$"),
    (step_line(arrival(kind="internal", moved=["skin_0"], **{"from": "receptors", "to": "receptors"})),
     "step 0: event moves nothing across regions$"),
    (step_line(arrival(to="elsewhere")), "step 0: unknown region 'elsewhere'$"),
    (step_line(arrival(moved=[])), "step 0: event moves no elements$"),
    (step_line(arrival(moved=["resp_0"])), "step 0: element 'resp_0' is in 'gill_muscle', not"),
    (step_line(arrival(moved=["ghost"])), "step 0: unknown element 'ghost'$"),
    (step_line(arrival(updates={"ghost": {"v": 1}})),
     "step 0: state update names unknown element 'ghost'$"),
    (step_line(arrival(updates={"syn": {"v": 1.5}})).replace("1.5", "1e999"),
     "step 0: a state update holds a number that is not finite$"),
    (step_line(arrival(), arrival(to="motor_pool")), "step 0: element 'stim_0' moved by two"),
    # a second move from the first one's `to` would pass a running membership
    (step_line(arrival(), arrival(kind="internal", **{"from": "receptors", "to": "motor_pool"})),
     "step 0: element 'stim_0' moved by two events$"),
    (step_line(arrival(), arrival(kind="external_out", **{"from": "receptors", "to": "sea"})),
     "step 0: boundary double-move of element 'stim_0'$"),
    (step_line(arrival(updates={"syn": {"v": 1}}), arrival(moved=["stim_1"], updates={"syn": {}})),
     "step 0: conflicting state updates for 'syn'$"),
]


def test_each_fault_is_left_to_the_ordered_path(tmp_path):
    t = make_scenario("aplysia", SMALL).trace
    lines = trace_to_text(t).splitlines()
    assert json.loads(lines[1])["events"] == [ARRIVAL]
    initial, declarations, _ = io_module._header(lines[0])
    # the unchanged event and a valid two-event step are read in one pass
    for valid in (step_line(arrival()), step_line(arrival(), arrival(moved=["stim_1"]))):
        assert io_module._read_steps([lines[0], valid], initial, declarations) is not None
    faults = [(line, TraceFormatError, message) for line, message in FORMAT_FAULTS]
    faults += [(line, StepError, message) for line, message in STEP_FAULTS]
    for line, error, message in faults:
        assert io_module._read_steps([lines[0], line], initial, declarations) is None, message
        path = write_lines(tmp_path / "bad.trace", [lines[0], line])
        for read in (read_trace, read_ordered):
            with pytest.raises(error, match=message):
                read(path)


def test_of_two_faults_the_ordered_path_names_the_same_one(tmp_path):
    t = make_scenario("aplysia", SMALL).trace
    lines = trace_to_text(t).splitlines()
    moved_off = step_line(arrival(moved=["resp_0"]))
    scoped = lines[0].replace('"scope":["receptors"]', '"scope":["attic"]', 1)
    late = lines[0].replace('["test",12,18]', '["test",12,99]', 1)
    assert scoped != lines[0] and late != lines[0]
    for changed, message in (
        # a format fault on the last line comes before a step fault at step 0
        ([lines[0], moved_off] + lines[2:-1] + ["{not json"],
         rf"^line {len(lines)}: invalid JSON"),
        # a bad declaration comes before a step fault
        ([scoped, moved_off] + lines[2:],
         "^line 1: declaration 'input_structure' scopes unknown region 'attic'$"),
        # a step fault comes before a bad phase
        ([late, moved_off] + lines[2:], "^step 0: element 'resp_0' is in"),
    ):
        path = write_lines(tmp_path / "two.trace", changed)
        for read in (read_trace, read_ordered):
            with pytest.raises(ConstructionError, match=message):
                read(path)


def test_parse_window():
    assert parse_window("0:30") == (0, 30)
    assert parse_window("-1:2") == (-1, 2)
    with pytest.raises(ValueError, match="A:B"):
        parse_window("0-30")
    with pytest.raises(ValueError, match="integers"):
        parse_window("a:b")


def test_load_config_parses_typed_fields(tmp_path):
    path = write_lines(
        tmp_path / "scenario.cfg",
        [
            "# quick run",
            "",
            "seed = 42",
            "trials=5",
            "learning_rate = 0.25",
            "aplysia_stimuli = weak",
        ],
    )
    cfg = load_config(path)
    assert cfg.seed == 42
    assert cfg.trials == 5
    assert cfg.learning_rate == 0.25
    assert cfg.aplysia_stimuli == "weak"
    # untouched fields keep their defaults
    assert cfg.pattern_size == ScenarioConfig().pattern_size


@pytest.mark.parametrize(
    "line, message",
    [
        ("speed = 9", "line 1: unknown config key"),
        ("trials = many", "line 1: bad value for 'trials'"),
        ("trials 9", "line 1: expected key=value"),
        # a key given twice must not keep its last value
        pytest.param(
            "trials = 4\n# again\ntrials = 6",
            "line 3: config key 'trials' listed twice",
            id="key listed twice",
        ),
    ],
)
def test_load_config_rejects_bad_lines(tmp_path, line, message):
    path = write_lines(tmp_path / "bad.cfg", [line])
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_shipped_mapping_loads():
    data = default_mimicry_mapping()
    assert data["format"] == "mindsets-mimicry"
    components = mapping_components(data)
    assert set(components) == {"input", "processing", "output"}
    assert components["output"][("gill",)] == ("judge",)
    assert mapping_object_map(data, 4) == (0, 1, 2, 3)


def test_mapping_file_validation(tmp_path):
    good = default_mimicry_mapping()

    def dump(data):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(data))
        return path

    assert load_mapping(dump(good))["object_map"] == "identity"

    with pytest.raises(MappingFormatError, match="not a mimicry mapping"):
        load_mapping(dump({**good, "format": "recipe"}))
    with pytest.raises(MappingFormatError, match="unsupported mapping version"):
        load_mapping(dump({**good, "version": 3}))
    for version in (True, 1.0):
        with pytest.raises(MappingFormatError, match=f"unsupported mapping version {version}"):
            load_mapping(dump({**good, "version": version}))
    with pytest.raises(MappingFormatError, match="components table"):
        load_mapping(dump({k: v for k, v in good.items() if k != "components"}))
    with pytest.raises(MappingFormatError, match="object_map"):
        load_mapping(dump({**good, "object_map": 7}))
    (tmp_path / "map.json").write_text("{broken")
    with pytest.raises(MappingFormatError, match="invalid JSON"):
        load_mapping(tmp_path / "map.json")


def test_explicit_object_maps():
    data = {**default_mimicry_mapping(), "object_map": [[0, 0], [1, 2], [2, 4]]}
    assert mapping_object_map(data, 3) == (0, 2, 4)
    with pytest.raises(MappingFormatError, match=r"misses source objects \[3\]$"):
        mapping_object_map(data, 4)
    # a long source mapped by one pair: the first few missing objects and their count
    with pytest.raises(MappingFormatError) as exc:
        mapping_object_map({**data, "object_map": [[0, 0]]}, 12001)
    assert str(exc.value) == (
        "object_map misses source objects [1, 2, 3, 4, 5, ...] (12000 of 12001)"
    )
    for pairs in (
        [["a", "b"]],
        [[0, 0], [1, 0.9], [2, True]],
        [[0, 0], [1, "1"], [2, 2]],
        [[0, 0], [1, 1, 1], [2, 2]],
        [[0, 0], [1], [2, 2]],
        [[False, 0], [1, 1], [2, 2]],
        [7, [1, 1], [2, 2]],
    ):
        with pytest.raises(MappingFormatError, match="int, int"):
            mapping_object_map({**data, "object_map": pairs}, 3)
    with pytest.raises(MappingFormatError, match="source object 1 twice"):
        mapping_object_map({**data, "object_map": [[0, 0], [1, 1], [1, 2], [2, 2]]}, 3)
    for extra in ([3, 0], [-1, 0]):
        with pytest.raises(MappingFormatError, match=rf"source object {extra[0]}, outside 0\.\.2"):
            mapping_object_map({**data, "object_map": [[0, 0], [1, 2], [2, 4], extra]}, 3)


def test_mapping_components_shape_errors():
    for pairs in (
        5,
        [["skin_0", "in_px_0"]],
        [[["skin_0"], "in_px_0"]],
        [[["skin_0"], [["in_px_0"]]]],
    ):
        with pytest.raises(MappingFormatError, match="component map for 'input'"):
            mapping_components({"components": {"input": pairs}})
    # one source tuple with two images: neither may silently win
    twice = [[["skin_0"], ["in_px_1"]], [["skin_1"], ["in_px_1"]], [["skin_0"], ["in_px_0"]]]
    with pytest.raises(
        MappingFormatError,
        match=r"component map for 'input' lists source tuple \('skin_0',\) twice",
    ):
        mapping_components({"components": {"input": twice}})
    # a role the functor does not have, even with an empty map
    for role in ("outptu", "other"):
        for pairs in ([], [[["nonexistent"], ["x"]]]):
            with pytest.raises(MappingFormatError, match=f"unknown role '{role}'"):
                mapping_components({"components": {"input": [], role: pairs}})


def test_render_classification_report():
    t = make_scenario("hebbian", SMALL).trace
    doc = render_report(classify(t, (0, t.n_steps)))
    assert doc.kind == "classification"
    assert "verdict: true" in doc.body
    assert "| input | yes |" in doc.body
    # step sets render as run ranges
    assert "-" in doc.body


def test_render_activity_report():
    t = make_scenario("off", SMALL, steps=4).trace
    doc = render_report(activity(t, (0, 4), mode="element"))
    assert doc.kind == "activity"
    assert "step_activity: 0.0" in doc.body
    assert "reported metric: element_rate" in doc.body


def test_render_law_report():
    f = functor_from_trace(make_scenario("aplysia", SMALL).trace)
    doc = render_report(check_functor_laws(f))
    assert doc.kind == "law"
    assert "result: all laws hold" in doc.body


def test_render_oracle_report():
    t = random_trace(random.Random(3))
    window = (0, t.n_steps)
    doc = render_report((classify(t, window), brute_force_classify(t, window)))
    assert doc.kind == "oracle"
    assert "agreement: yes" in doc.body


def test_render_scenario_and_trace_tables():
    bundle = make_scenario("hebbian", SMALL)
    doc = render_report(bundle)
    assert doc.kind == "table"
    assert "test accuracy:" in doc.body
    assert "[input -> processing -> output] x 4" in doc.body
    bare = render_report(bundle.trace)
    assert bare.kind == "table"
    assert "test accuracy:" not in bare.body


def test_render_rejects_unknown_subjects():
    with pytest.raises(Exception, match="cannot render"):
        render_report(42)
