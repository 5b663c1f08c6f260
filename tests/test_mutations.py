"""Mutation fuzzing of every file the CLI reads: trace, mapping and config.

Each mutant changes one JSON value of a valid trace line or mapping, or one
line of a config file, and goes through `cli.main`. No mutant may escape as
an exception or exit with anything but 0, 1 or 3, and a refused trace must
name its line or step exactly once. Trace mutants with one or two changed
values must also read as the ordered path, `_step` on every line, reads them.
"""

import contextlib
import io
import json
import re
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mindsets import (
    ScenarioConfig,
    default_mimicry_mapping,
    make_scenario,
    read_trace,
    trace_to_text,
)
from mindsets.cli import main
from mindsets.scenarios import SCENARIO_NAMES

from factories import outcome, read_ordered

# derandomized: the same mutants on every run, a few seconds in all
FUZZ = settings(
    derandomize=True,
    deadline=None,
    max_examples=120,
    suppress_health_check=[HealthCheck.too_slow],
)

# stand-ins of every JSON type, the side names, and the empty containers
SPECIAL = (None, True, False, 0, -1, 1, 2, 1.5, float("nan"), float("inf"), "", "x", "system",
           "environment", [], [""], ["x"], {}, {"x": 1})
_names = st.text(alphabet="abxyz_019", max_size=4)
JSON_VALUES = st.sampled_from(SPECIAL) | st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | _names,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_names, inner, max_size=3),
    max_leaves=6,
)
QUICK = ScenarioConfig(seed=1, trials=4, test_count=2)


def value_paths(value, path=()):
    """The path of `value` and of every value nested in it."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, inner in items:
            yield from value_paths(inner, path + (key,))


def replaced(value, path, new):
    """`value` with the value at `path` replaced by `new`."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


def mutant(draw, document, values=JSON_VALUES):
    """`document` with one of its values replaced by one of `values`, as
    compact JSON text, the form a trace's step lines are written in."""
    path = draw(st.sampled_from(list(value_paths(document))))
    return json.dumps(replaced(document, path, draw(values)), separators=(",", ":"))


def vocabulary(header: dict):
    """Values a trace's own step lines could hold: its element, region and
    declaration ids, the event kinds, and short lists of its elements."""
    elements = [eid for eid, _, _ in header["elements"]]
    names = elements + [r for r, _ in header["regions"]] + [d["id"] for d in header["declarations"]]
    names += ["external_in", "external_out", "internal"]
    return st.sampled_from(names) | st.lists(st.sampled_from(elements), max_size=3)


def run(*argv):
    """Exit code and stderr of one CLI run; any exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 3), (argv, code, err.getvalue())
    return code, err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutants")
    paths = {"root": root}
    for name in ("aplysia", "hebbian"):
        paths[name] = root / f"{name}.trace"
        paths[name].write_text(trace_to_text(make_scenario(name, QUICK).trace))
    return paths


@FUZZ
@given(data=st.data())
def test_trace_mutants_exit_cleanly_and_name_their_line(files, data):
    lines = files["aplysia"].read_text().splitlines()
    # the header, or one of the first step lines
    at = data.draw(st.integers(0, 3), label="line")
    lines[at] = mutant(data.draw, json.loads(lines[at]))
    path = files["root"] / "mutant.trace"
    path.write_text("\n".join(lines) + "\n")
    code, err = run("classify", "--trace", str(path))
    if code == 3:
        assert len(re.findall(r"\b(?:line|step) \d+:", err)) == 1, err


@settings(FUZZ, max_examples=300)
@given(data=st.data())
def test_trace_mutants_read_as_the_ordered_path_reads_them(files, data):
    # the reader's decode of the written form gives the trace or refusal of
    # the ordered path, `_step` on every line; with two faults, the same one
    # is named
    lines = files["aplysia"].read_text().splitlines()
    values = JSON_VALUES | vocabulary(json.loads(lines[0]))
    for _ in range(data.draw(st.integers(1, 2), label="changes")):
        at = data.draw(st.integers(0, 5), label="line")
        lines[at] = mutant(data.draw, json.loads(lines[at]), values)
    path = files["root"] / "mutant.trace"
    path.write_text("\n".join(lines) + "\n")
    assert outcome(read_trace, path) == outcome(read_ordered, path)


@settings(FUZZ, max_examples=60)  # each run builds two functors
@given(data=st.data())
def test_mapping_mutants_exit_cleanly(files, data):
    path = files["root"] / "mutant.json"
    path.write_text(mutant(data.draw, default_mimicry_mapping()))
    run("mimic-check", "--source", str(files["aplysia"]), "--target", str(files["hebbian"]),
        "--map", str(path))


CONFIG = ["# base", "seed = 3", "trials = 2", "test_count = 1", "aplysia_stimuli = weak"]
CONFIG_KEYS = [f.name for f in fields(ScenarioConfig)] + ["", "speed"]
CONFIG_VALUES = ["0", "1", "2", "3", "-1", "0.5", "1.5", "1e-3", "12", "nan", "inf", "-inf",
                 "", "x", "weak", "strong", "True"]


@FUZZ
@given(
    at=st.integers(0, len(CONFIG) - 1),
    key=st.sampled_from(CONFIG_KEYS),
    separator=st.sampled_from([" = ", "=", " ", "==", ""]),
    value=st.sampled_from(CONFIG_VALUES),
    scenario=st.sampled_from(SCENARIO_NAMES),
)
def test_config_mutants_exit_cleanly(files, at, key, separator, value, scenario):
    lines = list(CONFIG)
    lines[at] = f"{key}{separator}{value}"
    path = files["root"] / "mutant.cfg"
    path.write_text("\n".join(lines) + "\n")
    run("run", "--scenario", scenario, "--config", str(path), "--steps", "5",
        "--out", str(files["root"] / "out.trace"))
