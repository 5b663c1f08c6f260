"""Command-line behavior: subcommands, windows, exit codes."""

import gc
import json
import os
import random
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import mindsets
from mindsets import classify, cli, default_mimicry_mapping, write_trace
from mindsets.cli import main

from factories import out_and_back, random_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def small_traces(tmp_path, capsys):
    """One trace per scenario at a quick shared size, via the run command."""
    cfg = tmp_path / "quick.cfg"
    cfg.write_text("trials = 4\ntest_count = 2\n")
    paths = {}
    for name in ("hebbian", "backprop", "aplysia", "sandpile", "off"):
        out = tmp_path / f"{name}.trace"
        code, stdout, _ = run_cli(
            capsys, "run", "--scenario", name, "--config", str(cfg),
            "--steps", "18", "--out", str(out),
        )
        assert code == 0
        assert f"wrote {out}" in stdout
        paths[name] = out
    return paths


def test_run_seed_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("seed = 9\ntrials = 3\ntest_count = 1\n")
    by_config = tmp_path / "a.trace"
    by_flag = tmp_path / "b.trace"
    assert run_cli(capsys, "run", "--scenario", "sandpile", "--config", str(cfg),
                   "--out", str(by_config))[0] == 0
    cfg.write_text("seed = 0\ntrials = 3\ntest_count = 1\n")
    assert run_cli(capsys, "run", "--scenario", "sandpile", "--config", str(cfg),
                   "--seed", "9", "--out", str(by_flag))[0] == 0
    assert by_config.read_bytes() == by_flag.read_bytes()


def test_classify_verdicts_drive_the_exit_code(small_traces, capsys):
    code, out, _ = run_cli(capsys, "classify", "--trace", str(small_traces["hebbian"]))
    assert code == 0
    assert "verdict: true" in out
    code, out, _ = run_cli(capsys, "classify", "--trace", str(small_traces["off"]))
    assert code == 1
    assert "verdict: false" in out


def test_classify_windows(small_traces, capsys):
    trace = str(small_traces["aplysia"])
    code, out, _ = run_cli(capsys, "classify", "--trace", trace, "--window", "0:3")
    assert code == 0 and "window: 0:3" in out
    # the middle step of a trial moves nothing across the boundary
    code, out, _ = run_cli(capsys, "classify", "--trace", trace, "--window", "1:2")
    assert code == 1
    code, _, err = run_cli(capsys, "classify", "--trace", trace, "--window", "5:5")
    assert code == 2 and "empty window" in err
    code, _, err = run_cli(capsys, "classify", "--trace", trace, "--window", "0:999")
    assert code == 2 and "outside steps" in err
    code, _, _ = run_cli(capsys, "classify", "--trace", trace, "--window", "nope")
    assert code == 2


def test_bad_inputs_exit_three(small_traces, tmp_path, capsys):
    code, _, err = run_cli(capsys, "classify", "--trace", str(tmp_path / "none.trace"))
    assert code == 3 and "error:" in err
    garbage = tmp_path / "garbage.trace"
    garbage.write_text("not a trace\n")
    assert run_cli(capsys, "classify", "--trace", str(garbage))[0] == 3
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("speed = 9\n")
    code, _, err = run_cli(capsys, "run", "--scenario", "off", "--config", str(cfg),
                           "--out", str(tmp_path / "x.trace"))
    assert code == 3 and "unknown config key" in err
    # non-finite floats would pass every bound written as x <= 0
    for line in ("learning_rate = nan", "threshold = inf", "initial_strength = nan"):
        cfg.write_text(line + "\n")
        code, _, err = run_cli(capsys, "run", "--scenario", "hebbian", "--config", str(cfg),
                               "--out", str(tmp_path / "x.trace"))
        assert code == 3 and f"{line.split()[0]} must be finite" in err, line
    # numpy refuses a negative seed; each scenario that reads the config refuses it first
    cfg.write_text("seed = -1\n")
    for scenario in ("hebbian", "backprop", "sandpile", "aplysia"):
        for argv in (("--config", str(cfg)), ("--seed", "-1")):
            code, _, err = run_cli(capsys, "run", "--scenario", scenario, *argv,
                                   "--out", str(tmp_path / "x.trace"))
            assert code == 3 and "seed must be >= 0" in err, (scenario, argv)
    # the off scenario reads no knob but refuses a bad config all the same
    for line, message in (("seed = -1", "seed must be >= 0"), ("noise = 5", "noise must lie")):
        cfg.write_text(line + "\n")
        code, _, err = run_cli(capsys, "run", "--scenario", "off", "--config", str(cfg),
                               "--out", str(tmp_path / "x.trace"))
        assert code == 3 and message in err, line
    # a learning rate whose weights overflow: no trace file holds an infinity
    cfg.write_text("learning_rate = 1e308\ntrials = 40\n")
    for scenario in ("hebbian", "aplysia", "backprop"):
        out = tmp_path / f"{scenario}-overflow.trace"
        with warnings.catch_warnings():  # numpy warns as the hebbian weights overflow
            warnings.simplefilter("ignore", RuntimeWarning)
            code, _, err = run_cli(capsys, "run", "--scenario", scenario, "--config", str(cfg),
                                   "--out", str(out))
        assert code == 3 and re.search(r"step \d+: a state update holds a number that is "
                                       "not finite", err), scenario
        assert not out.exists()
    # a key given twice must not keep its last value
    cfg.write_text("trials = 4\ntrials = 6\n")
    code, _, err = run_cli(capsys, "run", "--scenario", "aplysia", "--config", str(cfg),
                           "--out", str(tmp_path / "x.trace"))
    assert code == 3 and "line 2: config key 'trials' listed twice" in err

    # bytes that are not UTF-8 name the file and the offset of the first bad byte
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b'{"format": "caf\xe9"}\n')
    for argv in (
        ("classify", "--trace", str(latin1)),
        ("run", "--scenario", "off", "--config", str(latin1), "--out", str(tmp_path / "y")),
        ("mimic-check", "--source", str(small_traces["aplysia"]),
         "--target", str(small_traces["hebbian"]), "--map", str(latin1)),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3 and f"{latin1}: byte 15 is not UTF-8 text" in err, argv

    # the shipped mapping with a second image for one source tuple
    data = default_mimicry_mapping()
    data["components"]["input"].insert(0, [["skin_0"], ["in_px_1"]])
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "mimic-check", "--source", str(small_traces["aplysia"]),
                           "--target", str(small_traces["hebbian"]), "--map", str(twice))
    assert code == 3 and "lists source tuple ('skin_0',) twice" in err

    # a mapping key listed twice must not keep its last value: here the first
    # "input" holds a ghost image, and the last one the shipped map
    shipped = json.dumps(default_mimicry_mapping()["components"]["input"])
    twice.write_text(json.dumps(default_mimicry_mapping()).replace(
        '"components": {', '"components": {"input": [[["skin_0"], ["ghost"]]], ', 1))
    assert f'"input": {shipped}' in twice.read_text()
    code, _, err = run_cli(capsys, "mimic-check", "--source", str(small_traces["aplysia"]),
                           "--target", str(small_traces["hebbian"]), "--map", str(twice))
    assert code == 3 and "error: invalid JSON (key 'input' listed twice)" in err

    # a state value that is not a finite number
    lines = small_traces["aplysia"].read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if '"strength":' in line)
    for constant in ("NaN", "Infinity", "-Infinity"):
        broken = re.sub(r'"strength":[^,}]+', f'"strength":{constant}', lines[at], count=1)
        nan = tmp_path / "nan.trace"
        nan.write_text("\n".join(lines[:at] + [broken] + lines[at + 1:]) + "\n")
        code, _, err = run_cli(capsys, "classify", "--trace", str(nan))
        assert code == 3 and f"line {at + 1}: invalid JSON ({constant} is not a" in err
    # and a number too large for a float, which reads as an infinity: in the
    # initial state or in an update
    update = next(i for i, line in enumerate(lines) if i and '"strength":' in line)
    for at, message in (
        (0, "line 1: initial state of 'syn' holds"),
        (update, f"step {update - 1}: a state update holds"),
    ):
        for number in ("1e999", "-1e999"):
            broken = re.sub(r'"strength":[^,}]+', f'"strength":{number}', lines[at], count=1)
            huge = tmp_path / "huge.trace"
            huge.write_text("\n".join(lines[:at] + [broken] + lines[at + 1:]) + "\n")
            code, _, err = run_cli(capsys, "classify", "--trace", str(huge))
            assert (code, err) == (3, f"error: {message} a number that is not finite\n"), number

    # a header key listed twice must not be read as its last value: a phases
    # list would drop the ghost phase
    header = lines[0]
    for key, first in (("phases", '[["ghost",0,1]]'), ("elements", "[]"), ("regions", "[]"),
                       ("declarations", "[]")):
        assert f'"{key}":[' in header, key
        twice = tmp_path / "twice.trace"
        twice.write_text("\n".join(
            [header.replace(f'"{key}":[', f'"{key}":{first},"{key}":[', 1)] + lines[1:]) + "\n")
        code, out, err = run_cli(capsys, "report", "--trace", str(twice))
        assert (code, out, err) == (
            3, "", f"error: line 1: invalid JSON (key '{key}' listed twice)\n"
        ), key

    # the shipped mapping with object pairs outside the source's 19 objects (18 steps)
    data = {**default_mimicry_mapping(), "object_map": [[i, i] for i in range(19)]}
    for extra in ([99, 0], [-1, 0]):
        stray = tmp_path / "stray.json"
        stray.write_text(json.dumps({**data, "object_map": data["object_map"] + [extra]}))
        code, _, err = run_cli(capsys, "mimic-check", "--source", str(small_traces["aplysia"]),
                               "--target", str(small_traces["hebbian"]), "--map", str(stray))
        assert code == 3 and f"source object {extra[0]}, outside 0..18" in err, extra

    # the shipped mapping with a map for a misspelt role
    data = default_mimicry_mapping()
    data["components"]["outptu"] = [[["nonexistent"], ["x"]]]
    misspelt = tmp_path / "misspelt.json"
    misspelt.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "mimic-check", "--source", str(small_traces["aplysia"]),
                           "--target", str(small_traces["hebbian"]), "--map", str(misspelt))
    assert code == 3 and "unknown role 'outptu'" in err

    # a format version of true or 1.0 equals 1 in Python but is not the integer 1
    lines = small_traces["off"].read_text().splitlines()
    header = json.loads(lines[0])
    true_version = tmp_path / "true_version.trace"
    true_version.write_text("\n".join([json.dumps({**header, "version": True})] + lines[1:]))
    code, _, err = run_cli(capsys, "classify", "--trace", str(true_version))
    assert code == 3 and "unsupported format version True" in err
    float_version = tmp_path / "float_version.json"
    float_version.write_text(json.dumps({**default_mimicry_mapping(), "version": 1.0}))
    code, _, err = run_cli(capsys, "mimic-check", "--source", str(small_traces["aplysia"]),
                           "--target", str(small_traces["hebbian"]), "--map", str(float_version))
    assert code == 3 and "unsupported mapping version 1.0" in err

    # JSON nested deeper than the parser can recurse, in a trace line and a mapping
    deep = "[" * 200_000 + "]" * 200_000
    nested = tmp_path / "nested.trace"
    nested.write_text("\n".join([lines[0], deep] + lines[2:]) + "\n")
    code, _, err = run_cli(capsys, "classify", "--trace", str(nested))
    assert code == 3 and err.count("line ") == 1
    assert "line 2: invalid JSON (nested too deeply)" in err
    nested = tmp_path / "nested.json"
    nested.write_text(deep)
    code, _, err = run_cli(capsys, "mimic-check", "--source", str(small_traces["aplysia"]),
                           "--target", str(small_traces["hebbian"]), "--map", str(nested))
    assert code == 3 and "error: invalid JSON (nested too deeply)" in err


def test_a_bad_mapping_is_refused_before_any_functor_is_built(
    small_traces, tmp_path, capsys, monkeypatch
):
    built = []
    monkeypatch.setattr("mindsets.cli.functor_from_trace", built.append)
    version_two = tmp_path / "version_two.json"
    version_two.write_text(json.dumps({**default_mimicry_mapping(), "version": 2}))
    for mapping, message in (
        (tmp_path / "none.json", "No such file"),
        (version_two, "unsupported mapping version 2"),
    ):
        code, _, err = run_cli(capsys, "mimic-check", "--source", str(small_traces["aplysia"]),
                               "--target", str(small_traces["hebbian"]), "--map", str(mapping))
        assert code == 3 and message in err, mapping
    assert built == []


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    trace = str(tmp_path / "off.trace")
    sequence = [
        ("run", "--scenario", "psychic", "--out", trace),
        ("run", "--scenario", "off", "--steps", "6", "--out", trace),
        ("--help",),
        ("classify", "--trace", trace, "--window", "2"),
        ("classify", "--trace", trace),
        ("activity", "--help"),
        ("activity", "--trace", trace, "--window", "1:4", "--mode", "element"),
        (),
        ("functor-check", "--trace", trace),
        ("classify", "--trace", str(tmp_path / "none.trace")),
        ("report", "--trace", trace),
    ]
    shared = [run_cli(capsys, *argv) for argv in sequence]
    monkeypatch.setattr("mindsets.cli._parser", mindsets.cli.build_parser)
    fresh = [run_cli(capsys, *argv) for argv in sequence]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 2, 1, 0, 0, 2, 0, 3, 0]


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "run", "--scenario", "psychic", "--out", "x")[0] == 2
    assert run_cli(capsys, "explain")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_activity_modes(small_traces, capsys):
    code, out, _ = run_cli(capsys, "activity", "--trace", str(small_traces["off"]))
    assert code == 0
    assert "step_activity: 0.0" in out
    code, out, _ = run_cli(
        capsys, "activity", "--trace", str(small_traces["hebbian"]),
        "--mode", "element", "--window", "0:6",
    )
    assert code == 0
    assert "reported metric: element_rate" in out


def test_functor_check_passes_on_generated_traces(small_traces, capsys):
    code, out, _ = run_cli(capsys, "functor-check", "--trace", str(small_traces["sandpile"]))
    assert code == 0
    assert "all laws hold" in out


def test_functor_check_prints_each_law_failure(tmp_path, capsys, monkeypatch):
    # run ends whose ("b",) at step 0 runs to step 1 only, though it stays to
    # the end, so arrow (0, 1) keeps it and (0, 2) forgets it: no trace file
    # gives these
    build = cli.functor_from_trace

    def corrupted(t):
        f = build(t)
        first = (({**f.run_ends[0][0], ("b",): 1}, *f.run_ends[0][1:]),)
        return replace(f, run_ends=first + f.run_ends[1:])

    monkeypatch.setattr(cli, "functor_from_trace", corrupted)
    path = tmp_path / "blink.trace"
    write_trace(out_and_back("a", "b", extra_steps=1), path)
    assert run_cli(capsys, "functor-check", "--trace", str(path)) == (1, (
        "# Functor laws\n"
        "\n"
        "objects checked: 4\n"
        "composition triples checked: 20\n"
        "result: 2 failure(s)\n"
        "\n"
        "| law | at | detail |\n"
        "| --- | --- | --- |\n"
        "| composition | (0, 1, 2) | composite of the two legs differs from the table entry |\n"
        "| composition | (0, 1, 3) | composite of the two legs differs from the table entry |\n"
    ), "")


def test_mimic_check_accepts_the_shipped_mapping(small_traces, tmp_path, capsys):
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps(default_mimicry_mapping()))
    code, out, _ = run_cli(
        capsys, "mimic-check",
        "--source", str(small_traces["aplysia"]),
        "--target", str(small_traces["hebbian"]),
        "--map", str(mapping),
    )
    assert code == 0
    assert "all laws hold" in out


def test_main_freezes_its_traces_only_while_its_command_runs(
    small_traces, tmp_path, capsys, monkeypatch
):
    counts = []

    def counted(*args):
        counts.append(gc.get_freeze_count())
        return classify(*args)

    monkeypatch.setattr(cli, "classify", counted)
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps(default_mimicry_mapping()))
    bad = tmp_path / "bad.trace"
    bad.write_text("{not json\n")
    runs = [
        (0, ["classify", "--trace", small_traces["hebbian"]]),
        (1, ["classify", "--trace", small_traces["off"]]),
        (2, ["classify", "--trace", small_traces["off"], "--window", "5:5"]),
        (2, ["classify", "--window", "0:1"]),
        (3, ["classify", "--trace", bad]),
        (0, ["mimic-check", "--source", small_traces["aplysia"],
             "--target", small_traces["hebbian"], "--map", mapping]),
    ]
    gc.unfreeze()
    try:
        for code, argv in runs:
            assert run_cli(capsys, *map(str, argv))[0] == code, argv
            assert gc.get_freeze_count() == 0, argv
        assert len(counts) == 3 and min(counts) > 0
        # a caller's freeze is the caller's: main neither adds to it nor undoes
        # it (frozen objects are still freed, so the count may only drop)
        gc.freeze()
        frozen = gc.get_freeze_count()
        counts.clear()
        for code, argv in runs:
            assert run_cli(capsys, *map(str, argv))[0] == code, argv
            assert 0 < gc.get_freeze_count() <= frozen, argv
        assert len(counts) == 3 and max(counts) <= frozen
    finally:
        gc.unfreeze()


def test_mimic_check_rejects_a_corrupted_mapping(small_traces, tmp_path, capsys):
    data = default_mimicry_mapping()
    data["components"]["output"] = [[["gill"], ["ghost"]]]
    mapping = tmp_path / "broken.json"
    mapping.write_text(json.dumps(data))
    code, out, _ = run_cli(
        capsys, "mimic-check",
        "--source", str(small_traces["aplysia"]),
        "--target", str(small_traces["hebbian"]),
        "--map", str(mapping),
    )
    assert code == 1
    assert "mapping rejected" in out
    assert "counterexample" in out


def test_oracle_check_agrees_on_small_traces(tmp_path, capsys):
    t = random_trace(random.Random(11))
    path = tmp_path / "small.trace"
    write_trace(t, path)
    code, out, _ = run_cli(capsys, "oracle-check", "--trace", str(path))
    assert code == 0
    assert "agreement: yes" in out


def test_oracle_check_names_each_disagreement(tmp_path, capsys, monkeypatch):
    # an oracle that misses the output witnesses: the verdict and the output
    # steps disagree, and each mismatch gets its own line
    oracle = cli.brute_force_classify

    def blind(t, window):
        report = oracle(t, window)
        kept = tuple(w for w in report.witnesses if w.condition != "output")
        return replace(report, witnesses=kept, has_output=False, verdict=False)

    monkeypatch.setattr(cli, "brute_force_classify", blind)
    path = tmp_path / "small.trace"
    write_trace(random_trace(random.Random(9)), path)
    assert run_cli(capsys, "oracle-check", "--trace", str(path)) == (1, (
        "# Oracle comparison\n"
        "\n"
        "window: 0:6\n"
        "classify verdict: true\n"
        "oracle verdict: false\n"
        "agreement: no\n"
        "- mismatch: verdict\n"
        "- mismatch: output steps (3 vs none)\n"
    ), "")


def test_oracle_check_respects_the_size_guard(small_traces, capsys):
    code, _, err = run_cli(capsys, "oracle-check", "--trace", str(small_traces["hebbian"]))
    assert code == 3
    assert "size guard" in err


def test_report_renders_phases(small_traces, capsys):
    code, out, _ = run_cli(capsys, "report", "--trace", str(small_traces["backprop"]),
                           "--format", "md")
    assert code == 0
    assert "| learning | 0:20 | [input -> processing -> output -> input -> processing] x 4 |" in out
    assert "| test | 20:26 | [input -> processing -> output] x 2 |" in out


def test_console_entry_point_round_trips(tmp_path):
    # the child imports the same package as this test, whether it was found
    # through PYTHONPATH or pytest's pythonpath setting
    package_root = str(Path(mindsets.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "cli.trace"
    first = subprocess.run(
        [sys.executable, "-m", "mindsets.cli", "run", "--scenario", "off",
         "--steps", "5", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert first.returncode == 0
    second = subprocess.run(
        [sys.executable, "-m", "mindsets.cli", "classify", "--trace", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert second.returncode == 1
    assert "verdict: false" in second.stdout


def test_reading_and_checking_never_load_numpy(small_traces, tmp_path):
    # only the hebbian, backprop and sandpile generators draw numbers; the
    # child reads this process's traces and generates an aplysia one
    package_root = str(Path(mindsets.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps(default_mimicry_mapping()))
    aplysia, hebbian = str(small_traces["aplysia"]), str(small_traces["hebbian"])
    commands = [
        ["classify", "--trace", hebbian],
        ["functor-check", "--trace", hebbian],
        ["mimic-check", "--source", aplysia, "--target", hebbian, "--map", str(mapping)],
        ["run", "--scenario", "aplysia", "--out", str(tmp_path / "fresh.trace")],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from mindsets import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {commands!r}]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert (child.stdout, child.stderr) == ("[0, 0, 0, 0] False\n", "")
