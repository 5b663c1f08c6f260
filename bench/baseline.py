"""Layer timings at the roadmap's baseline sizes, one fresh process per case.

Run from the repository root:

    python3 bench/baseline.py             # every case, printed as markdown tables
    python3 bench/baseline.py --case hebbian:200

A hebbian case generates a trace with ``test_count = trials / 4`` and times
generation, ``classify`` over the whole trace, ``read_trace`` of the written
file and ``verify_conservation``. A functor case builds a hebbian trace of
n steps and times ``functor_from_trace`` and ``check_functor_laws``. Peak
memory is the case process's ``ru_maxrss``. No tracemalloc: it slows the
timed code several-fold.
"""

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
HEBBIAN_TRIALS = (200, 1000)
NOT_RUN = {4000: "not run: exhausts memory"}
FUNCTOR_STEPS = (36, 75, 150)


def timed(fn, *args):
    start = perf_counter()
    value = fn(*args)
    return value, perf_counter() - start


def hebbian_case(trials: int) -> dict:
    from mindsets import (
        ScenarioConfig, classify, make_scenario, read_trace, verify_conservation, write_trace,
    )

    cfg = ScenarioConfig(seed=0, trials=trials, test_count=trials // 4)
    t, gen_s = timed(lambda: make_scenario("hebbian", cfg).trace)
    report, classify_s = timed(classify, t, (0, t.n_steps))
    violations, conservation_s = timed(verify_conservation, t)
    if violations or not report.verdict:
        raise SystemExit(f"hebbian trials={trials}: unexpected result")
    result = {
        "steps": t.n_steps,
        "elements": len(t.snapshots[0].membership),
        "gen_s": gen_s,
        "classify_s": classify_s,
        "conservation_s": conservation_s,
    }
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = Path(tmp) / "baseline.trace"
        write_trace(t, path)
        del t, report  # hold one trace at a time, so peak RSS is one trace's
        start = perf_counter()
        read_trace(path)
        result["read_trace_s"] = perf_counter() - start
    return result


def functor_case(n: int) -> dict:
    from mindsets import ScenarioConfig, check_functor_laws, functor_from_trace, make_scenario

    total = n // 3
    cfg = ScenarioConfig(seed=0, trials=total - total // 4, test_count=total // 4)
    t = make_scenario("hebbian", cfg).trace
    functor, build_s = timed(functor_from_trace, t)
    report, laws_s = timed(check_functor_laws, functor)
    if not report.passed:
        raise SystemExit(f"functor n={n}: laws fail")
    return {"steps": t.n_steps, "build_s": build_s, "laws_s": laws_s, "triples": report.triples_checked}


def run_case(case: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    kind, size = case.split(":")
    result = hebbian_case(int(size)) if kind == "hebbian" else functor_case(int(size))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def in_fresh_process(case: str) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--case", case], stdout=subprocess.PIPE, text=True, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", help="hebbian:TRIALS or functor:STEPS")
    args = parser.parse_args()
    if args.case:
        print(json.dumps(run_case(args.case)))
        return 0

    print("| trials | steps | elements | gen | classify | read_trace | conservation | peak RSS |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for trials in HEBBIAN_TRIALS:
        r = in_fresh_process(f"hebbian:{trials}")
        print(
            f"| {trials} | {r['steps']} | {r['elements']} | {r['gen_s']:.2f} s "
            f"| {r['classify_s']:.2f} s | {r['read_trace_s']:.2f} s "
            f"| {r['conservation_s']:.2f} s | {r['peak_rss_mb']:.0f} MB |"
        )
    for trials, reason in NOT_RUN.items():
        print(f"| {trials} | ~{trials * 15 // 4} | | {reason} | | | | |")
    print()
    print("| n (steps) | functor build | law check | triples | peak RSS |")
    print("| --- | --- | --- | --- | --- |")
    for n in FUNCTOR_STEPS:
        r = in_fresh_process(f"functor:{n}")
        print(
            f"| {r['steps']} | {r['build_s']:.2f} s | {r['laws_s']:.2f} s "
            f"| {r['triples']} | {r['peak_rss_mb']:.0f} MB |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
