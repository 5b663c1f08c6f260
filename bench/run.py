"""Benchmark for mindsets: four closed-loop workloads, one client each.

Run from the repository root:

    python3 bench/run.py --workload analyze-hebbian --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, untraced and traced

One workload runs per process. Set-up (importing mindsets, generating the
inputs, a warm-up job) is timed, then jobs run back to back for
``--seconds`` and each one is checked for correctness outside its timed
region. With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; their job times are wall times rescaled to a reference
machine speed measured beside the jobs (calibrate.py), the wall times are
printed too, and setup_s is wall time. With ``--trace 1`` each job of a
fixed list of job blocks runs untraced and then traced, and the JSON
object carries the per-layer metrics. See bench/README.md for the
workloads and metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

# one thread per process: numpy's BLAS would otherwise start a worker
# thread on import; set before anything imports numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("analyze-hebbian", "analyze-sandpile", "window-queries", "functor-mimicry")
SETUP_REPEATS = 3  # imports and set-ups per run; setup_s adds their medians
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics, 1: per-layer metrics (default for all: both)",
    )
    parser.add_argument("--scale", choices=("default", "tiny"), default="default")
    return parser.parse_args(argv)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile that still has TAIL_BEYOND samples above it.

    Returns the percentile, its value and the samples beyond it. With
    TAIL_BEYOND samples or fewer, the maximum stands in, with none beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1], beyond


class Loop:
    """Closed-loop job runner: stage, time, check, one job at a time.

    With ``rescale`` the reference kernel is timed after each job's check,
    and the job's time is its wall time rescaled by the kernel's times just
    before and just after it (see calibrate.py); without, it is the wall time.
    """

    def __init__(self, workload, recorder=None, rescale=False):
        self.workload = workload
        self.recorder = recorder
        self.rescale = rescale
        self.wall: list[float] = []  # wall time per job
        self.times: list[float] = []  # job time: wall time, rescaled if rescale
        self.kernel_s = [calibrate.kernel_seconds()] if rescale else []
        self.steps = 0
        self.failed = 0

    def job(self, spec) -> None:
        w, rec = self.workload, self.recorder
        w.stage(spec)
        if rec is not None:
            rec.job = len(self.wall)
        start = time.perf_counter()
        try:
            out = w.run(spec)
        except Exception:  # a job that raises is counted as failed
            out, error = None, traceback.format_exc()
        else:
            error = None
        wall = time.perf_counter() - start
        self.wall.append(wall)
        if rec is not None:
            rec.job = None
        if error is None:
            try:
                steps, problems = w.check(spec, out)
            except Exception:
                steps, problems = 0, [traceback.format_exc()]
        else:
            steps, problems = 0, [error]
        if self.rescale:
            self.kernel_s.append(calibrate.kernel_seconds())
            machine = (self.kernel_s[-2] + self.kernel_s[-1]) / 2
            self.times.append(wall * calibrate.REFERENCE_S / machine)
        else:
            self.times.append(wall)
        self.steps += steps
        if problems:
            self.failed += 1
            if self.failed <= 3:
                print(f"job {spec} failed: {problems}", file=sys.stderr)

    def run_for(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        for block in self.workload.blocks():
            for spec in block:
                self.job(spec)
            if time.perf_counter() >= deadline:
                return


def import_seconds() -> float:
    """Median time of importing the workloads module, mostly mindsets and numpy.

    Each import runs in a fresh interpreter. The bytecode cache is filled
    first, as installing a package does, so the figure does not depend on
    whether this run may write that cache.
    """
    bench = Path(__file__).resolve().parent
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "mindsets"), str(bench)],
        stdout=subprocess.DEVNULL, check=True,
    )
    code = "import time; t = time.perf_counter(); import workloads; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": f"{bench}{os.pathsep}{ROOT / 'src'}"}
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True, check=True
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def set_up(workload_cls, args, work: Path):
    """Set the workload up SETUP_REPEATS times; keep the last, time each."""
    durations = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # let the previous set-up's data go first
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        workload = workload_cls(work, args.seed, args.scale)
        workload.prepare()
        durations.append(time.perf_counter() - start)
    return workload, durations


def measure(args) -> dict:
    src = ROOT / "src"
    if not (src / "mindsets" / "__init__.py").is_file():
        print(f"error: mindsets sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    import_s = import_seconds()
    sys.path.insert(0, str(src))
    import workloads

    work = OUT / f"work-{args.workload}"
    try:
        workload, setups = set_up(workloads.WORKLOADS[args.workload], args, work)
        setup_s = import_s + statistics.median(setups)
        workload.prepare_checks()

        print(f"workload {args.workload} (seed {args.seed}, scale {args.scale}): {workload.why}")
        print(
            f"  setup_s      {setup_s:.4f} s   (median of {SETUP_REPEATS} fresh imports {import_s:.3f} s "
            f"+ median of {SETUP_REPEATS} set-ups: {', '.join(f'{d:.3f}' for d in setups)} s)"
        )
        if args.trace:
            return traced_run(args, workload)
        loop = Loop(workload, rescale=True)
        loop.run_for(args.seconds)
        return end_to_end(loop, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summary(loop: Loop) -> tuple[float, float]:
    p50 = statistics.median(loop.times)
    percentile, tail_s, beyond = tail(loop.times)
    n = len(loop.times)
    print(f"  jobs         {n} in {sum(loop.wall):.2f} s of wall time (closed loop, 1 client)")
    if loop.rescale:
        wall_p50, wall_tail = statistics.median(loop.wall), tail(loop.wall)[1]
        print(
            f"  kernel       {statistics.median(loop.kernel_s) * 1000:.3f} ms median "
            f"({min(loop.kernel_s) * 1000:.3f}-{max(loop.kernel_s) * 1000:.3f}), "
            f"reference {calibrate.REFERENCE_S * 1000:.3f} ms"
        )
        print(f"  job_p50_s    {p50:.6f} s   (wall {wall_p50:.6f} s)")
        print(f"  job_tail_s   {tail_s:.6f} s   (wall {wall_tail:.6f} s; p{percentile:.1f} of {n} jobs, {beyond} beyond)")
    else:
        print(f"  job_p50_s    {p50:.6f} s")
        print(f"  job_tail_s   {tail_s:.6f} s   (p{percentile:.1f} of {n} jobs, {beyond} beyond)")
    return p50, tail_s


def end_to_end(loop: Loop, setup_s: float) -> dict:
    p50, tail_s = summary(loop)
    attempted = len(loop.times)
    steps_per_s = loop.steps / sum(loop.times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed_frac = loop.failed / attempted
    print(f"  steps_per_s  {steps_per_s:.1f} 1/s   (wall {loop.steps / sum(loop.wall):.1f} 1/s; {loop.steps} steps)")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  failed_frac  {failed_frac} ratio   ({loop.failed} of {attempted} jobs)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (p50, "s"),
        "job_tail_s": (tail_s, "s"),
        "steps_per_s": (steps_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - failed_frac, "ratio"),
    }
    return result(attempted, loop.failed, metrics)


def traced_run(args, workload) -> dict:
    """A fixed job list, each job run untraced and then traced; per-layer metrics from spans.

    The fixed list makes the counts repeat exactly; running each job twice
    in a row keeps drift in machine speed out of the overhead figure.
    """
    import tracing

    blocks = workload.blocks()
    specs = [spec for _ in range(workload.trace_blocks) for spec in next(blocks)]
    recorder = tracing.Recorder()
    plain, traced = Loop(workload), Loop(workload, recorder)
    for spec in specs:
        plain.job(spec)
        recorder.install()
        try:
            traced.job(spec)
        finally:
            recorder.uninstall()
    print("  untraced:")
    plain_p50, _ = summary(plain)
    print("  traced:")
    traced_p50, _ = summary(traced)
    overhead = traced_p50 / plain_p50 - 1
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    recorder.write(spans)
    print(f"  {len(recorder.spans)} spans written to {spans.relative_to(ROOT)}")
    metrics = tracing.layer_metrics(recorder, traced.steps, overhead)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    attempted = len(plain.times) + len(traced.times)
    return result(attempted, plain.failed + traced.failed, metrics)


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in a fresh process, untraced and traced unless --trace picks one."""
    modes = (args.trace,) if args.trace is not None else (0, 1)
    attempted = failed = 0
    metrics = {}
    for mode in modes:
        for name in WORKLOAD_NAMES:
            argv = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(mode), "--scale", args.scale,
            ]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
                sys.exit(proc.returncode or 1)
            one = json.loads(lines[-1])
            attempted += one["attempted"]
            failed += one["failed"]
            for key, value in one["metrics"].items():
                metrics[f"{name}.{key}"] = (value["value"], value["unit"])
    return result(attempted, failed, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    outcome = run_all(args) if args.workload == "all" else measure(args)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
