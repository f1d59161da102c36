#!/usr/bin/env python3
"""maxcross benchmark: closed-loop CLI and library jobs on three workloads.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload {exhaustive,corpus,drawings} \
        --seed N --seconds S --trace {0,1}

One client runs the workload's fixed job list back to back in this process,
pass after pass, until S seconds have passed.  User-facing jobs go through
``maxcross.cli.run(argv)`` with stdout captured.  Every job is verified (see
workloads.py); a job that raises, exits non-zero, exceeds JOB_LIMIT_S or
prints a wrong or non-repeatable value counts as failed.

``--trace 0`` reports the end-to-end metrics, with job and set-up times
corrected for the host's speed (see speed.py); ``--trace 1`` the per-layer
metrics of spans recorded around the layer functions (see spans.py); traced
and untraced passes alternate so the trace overhead is measured in the same
run.  The last stdout line is the result object; the line before it is a
report with the machine record, every job's times and any failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from math import lcm
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A job over this many seconds counts as failed (the longest takes about 3 s).
JOB_LIMIT_S = 30.0
# No job starts after this many seconds, so a run always ends within 180 s.
RUN_LIMIT_S = 150.0
# Set-up is sampled before each pass and after the last, at least this often.
SETUP_SAMPLES = 11
ORIENTATION_TRIPLES = 2000
ORIENTATION_REPEATS = 7

LAYERS_WITH_CALLS = (
    "search.sample_regular_graph",
    "search.sample_positions",
    "geometry.count_crossings_geometric",
    "geometry.validate_general_position",
    "geometry.crossing_total",
    "analysis.type_profile",
    "constructions.crossings_convex",
    "formulas.best_known",
)
LAYERS_SELF_ONLY = (
    "search.convex_max",
    "search.reproduce_table",
    "search.perturbation_probe",
    "graph.enumerate_labeled_regular",
    "geometry.load_drawing",
    "analysis.noncrossing_accounting",
    "analysis.lemma_coverage_check",
    "constructions.drawing_from_order",
    "constructions.generalized_star",
    "constructions.star_like_even",
    "cli.run",
)


def import_package():
    """Import maxcross from this checkout's src/, never from elsewhere."""
    if not (SRC / "maxcross" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'maxcross'} not found; run from a maxcross checkout")
    sys.path.insert(0, str(SRC))
    import maxcross

    if Path(maxcross.__file__).resolve().parent != (SRC / "maxcross").resolve():
        sys.exit(f"error: imported maxcross from {maxcross.__file__}, not {SRC}")


def machine_record(seed: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "maxcross").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """Seconds for interpreter start, import and input generation in a fresh process.

    Returns (raw, at nominal speed); the correction uses bare interpreter
    starts just before and after (see speed.py).  No timeout: with one,
    subprocess polls the child in steps of up to 50 ms, which would
    quantize the measurement.
    """
    from speed import bare_start, setup_at_nominal

    before = bare_start()
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        check=True, stdout=subprocess.DEVNULL,
    )
    raw = time.perf_counter() - started
    return raw, setup_at_nominal(raw, [before, bare_start()])


def run_job(job, limit: float, tracer, probe, outputs: dict, recorded: dict):
    """Run, time and verify one job.

    Returns (start, end, seconds, failure or None); seconds excludes the
    probe's samples taken during the job.
    """
    from speed import JobTimeout
    from workloads import Mismatch

    started = time.perf_counter()
    ended = started + limit
    elapsed = limit
    try:
        spent = probe.spent
        probe.sampling = probe.enabled and not job.parallel
        probe.deadline = started + limit
        if tracer is not None:
            tracer.start()
        try:
            text, data = job.run()
        finally:
            if tracer is not None:
                tracer.stop()
            probe.deadline = float("inf")
            ended = time.perf_counter()
            probe.sampling = probe.enabled
            elapsed = ended - started - (probe.spent - spent)
        counts = job.check(text, data)
        if counts:
            recorded[job.name] = counts
        first = outputs.setdefault(job.name, text)
        if text != first:
            raise Mismatch("output differs from the job's first run")
        if job.same_as is not None and outputs.get(job.same_as) != text:
            raise Mismatch(f"output differs from {job.same_as}")
        return started, ended, elapsed, None
    except JobTimeout:
        return started, ended, elapsed, f"timed out after {limit:.1f} s"
    except Exception as exc:  # noqa: BLE001 - a failing job must not stop the run
        frames = [f for f in traceback.extract_tb(exc.__traceback__) if f.name != "expect"]
        where = frames[-1]
        failure = f"{type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})"
        return started, ended, elapsed, failure


def run_passes(jobs, seconds: float, tracer, probe, between_passes) -> dict:
    """Repeat the job list until `seconds` have passed.

    Untraced runs stop at the first job due after `seconds`, once one pass
    is complete; each job's statistic uses every time it ran.  With a
    tracer, odd passes are traced and even passes are not, and only whole
    passes run, at least one of each kind.  between_passes() runs before the
    first pass and after each one.  Untraced job times are also given at
    nominal host speed, from the probe's samples around each job.
    """
    times = {job.name: [] for job in jobs}
    intervals = {job.name: [] for job in jobs}
    traced_times = {job.name: [] for job in jobs}
    pass_stats = []
    outputs: dict[str, str] = {}
    recorded: dict[str, dict] = {}
    failures: list[str] = []
    attempted = 0
    stop_at = time.perf_counter() + seconds
    hard_stop = STARTED + RUN_LIMIT_S
    complete = 0
    between_passes()
    while True:
        traced = tracer is not None and complete % 2 == 1
        if traced:
            tracer.new_pass()
        finished = True
        for job in jobs:
            now = time.perf_counter()
            if now >= hard_stop or (tracer is None and complete >= 1 and now >= stop_at):
                finished = False
                break
            attempted += 1
            started, ended, elapsed, failure = run_job(
                job, min(JOB_LIMIT_S, hard_stop - now), tracer if traced else None, probe,
                outputs, recorded,
            )
            if traced:
                traced_times[job.name].append(elapsed)
            else:
                times[job.name].append(elapsed)
                intervals[job.name].append((started, ended))
            if failure is not None:
                failures.append(f"pass {complete} {job.name}: {failure}")
        if finished:
            complete += 1
            if traced:
                pass_stats.append(tracer.stats)
        between_passes()
        now = time.perf_counter()
        if not finished or now >= hard_stop or (now >= stop_at and complete >= (2 if tracer else 1)):
            break
    # Samples after the last job are in by now, so every job has its nearest.
    nominal_times = {
        name: [probe.nominal(t, *span) for t, span in zip(values, intervals[name])]
        for name, values in times.items()
    }
    return {
        "passes": complete,
        "attempted": attempted,
        "failures": failures,
        "recorded": recorded,
        "times": times,
        "nominal_times": nominal_times,
        "traced_times": traced_times,
        "pass_stats": pass_stats,
    }


def list_time(times: dict) -> float:
    """Time of the job list once: the sum of each job's median time in the run."""
    return sum(statistics.median(values) for values in times.values() if values)


def job_times(times: dict) -> dict:
    """Each job's times in the run; numbered jobs like sample-17 are summed."""
    out: dict[str, list[float]] = {}
    for name, values in times.items():
        family = "samples" if name.startswith("sample-") else name
        if family in out:
            out[family] = [a + b for a, b in zip(out[family], values)]
        else:
            out[family] = list(values)
    return out


def orientation_ns(points, seed: int) -> dict:
    """ns per orientation() call on the workload's own points.

    Timed outside the job loop: wrapping every call would swamp it.  The int
    variant uses the same points with denominators cleared.
    """
    import maxcross.geometry as geometry
    from workloads import derive

    scale = lcm(*(c.denominator for p in points for c in p))
    fraction_points = [geometry.Point(Fraction(x), Fraction(y)) for x, y in points]
    int_points = [geometry.Point(int(x * scale), int(y * scale)) for x, y in points]
    rng = random.Random(derive(seed, "triples"))
    triples = [tuple(rng.sample(range(len(points)), 3)) for _ in range(ORIENTATION_TRIPLES)]
    orientation = geometry.orientation
    samples = {"fraction": [], "int": []}
    for _ in range(ORIENTATION_REPEATS):
        for kind, pts in (("fraction", fraction_points), ("int", int_points)):
            started = time.perf_counter()
            for i, j, k in triples:
                orientation(pts[i], pts[j], pts[k])
            samples[kind].append((time.perf_counter() - started) * 1e9 / len(triples))
    return {kind: statistics.median(values) for kind, values in samples.items()}


def per_pass_layers(stats, pool_speedup: float) -> dict:
    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    values = {}
    for layer in LAYERS_WITH_CALLS:
        values[f"{layer}.self_s"] = stats.self_s.get(layer, 0.0)
        values[f"{layer}.calls"] = stats.calls.get(layer, 0)
    for layer in LAYERS_SELF_ONLY:
        values[f"{layer}.self_s"] = stats.self_s.get(layer, 0.0)
    counters = stats.counters
    values["search.leaves"] = counters.get("search.leaves", 0)
    values["search.leaves_per_s"] = rate(values["search.leaves"], values["search.convex_max.self_s"])
    values["search.shards"] = counters.get("search.shards", 0)
    values["search.pool_speedup"] = pool_speedup
    values["search.trials_per_s"] = rate(
        counters.get("search.trials", 0), stats.total_s.get("search.perturbation_probe", 0.0)
    )
    values["graph.graphs"] = counters.get("graph.graphs", 0)
    values["graph.graphs_per_s"] = rate(
        values["graph.graphs"], values["graph.enumerate_labeled_regular.self_s"]
    )
    values["geometry.pairs_per_s"] = rate(
        counters.get("geometry.pairs", 0), values["geometry.count_crossings_geometric.self_s"]
    )
    return values


def layer_metrics(result: dict, workload, seed: int) -> dict:
    from spans import PassStats

    times = result["times"]
    single, pool = times.get("search-10-3"), times.get("search-10-3-pool")
    pool_speedup = statistics.median(single) / statistics.median(pool) if single and pool else 0.0
    # A run cut short by the run limit may have no traced pass: report zeros.
    passes = result["pass_stats"] or [PassStats()]
    per_pass = [per_pass_layers(stats, pool_speedup) for stats in passes]
    # median_low picks one pass's value, so counts stay whole numbers.
    values = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    orientation = orientation_ns(workload.points, seed)
    values["geometry.orientation_ns.fraction"] = orientation["fraction"]
    values["geometry.orientation_ns.int"] = orientation["int"]
    untraced = list_time(times)
    values["trace_overhead"] = list_time(result["traced_times"]) / untraced if untraced else 0.0
    return values


def units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("exhaustive", "corpus", "drawings"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    import workloads
    from spans import Tracer
    from speed import SpeedProbe

    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        if args.setup_only:
            workloads.BUILDERS[args.workload](args.seed, workdir)
            return 0
        unit = units()
        setup_times: list[float] = []
        setup_nominal: list[float] = []
        probe = SpeedProbe(enabled=not args.trace)

        def between_passes() -> None:
            if not args.trace:
                probe.sampling = False  # its samples would compete with the child
                raw, nominal = setup_sample(args.workload, args.seed)
                setup_times.append(raw)
                setup_nominal.append(nominal)
                probe.sampling = True

        workload = workloads.BUILDERS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        probe.start()
        try:
            result = run_passes(workload.jobs, args.seconds, tracer, probe, between_passes)
            if not args.trace:
                while len(setup_times) < SETUP_SAMPLES:
                    between_passes()
        finally:
            probe.stop()
            if tracer is not None:
                tracer.uninstall()
        if args.trace:
            values = layer_metrics(result, workload, args.seed)
        else:
            values = {
                "setup_s": statistics.median(setup_nominal),
                "wall_s": list_time(result["nominal_times"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(result["failures"])
    attempted = result["attempted"]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_record(args.seed),
        "passes": result["passes"],
        "failed_ratio": failed / attempted,
        "failures": result["failures"][:20],
        "raw_wall_s": list_time(result["times"]),
        "raw_setup_s": statistics.median(setup_times) if setup_times else None,
        "reference": probe.summary(),
        "setup_samples_s": setup_times,
        "job_times_s": job_times(result["times"]),
        "nominal_job_times_s": job_times(result["nominal_times"]),
        "recorded": result["recorded"],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
