"""Benchmark for lagcast: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; lagcast is imported from its ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A table of the
same metrics goes to standard error.  Inputs, model documents, results
and spans are written under ``perfbench/_out/``.
"""

import os
import sys

# One BLAS/OpenMP thread in this process and in every process it starts:
# OpenBLAS's default of one thread per core made wall and CPU time wander.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
SETUP_PROCESSES = 7
CHILD_TIMEOUT_S = 170

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PER_PASS_COUNTS = {  # per-layer metric -> (layer, field of tracer.summarize)
    "numerics.solve_spd.calls": ("numerics.solve_spd", "calls"),
    "numerics.solve_spd.refused": ("numerics.solve_spd", "refused"),
    "polynomial.fit.calls": ("polynomial.fit", "calls"),
    "polynomial.rolling_forecast.calls": ("polynomial.rolling_forecast", "calls"),
    "rbf.train.calls": ("rbf.train", "calls"),
    "rbf.train.steps": ("rbf.train", "steps"),
    "rbf.batch_forward.calls": ("rbf.batch_forward", "calls"),
}
SETUP_LAYERS = ("polynomial.from_json", "rbf.from_json")  # called in set-up only
# Each CPU of a shared host can run slow for tens of seconds while another
# does not.  Set-up processes and passes take the allowed CPUs in turn, so
# a run's figures are not left to whichever CPU it started on.
CPUS = sorted(os.sched_getaffinity(0))


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def on_cpu(n: int):
    """Pin this process, and the processes it starts, to the n-th allowed CPU."""
    os.sched_setaffinity(0, {CPUS[n % len(CPUS)]})


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_cli(args, spans_path=None) -> int:
    """One `lagcast` command in a fresh process, under the tracer if spans_path is set.

    A blocking wait() returns the moment the child ends.  Popen.wait(timeout)
    would poll instead, in sleeps of up to 50 ms, which showed as 50 ms steps
    in the pass times; a timer thread enforces the time limit.
    """
    if spans_path is None:
        cmd = [sys.executable, "-m", "lagcast", *args]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), "cli", str(spans_path), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        return proc.wait()
    finally:
        watchdog.cancel()


def fresh_setups(workload: str, work: Path, spans: str) -> list:
    """Set-up seconds of SETUP_PROCESSES fresh processes, one after another."""
    times = []
    for k in range(SETUP_PROCESSES):
        on_cpu(k)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", workload, str(work),
             f"fresh{k}", spans], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def host_probe() -> float:
    """Seconds of a fixed Python-and-NumPy kernel that does not touch lagcast.

    Its fastest time in a run is kept beside the run's results as a record
    of how fast the host ran; it enters no metric.
    """
    a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(20):
        a = a @ a / 64.0
    return time.perf_counter() - t0


def run_passes(wl, state, seconds, tally, spans_path=None, tracer=None) -> dict:
    """Passes until `seconds` have passed; per pass, each part's samples."""
    from workloads import Parts

    samples = {"wall": [], "cpu": [], "exec": [], "latency": [], "pc_rmse": [], "rbf_rmse": [],
               "host_probe": []}
    cli = functools.partial(run_cli, spans_path=spans_path)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        on_cpu(len(samples["wall"]))
        parts = Parts()
        if tracer is not None:
            tracer.recording = True
        out = wl.run_pass(state, parts, cli)
        if tracer is not None:
            tracer.recording = False
        figures = wl.check_pass(state, out, tally)
        samples["latency"].append(wl.after_pass(state, figures, tally))
        samples["wall"].append(parts.wall)
        samples["cpu"].append(parts.cpu)
        samples["exec"].append(figures["exec_parts"])
        for key in ("pc_rmse", "rbf_rmse"):
            samples[key].append(figures[key])
        samples["host_probe"].append(host_probe())
    return samples


def fastest(parts) -> np.ndarray:
    """Each part's fastest repeat over the run's passes."""
    return np.min(np.asarray(parts, dtype=np.float64), axis=0)


def pass_time(parts, fastest_parts: bool) -> float:
    """One pass's timing from a run's per-pass, per-part samples.

    Where a pass is many parts of a millisecond (the streamed windows), it
    is the sum of each part's fastest repeat: some repeat of so short a part
    almost always falls between the host's slow bursts.  Elsewhere a part is
    a process or an API call of a few tenths of a second or more, and the
    fastest of a run's 10 to 30 repeats is an extreme that moves with the
    host; there it is the median over the run's passes of the whole pass.
    """
    if fastest_parts:
        return float(fastest(parts).sum())
    return float(np.median(np.asarray(parts, dtype=np.float64).sum(axis=1)))


def end_to_end(samples, setup_times, fastest_parts: bool) -> dict:
    """forecast_us is the median over windows of each window's fastest
    latency in the run; the other timings follow pass_time."""
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": pass_time(samples["wall"], fastest_parts),
        "cpu_s": pass_time(samples["cpu"], fastest_parts),
        "peak_rss_mib": peak_rss_mib(),
        "exec_s": pass_time(samples["exec"], fastest_parts),
        "forecast_us": 1e6 * float(np.median(fastest(samples["latency"]))),
        # deterministic for a seed: every pass gives the same figure
        "pc_rmse": statistics.median(samples["pc_rmse"]),
        "rbf_rmse": statistics.median(samples["rbf_rmse"]),
    }


def per_layer(spans_by_source, passes, overhead_s, absent) -> tuple[dict, list]:
    """Per-layer metrics, and why any of them reads nothing on this workload."""
    in_passes = {}
    setups = []
    imports = []
    for source, spans in spans_by_source.items():
        summary = tr.summarize(spans)
        if "import.lagcast" in summary:
            imports.append(summary["import.lagcast"]["self_s"])
        if source.startswith("setup-"):
            setups.append(summary)
            continue
        for layer, row in summary.items():
            acc = in_passes.setdefault(layer, {"self_s": 0.0, "calls": 0, "refused": 0,
                                               "steps": 0, "peak_mib": 0.0})
            for key in ("self_s", "calls", "refused", "steps"):
                acc[key] += row[key]
            acc["peak_mib"] = max(acc["peak_mib"], row["peak_mib"])

    values, notes = {}, []
    values["import.lagcast_s"] = statistics.median(imports)
    for layer in tr.LAYERS:
        if layer in SETUP_LAYERS:
            values[f"{layer}_s"] = statistics.fmean(
                s.get(layer, {"self_s": 0.0})["self_s"] for s in setups)
        else:
            values[f"{layer}_s"] = in_passes.get(layer, {"self_s": 0.0})["self_s"] / passes
        if layer in absent:
            notes.append(f"{layer}: absent, lagcast no longer defines it")
        elif layer in SETUP_LAYERS and not any(layer in s for s in setups):
            notes.append(f"{layer}: no calls in set-up of this workload (reads 0)")
        elif layer not in in_passes and layer not in SETUP_LAYERS:
            notes.append(f"{layer}: no calls in a pass of this workload (reads 0)")
    for metric, (layer, key) in PER_PASS_COUNTS.items():
        values[metric] = in_passes.get(layer, {key: 0})[key] / passes
    values["rbf.init_centers.peak_mib"] = in_passes.get(
        "rbf.init_centers", {"peak_mib": 0.0})["peak_mib"]
    values["trace.overhead_s"] = overhead_s
    return values, notes


def main() -> int:
    args = parse_args()
    if not (SRC / "lagcast" / "__init__.py").is_file():
        print(f"run.py: no lagcast source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    import lagcast
    import lagcast.cli  # noqa: F401  -- so the tracer finds cli.main here too
    if Path(lagcast.__file__).resolve().parent != SRC / "lagcast":
        print(f"run.py: lagcast was imported from {lagcast.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    label = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans_path = OUT / "traces" / f"{label}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.unlink(missing_ok=True)

    wl.write_inputs(args.seed, work)
    setup_times = fresh_setups(wl.name, work, str(spans_path) if args.trace else "-")
    state = wl.setup(work, "main")
    setup_tally, tally = workloads.Tally(), workloads.Tally()
    wl.prepare(state, setup_tally)

    if args.trace:
        base = run_passes(wl, state, args.seconds / 2, tally)
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced = run_passes(wl, state, args.seconds / 2, tally, spans_path, tracer)
        finally:
            tracer.uninstall()
        tracer.write(spans_path, "main")
        by_source = tr.read_spans(spans_path)
        overhead = (pass_time(traced["wall"], wl.fastest_parts)
                    - pass_time(base["wall"], wl.fastest_parts))
        values, notes = per_layer(by_source, len(traced["wall"]), overhead, tracer.absent)
        pass_walls = [sum(w) for w in traced["wall"]]
        probe = base["host_probe"] + traced["host_probe"]
    else:
        samples = run_passes(wl, state, args.seconds, tally)
        values, notes = end_to_end(samples, setup_times, wl.fastest_parts), []
        pass_walls = [sum(w) for w in samples["wall"]]
        probe = samples["host_probe"]

    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    if sorted(values) != sorted(m["name"] for m in declared):
        print("run.py: measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    problems = setup_tally.unexpected + tally.unexpected
    result = {"correct": not problems, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{label}.json").write_text(json.dumps(
        {**result, "problems": problems, "notes": notes, "setup_times_s": setup_times,
         "pass_walls_s": pass_walls, "host_probe_ms": 1e3 * min(probe)},
        indent=2) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for line in problems + notes:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
