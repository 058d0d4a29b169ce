"""Benchmark of the trefftzdg solver: one workload per process.

    python3 perfbench/run.py --workload march_pec --seed 0 --seconds 25 --trace 0

Builds the package from `src/` of the checkout it sits in, fixes BLAS to one
thread, and repeats the workload's steps (mesh build, march, analysis) until
`--seconds` are spent, at least MIN_ATTEMPTS times.  Times are seconds scaled
to a reference machine speed (calibrate.py).  Every attempt checks its
outputs; the last stdout line is the JSON result.  `--trace 0` reports the
end-to-end metrics, `--trace 1` alternates untraced and traced attempts and
reports the per-layer metrics.  See README.md next to this file.
"""

import argparse
import contextlib
import ctypes
import csv
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
MIN_ATTEMPTS = 3
MIN_STEP_S = 0.3
SETUP_PROBES = 5
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("march_pec", "march_robin_data", "audit_default")


def use_checkout_source():
    """Import trefftzdg from this checkout's src/, with single-threaded BLAS."""
    src = ROOT / "src"
    if not (src / "trefftzdg" / "__init__.py").is_file():
        raise SystemExit(f"error: no trefftzdg sources under {src}")
    for key in BLAS_ENV:
        os.environ[key] = "1"
    sys.path.insert(0, str(src))
    import trefftzdg
    if Path(trefftzdg.__file__).resolve().parent != (src / "trefftzdg").resolve():
        raise SystemExit(f"error: trefftzdg imported from {trefftzdg.__file__}, not {src}")


def setup_probe(workload, seed):
    """Time imports plus input building in this fresh process (the probe mode)."""
    t0 = time.perf_counter()
    use_checkout_source()
    import workloads
    workloads.build_inputs(workload, seed)
    print(repr(time.perf_counter() - t0))


def setup_seconds(workload, seed, clock):
    """Median set-up time over SETUP_PROBES fresh processes, scaled by `clock`."""
    samples = []
    for _ in range(SETUP_PROBES):
        done, _, speed = clock.time(lambda: subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True))
        samples.append(float(done.stdout.strip().splitlines()[-1]) * speed)
    return statistics.median(samples)


# -- environment ---------------------------------------------------------


def blas_threads():
    """Thread counts reported by each OpenBLAS loaded into this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return found
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[Path(lib).name] = getter()
                break
    return found


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    import numpy
    import scipy

    def blas(show_config):
        return show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy.show_config), "scipy": blas(scipy.show_config)},
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


# -- measurement ---------------------------------------------------------


def recorded_outputs(workload, seed, tiny):
    """The seed-0 outputs every run must reproduce, or None for other inputs."""
    if seed != 0 or tiny:
        return None
    return json.loads(EXPECTED.read_text())[workload]


def layer_metrics(tracer):
    """Per-layer times (`_s`) and counts of one traced set-up and attempt."""
    spans = tracer.spans
    self_times = tracer.self_times()
    named = {}
    for span, own in zip(spans, self_times):
        entry = named.setdefault(span.name, {"calls": 0, "total": 0.0, "self": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["total"] += span.duration
        entry["self"] += own
        for key, value in span.counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value

    def get(name, field="total"):
        return named.get(name, {}).get(field, 0 if field == "calls" else 0.0)

    def count(name, key):
        return named.get(name, {}).get("counts", {}).get(key, 0)

    analysis = [name for name in named if name.startswith("analysis.")]
    return {
        "mesh.build_s": get("mesh.build"),
        "mesh.elements": count("mesh.build", "elements"),
        "solver.march_s": get("solver.march"),
        "solver.self_s": get("solver.march", "self"),
        "solver.slabs": count("solver.march", "slabs"),
        "solver.slab_dofs": count("solver.march", "slab_dofs"),
        "assembly.calls": get("assembly.slab", "calls"),
        "assembly.self_s": get("assembly.slab", "self"),
        "assembly.dense_bytes": count("assembly.slab", "dense_bytes"),
        "basis.eval_calls": get("basis.eval", "calls"),
        "basis.eval_s": get("basis.eval"),
        "reference.eval_calls": get("reference.eval", "calls"),
        "reference.eval_points": count("reference.eval", "points"),
        "reference.eval_s": get("reference.eval"),
        "analysis.l2_s": get("analysis.l2_relative_error"),
        "analysis.dg_error_s": get("analysis.dg_error"),
        "analysis.energy_budget_s": get("analysis.energy_budget"),
        "analysis.energy_trajectory_s": get("analysis.energy_trajectory"),
        "analysis.discrete_energy_s": get("analysis.discrete_energy"),
        "analysis.self_s": sum(get(name, "self") for name in analysis),
        "solver.evaluate_s": get("solver.evaluate"),
        "solver.evaluate_points": count("solver.evaluate", "points"),
        "config.load_s": get("config.load"),
        "trace.spans": len(spans),
    }


def timed_steps(clock, phases, min_seconds):
    """A step(phase, fn) for workloads.run that times each step on its own.

    The step runs between two calibration kernels, repeated until
    min_seconds are spent (once at least), and adds its median call to
    phases["<phase>_s"] and phases["wall_s"].
    """
    def step(phase, fn):
        result, seconds, _ = clock.time(fn, min_seconds)
        phases[f"{phase}_s"] += seconds
        phases["wall_s"] += seconds
        return result

    return step


def attempt(workload, inputs, expected, tiny, clock):
    """One untraced attempt: (outputs or None, scaled phase times, problems).

    Short steps are repeated up to MIN_STEP_S, so that they are measured on
    more than one call.
    """
    import workloads

    phases = {"wall_s": 0.0, "solve_s": 0.0, "check_s": 0.0}
    out, problems = workloads.checked_run(workload, inputs, expected,
                                          timed_steps(clock, phases, MIN_STEP_S), tiny)
    return out, phases, problems


def traced_attempt(workload, seed, expected, tiny, step=lambda phase, fn: fn()):
    """Set up, solve and check once with every layer wrapped.

    Returns (outputs or None, problems, tracer, the span of solve and check).
    """
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    workloads.install(tracer)
    try:
        with tracer.span("setup"):
            inputs = workloads.build_inputs(workload, seed, tiny)
        with tracer.span("workload") as root:
            out, problems = workloads.checked_run(workload, inputs, expected, step, tiny)
    finally:
        tracer.close()
    return out, problems, tracer, root


def measure(workload, seed, seconds, trace, tiny=False, expected=None):
    """Repeat the workload for `seconds`; a dict with the metrics and the attempts.

    Times are scaled to the reference machine's speed (calibrate.py).  A
    traced attempt times its steps like an untraced one, once each, so the
    difference of the two medians is the tracing overhead.
    """
    import workloads
    from calibrate import REFERENCE_S, Clock

    if expected is None:
        expected = recorded_outputs(workload, seed, tiny)
    clock = Clock()
    inputs = workloads.build_inputs(workload, seed, tiny)
    attempts, layers = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        if trace and len(attempts) % 2 == 1:
            first_kernel = len(clock.kernel_samples) - 1
            traced = {"wall_s": 0.0, "solve_s": 0.0, "check_s": 0.0}
            out, problems, tracer, _ = traced_attempt(
                workload, seed, expected, tiny, timed_steps(clock, traced, 0.0))
            speed = REFERENCE_S / statistics.fmean(clock.kernel_samples[first_kernel:])
            layers.append({key: value * speed if key.endswith("_s") else value
                           for key, value in layer_metrics(tracer).items()})
            phases = {"traced_wall_s": traced["wall_s"]}
        else:
            out, phases, problems = attempt(workload, inputs, expected, tiny, clock)
        attempts.append({"outputs": out, "phases": phases, "problems": problems})
        if expected is None and out is not None and not problems:
            expected = out          # later attempts must repeat the first
        elapsed = time.perf_counter() - start
        if len(attempts) >= MIN_ATTEMPTS and elapsed * (1 + 1 / len(attempts)) > seconds:
            break

    def median(key):
        values = [a["phases"][key] for a in attempts if key in a["phases"]]
        return statistics.median(values)

    if trace:
        metrics = {}
        for key in layers[0]:
            values = [layer[key] for layer in layers]
            if not key.endswith("_s"):
                if len(set(values)) != 1:
                    raise RuntimeError(f"count {key} differs between attempts: {values}")
                metrics[key] = values[0]
            else:
                metrics[key] = statistics.median(values)
        metrics["trace.overhead_s"] = median("traced_wall_s") - median("wall_s")
    else:
        metrics = {key: median(key) for key in ("wall_s", "solve_s", "check_s")}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"metrics": metrics, "attempts": attempts, "layers": layers,
            "kernel_s": clock.kernel_samples}


def cli_cross_check(outdir):
    """`trefftzdg run` on the default config must give audit_default's seed-0 outputs."""
    from trefftzdg import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--out", str(outdir)])
    if code != 0:
        return [f"trefftzdg run exited with {code}"]
    with open(outdir / "results.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    want = recorded_outputs("audit_default", 0, False)
    return [f"results.csv {column} {row[column]} != {want[key]!r}"
            for column, key in (("eps_q", "l2"), ("dg_error", "dg_error"),
                                ("energy_final", "energy_final"))
            if float(row[column]) != want[key]]


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def result(metrics, attempts, cross_problems):
    """The JSON result line: correctness, attempts, failures, metrics with units."""
    units = metric_units()
    failed = sum(1 for a in attempts if a["problems"])
    return {
        "correct": failed == 0 and not cross_problems,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    use_checkout_source()
    run = measure(args.workload, args.seed, args.seconds, args.trace)
    metrics = run["metrics"]
    if not args.trace:
        from calibrate import Clock
        metrics["setup_s"] = setup_seconds(args.workload, args.seed, Clock())

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    cross = cli_cross_check(OUT / f"cli-{label}")
    attempts = run["attempts"]
    line = result(metrics, attempts, cross)
    for i, a in enumerate(attempts):
        for problem in a["problems"]:
            print(f"attempt {i} failed: {problem}")
    for problem in cross:
        print(f"cli cross-check failed: {problem}")
    env = environment()
    outputs = next((a["outputs"] for a in attempts if a["outputs"] is not None), None)
    share = line["failed"] / line["attempted"]
    path = OUT / f"{label}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "outputs": outputs, "failed_share": share,
        "attempts": attempts, "layers": run["layers"], "kernel_s": run["kernel_s"],
        "result": line,
    }, indent=1) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps({"outputs": outputs}))
    print(f"failed {line['failed']} of {line['attempted']} attempts ({share:.0%}); "
          f"record in {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
