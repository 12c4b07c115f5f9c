"""The pdextremal benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Workloads (see workloads.py): ``lp-large``, ``verify-many``, ``radial-tables``.

Each pass runs one of the workload's argv lists through
``pdextremal.cli.main`` in a fresh interpreter (worker.py), one call after
another, with no warm-up: every CLI call pays its import and first-call
costs.  The passes cycle through the run's ``workloads.SETS`` argv lists,
made from the seed.  With ``--trace 0`` the run repeats passes until the next
would end after S seconds (at least three), and reports the medians over
passes of

- ``setup_s``: from starting the interpreter to ``pdextremal.cli`` imported;
- ``wall_s``: the pass;
- ``peak_rss_mb``: the pass process's peak resident memory.

The two times are given at a fixed reference speed of the host
(calibrate.py): the host is a shared virtual machine whose speed moves by
20-40% within minutes, which raw times would carry from run to run.  Set-up
time is rescaled by the probes right after the import, each call by the
probes taken while it ran.  Probe time is not in ``wall_s``; the raw times
are in the run record.

With ``--trace 1`` it runs one untraced pass, one pass with spans around every
layer (tracer.py), both on the first argv list, and ``python -X importtime``,
and reports per-layer numbers.

Workers run with one BLAS thread (OPENBLAS_NUM_THREADS=1).  The LPs here are
too small to share out: on a 2-CPU Intel Xeon virtual machine, with
OpenBLAS's default of one thread per CPU an lp-large pass used 6.1-6.6 s of
CPU for 4.1-4.6 s of wall time, against 3.8-4.1 s of both with one thread.

Every output is checked (checks.py).  A call fails if it raises, exits
non-zero, fails its check, or prints other stdout bytes than the first pass
of the same argv list (or, traced, than the untraced pass).  A record of the
run, with the environment, the argv lists and every pass, goes to
perfbench/out/.  The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER_TIMEOUT_S = 150
MIN_PASSES = 3


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def _blas_threads():
    """Threads numpy's OpenBLAS runs with, asked of the library itself."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        cpu = None
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_in_effect": _blas_threads(),
                 "env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "unix_time": time.time(),
        "loadavg": list(os.getloadavg()),
    }


def spawn(argv_path: str, out_path: str, *flags: str, argv_set: int = 0) -> dict:
    """Run worker.py in a fresh interpreter; returns its record plus setup_s."""
    started = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), argv_path, out_path,
                           *flags], cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out_path) as fh:
        record = json.load(fh)
    os.remove(out_path)
    record["setup_s"] = record["imported_at"] - started
    if "setup_probe_s" in record:
        rescale(record)
    record["started_s"] = started
    record["argv_set"] = argv_set
    record["loadavg_after"] = list(os.getloadavg())
    return record


def rescale(record: dict) -> None:
    """Adds the pass's set-up and wall time at the reference speed (calibrate.py).

    Set-up time is rescaled by the median of the probes right after the
    import, each call by the median of the probes taken while it ran, widened
    to its nearest neighbours for a call too short for three."""
    from calibrate import REFERENCE_S

    setup_probes, probes = record["setup_probe_s"], record["probe_s"]
    record["setup_ref_s"] = record["setup_s"] * REFERENCE_S / statistics.median(setup_probes)
    probes = setup_probes + probes  # so a pass always has three
    wall = 0.0
    for call in record["calls"]:
        lo, hi = (len(setup_probes) + i for i in call["probes"])
        while hi - lo < 3:
            lo, hi = max(0, lo - 1), min(len(probes), hi + 1)
        wall += call["seconds"] * REFERENCE_S / statistics.median(probes[lo:hi])
    record["wall_ref_s"] = wall


def import_times() -> dict:
    """Cumulative import seconds from ``python -X importtime``, read from outside."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pdextremal.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import of pdextremal.cli failed: {proc.stderr.strip()[-2000:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:") and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {"import.pdextremal_s": cumulative.get("pdextremal.cli", 0.0),  # package included
            "import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
            "import.numpy_s": cumulative.get("numpy", 0.0)}


def check_passes(argv_sets, passes, reference, failures: list) -> int:
    """Check the outputs of each argv set's first pass, and every later pass of
    the set against it; returns failed calls.

    A later pass repeats the first pass's verdict on a call whose stdout it
    repeats byte for byte."""
    from checks import CheckError, check_output

    firsts = {}
    verdicts = {}
    failed = 0
    for p, record in enumerate(passes):
        j = record["argv_set"]
        first = firsts.setdefault(j, record)["calls"]
        for i, (argv, call) in enumerate(zip(argv_sets[j], record["calls"])):
            problem = None
            if call["error"] is not None:
                problem = call["error"].strip().splitlines()[-1]
            elif call["exit_code"] != 0:
                problem = f"exit code {call['exit_code']}: {call['stderr'].strip()[-300:]}"
            elif call["stdout"] != first[i]["stdout"]:
                problem = "stdout differs from the first pass for the same argv"
            elif (j, i) not in verdicts:
                try:
                    check_output(argv, call["stdout"], reference)
                    verdicts[j, i] = None
                except CheckError as exc:
                    verdicts[j, i] = str(exc)
                problem = verdicts[j, i]
            else:
                problem = verdicts[j, i]
            if problem is not None:
                failed += 1
                failures.append({"pass": p, "argv_set": j, "call": i, "argv": argv,
                                 "problem": problem})
    return failed


def run(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "pdextremal", "cli.py")):
        raise BenchError(f"no package source at {SRC}; run from the root of a pdextremal checkout")
    sys.path.insert(0, SRC)
    from workloads import EXPECTED_LAYERS, argv_sets

    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    sets = argv_sets(workload, seed)
    argv_paths = [os.path.join(OUT, f"{tag}.argv{j}.json") for j in range(len(sets))]
    for path, argvs in zip(argv_paths, sets):
        with open(path, "w") as fh:
            json.dump(argvs, fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "argv_sets": sets, "environment_start": environment()}
    scratch = os.path.join(OUT, f"{tag}.worker.json")

    spawn(argv_paths[0], scratch, "--setup-only")  # untimed: compiles bytecode, warms file cache
    failures: list = []
    if not trace:
        passes = []
        begin = time.monotonic()
        while True:
            j = len(passes) % len(sets)
            passes.append(spawn(argv_paths[j], scratch, argv_set=j))
            elapsed = time.monotonic() - begin
            if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        failed = check_passes(sets, passes, reference, failures)
        metrics = {
            "setup_s": statistics.median(p["setup_ref_s"] for p in passes),
            "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0,
        }
        coverage_ok = True
    else:
        import tracer

        plain = spawn(argv_paths[0], scratch)
        traced = spawn(argv_paths[0], scratch, "--trace")
        passes = [plain, traced]
        failed = check_passes(sets, passes, reference, failures)
        spans, extras = traced.pop("spans"), traced.pop("extras")
        with open(os.path.join(OUT, f"{tag}.spans.json"), "w") as fh:
            json.dump({"spans": spans, "extras": extras}, fh)
        metrics, layer_spans = tracer.layer_metrics(spans, {int(k): v for k, v in extras.items()})
        metrics["cli.stdout_bytes"] = sum(len(c["stdout"].encode()) for c in traced["calls"])
        metrics.update(import_times())
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]  # not rescaled
        record["layer_spans"] = layer_spans
        missing = [layer for layer in EXPECTED_LAYERS[workload] if layer_spans[layer] == 0]
        for layer in missing:
            failures.append({"problem": f"layer {layer} recorded no spans on {workload}"})
        coverage_ok = not missing

    record["environment_end"] = {"unix_time": time.time(), "loadavg": list(os.getloadavg())}
    record["passes"] = [{"started_s": p["started_s"] - passes[0]["started_s"],
                         "traced": "wrapped_functions" in p, "argv_set": p["argv_set"],
                         "setup_s": p["setup_s"], "wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                         "setup_ref_s": p.get("setup_ref_s"), "wall_ref_s": p.get("wall_ref_s"),
                         "setup_probe_s": p.get("setup_probe_s"), "probe_s": p["probe_s"],
                         "peak_rss_kb": p["peak_rss_kb"], "loadavg_after": p["loadavg_after"],
                         "call_seconds": [c["seconds"] for c in p["calls"]],
                         "call_probes": [c["probes"] for c in p["calls"]]} for p in passes]
    record["failures"] = failures
    for failure in failures[:5]:
        print(f"failed: {failure}", file=sys.stderr)
    wanted = spec["per_layer" if trace else "end_to_end"]
    if sorted(m["name"] for m in wanted) != sorted(metrics):
        raise BenchError(f"measured {sorted(metrics)}, BENCHMARK.json lists {wanted}")
    result = {"correct": failed == 0 and coverage_ok,
              "attempted": sum(len(p["calls"]) for p in passes), "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    record["result"] = result
    record_path = os.path.join(OUT, f"{tag}.record.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
    for path in argv_paths:
        os.remove(path)
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    return result


def main(argv=None) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads; workers inherit it
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)  # metric names and units, and the workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = run(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
