"""One benchmark pass in a fresh interpreter: import the CLI, run an argv list.

    python3 perfbench/worker.py ARGV_JSON OUT_JSON [--trace | --setup-only]

The first thing it does is import ``pdextremal.cli`` from the checkout's
``src`` and note the monotonic clock, which the parent compares with the
moment it started this process (set-up time).  Then it calls
``pdextremal.cli.main(argv)`` for each argv in ARGV_JSON, in order, with no
warm-up, capturing stdout and stderr.  OUT_JSON gets the wall and CPU time,
exit codes, outputs and peak RSS; with ``--trace`` also the layer spans.

Untraced, it times ``calibrate.probe`` (the host's current speed) a few
times right after the import and every ``calibrate.PERIOD_S`` during the
calls; probe time is kept out of the call times.
"""

import os  # already loaded by the interpreter's start-up, so free
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import pdextremal.cli as cli  # noqa: E402

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

SETUP_PROBES = 5  # probes right after the import, for rescaling set-up time


def run_pass(argvs, entry, sampler):
    """Runs the calls; time spent in the sampler's probes is kept out of their times."""
    calls = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        error = None
        first, spent = len(sampler.samples), sampler.spent
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = entry(list(argv))
        except Exception:  # a raising call is a failed call, not a crashed benchmark
            code, error = None, traceback.format_exc()
        probing = sampler.spent - spent
        calls.append({"exit_code": code, "seconds": time.perf_counter() - t0 - probing,
                      "cpu_s": time.process_time() - cpu0 - probing,
                      "probes": [first, len(sampler.samples)],
                      "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error})
    return calls


def main() -> int:
    argv_path, out_path, *flags = sys.argv[1:]
    expected_src = os.path.realpath(SRC)
    record = {"imported_at": IMPORTED_AT, "pid": os.getpid(),
              "package_file": os.path.realpath(cli.__file__)}
    if not record["package_file"].startswith(expected_src + os.sep):
        print(f"pdextremal imported from {record['package_file']}, not from {expected_src}",
              file=sys.stderr)
        return 2
    if "--setup-only" not in flags:
        with open(argv_path) as fh:
            argvs = json.load(fh)
        import calibrate  # next to this script

        recorder = None
        if "--trace" in flags:
            import tracer

            recorder = tracer.Tracer()
            record["wrapped_functions"] = tracer.install(recorder)
        sampler = calibrate.Sampler()
        if recorder is None:
            record["setup_probe_s"] = [calibrate.probe() for _ in range(SETUP_PROBES)]
            with sampler:
                record["calls"] = run_pass(argvs, cli.main, sampler)
        else:  # no probes in a traced pass, so its spans hold only the package's time
            record["calls"] = run_pass(argvs, cli.main, sampler)
        record["probe_s"] = sampler.samples
        record["wall_s"] = sum(c["seconds"] for c in record["calls"])
        record["cpu_s"] = sum(c["cpu_s"] for c in record["calls"])
        record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if recorder is not None:
            record["spans"] = recorder.spans
            record["extras"] = recorder.extras
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
