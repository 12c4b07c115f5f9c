"""Write reference.json: the results of the benchmark's deterministic calls.

    python3 perfbench/make_reference.py

Run once, at the commit that defined the benchmark, whose outputs were
checked then (each table's own sign/monotonicity report passes, and the
trinomial and density results are the paper's).  Checks compare later
outputs with this file within the package's tolerances, so do not rerun it
to make a failing check pass.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pdextremal.cli as cli  # noqa: E402
from workloads import FIXED_VERIFY_TAIL, RADIAL_ARGVS  # noqa: E402


def main() -> int:
    reference = {}
    for argv in list(RADIAL_ARGVS) + list(FIXED_VERIFY_TAIL):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        if code != 0:
            print(f"{argv} exited {code}", file=sys.stderr)
            return 1
        reference[" ".join(argv)] = json.loads(out.getvalue())["result"]
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
