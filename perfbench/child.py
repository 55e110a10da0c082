"""Fresh-process entry points of the benchmark.

    python3 perfbench/child.py setup WORKLOAD WORKDIR TAG SPANS
    python3 perfbench/child.py cli SPANS LAGCAST-ARGS...

``setup`` imports lagcast and does one workload's set-up, then prints the
seconds that took, counted from the top of this file.  ``cli`` runs one
``lagcast`` command in the traced run.  SPANS is a file to append the
process's spans to, or ``-`` for no tracing.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    mode = sys.argv[1]
    spans = sys.argv[5] if mode == "setup" else sys.argv[2]
    tracer = Tracer()
    with tracer.span("import.lagcast"):
        import lagcast  # noqa: F401
    if mode == "cli":
        import lagcast.cli  # before install(), so its references get wrapped
    if spans != "-":
        tracer.install()
        tracer.recording = True
    if mode == "setup":
        import workloads
        workloads.WORKLOADS[sys.argv[2]].setup(Path(sys.argv[3]), sys.argv[4])
        print(json.dumps({"setup_s": time.perf_counter() - START}))
        code = 0
    else:
        code = lagcast.cli.main(sys.argv[3:])
    if spans != "-":
        tracer.recording = False
        tracer.write(spans, f"{mode}-{os.getpid()}")
    return code


if __name__ == "__main__":
    sys.exit(main())
