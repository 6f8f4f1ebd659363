"""One cold pass over k3lab's suites in a fresh interpreter: an iteration of
the traced run of `verify_all`, on its traced side or its untraced side.

    python3 perfbench/suites_child.py OUT.json 0|1 SUITE...

Imports k3lab (from PYTHONPATH) and the span recorder, installs the spans
only if the second argument is 1, calls `run_suite` once per suite name under
a speed sampler (speed.py) and writes every suite's report, the recorded
spans and the probe times to OUT.json.  Both sides run this same file, so
their difference in reference time is the cost of tracing.
"""

import json
import sys
from pathlib import Path

import k3lab.cli  # noqa: F401  (as the traced side, which wraps k3lab.cli.main)
from k3lab import suites
from spans import Tracer
from speed import Sampler


def main(argv) -> int:
    out, trace, names = Path(argv[0]), argv[1] == "1", argv[2:]
    tracer = Tracer()
    with Sampler() as sampler:
        if trace:
            tracer.install()
        reports = [suites.run_suite(name).to_dict() for name in names]
        tracer.uninstall()
    out.write_text(json.dumps({"reports": reports, "spans": tracer.state(),
                               "took": sampler.took}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
