"""One benchmark pass in a fresh process: ``worker.py '<job json>'``.

The job names the checkout's ``src`` directory, a workload (or none, to time
set-up alone), a seed, and whether to trace.  The worker imports
``qrafts.cli`` from that directory and prints ``ready``; the parent's clock
from spawn to that line is the set-up time.  It then runs the pass and prints
one JSON line with the pass's results.
"""

import json
import os
import sys


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.join(os.path.abspath(job["src"]), "")
    sys.path.insert(0, src)
    import qrafts.cli

    if not os.path.abspath(qrafts.cli.__file__).startswith(src):
        print(f"worker: qrafts was imported from {qrafts.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    print("ready", flush=True)
    if job["workload"] is None:
        return 0

    import workloads

    name = job["workload"]
    result = workloads.run_pass(workloads.WORKLOADS[name], workloads.load_expected(name),
                                job["seed"], job["trace"])
    result["qrafts_file"] = qrafts.__file__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
