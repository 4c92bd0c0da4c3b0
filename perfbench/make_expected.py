"""Write expected.json: the outputs every benchmark pass is checked against.

Run from the repository root at a commit whose outputs are trusted, and
again whenever a workload size in workloads.py changes:

    python3 perfbench/make_expected.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import EXPECTED_PATH, WORKLOADS, compute_expected  # noqa: E402


def main() -> int:
    data = {name: compute_expected(spec) for name, spec in WORKLOADS.items()}
    EXPECTED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
