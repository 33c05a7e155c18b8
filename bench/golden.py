"""Write ``golden.json``: the work sizes and verdicts of every ideal_jobs job.

Usage, from the repository root: ``python3 bench/golden.py``.

The file pins what each engine answer exposes (members checked, widths
refuted, list lengths, verdicts, witnesses).  These are outputs, so a later
change that moves one is a correctness failure, not a speed-up; regenerate the
file only together with a change that is meant to alter those outputs.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import IDEAL_MENU, check_ideal_answer, ideal_key, ideal_work, run_ideal_job  # noqa: E402


def main() -> int:
    golden = {}
    for job in IDEAL_MENU:
        report = run_ideal_job(job)
        problem = check_ideal_answer(job, report)
        if problem is not None:
            print(f"{ideal_key(job)}: {problem}", file=sys.stderr)
            return 1
        golden[ideal_key(job)] = ideal_work(job, report)
    with open(HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
