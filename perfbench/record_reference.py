"""Record ``reference.json``: what the sampled checks compare against.

Usage, from the repository root, at a commit whose outputs are known good
(every later commit is checked against what this writes):

    python3 perfbench/record_reference.py

It runs the ``moment-n3-qmc`` and ``prelimit-n2`` passes once at each of
``SEEDS`` (about 20 minutes on 2 CPUs), prints each pass's outputs as one JSON
line, and writes, for every sampled output a check reads, its mean and its
seed-to-seed standard deviation over the seeds, and for each moment diagram
its median reported error.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = list(range(3001, 3025))


def _stats(values) -> dict:
    return {"mean": statistics.fmean(values), "sd": statistics.stdev(values)}


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    threads = len(os.sched_getaffinity(0))
    runs = {}
    for name in ("moment-n3-qmc", "prelimit-n2"):
        runs[name] = []
        for seed in SEEDS:
            out = workloads.PASSES[name](seed, threads)
            print(json.dumps({"workload": name, "seed": seed, "outputs": out}), flush=True)
            runs[name].append(out)

    moment, prelimit = runs["moment-n3-qmc"], runs["prelimit-n2"]
    reference = {
        "_comment": "Written by perfbench/record_reference.py at the seed commit: over the "
                    "listed seeds, the mean and seed-to-seed standard deviation of each "
                    "moment-n3-qmc per-order total, its total and each prelimit-n2 "
                    "simulator estimate, and each moment diagram's median reported error.",
        "seeds": SEEDS,
        "moment-n3-qmc": {
            "per_m": {m: _stats([out["per_m"][m][0] for out in moment])
                      for m in moment[0]["per_m"]},
            "total": _stats([out["total"][0] for out in moment]),
            "diagram_median_error": [statistics.median(errors) for errors in
                                     zip(*(out["diagram_errors"] for out in moment))],
        },
        "prelimit-n2": {str(row[0]): _stats([out["moments"][j][1] for out in prelimit])
                        for j, row in enumerate(prelimit[0]["moments"])},
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
