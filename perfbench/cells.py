"""Run explicit (design, trace) cells in a fresh process through the executor.

``cli`` addresses experiments, not cells, so the ``sim-*`` workloads time
their fresh-process passes with this script instead: it sends the cells to
``repro.exec.run_jobs``, the supervised pool that ``cli`` prefetches every
experiment through, against the result store that ``REPRO_CACHE_PATH``
names, and prints one JSON line::

    PYTHONPATH=src python3 perfbench/cells.py --cells dice:mcf,bai:mcf \\
        --accesses 800 --seed 7 --jobs 2

The line holds each cell's ``SimResult`` without its manifest, the source
of each outcome (``cache`` or ``run``) and any errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", required=True,
                        help="comma-separated design:trace pairs")
    parser.add_argument("--accesses", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    args = parser.parse_args(argv)

    from repro.exec import make_job, run_jobs
    from repro.sim.engine import SimulationParams

    params = SimulationParams(accesses_per_core=args.accesses, seed=args.seed)
    cells = [cell.split(":") for cell in args.cells.split(",") if cell]
    jobs = [make_job(trace, design, params=params) for design, trace in cells]
    outcomes = run_jobs(jobs, max_workers=args.jobs)
    doc = {"results": {}, "sources": {}, "errors": {}}
    for outcome in outcomes:
        cell = f"{outcome.job.config_name}:{outcome.job.workload}"
        doc["sources"][cell] = outcome.source
        if outcome.ok:
            result = dataclasses.asdict(outcome.result)
            result.pop("manifest", None)
            doc["results"][cell] = result
        else:
            doc["errors"][cell] = outcome.error
    print(json.dumps(doc, sort_keys=True))
    return 0 if not doc["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
