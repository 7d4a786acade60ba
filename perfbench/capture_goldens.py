"""Capture golden outputs for the seeds the benchmark ships.

    python3 perfbench/capture_goldens.py

Run from the repository root, only at a commit whose outputs are known to be
right: the benchmark compares every later run on these seeds against them.
Writes perfbench/goldens/seed<N>/<workload>.json.
"""

import json
import shutil
import sys

sys.path.insert(0, "src")

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402

import hoshell.cli as cli  # noqa: E402


def main() -> int:
    work = run.OUT / "golden-work"
    for seed in (jobs.DEFAULT_SEED, jobs.HELD_OUT_SEED):
        for workload in jobs.WORKLOADS:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            prep, timed = jobs.make_jobs(workload, seed)
            for job in prep + timed:
                if cli.main(job.argv(str(work))) != 0:
                    print(f"{workload}/{job.name} failed", file=sys.stderr)
                    return 1
            for job in prep + timed:
                errors = (checks.spot_levels(job, work / job.levels) if job in prep
                          else checks.spot_check(job, work))
                if errors:
                    print("\n".join(errors), file=sys.stderr)
                    return 1
            record = {"seed": seed, "workload": workload,
                      "src_sha256": run.src_digest(), "commit": run.git_commit(),
                      "jobs": {job.name: checks.golden_record(job, work) for job in timed}}
            path = checks.golden_path(seed, workload)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(record, separators=(",", ":")) + "\n")
            print(f"wrote {path}")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
