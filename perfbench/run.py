"""hoshell benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload pert_quad --seed 1 --seconds 20 --trace 0

Run from the repository root.  The seed generates the jobs (perfbench/jobs.py);
each job is a `hoshell` command line passed to `hoshell.cli.main` in this
process.  Jobs are repeated in rounds until --seconds have been spent (at
least three rounds), and every output is checked (perfbench/checks.py).

--trace 0 reports the end-to-end metrics: wall_s (sum over jobs of the median
job time), setup_s (median over fresh interpreters of import plus job
generation) and peak_rss_mb.  --trace 1 alternates untraced and traced rounds
and reports the per-layer metrics of perfbench/tracer.py.  The names and
units printed are those listed in BENCHMARK.json.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

wall_s and setup_s are in reference seconds (perfbench/speed.py): the host's
speed is sampled while each job run or set-up probe runs, and the time is
scaled to a fixed reference speed.  The raw wall-clock values are reported
next to them in the provenance record.
"""

import os

# Pin BLAS before numpy loads; the package itself is single-threaded.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import jobs  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
MIN_ROUNDS = 3
SETUP_PROBES = 5


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _probe_setup(workload: str, seed: int) -> dict:
    """Time SETUP_PROBES fresh interpreters from spawn to "ready"."""
    walls, scaled, imports, scipy_modules = [], [], [], 0
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload,
                               str(seed)], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            watchdog = threading.Timer(120.0, proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline()
                walls.append(perf_counter() - t0)
                rest = proc.stdout.read()
            finally:
                watchdog.cancel()
        if ready.strip() != "ready" or proc.returncode != 0 or not rest.strip():
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        rec = json.loads(rest.splitlines()[-1])
        scaled.append((walls[-1] - rec["in_region_s"]) * speed.REFERENCE_TICK_S
                      / statistics.fmean(rec["ticks"]))
        imports.append(rec["import_s"])
        scipy_modules = rec["scipy_modules"]
    return {"setup_s": statistics.median(scaled), "raw_setup_s": statistics.median(walls),
            "import_s": statistics.median(imports), "scipy_modules": scipy_modules}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hoshell").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs one workload's jobs and keeps their timings and failures."""

    def __init__(self, cli, workdir: Path, timed: list):
        self.cli = cli
        self.workdir = workdir
        self.timed = timed
        self.digests: dict[str, str] = {}
        self.passed: dict[str, int] = {}     # successful executions per job
        self.failed_runs = 0
        self.bad_jobs: set[str] = set()      # jobs with any failed run or check
        self.failures: list[str] = []
        # (traced, job name, wall seconds, reference seconds) per successful run
        self.samples: list[tuple[bool, str, float, float]] = []

    @property
    def attempted(self) -> int:
        return self.failed_runs + sum(self.passed.values())

    @property
    def failed(self) -> int:
        return self.failed_runs + sum(self.passed.get(name, 0) for name in self.bad_jobs)

    def reject(self, job_name: str, errors: list[str]) -> None:
        if errors:
            self.bad_jobs.add(job_name)
            self.failures += errors

    def _digest(self, job) -> str:
        h = hashlib.sha256()
        for name in job.outputs.values():
            h.update((self.workdir / name).read_bytes())
        return h.hexdigest()

    def run_job(self, job) -> tuple[float, float] | None:
        """(wall seconds, reference seconds) of the job, or None if it failed.
        The first output of each job is the reference every later repeat
        must reproduce byte for byte, traced or not."""
        sampler = speed.Sampler()
        with sampler:
            t0 = perf_counter()
            try:
                rc = self.cli.main(job.argv(str(self.workdir)))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
                rc = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
        if rc == 0:
            digest = self._digest(job)
            if self.digests.setdefault(job.name, digest) != digest:
                rc = "output differs from its first run"
        if rc != 0:
            self.failed_runs += 1
            self.reject(job.name, [f"{job.name}: {rc}"])
            return None
        self.passed[job.name] = self.passed.get(job.name, 0) + 1
        return seconds, sampler.reference_seconds(seconds)

    def round(self, tracer=None) -> None:
        for index, job in enumerate(self.timed):
            if tracer is not None:
                tracer.start_job(index)
            timing = self.run_job(job)
            if timing is not None:
                self.samples.append((tracer is not None, job.name, *timing))

    def wall(self, traced: bool, reference: bool) -> float:
        """Sum over the jobs that passed of the median time of their runs."""
        per_job: dict[str, list[float]] = {}
        for was_traced, name, seconds, ref in self.samples:
            if was_traced == traced and name not in self.bad_jobs:
                per_job.setdefault(name, []).append(ref if reference else seconds)
        return sum(_median(t) for t in per_job.values())


def _check(check, job, *args):
    """Run an output check; a check that raises on malformed output fails the job."""
    try:
        return check(job, *args)
    except Exception as exc:
        return [f"{job.name}: check raised {type(exc).__name__}: {exc}"]


def _seed_errors(workload: str, seed: int) -> list[str]:
    """The seed contract: same seed, same jobs; next seed, other jobs; both
    within the stated ranges."""
    jobs_here = jobs.make_jobs(workload, seed)
    jobs_next = jobs.make_jobs(workload, seed + 1)
    errors = [*jobs.check_ranges(workload, [*jobs_here[0], *jobs_here[1]]),
              *jobs.check_ranges(workload, [*jobs_next[0], *jobs_next[1]])]
    if jobs.make_jobs(workload, seed) != jobs_here:
        errors.append("the same seed generated different jobs")
    if jobs_next == jobs_here:
        errors.append("seeds differing by one generated the same jobs")
    return errors


def _run_rounds(runner: Runner, seconds: float, trace: bool):
    """Repeat the jobs in rounds until `seconds` are used up.  Untraced runs
    make at least MIN_ROUNDS rounds; traced runs alternate untraced and
    traced rounds, at least one of each.  Returns the tracers and the round
    durations."""
    tracers, durations = [], []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        if trace and len(durations) % 2 == 1:
            from tracer import Tracer
            with Tracer() as tr:
                runner.round(tr)
            tracers.append(tr)
        else:
            runner.round()
        durations.append(perf_counter() - t0)
        elapsed = perf_counter() - t_start
        if (len(durations) >= (2 if trace else MIN_ROUNDS)
                and elapsed + statistics.median(durations) > seconds):
            return tracers, durations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hoshell" / "__init__.py").is_file():
        print(f"run.py: no hoshell sources under {ROOT}/src; run from the repository root",
              file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import checks
    import hoshell.cli as cli

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prep, timed = jobs.make_jobs(args.workload, args.seed)
    seed_errors = _seed_errors(args.workload, args.seed)
    setup = _probe_setup(args.workload, args.seed)

    workdir = OUT / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(cli, workdir, timed)
    runner.failures += seed_errors
    for job in prep:  # untimed: writes the level caches the timed jobs read
        if runner.run_job(job) is not None:
            runner.reject(job.name, _check(checks.spot_levels, job, workdir / job.levels))

    tracers, durations = _run_rounds(runner, args.seconds, args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output checks, untimed, on the last round's files (identical to the first).
    golden = checks.load_goldens(args.seed, args.workload)
    byte_identical = None
    for job in timed:
        if job.name not in runner.digests:
            continue
        runner.reject(job.name, _check(checks.spot_check, job, workdir))
        if golden is not None:
            runner.reject(job.name, _check(checks.check_golden, job, workdir, golden))
            same = checks.identical_to_golden(job, workdir, golden)
            byte_identical = same if byte_identical is None else byte_identical and same

    self_checks = {}
    if args.trace:
        from tracer import layer_metrics
        eps_sign = {i: (1 if job.p["epsilon"] > 0 else -1) for i, job in enumerate(timed)}
        layer_rounds = [layer_metrics(tr, eps_sign) for tr in tracers]
        values = {key: statistics.median(r[key] for r in layer_rounds)
                  for key in layer_rounds[0]}
        values["cli.import_s"] = setup["import_s"]
        values["cli.scipy_modules"] = setup["scipy_modules"]
        values["trace.overhead_s"] = (runner.wall(traced=True, reference=False)
                                      - runner.wall(traced=False, reference=False))
        self_checks = _self_checks(args.workload, timed, tracers[0])
        with open(OUT / f"spans-{args.workload}.csv", "w") as fh:
            fh.write("round,job,span,parent,name,start_s,end_s\n")
            for i, tr in enumerate(tracers):
                tr.write_spans(fh, i, [job.name for job in timed])
    else:
        # A failed job's timing is not valid: Runner.wall leaves it out.
        values = {"wall_s": runner.wall(traced=False, reference=True),
                  "setup_s": setup["setup_s"], "peak_rss_mb": peak_rss_mb}

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            runner.failures.append(f"benchmark did not compute metric {m['name']}")

    attempted, failed = runner.attempted, runner.failed
    provenance = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "default_seed": jobs.DEFAULT_SEED,
        "held_out_seed": jobs.HELD_OUT_SEED,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "loadavg_start": load_start,
        "seconds": args.seconds,
        "rounds": len(durations),
        "round_s": durations,
        "raw_wall_s": runner.wall(traced=False, reference=False),
        "raw_setup_s": setup["raw_setup_s"],
        "reference_tick_s": speed.REFERENCE_TICK_S,
        "jobs": [job.argv(checks.GOLDEN_WORKDIR) for job in timed],
        "preparation": [job.argv(checks.GOLDEN_WORKDIR) for job in prep],
        "golden": "checked" if golden is not None else "none shipped for this seed",
        "byte_identical_to_golden": byte_identical,
        "error_rate": failed / max(attempted, 1),
    }
    for message in runner.failures:
        print(f"FAIL {message}", file=sys.stderr)
    for name, (ok, detail) in self_checks.items():
        print(f"self-check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(f"error_rate = {provenance['error_rate']:.6g} ({failed} failed of {attempted})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not runner.failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": provenance, "self_checks": self_checks,
                    "failures": runner.failures, "samples": runner.samples},
                   indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def _self_checks(workload: str, timed: list, tracer) -> dict[str, tuple[bool, str]]:
    """Checks that a workload still exercises the layers it was chosen for.
    They are reported, not counted as output failures: a change that
    restructures a kernel legitimately changes the call counts."""
    total = tracer.counts
    results = {}

    def expect(name, observed, want):
        results[name] = (observed == want, f"observed {observed}, expected {want}")

    if workload == "pert_quad":
        readme = tracer.job_counts[[job.name for job in timed].index("readme")]
        expect("readme_modulation_quadrature_calls",
               readme["modfactor.modulation_quadrature.calls"], 34510)
        expect("readme_kummer_1f1_calls", readme["specfun.kummer_1f1.calls"], 0)
    if workload.startswith("pert_"):
        expect("radial_action_calls", total["ebk.radial_action.calls"], 0)
    if workload == "pert_closed":
        expect("modulation_quadrature_calls", total["modfactor.modulation_quadrature.calls"], 0)
        expect("kummer_1f1_other_branch", total["specfun.kummer_1f1.calls.other"], 0)
    if workload == "ebk_dos_cached":
        expect("ebk_energy_calls", total["ebk.ebk_energy.calls"], 0)
    return results


if __name__ == "__main__":
    sys.exit(main())
