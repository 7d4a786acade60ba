"""Set-up probe: a fresh interpreter imports hoshell.cli and generates one
workload's jobs.  It prints "ready" as soon as that is done, so the parent
can time it, then a JSON line with the import time, the number of loaded
scipy modules and the host-speed samples taken meanwhile.  Run from the
repository root:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time

import speed  # loads numpy, which hoshell.cli loads first thing anyway

sampler = speed.Sampler()
with sampler:
    t0 = time.perf_counter()
    sys.path.insert(0, "src")
    import hoshell.cli  # noqa: E402,F401

    import_s = time.perf_counter() - t0
    import jobs  # noqa: E402

    jobs.make_jobs(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)

scipy_modules = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"import_s": import_s, "scipy_modules": scipy_modules,
                  "in_region_s": sampler.in_region_s, "ticks": sampler.samples}))
