import ast
import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
CHECKS = PERFBENCH / "checks.py"
JOBS = PERFBENCH / "jobs.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hoshell"


def _perfbench(monkeypatch, path: Path):
    """A perfbench module, executed from its source without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(monkeypatch):
    # The traced benchmark run replaces each (owner, attr) in TARGETS; a
    # refactor that drops one of these names would break it silently.
    tracer = _perfbench(monkeypatch, TRACER)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracer.TARGETS if attr not in vars(owner)]
    assert missing == []


def test_correctness_check_imports_resolve():
    # Every benchmark run imports these names for its output checks; a
    # deletion that drops one would fail the run, not only its trace.  They
    # are read from the source, so no perfbench module is executed.
    imported = [(node.module, alias.name)
                for node in ast.walk(ast.parse(CHECKS.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "hoshell"
                for alias in node.names]
    assert imported
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_unused_imports_are_tracer_targets():
    # An import that the package keeps only for the tracer is marked
    # `noqa: F401`.  Each must name an (owner, attr) pair of TARGETS, so an
    # unused import cannot hide behind the marker, and one that TARGETS drops
    # is flagged for deletion.  Both files are read from the source.
    tracer = ast.parse(TRACER.read_text())
    modules = {alias.asname or alias.name: alias.name for node in tracer.body
               if isinstance(node, ast.Import) for alias in node.names}
    targets = next(node.value for node in tracer.body if isinstance(node, ast.Assign)
                   and [ast.unparse(t) for t in node.targets] == ["TARGETS"])
    pairs = {(modules.get(ast.unparse(owner), ast.unparse(owner)), ast.literal_eval(attr))
             for owner, attr, *_ in (entry.elts for entry in targets.elts)}
    shims = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        shims += [(f"hoshell.{path.stem}", alias.asname or alias.name)
                  for node in ast.walk(ast.parse("\n".join(lines)))
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and any("noqa: F401" in line
                          for line in lines[node.lineno - 1:node.end_lineno])
                  for alias in node.names]
    assert [shim for shim in shims if shim not in pairs] == []


def test_independent_check_agrees_with_pert_dos(monkeypatch):
    # Every benchmark run checks sampled `dos` rows against `_reference_osc`,
    # which reaches the package through the scalar views (polynomial_delta_s,
    # modulation_quadrature, modulation_closed_form) that pert_dos no longer
    # calls.  A break in them would otherwise first show as `correct: false`.
    checks = _perfbench(monkeypatch, CHECKS)
    from hoshell import SystemParams, pert_dos

    jobs = [dict(D=3, alpha=4, epsilon=1.0 / (3.375 * 30.0 ** 4), width=0.1, k_max=10,
                 method="quad"),
            dict(D=4, alpha=3, epsilon=1.0 / (1.5 * 30.0 ** 3), width=0.1, k_max=10,
                 method="closed")]
    for p in jobs:
        energies = [4.0, 29.0, 51.5]
        curve = pert_dos(SystemParams.single(p["D"], p["epsilon"], p["alpha"]), energies,
                         k_max=p["k_max"], width=p["width"],
                         method={"quad": "quadrature", "closed": "closed_form"}[p["method"]])
        for energy, smooth, osc in zip(energies, curve.smooth, curve.oscillating):
            want = checks._reference_osc(p, energy, smooth)
            assert abs(osc - want) <= checks.OSC_TOL_PER_K * p["k_max"] * smooth, (p, energy)


@pytest.mark.parametrize("seed", [1, 7])
def test_cached_dos_jobs_pass_the_level_check(monkeypatch, tmp_path, seed):
    # Each benchmark cache ends at the grid end plus five widths of its widest
    # job, the least the level check of `ebk-dos --levels-in` accepts.  A cache
    # the check wrongly refused would otherwise first show as a failed run.
    jobs = _perfbench(monkeypatch, JOBS)
    from hoshell.cli import main

    prep, timed = jobs.make_jobs("ebk_dos_cached", seed)
    for job in prep + timed:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(job.argv(str(tmp_path)))
        assert (code, err.getvalue()) == (0, ""), job.name


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", ["pert_quad", "pert_closed", "ebk_enumerate",
                                      "ebk_dos_cached"])
def test_benchmark_output_checks_pass(monkeypatch, tmp_path, workload, seed):
    # One run of every job, then the benchmark's own untimed output checks:
    # the goldens within the contract tolerances and the independent spot
    # checks.  An output moved past them would otherwise first show as
    # `correct: false` in a benchmark run.
    jobs, checks = _perfbench(monkeypatch, JOBS), _perfbench(monkeypatch, CHECKS)
    from hoshell.cli import main

    prep, timed = jobs.make_jobs(workload, seed)
    goldens = checks.load_goldens(seed, workload)
    assert goldens is not None
    for job in prep + timed:
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(job.argv(str(tmp_path))) == 0, job.name
    failures = [error for job in prep for error in checks.spot_levels(job, tmp_path / job.levels)]
    for job in timed:
        failures += checks.spot_check(job, tmp_path) + checks.check_golden(job, tmp_path, goldens)
    assert failures == []


def test_pipelines_reach_the_traced_absorb_names(monkeypatch):
    # The tracer counts actionpoly.absorb_harmonic_terms through the names
    # dos.absorb_harmonic_terms and ebk.absorb_harmonic_terms.  A pipeline
    # that resolved its system past them would read 0 in a traced run only.
    import numpy as np

    import hoshell.dos
    import hoshell.ebk
    from hoshell import SystemParams, ebk_dos, pert_dos

    calls = {"dos": 0, "ebk": 0}
    for name, module in (("dos", hoshell.dos), ("ebk", hoshell.ebk)):
        def counted(params, name=name, absorb=module.absorb_harmonic_terms):
            calls[name] += 1
            return absorb(params)
        monkeypatch.setattr(module, "absorb_harmonic_terms", counted)
    params = SystemParams.single(3, 1e-3, 2)
    pert_dos(params, np.linspace(5.0, 10.0, 11), k_max=2, method="closed_form")
    assert calls == {"dos": 1, "ebk": 0}
    ebk_dos(params, np.linspace(2.0, 6.0, 9), 0.3)
    assert calls["dos"] == 1 and calls["ebk"] > 0
