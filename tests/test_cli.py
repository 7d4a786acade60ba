import contextlib
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hoshell.cli import main


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning as a fresh interpreter has it: the formatted
    warning on sys.stderr, whichever stream that is at the time."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """`hoshell *args` run in this process, as `python -W error::RuntimeWarning
    -m hoshell.cli *args` runs it: exit code, stdout and stderr.  A SystemExit
    (argparse's 64, or 0 from --help) gives its code.  Warnings follow that
    interpreter's filters, not pytest's: a TruncationWarning is its one
    `hoshell: warning:` line on stderr at every call, and a RuntimeWarning,
    like any other exception, fails the caller with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.resetwarnings()
        for category in (DeprecationWarning, PendingDeprecationWarning, ImportWarning,
                         ResourceWarning):
            warnings.simplefilter("ignore", category)
        warnings.simplefilter("error", RuntimeWarning)
        warnings.showwarning = _show_warning
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(["hoshell", *args], code, out.getvalue(), err.getvalue())


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """`python -W error::RuntimeWarning -m hoshell.cli *args` in a fresh
    interpreter, for the tests whose subject is the real entry point."""
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "hoshell.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_help():
    cp = run_fresh("--help")
    assert cp.returncode == 0, cp.stderr
    for name in ("coeffs", "modfactor", "dos", "supershell", "ebk", "ebk-dos",
                 "oracle", "compare"):
        assert name in cp.stdout


def test_unknown_flag_is_usage_error():
    assert run_cli("coeffs", "--alpha-max", "3", "--bogus").returncode == 64
    assert run_cli("nonsense").returncode == 64


GOLDEN_COEFFS = """\
alpha,j,numerator,denominator
1,0,1,1
2,0,3,2
2,1,-1,2
3,0,5,2
3,1,-3,2
4,0,35,8
4,1,-15,4
4,2,3,8
"""


def test_coeffs_golden(tmp_path: Path):
    out = tmp_path / "coeffs.csv"
    cp = run_cli("coeffs", "--alpha-max", "4", "--exact", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    assert out.read_text() == GOLDEN_COEFFS


def test_coeffs_float_mode():
    cp = run_cli("coeffs", "--alpha-max", "2")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "alpha,j,value"
    assert lines[1] == "1,0,1"
    assert lines[2] == "2,0,1.5"


def test_verify_legendre_smoke():
    cp = run_cli("verify-legendre", "--alpha-max", "12")
    assert cp.returncode == 0, cp.stderr
    rows = cp.stdout.strip().splitlines()[1:]
    assert len(rows) == 12
    assert all(row.endswith(",1") for row in rows)


def test_modfactor_methods_agree():
    cp = run_cli("modfactor", "--D", "3", "--alpha", "2", "--k", "1",
                 "--sigma-over-hbar-range", "1:9:5", "--method", "all")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0].split(",") == [
        "sigma_over_hbar", "re_quad", "im_quad", "abs_quad",
        "re_closed", "im_closed", "abs_closed", "re_spa", "im_spa", "abs_spa",
    ]
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        assert vals[3] == pytest.approx(vals[6], abs=1e-9)
        assert vals[6] == pytest.approx(vals[9], abs=1e-10)  # SPA exact here


@pytest.mark.parametrize("flag,value,rest", [
    ("--epsilon", "-1.25e-3", ("dos", "--e-range", "10:12:21", "--k-max", "4",
                               "--method", "closed")),
    ("--sigma-over-hbar-range", "-2e1:0:5", ("modfactor", "--D", "3", "--alpha", "2")),
])
def test_negative_scientific_values(flag, value, rest):
    spaced = run_cli(*rest, flag, value)
    joined = run_cli(*rest, f"{flag}={value}")
    assert spaced.returncode == joined.returncode == 0, spaced.stderr + joined.stderr
    assert spaced.stdout == joined.stdout


def test_modfactor_all_writes_the_methods_that_take_the_polynomial():
    # "all" writes the closed form for at most two coefficients and the SPA
    # for at least two; at alpha = 1 (one coefficient) it exited 2.
    argv = ["modfactor", "--D", "3", "--alpha", "1", "--sigma-over-hbar-range", "0:1:3"]
    cp = run_cli(*argv)
    assert (cp.returncode, cp.stderr) == (0, "")
    header, *rows = cp.stdout.splitlines()
    assert header == "sigma_over_hbar,re_quad,im_quad,abs_quad,re_closed,im_closed,abs_closed"
    assert len(rows) == 3
    for i, method in ((1, "quad"), (4, "closed")):
        single = run_cli(*argv, "--method", method)
        assert single.returncode == 0
        assert [row.split(",")[i:i + 3] for row in rows] == \
               [row.split(",")[1:] for row in single.stdout.splitlines()[1:]]
    for row in rows:
        quad, closed = (complex(*map(float, row.split(",")[i:i + 2])) for i in (1, 4))
        assert abs(quad - closed) <= 1e-12


def test_modfactor_exactly_one_at_zero_strength():
    cp = run_cli("modfactor", "--D", "4", "--alpha", "2", "--k", "3",
                 "--sigma-over-hbar-range", "0:1:2", "--method", "all")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[1] == "0,1,0,1,1,0,1,1,0,1"


def test_modfactor_rejects_zero_repetition():
    assert run_cli("modfactor", "--D", "3", "--alpha", "2", "--k", "0",
                   "--sigma-over-hbar-range", "0:1:2").returncode == 2


def test_dos_smoke():
    cp = run_cli("dos", "--D", "3", "--alpha", "2", "--epsilon", "1.25e-3",
                 "--e-range", "10:12:21", "--k-max", "4", "--method", "closed")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "E_over_hbar_omega,smooth,oscillating"
    assert len(lines) == 22
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 10.0
    assert first[1] == pytest.approx(50.0)  # E^2/2 at E=10


GOLDEN_SUPERSHELL = """\
s,n_s
1,40
2,56.568542494923804
3,69.282032302755098
"""


def test_supershell_golden():
    cp = run_cli("supershell", "--epsilon", "1.25e-3", "--s-max", "3")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == GOLDEN_SUPERSHELL


def test_supershell_domain_error_exit_code():
    assert run_cli("supershell", "--epsilon", "0", "--s-max", "1").returncode == 2


def test_bad_range_is_domain_error():
    assert run_cli("dos", "--e-range", "5:1:10").returncode == 2


def test_ebk_levels_and_cache_roundtrip(tmp_path: Path):
    cache = tmp_path / "levels.csv"
    cp = run_cli("ebk", "--D", "3", "--alpha", "2", "--epsilon", "1e-3",
                 "--e-max", "8", "--levels-out", str(cache))
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "n_r,l,E_over_hbar_omega,degeneracy"
    ground = lines[1].split(",")
    assert (ground[0], ground[1], ground[3]) == ("0", "0", "1")
    assert float(ground[2]) == pytest.approx(1.5, abs=0.02)
    assert cache.read_text().splitlines()[0] == "n_r,l,E_over_hbar_omega,degeneracy"

    direct = run_cli("ebk-dos", "--D", "3", "--alpha", "2", "--epsilon", "1e-3",
                     "--e-range", "1:5:41", "--width", "0.2")
    cached = run_cli("ebk-dos", "--D", "3", "--alpha", "2", "--epsilon", "1e-3",
                     "--e-range", "1:5:41", "--width", "0.2",
                     "--levels-in", str(cache))
    assert direct.returncode == cached.returncode == 0
    assert direct.stdout == cached.stdout
    assert direct.stdout.splitlines()[0] == "E_over_hbar_omega,g_ebk,g_smooth,dg_ebk"


def test_oracle_json_report():
    cp = run_cli("oracle", "--check", "delta-s", "--seed", "1")
    assert cp.returncode == 0, cp.stderr
    report = json.loads(cp.stdout)
    assert report["pass"] is True
    assert report["delta_s"]["max_relative_deviation"] <= 1e-10


def test_compare_json_report():
    cp = run_cli("compare", "--D", "3", "--alpha", "2", "--epsilon", "1.25e-3",
                 "--e-range", "30:48:901", "--method", "closed")
    assert cp.returncode == 0, cp.stderr
    report = json.loads(cp.stdout)
    assert set(report) == {"rms_difference", "pearson", "pert_envelope_nodes",
                           "ebk_envelope_nodes", "node_offsets",
                           "unmatched_pert_nodes", "unmatched_ebk_nodes"}
    assert any(abs(n - 40.0) < 1.0 for n in report["pert_envelope_nodes"])
    paired = len(report["node_offsets"])
    assert paired + len(report["unmatched_pert_nodes"]) == len(report["pert_envelope_nodes"])
    assert paired + len(report["unmatched_ebk_nodes"]) == len(report["ebk_envelope_nodes"])


def test_node_pairing_by_nearest_neighbour():
    from hoshell.cli import _pair_nodes

    # By list position 10 would pair with 41.5 and 40 with 70.
    assert _pair_nodes([10.0, 40.0], [41.5, 70.0]) == ([1.5], [10.0], [70.0])
    assert _pair_nodes([40.0, 60.0], [58.0, 41.0]) == ([1.0, -2.0], [], [])
    assert _pair_nodes([39.99], []) == ([], [39.99], [])


ROW_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1.0 / 3.0, -7.5,
              12345678901234567.0, -98765432109876543.0, float("inf"), float("nan")]


@pytest.mark.parametrize("as_array", [False, True])
def test_column_rows_match_fmt(tmp_path: Path, as_array):
    # Float columns go through one %.17g row string; that must give the text
    # of f"{v:.17g}", value by value, for Python floats and for numpy columns
    # zipped as memoryviews.
    import numpy as np

    from hoshell.cli import _csv, _write_text

    columns = [ROW_VALUES, ROW_VALUES[::-1], ROW_VALUES[3:] + ROW_VALUES[:3]]
    want = "a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                               for row in zip(*columns))
    if as_array:
        columns = [memoryview(np.array(c)) for c in columns]
    out = tmp_path / "rows.csv"
    _write_text(str(out), _csv(["a", "b", "c"], "%.17g,%.17g,%.17g\n", zip(*columns)))
    assert out.read_text() == want


def test_integer_columns_are_exact():
    # Exact coefficients and high-D degeneracies exceed 2**53; %d must not
    # pass them through a float.
    from hoshell.cli import _csv

    big = [0, -1, 2**53 + 1, 2**60 + 1, -(2**63) - 1, 10**39 + 7]
    text = "".join(_csv(["n", "x"], "%d,%.17g\n", ((n, 0.5) for n in big)))
    assert text == "".join(["n,x\n", *(f"{n},0.5\n" for n in big)])


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 3000])
def test_csv_blocks_keep_every_row(count):
    # _csv formats a block of up to 1,024 rows with one %; at and around the
    # block edges the text must be the per-row f"{v:.17g}" and f"{n}" text.
    from hoshell.cli import _csv

    floats = [ROW_VALUES[(i * 7) % len(ROW_VALUES)] * (1 + i) for i in range(count)]
    columns = [floats, floats[::-1], [v / 3.0 for v in floats]]
    want = "a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                              for row in zip(*columns))
    for rows in (zip(*columns), zip(*(memoryview(np.array(c, dtype=float)) for c in columns))):
        assert "".join(_csv(["a", "b", "c"], "%.17g,%.17g,%.17g\n", rows)) == want

    ints = [(-1) ** i * (2**63 + i) for i in range(count)]
    want = "n,x\n" + "".join(f"{n},{v:.17g}\n" for n, v in zip(ints, floats))
    assert "".join(_csv(["n", "x"], "%d,%.17g\n", zip(ints, floats))) == want


@pytest.mark.parametrize("eps,omega", [(0.0, 1.0), (1.25e-3, 1.0), (-1.25e-3, 0.7)])
def test_ebk_rows_are_the_level_list_sorted_by_energy_then_l(tmp_path: Path, eps, omega):
    # `ebk` writes its table from arrays ordered by np.lexsort; the rows must
    # be the library's level list sorted by (E, l), which is stable, so equal
    # keys keep its n_r order.  At eps = 0 whole shells tie in E.
    from hoshell.actionpoly import SystemParams
    from hoshell.ebk import enumerate_levels

    out = tmp_path / "levels.csv"
    cp = run_cli("ebk", "--D", "4", f"--epsilon={eps!r}", f"--omega={omega!r}",
                 "--e-max", "30", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    with warnings.catch_warnings(record=True) as caught:
        levels = enumerate_levels(SystemParams.single(4, eps, 2, omega=omega), 30.0 * omega)
    # Past the barrier (eps < 0) the library's truncation warning is the CLI's stderr.
    assert cp.stderr == "".join(f"hoshell: warning: {w.message}\n" for w in caught)
    levels.sort(key=lambda lev: (lev.energy, lev.l))
    assert out.read_text() == "n_r,l,E_over_hbar_omega,degeneracy\n" + "".join(
        f"{lev.n_r},{lev.l},{lev.energy / omega:.17g},{lev.degeneracy}\n" for lev in levels)


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 3000])
def test_block_writes_keep_every_line(tmp_path: Path, count):
    from hoshell.cli import _write_text

    lines = [f"{i},{i * 0.5}\n" for i in range(count)]
    out = tmp_path / "lines.csv"
    _write_text(str(out), iter(lines))
    assert out.read_text() == "".join(lines)


@pytest.mark.parametrize("dim,alpha", [("3", "2"), ("4", "2"), ("3", "4"), ("4", "4")])
def test_modfactor_abs_is_abs_of_the_row(dim, alpha):
    # Each abs_* value is abs() of that row's complex value; np.abs over the
    # whole column differs from it in the last bit on many rows.
    cp = run_cli("modfactor", "--D", dim, "--alpha", alpha,
                 "--sigma-over-hbar-range", "0:40:101", "--method", "all")
    assert cp.returncode == 0, cp.stderr
    _, *rows = cp.stdout.splitlines()
    assert len(rows) == 101
    for row in rows:
        values = row.split(",")[1:]
        for re, im, mag in zip(values[0::3], values[1::3], values[2::3]):
            assert mag == "%.17g" % abs(complex(float(re), float(im)))


def test_output_dir_override(tmp_path: Path, monkeypatch):
    monkeypatch.setenv("HOSHELL_OUTDIR", str(tmp_path))
    cp = run_cli("coeffs", "--alpha-max", "2", "--exact", "--out", "sub/c.csv")
    assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "sub" / "c.csv").exists()


@pytest.mark.parametrize("args", [
    ("coeffs", "--alpha-max", "6", "--exact"),
    ("modfactor", "--D", "4", "--alpha", "3", "--k", "2",
     "--sigma-over-hbar-range", "0:20:9", "--method", "all"),
    ("dos", "--D", "2", "--alpha", "2", "--epsilon", "1e-3",
     "--e-range", "5:9:41", "--k-max", "3"),
    ("supershell", "--epsilon", "1.1e-5", "--alpha", "3", "--s-max", "4"),
    ("ebk", "--D", "4", "--alpha", "2", "--epsilon", "1e-3", "--e-max", "6"),
    ("ebk-dos", "--D", "3", "--alpha", "2", "--epsilon", "0.01",
     "--e-range", "1:6:26", "--width", "0.3"),
    ("oracle", "--check", "conservation", "--seed", "9"),
    ("compare", "--D", "3", "--alpha", "2", "--epsilon", "2e-3",
     "--e-range", "10:20:101", "--method", "closed"),
])
def test_byte_identical_reruns(args):
    # One run in this process, warm caches and all, one in a fresh interpreter.
    first = run_cli(*args)
    second = run_fresh(*args)
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout


def test_in_process_warnings_match_a_fresh_interpreter():
    # The caps truncate the enumeration: its TruncationWarning is one line on
    # stderr, in this process at every call as in a fresh interpreter.
    args = ("ebk", "--D", "3", "--epsilon", "1e-3", "--e-max", "12", "--nr-max", "1",
            "--l-max", "1")
    fresh = run_fresh(*args)
    assert fresh.returncode == 0
    assert fresh.stderr.startswith("hoshell: warning: level enumeration truncated: ")
    for _ in range(2):
        cp = run_cli(*args)
        assert (cp.returncode, cp.stdout, cp.stderr) == (0, fresh.stdout, fresh.stderr)


def test_in_process_runtime_warning_is_an_error(monkeypatch):
    # As under -W error::RuntimeWarning: a numpy warning on a command's path
    # fails the caller; the tests that pin a one-line stderr rely on it.
    import hoshell.cli as cli

    def overflowing(alpha):
        return np.float64(1.0) / 0.0

    monkeypatch.setattr(cli, "action_coefficients", overflowing)
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        run_cli("coeffs", "--alpha-max", "1")


COLD_START = """
import json, sys
import hoshell, hoshell.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

kronrod_rules = hoshell.specfun.gauss_kronrod.cache_info().currsize
loaded = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    assert hoshell.cli.main(argv) == 0, argv
    loaded.append(scipy_modules())
print(json.dumps({"kronrod_rules": kronrod_rules, "loaded": loaded}))
"""


@pytest.fixture(scope="module")
def cold_start(tmp_path_factory) -> dict:
    """One fresh interpreter runs `import hoshell.cli` and then one CLI job
    of each kind: the Gauss-Kronrod rules built by the import, and the scipy
    modules loaded after the import and after each command in turn."""
    out = tmp_path_factory.mktemp("cold_start")
    system = ["--alpha", "2", "--epsilon", "1.25e-3"]
    argvs = [
        ["dos", "--D", "3", *system, "--method", "quad", "--e-range", "1:30:301",
         "--out", str(out / "quad.csv")],
        ["dos", "--D", "3", *system, "--method", "closed", "--e-range", "1:70:301",
         "--out", str(out / "closed3.csv")],
        ["dos", "--D", "5", *system, "--method", "closed", "--e-range", "1:70:301",
         "--out", str(out / "closed5.csv")],
        ["dos", "--D", "2", *system, "--method", "closed", "--e-range", "1:70:301",
         "--out", str(out / "closed2.csv")],
        ["dos", "--D", "4", *system, "--method", "closed", "--e-range", "1:70:301",
         "--out", str(out / "closed4.csv")],
        ["ebk", "--D", "2", *system, "--e-max", "10", "--out", str(out / "levels.csv")],
        ["coeffs", "--alpha-max", "6", "--out", str(out / "coeffs.csv")],
    ]
    cp = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(argvs)],
                        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    return json.loads(cp.stdout.splitlines()[-1])


def test_cli_import_builds_no_kronrod_rule(cold_start):
    assert cold_start["kronrod_rules"] == 0


def test_cold_start_loads_no_scipy(cold_start):
    # The package does not use scipy: importing the CLI and running any
    # command, the even-D closed form (erf along the sqrt(i) ray) included,
    # must not load it.
    assert cold_start["loaded"] == [[]] * 8


def _closed_form_job(tmp_path, monkeypatch, dim):
    """Run `dos --method closed` at alpha = 2 with `kummer_1f1_axis` recorded:
    every y of its calls with the value the kernel gave there, and the
    indices of the Taylor-series (|y| <= 10) and recurrence (|y| > 10) points.
    At E = 70, |x a1| = k sigma / (2 hbar) reaches 190."""
    import hoshell.modfactor
    from hoshell.specfun import kummer_1f1_axis

    calls = []

    def recorded(b, y):
        value = kummer_1f1_axis(b, y)
        calls.append((b, np.ravel(y), np.ravel(value)))
        return value

    monkeypatch.setattr(hoshell.modfactor, "kummer_1f1_axis", recorded)
    out = tmp_path / f"closed{dim}.csv"
    assert main(["dos", "--D", str(dim), "--alpha", "2", "--epsilon", "1.25e-3", "--method",
                 "closed", "--e-range", "1:70:301", "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 302
    assert {b for b, _, _ in calls} == {(dim + 1) / 2.0}
    y = np.concatenate([y for _, y, _ in calls])
    value = np.concatenate([v for _, _, v in calls])
    assert np.max(np.abs(y)) > 150.0
    return y, value, np.flatnonzero(np.abs(y) <= 10.0), np.flatnonzero(np.abs(y) > 10.0)


def _assert_meets_mpmath(b, y, value, which, rtol):
    """The recorded values at about 200 of the points `which` meet mpmath."""
    mp = pytest.importorskip("mpmath")
    assert which.size
    with mp.workdps(40):
        for i in which[::max(1, which.size // 200)]:
            ref = complex(mp.hyp1f1(1, b, mp.mpc(0, float(y[i]))))
            assert abs(value[i] - ref) <= rtol * abs(ref), y[i]


def test_even_dimension_closed_form_reaches_erf(tmp_path: Path, monkeypatch):
    # Past max(10, b), the half-integer recurrence, seeded by 1F1(1; 3/2; iy)
    # from the erfc fraction: a few ulp.  Below it, the Taylor series.  The
    # 1F1 values the job used meet mpmath on both branches.
    pytest.importorskip("mpmath")
    y, value, near, far = _closed_form_job(tmp_path, monkeypatch, 4)
    _assert_meets_mpmath(2.5, y, value, far, 1e-15)
    _assert_meets_mpmath(2.5, y, value, near, 5e-12)


def test_odd_dimension_closed_form_reaches_exp(tmp_path: Path, monkeypatch):
    # Odd D has integer b = 2: the recurrence upward from e^(iy) past 10, the
    # Taylor series below it.
    pytest.importorskip("mpmath")
    y, value, near, far = _closed_form_job(tmp_path, monkeypatch, 3)
    _assert_meets_mpmath(2.0, y, value, far, 5e-12)
    _assert_meets_mpmath(2.0, y, value, near, 5e-12)


NO_SCIPY = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not installed")
        return None

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
    blocked = False
except ImportError:
    blocked = True
import hoshell.cli
print(json.dumps([blocked] + [hoshell.cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_package_runs_without_scipy(tmp_path: Path):
    # scipy is a test dependency only: with it unimportable, the even-D
    # closed form, every modulation method, and the torus pipeline still run.
    system = ["--alpha", "2", "--epsilon", "1.25e-3"]
    cache = str(tmp_path / "levels.csv")
    argvs = [
        ["dos", "--D", "2", *system, "--method", "closed", "--e-range", "1:70:301",
         "--out", str(tmp_path / "closed2.csv")],
        ["dos", "--D", "4", *system, "--method", "closed", "--e-range", "1:70:301",
         "--out", str(tmp_path / "closed4.csv")],
        ["modfactor", "--D", "2", "--alpha", "2", "--method", "all",
         "--sigma-over-hbar-range", "0:200:41", "--out", str(tmp_path / "mod.csv")],
        ["ebk", "--D", "2", *system, "--e-max", "12", "--levels-out", cache,
         "--out", str(tmp_path / "levels_out.csv")],
        ["ebk-dos", "--D", "2", *system, "--e-range", "1:10:91", "--width", "0.3",
         "--out", str(tmp_path / "g.csv")],
        ["ebk-dos", "--D", "2", *system, "--e-range", "1:10:91", "--width", "0.3",
         "--levels-in", cache, "--out", str(tmp_path / "g_cached.csv")],
    ]
    cp = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(argvs)],
                        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout.splitlines()[-1]) == [True] + [0] * len(argvs)


def test_ebk_writes_identical_out_and_cache(tmp_path: Path):
    out, cache = tmp_path / "out.csv", tmp_path / "levels.csv"
    cp = run_cli("ebk", "--D", "2", "--alpha", "2", "--epsilon=-2e-3", "--e-max", "12",
                 "--out", str(out), "--levels-out", str(cache))
    assert cp.returncode == 0, cp.stderr
    assert out.read_bytes() == cache.read_bytes()
    assert out.read_text().count("\n") > 20


def test_ebk_truncation_reason_reaches_stderr(tmp_path: Path):
    # Past the barrier the enumeration stops early; the reason must be shown.
    out, cache = tmp_path / "out.csv", tmp_path / "levels.csv"
    cp = run_cli("ebk", "--D", "3", "--alpha", "2", "--epsilon=-1.25e-3", "--e-max", "60",
                 "--out", str(out), "--levels-out", str(cache))
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ("hoshell: warning: level enumeration truncated: "
                         "(n_r=30, l=0) above barrier; (n_r=29, l=1) above barrier; "
                         "(n_r=29, l=2) above barrier; (n_r=28, l=3) above barrier; "
                         "(n_r=28, l=4) above barrier\n")
    assert out.read_bytes() == cache.read_bytes()


@pytest.fixture(scope="module")
def d3_cache(tmp_path_factory) -> Path:
    cache = tmp_path_factory.mktemp("cache") / "d3.csv"
    cp = run_cli("ebk", "--D", "3", "--alpha", "2", "--epsilon", "1.25e-3",
                 "--e-max", "12", "--levels-out", str(cache))
    assert cp.returncode == 0, cp.stderr
    return cache


@pytest.mark.parametrize("dim,eps", [("4", "0.02"), ("3", "2.5e-3")])
def test_foreign_level_cache_rejected(d3_cache: Path, dim, eps):
    # Another dimension changes the degeneracies; another strength leaves
    # them but breaks the quantization condition.
    cp = run_cli("ebk-dos", "--D", dim, "--alpha", "2", "--epsilon", eps,
                 "--e-range", "2:8:13", "--width", "0.3", "--levels-in", str(d3_cache))
    assert cp.returncode == 2, cp.stdout
    assert "d3.csv" in cp.stderr


def test_grid_error_is_not_blamed_on_the_level_cache(d3_cache: Path):
    # The cache holds levels of this system; the grid start E = 0 is at fault.
    cp = run_cli("ebk-dos", "--D", "3", "--alpha", "2", "--epsilon", "1.25e-3",
                 "--e-range", "0:5:11", "--width", "0.3", "--levels-in", str(d3_cache))
    assert cp.returncode == 2, cp.stdout
    assert cp.stderr == "hoshell: domain error: energy must be > 0, got 0.0\n"


def test_grid_energies_just_above_the_normal_range_are_computed():
    # From 1.49e-154 the turning-point terms 2 E u and u^2 are normal floats.
    cp = run_cli("ebk-dos", "--D", "3", "--e-range=1.5e-154:1:3")
    assert cp.returncode == 0, cp.stderr
    assert len(cp.stdout.splitlines()) == 4


def test_matching_level_cache_accepted(d3_cache: Path):
    cp = run_cli("ebk-dos", "--D", "3", "--alpha", "2", "--epsilon", "1.25e-3",
                 "--e-range", "2:8:13", "--width", "0.3", "--levels-in", str(d3_cache))
    assert cp.returncode == 0, cp.stderr
    assert len(cp.stdout.splitlines()) == 14


def _cache(path: Path, *args: str) -> Path:
    cp = run_cli("ebk", "--D", "3", "--alpha", "2", *args, "--levels-out", str(path))
    assert cp.returncode == 0, cp.stderr
    return path


def test_cache_short_of_the_grid_is_refused(tmp_path: Path):
    # Written to E = 8 and read on a grid to 30: without the check g_ebk read
    # 0 from E = 15.5 on, where the run without the cache gives 0.474.
    cache = _cache(tmp_path / "levels.csv", "--epsilon", "1e-3", "--e-max", "8")
    cp = run_cli("ebk-dos", "--D", "3", "--alpha", "2", "--epsilon", "1e-3",
                 "--e-range", "1:30:5", "--levels-in", str(cache))
    assert (cp.returncode, cp.stdout) == (2, "")
    assert cp.stderr == (f"hoshell: domain error: {cache}: level (n_r=4, l=0) lies below "
                         "E=30.5 but is missing\n")


def test_cache_with_a_gap_in_n_r_is_refused(tmp_path: Path):
    cache = _cache(tmp_path / "levels.csv", "--epsilon", "1e-3", "--e-max", "12")
    rows = cache.read_text().splitlines(keepends=True)
    cache.write_text("".join(row for row in rows if not row.startswith("1,0,")))
    assert len(cache.read_text().splitlines()) == len(rows) - 1
    cp = run_cli("ebk-dos", "--D", "3", "--alpha", "2", "--epsilon", "1e-3",
                 "--e-range", "2:8:13", "--width", "0.3", "--levels-in", str(cache))
    assert (cp.returncode, cp.stdout) == (2, ""), cp.stderr
    assert cp.stderr.count("\n") == 1 and "(n_r=2, l=0) stands where n_r=1 is due" in cp.stderr


def test_cache_past_the_barrier_must_reach_it(tmp_path: Path):
    # The grid end plus 5 widths, 50.5, lies past the l = 0 barrier at 50: a
    # cache to 60 holds every level below the barriers, one to 45 does not.
    system = ["--D", "3", "--alpha", "2", "--epsilon=-1.25e-3"]
    grid = ["--e-range", "1:49:100", "--width", "0.3"]
    full = _cache(tmp_path / "full.csv", "--epsilon=-1.25e-3", "--e-max", "60")
    cut = _cache(tmp_path / "cut.csv", "--epsilon=-1.25e-3", "--e-max", "45")
    direct = run_cli("ebk-dos", *system, *grid)
    cached = run_cli("ebk-dos", *system, *grid, "--levels-in", str(full))
    assert (cached.returncode, cached.stderr) == (0, "")
    assert cached.stdout == direct.stdout
    cp = run_cli("ebk-dos", *system, *grid, "--levels-in", str(cut))
    assert (cp.returncode, cp.stdout) == (2, "")
    assert cp.stderr.endswith(": level (n_r=26, l=0) lies below E=50.5 but is missing\n")


def test_smooth_density_past_the_float_range(tmp_path: Path):
    # r_max^5 overflows in the smooth density's sums at E = 1e150: exit 2
    # without a numpy warning, which run_cli would turn into a traceback.  The
    # smooth density comes before the levels, so no level is enumerated and
    # no truncation warning printed; from a level cache the error line is
    # all, too.
    argv = ["ebk-dos", "--D", "5", "--e-range", "1:1e150:3", "--nr-max", "0", "--l-max", "0"]
    error = "hoshell: domain error: smooth DOS leaves the float range"
    for args in (argv, argv[:5]):  # with the caps and at the default ones
        cp = run_cli(*args)
        assert (cp.returncode, cp.stdout, cp.stderr) == (2, "", error + "\n")
    cache = _cache(tmp_path / "levels.csv", "--D", "5", "--e-max", "3",
                   "--nr-max", "0", "--l-max", "0")
    cp = run_cli(*argv, "--levels-in", str(cache))
    assert (cp.returncode, cp.stdout, cp.stderr) == (2, "", error + "\n")


def test_cached_level_past_the_float_range(tmp_path: Path):
    # Its turning-point terms 4 E^2 would overflow in the action check.
    path = tmp_path / "levels.csv"
    path.write_text("n_r,l,E_over_hbar_omega,degeneracy\n0,0,1e160,1\n")
    cp = run_cli("ebk-dos", "--epsilon", "1e-3", "--e-range", "2:8:13", "--levels-in", str(path))
    assert (cp.returncode, cp.stdout) == (2, ""), cp.stderr
    assert cp.stderr == ("hoshell: domain error: energy 1e+160 hbar omega lies above 6.7e+153, "
                         "where the turning-point terms leave the float range\n")


def test_cache_cut_by_its_caps_is_read_with_them(tmp_path: Path):
    # Caps bound what the check demands, as they bound the enumeration.
    cache = _cache(tmp_path / "levels.csv", "--epsilon", "1e-3", "--e-max", "20",
                   "--nr-max", "3")
    argv = ["ebk-dos", "--D", "3", "--alpha", "2", "--epsilon", "1e-3",
            "--e-range", "1:15:100", "--levels-in", str(cache)]
    cp = run_cli(*argv, "--nr-max", "3")
    assert (cp.returncode, cp.stderr) == (0, "")
    cp = run_cli(*argv)
    assert (cp.returncode, cp.stdout) == (2, "")
    assert cp.stderr.endswith(": level (n_r=4, l=0) lies below E=15.5 but is missing\n")


def test_cached_level_at_a_huge_l_allocates_nothing_by_l(tmp_path: Path):
    # The check groups by distinct l; an array indexed by l would need 8 PB.
    import tracemalloc

    path = tmp_path / "levels.csv"
    path.write_text("n_r,l,E_over_hbar_omega,degeneracy\n0,1000000000000000,1.5,"
                    f"{2 * 10 ** 15 + 1}\n")
    tracemalloc.start()
    try:
        cp = run_cli("ebk-dos", "--e-range", "2:8:13", "--levels-in", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cp.returncode, cp.stdout) == (2, "") and cp.stderr.count("\n") == 1, cp.stderr
    assert "lies outside this system's well" in cp.stderr
    assert peak < 2 ** 22


@pytest.mark.parametrize("args,message", [
    (("dos", "--width", "-1", "--e-range", "5:6:3"), "smoothing width must be finite and >= 0"),
    (("dos", "--width", "nan", "--e-range", "5:6:3"), "smoothing width must be finite and >= 0"),
    (("supershell", "--epsilon", "nan", "--s-max", "2"), "perturbation strength must be finite"),
    (("ebk", "--epsilon", "nan"), "perturbation strength must be finite"),
    (("ebk", "--hbar", "inf"), "hbar must be finite"),
    (("oracle", "--seed", "-1"), "seed must be >= 0"),
    (("coeffs", "--alpha-max", "-3"), "alpha_max must be >= 1, got -3"),
    (("verify-legendre", "--alpha-max", "0"), "alpha_max must be >= 1, got 0"),
    (("ebk-dos", "--width", "nan", "--e-range", "1:6:2"),
     "smoothing width must be finite and > 0"),
    (("ebk-dos", "--width", "inf", "--e-range", "1:6:2"),
     "smoothing width must be finite and > 0"),
    (("ebk", "--e-max", "nan"), "e_max must not be nan"),
    (("ebk", "--nr-max", "-1"), "level caps must be >= 0, got n_r_max=-1"),
    (("ebk", "--l-max", "-1"), "level caps must be >= 0, got n_r_max=200, l_max=-1"),
    (("ebk-dos", "--nr-max", "-1"), "level caps must be >= 0, got n_r_max=-1"),
    # Past 6.7e153 hbar omega, 4 E^2 in the turning-point equation overflows:
    # numpy warnings, then an accuracy error (exit 3).
    (("ebk-dos", "--e-range", "1:1e160:3", "--nr-max", "0", "--l-max", "0"),
     "energy 1e+160 hbar omega lies above 6.7e+153, where the turning-point terms leave"),
    (("dos", "--hbar", "1e308"), "energy 70 hbar omega leaves the float range"),
    (("compare", "--omega", "1e308"), "energy 50 hbar omega leaves the float range"),
    (("ebk", "--epsilon=-1e-165", "--e-max", "5"),
     "the barrier of strength -1e-165 lies beyond the float range"),
    (("ebk-dos", "--omega", "1e308"), "energy 30 hbar omega leaves the float range"),
    # eps / omega^3 underflows: the strength in oscillator units.
    (("supershell", "--omega", "1e308", "--epsilon", "1e-3", "--s-max", "2"),
     "hbar omega=1e+308 or the strength eps hbar^(alpha-1) / omega^(alpha+1)=0 leaves"),
    # Past D = 1021 a mantissa power of the smooth term can be subnormal.
    (("dos", "--D", "1022"), "spatial dimension must be <= 1021 for the smooth term, got 1022"),
    # The order is checked at eps = 0 too, as the torus pipeline always did.
    (("dos", "--alpha", "1" + "0" * 400, "--e-range", "1:2:2"),
     "the order alpha leaves the float range"),
    (("dos", "--k-max", "100000000"), "3451 energies x k_max 100000000 exceed the budget"),
    (("dos", "--D", "171", "--e-range", "1:1e10:3"),
     "E^(D-1) / ((D-1)! (hbar omega)^D) leaves the float range at E=5e+09"),
    (("ebk", "--hbar", "1e308"), "energy 30 hbar omega leaves the float range at hbar omega=1e+308"),
    (("ebk", "--hbar", "1e-200", "--alpha", "3", "--epsilon", "1e-3"),
     "hbar omega=1e-200 or the strength eps hbar^(alpha-1) / omega^(alpha+1)=0 leaves the float"),
    (("modfactor", "--D", "3", "--alpha", "2", "--k", "10",
      "--sigma-over-hbar-range", "0:1e308:3"), "sigma / hbar must be finite"),
    (("ebk", "--alpha", "1" + "0" * 400, "--e-max", "3"), "the order alpha leaves the float range"),
    # Below 1.49e-154 hbar omega, 2 E u and u^2 in the turning-point equation
    # leave the normal float range, and no root meets the 1e-12 E residual.
    (("ebk-dos", "--D", "3", "--e-range=2.2250738585072014e-308:0.018:145"),
     "energy 2.22507e-308 hbar omega lies below 1.49e-154, where the turning-point terms leave"),
    (("ebk-dos", "--D", "3", "--e-range=1e-155:1:3"), "energy 1e-155 hbar omega lies below"),
    # |x a1|^(-(D-1)/2) overflows: the SPA wrote nan and inf with exit 0.
    (("modfactor", "--D", "8", "--alpha", "2", "--method", "spa",
      "--sigma-over-hbar-range=0:7.3654061175364826e-96:2"),
     "SPA end-point terms leave the float range at x = k sigma / hbar = 7.36541e-96"),
    (("dos", "--D", "12", "--epsilon", "1e-300", "--method", "spa", "--e-range", "1:5:3"),
     "SPA end-point terms leave the float range"),
    # g_ebk past the float range: exit 0 with inf in the output, or numpy's
    # overflow warning before the error line.  At hbar = 1e-307 the smooth
    # density overflows too, and it is computed first.
    (("ebk-dos", "--hbar", "1e-305", "--width", "0.001", "--e-range", "1:30:11"),
     "torus-quantized DOS leaves the float range at width=1e-308"),
    (("ebk-dos", "--hbar", "1e-307", "--e-range", "1:30:11"),
     "smooth DOS leaves the float range"),
    (("dos", "--e-range", "1:2"), "range must look like a:b:n, got '1:2'"),
    (("supershell", "--epsilon", "1e-3", "--s-max", "0"), "s_max must be >= 1, got 0"),
    # 2^y overflows in the strength eps hbar^(alpha-1) / omega^(alpha+1)
    (("ebk", "--alpha", "2000", "--hbar", "0.75", "--epsilon", "1e-3", "--e-max", "3"),
     "hbar omega=0.75 or the strength eps hbar^(alpha-1) / omega^(alpha+1)=inf leaves"),
    # eps / omega^4 overflows; numpy warned twice before the error line.
    (("dos", "--omega", "1e-100", "--alpha", "3", "--epsilon", "1e-3", "--e-range", "1:2:3"),
     "hbar omega=1e-100 or the strength eps hbar^(alpha-1) / omega^(alpha+1)=inf leaves"),
    # float() of an exact coefficient past 1.8e308: an OverflowError traceback, exit 1.
    (("dos", "--alpha", "814", "--epsilon", "1e-3", "--e-range", "0.5:0.9:3", "--method", "spa"),
     "order-814 coefficients a_j leave the float range"),
    (("dos", "--alpha", "1100", "--epsilon", "1e-3", "--e-range", "0.5:0.9:3", "--method", "quad"),
     "order-1100 coefficients b_m leave the float range"),
    # e^alpha overflows quietly, and `modulation` rejects the column.
    (("dos", "--alpha", "3", "--epsilon", "1", "--e-range", "1:1e150:3", "--method", "closed"),
     "sigma / hbar must be finite"),
    # An array numpy refuses at once (73 TiB, 7.3 TiB, past np.intp): each
    # was a numpy traceback with exit 1.
    (("dos", "--e-range", "1:2:10000000000000"),
     "range '1:2:10000000000000' has more points than fit in memory"),
    (("ebk-dos", "--e-range", "1:2:10000000000000"),
     "range '1:2:10000000000000' has more points than fit in memory"),
    (("modfactor", "--D", "3", "--alpha", "2", "--sigma-over-hbar-range", "1:2:10000000000000"),
     "range '1:2:10000000000000' has more points than fit in memory"),
    (("dos", "--e-range", "1:2:100000000000000000000"),
     "range '1:2:100000000000000000000' has more points than fit in memory"),
    (("ebk", "--l-max", "1000000000000"),
     "l_max=1000000000000 asks for more angular momenta than fit in memory"),
    (("ebk-dos", "--l-max", "1000000000000"),
     "l_max=1000000000000 asks for more angular momenta than fit in memory"),
    (("compare", "--l-max", "1000000000000"),
     "l_max=1000000000000 asks for more angular momenta than fit in memory"),
    (("ebk", "--l-max", "100000000000000000000"),
     "l_max=100000000000000000000 asks for more angular momenta than fit in memory"),
])
def test_invalid_values_are_domain_errors(args, message):
    cp = run_cli(*args)
    assert cp.returncode == 2, cp.stdout + cp.stderr
    assert cp.stdout == "" and "Traceback" not in cp.stderr
    assert cp.stderr.startswith(f"hoshell: domain error: {message}")
    assert cp.stderr.count("\n") == 1, cp.stderr


def _columns(cp: subprocess.CompletedProcess) -> np.ndarray:
    assert cp.returncode == 0 and cp.stderr == "", cp.stderr
    return np.loadtxt(io.StringIO(cp.stdout), delimiter=",", skiprows=1, ndmin=2)


def _scaled_dos_matches(got, want, unit):
    # The smooth column scales exactly; the oscillating one to 1e-12 of it,
    # since E / (hbar omega) can differ from the unit run's E in the last bit.
    np.testing.assert_array_equal(got[:, 0], want[:, 0])
    np.testing.assert_allclose(got[:, 1] * unit, want[:, 1], rtol=1e-12, atol=0.0)
    assert np.all(np.abs(got[:, 2] * unit - want[:, 2]) <= 1e-12 * want[:, 1])


@pytest.mark.parametrize("args,unit", [(("--omega", "1e200"), 1e200), (("--hbar", "1e-300"), 1e-300)])
def test_perturbative_dos_scales_with_hbar_omega(args, unit):
    # (D-1)! (hbar omega)^D overflowed or underflowed, and each exited 2.
    got, want = _columns(run_cli("dos", *args)), _columns(run_cli("dos"))
    _scaled_dos_matches(got, want, unit)


def test_tiny_strength_at_huge_hbar_is_the_unit_system():
    # eps hbar / omega^3 = 1e-153 * 1e150 is the unit run's 1e-3: dos scales
    # by 1 / (hbar omega), and compare finds the same beat nodes.
    big, unit = ("--hbar", "1e150", "--epsilon", "1e-153"), ("--epsilon", "1e-3")
    _scaled_dos_matches(_columns(run_cli("dos", *big)), _columns(run_cli("dos", *unit)), 1e150)
    got, want = (json.loads(run_cli("compare", *args).stdout) for args in (big, unit))
    assert want["pert_envelope_nodes"]
    np.testing.assert_allclose([got["rms_difference"] * 1e150, got["pearson"]],
                               [want["rms_difference"], want["pearson"]], rtol=1e-12, atol=0.0)
    for key in ("pert_envelope_nodes", "ebk_envelope_nodes", "node_offsets",
                "unmatched_pert_nodes", "unmatched_ebk_nodes"):
        assert len(got[key]) == len(want[key]), key
        np.testing.assert_allclose(got[key], want[key], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("args", [
    ("dos", "--omega", "1e100"), ("compare", "--omega", "1e100"),
    ("dos", "--omega", "1e60", "--alpha", "3", "--epsilon", "1e-3"),
    ("dos", "--hbar", "1e-200", "--omega", "1e200")])
def test_sigma_needs_no_power_of_omega(args):
    # omega^(2 alpha + 1) in the action scale, and at omega = 1e200 omega^2
    # itself, overflowed: each exited 1 with an OverflowError traceback.
    cp = run_cli(*args)
    assert cp.returncode == 0 and cp.stderr == "", cp.stderr
    assert cp.stdout.count("\n") > 2
    assert "nan" not in cp.stdout.lower() and "inf" not in cp.stdout.lower()


def test_huge_omega_matches_oscillator_units():
    # The torus pipeline works in hbar omega: omega = 1e308 only rescales.
    big = run_cli("ebk", "--omega", "1e308", "--e-max", "1")
    assert big.returncode == 0 and big.stderr == ""
    assert big.stdout == run_cli("ebk", "--e-max", "1").stdout


@pytest.mark.parametrize("big,unit", [
    (("--e-max", "3"), ("--e-max", "3")),
    # eps hbar^(alpha-1) / omega^(alpha+1) = 1e-152 * 1e150, the unit run's 1e-2.
    (("--e-max", "30", "--epsilon", "1e-152"), ("--e-max", "30", "--epsilon", "1e-2"))])
def test_huge_hbar_levels_match_oscillator_units(big, unit):
    got, want = run_cli("ebk", "--hbar", "1e150", *big), run_cli("ebk", *unit)
    if big == unit:
        assert got.stdout == want.stdout
    got, want = _columns(got), _columns(want)
    np.testing.assert_array_equal(got[:, [0, 1, 3]], want[:, [0, 1, 3]])
    np.testing.assert_allclose(got[:, 2], want[:, 2], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("eps_tiny,eps_unit,grid", [
    ("0", "0", "5:30:3"), ("1e117", "1e-3", "5:30:501")])
def test_tiny_hbar_dos_scales_with_hbar(eps_tiny, eps_unit, grid):
    # At hbar = 1e-120 every density is 1e120 times that of hbar = 1, with the
    # strength eps hbar^(alpha-1) / omega^(alpha+1) held fixed.
    common = ("ebk-dos", "--e-range", grid, "--width", "0.3")
    got = _columns(run_cli(*common, "--hbar", "1e-120", "--epsilon", eps_tiny))
    want = _columns(run_cli(*common, "--epsilon", eps_unit))
    np.testing.assert_array_equal(got[:, 0], want[:, 0])
    np.testing.assert_allclose(got[:, 1:3] * 1e-120, want[:, 1:3], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got[:, 3] * 1e-120, want[:, 3], rtol=1e-11, atol=0.0)


def test_hbar_1e_minus_300_dos_scales_with_hbar():
    got = _columns(run_cli("ebk-dos", "--hbar", "1e-300"))
    want = _columns(run_cli("ebk-dos"))
    np.testing.assert_array_equal(got[:, 0], want[:, 0])
    np.testing.assert_allclose(got[:, 2] * 1e-300, want[:, 2], rtol=1e-12, atol=0.0)
    # A harmonic level sits exactly on the enumeration cut E = 30.5, so the
    # far tails at the last grid points depend on that cut's last bit.
    live = want[:, 1] > 1e-6 * want[:, 1].max()
    np.testing.assert_allclose(got[live, 1] * 1e-300, want[live, 1], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("args,rows", [
    # The strength term dominates g(u) = u^2 + 2 alpha eps u^(alpha+1) - L^2 at
    # u = L, where Newton toward the well bottom took a step of about
    # alpha/(alpha+1) of u each and ran out of steps.
    (("--epsilon", "1e147"), 0), (("--alpha", "100", "--epsilon", "1e-3"), 1)])
def test_strength_dominated_well_bottom(args, rows):
    cp = run_cli("ebk", *args, "--e-max", "3")
    assert cp.returncode == 0 and cp.stderr == "", cp.stderr
    assert cp.stdout.count("\n") == 1 + rows


def test_tiny_positive_strength_is_the_harmonic_trap():
    # (E / eps)^(1/alpha) overflows, and the inf must lose its minimum quietly.
    got = _columns(run_cli("ebk", "--D", "3", "--alpha", "3", "--epsilon=1.9e-308",
                           "--e-max", "30"))
    want = _columns(run_cli("ebk", "--D", "3", "--alpha", "3", "--e-max", "30"))
    np.testing.assert_array_equal(got[:, [0, 1, 3]], want[:, [0, 1, 3]])
    np.testing.assert_allclose(got[:, 2], want[:, 2], rtol=1e-12, atol=0.0)


def test_harmonic_trap_at_a_large_order():
    # At eps = 0 the order must not matter: 0 * u^1000 was 0 * inf = nan.
    levels = _columns(run_cli("ebk", "--D", "3", "--alpha", "1000", "--e-max", "6"))
    assert len(levels) == 9  # 2 n_r + l <= 4
    want = 2 * levels[:, 0] + levels[:, 1] + 1.5
    np.testing.assert_allclose(levels[:, 2], want, rtol=1e-12, atol=0.0)


def test_level_cache_for_another_hbar_is_not_quantized(tmp_path: Path):
    # At hbar = 1e-300 the oscillator-unit strength is 1.25e-303: another trap.
    cache = tmp_path / "levels.csv"
    cp = run_cli("ebk", "--D", "3", "--alpha", "2", "--epsilon", "1.25e-3", "--e-max", "30",
                 "--levels-out", str(cache))
    assert cp.returncode == 0, cp.stderr
    cp = run_cli("ebk-dos", "--levels-in", str(cache), "--hbar", "1e-300")
    assert cp.returncode == 2, cp.stdout
    assert cp.stderr.count("\n") == 1 and "not quantized in this system" in cp.stderr


@pytest.mark.parametrize("args", [
    ("dos", "--alpha", "8", "--epsilon", "1e-3", "--e-range", "1:70:5"),
    # panel counts past 2**63, which a cast to int would wrap negative
    ("dos", "--alpha", "40", "--epsilon", "1e-3", "--e-range", "1:70:5"),
    ("modfactor", "--D", "3", "--alpha", "2", "--sigma-over-hbar-range", "0:1e300:5",
     "--method", "quad"),
])
def test_quadrature_past_its_panel_budget_is_accuracy_error(args):
    cp = run_cli(*args)
    assert cp.returncode == 3, cp.stdout + cp.stderr
    assert cp.stdout == "" and cp.stderr.count("\n") == 1
    assert cp.stderr.startswith("hoshell: accuracy error: modulation quadrature needs ")
    assert "over the budget of 1024" in cp.stderr


@pytest.mark.parametrize("content", [
    None,  # no file
    b"E,g\n1,2\n",
    b"n_r,l,E_over_hbar_omega,degeneracy\n0,0,1.5\n",
    b"\x80\x81\n",
    # rows that parse but are no level: the level check names the file too
    b"n_r,l,E_over_hbar_omega,degeneracy\n0,-1,1.5,1\n",
    b"n_r,l,E_over_hbar_omega,degeneracy\n0,0,-1.5,1\n",
    b"n_r,l,E_over_hbar_omega,degeneracy\n0,0,1.5,1\n0,0,1.5,1\n",
])
def test_unusable_level_file_is_domain_error(tmp_path: Path, content):
    path = tmp_path / "levels.csv"
    if content is not None:
        path.write_bytes(content)
    cp = run_cli("ebk-dos", "--e-range", "2:8:13", "--levels-in", str(path))
    assert cp.returncode == 2, cp.stdout + cp.stderr
    assert f"hoshell: domain error: {path}: " in cp.stderr
    assert "Traceback" not in cp.stderr


# Every option of every subcommand: option strings, default, type, choices,
# required.  Captured from the parser before its options were declared once
# per group; the command line must stay the same.
PARSER_SURFACE = {
    "coeffs": [
        ("--alpha-max", None, int, None, True),
        ("--exact", False, None, None, False),
        ("--out", None, None, None, False),
    ],
    "verify-legendre": [
        ("--alpha-max", None, int, None, True),
        ("--out", None, None, None, False),
    ],
    "modfactor": [
        ("--D", None, int, None, True),
        ("--alpha", None, int, None, True),
        ("--k", 1, int, None, False),
        ("--sigma-over-hbar-range", None, None, None, True),
        ("--method", "all", None, ["quad", "closed", "spa", "all"], False),
        ("--out", None, None, None, False),
    ],
    "dos": [
        ("--D", 3, int, None, False),
        ("--alpha", 2, int, None, False),
        ("--epsilon", 0.0, float, None, False),
        ("--omega", 1.0, float, None, False),
        ("--hbar", 1.0, float, None, False),
        ("--k-max", 10, int, None, False),
        ("--width", 0.1, float, None, False),
        ("--e-range", "1:70:3451", None, None, False),
        ("--method", "quad", None, ["quad", "closed", "spa"], False),
        ("--out", None, None, None, False),
    ],
    "supershell": [
        ("--alpha", 2, int, None, False),
        ("--epsilon", 0.0, float, None, False),
        ("--omega", 1.0, float, None, False),
        ("--hbar", 1.0, float, None, False),
        ("--s-max", None, int, None, True),
        ("--out", None, None, None, False),
    ],
    "ebk": [
        ("--D", 3, int, None, False),
        ("--alpha", 2, int, None, False),
        ("--epsilon", 0.0, float, None, False),
        ("--omega", 1.0, float, None, False),
        ("--hbar", 1.0, float, None, False),
        ("--e-max", 30.0, float, None, False),
        ("--nr-max", 200, int, None, False),
        ("--l-max", 400, int, None, False),
        ("--levels-out", None, None, None, False),
        ("--out", None, None, None, False),
    ],
    "ebk-dos": [
        ("--D", 3, int, None, False),
        ("--alpha", 2, int, None, False),
        ("--epsilon", 0.0, float, None, False),
        ("--omega", 1.0, float, None, False),
        ("--hbar", 1.0, float, None, False),
        ("--width", 0.1, float, None, False),
        ("--e-range", "1:30:1451", None, None, False),
        ("--nr-max", 200, int, None, False),
        ("--l-max", 400, int, None, False),
        ("--levels-in", None, None, None, False),
        ("--out", None, None, None, False),
    ],
    "oracle": [
        ("--check", "all", None, ["all", "delta-s", "conservation"], False),
        ("--seed", 0, int, None, False),
        ("--out", None, None, None, False),
    ],
    "compare": [
        ("--D", 3, int, None, False),
        ("--alpha", 2, int, None, False),
        ("--epsilon", 0.0, float, None, False),
        ("--omega", 1.0, float, None, False),
        ("--hbar", 1.0, float, None, False),
        ("--k-max", 10, int, None, False),
        ("--width", 0.1, float, None, False),
        ("--e-range", "5:50:2251", None, None, False),
        ("--method", "quad", None, ["quad", "closed", "spa"], False),
        ("--nr-max", 200, int, None, False),
        ("--l-max", 400, int, None, False),
        ("--out", None, None, None, False),
    ],
}


def _surface(parser) -> list:
    import argparse

    return sorted((*action.option_strings, action.default, action.type, action.choices,
                   action.required)
                  for action in parser._actions
                  if not isinstance(action, argparse._HelpAction))


def test_parser_surface():
    import argparse

    from hoshell.cli import _command_parser, build_parser

    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    surface = {name: _surface(parser) for name, parser in sub.choices.items()}
    assert surface == {name: sorted(options) for name, options in PARSER_SURFACE.items()}
    # main builds one command's parser alone; it must be the full tree's subparser
    for name, parser in sub.choices.items():
        alone = _command_parser(name)
        assert (type(alone), alone.prog, _surface(alone)) == (
            type(parser), parser.prog, surface[name]), name


def test_command_lines_do_not_build_the_full_tree(tmp_path: Path, monkeypatch):
    import hoshell.cli as cli

    def full_tree():
        raise AssertionError("build_parser() called for a well-formed command line")

    monkeypatch.setattr(cli, "build_parser", full_tree)
    levels = tmp_path / "levels.csv"
    for argv in (["dos", "--epsilon", "1.25e-3", "--e-range", "5:10:51", "--method", "closed"],
                 ["ebk", "--epsilon", "1e-3", "--e-max", "12", "--levels-out", str(levels)],
                 ["ebk-dos", "--epsilon", "1e-3", "--e-range", "2:10:41",
                  "--levels-in", str(levels)],
                 ["compare", "--epsilon", "1.25e-3", "--e-range", "5:20:151",
                  "--method", "closed"]):
        cp = run_cli(*argv, "--out", str(tmp_path / f"{argv[0]}.out"))
        assert (cp.returncode, cp.stdout) == (0, ""), cp.stderr


@pytest.mark.parametrize("argv", [
    (), ("nonsense",), ("dos", "--bogus"), ("dos", "--version"), ("dos", "--D", "x"),
    ("modfactor", "--alpha", "2"), ("coeffs", "--alpha-max", "3", "extra"),
    ("dos", "--epsilon", "-1.25e-3", "--k-max"),
])
def test_usage_errors_match_the_full_tree(argv):
    # main parses with one command's parser where it can; every usage error
    # must still be the full tree's, exit code and stderr alike.
    from hoshell.cli import build_parser

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(list(argv))
    assert (info.value.code, out.getvalue()) == (64, "")
    cp = run_cli(*argv)
    assert (cp.returncode, cp.stdout, cp.stderr) == (64, "", err.getvalue())


def _assert_documented(cp: subprocess.CompletedProcess, min_lines: int) -> None:
    assert cp.returncode in (0, 2, 3, 64), (cp.returncode, cp.stderr)
    assert "Traceback" not in cp.stderr
    if cp.returncode == 0:
        text = cp.stdout.lower()
        assert text.count("\n") >= min_lines and "nan" not in text and "inf" not in text, text[:500]


def _signed_magnitude(low: float, high: float):
    """0, or +-10^u for u uniform in [low, high]."""
    return st.one_of(st.just(0.0), st.builds(lambda sign, u: sign * 10.0 ** u,
                                             st.sampled_from([-1.0, 1.0]),
                                             st.floats(low, high)))


def _range(low: float, high: float, start=st.floats):
    """A:B:N text with A from `start(low, high)`, B - A in (-0.1, 1.1) (high - low)
    and N in [0, 201]: valid in most draws, and never more than 201 points."""
    return st.builds(lambda lo, frac, n: f"{lo!r}:{lo + frac * (high - low)!r}:{n}",
                     start(low, high), st.floats(-0.1, 1.1), st.integers(0, 201))


# omega or hbar: log-uniform over six decades, or over the whole float range.
_SCALE = st.one_of(st.floats(-3.0, 3.0), st.floats(-300.0, 300.0)).map(lambda u: 10.0 ** u)
_DIMS = st.one_of(st.integers(1, 8), st.sampled_from([60, 170]))
_QUAD_ARGV = st.one_of(
    st.builds(lambda dim, alpha, eps, k_max, grid, omega, hbar: [
        "dos", "--method", "quad", "--D", str(dim), "--alpha", str(alpha),
        f"--epsilon={eps!r}", "--k-max", str(k_max), "--e-range", grid,
        f"--omega={omega!r}", f"--hbar={hbar!r}"],
        _DIMS, st.integers(0, 60), _signed_magnitude(-8, -1), st.integers(0, 10),
        _range(-5.0, 100.0), _SCALE, _SCALE),
    st.builds(lambda dim, alpha, k, grid: [
        "modfactor", "--method", "quad", "--D", str(dim), "--alpha", str(alpha),
        "--k", str(k), f"--sigma-over-hbar-range={grid}"],
        _DIMS, st.integers(0, 60), st.integers(-10, 10),
        _range(-10.0, 10.0, lambda low, high: _signed_magnitude(-3, 1))),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=_QUAD_ARGV)
def test_quadrature_cli_gives_a_result_or_a_documented_exit(argv):
    cp = run_cli(*argv)
    event(f"{argv[0]} exit {cp.returncode}")
    _assert_documented(cp, 2)


_CLOSED_DIMS = st.integers(2, 12)
_CLOSED_ARGV = st.one_of(
    st.builds(lambda method, dim, alpha, eps, k_max, grid, omega, hbar: [
        "dos", "--method", method, "--D", str(dim), "--alpha", str(alpha),
        f"--epsilon={eps!r}", "--k-max", str(k_max), "--e-range", grid,
        f"--omega={omega!r}", f"--hbar={hbar!r}"],
        st.sampled_from(["closed", "spa"]), _CLOSED_DIMS, st.integers(0, 60),
        _signed_magnitude(-8, -1), st.integers(0, 10), _range(-5.0, 100.0), _SCALE, _SCALE),
    st.builds(lambda method, dim, alpha, k, grid: [
        "modfactor", "--method", method, "--D", str(dim), "--alpha", str(alpha),
        "--k", str(k), f"--sigma-over-hbar-range={grid}"],
        st.sampled_from(["closed", "spa", "all"]), _CLOSED_DIMS, st.integers(0, 60),
        st.integers(-10, 10), _range(-10.0, 10.0, lambda low, high: _signed_magnitude(-3, 3))),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(argv=_CLOSED_ARGV)
def test_closed_form_cli_gives_a_result_or_a_documented_exit(argv):
    # Even D reaches the half-integer 1F1 recurrence and its erfc seed.
    cp = run_cli(*argv)
    event(f"{argv[0]} {argv[2]} exit {cp.returncode}")
    _assert_documented(cp, 2)


def _system(dims):
    """The system of a torus-pipeline command: D from `dims`, alpha, eps of
    both signs, and omega and hbar log-uniform over six decades."""
    return st.builds(
        lambda dim, alpha, eps, omega, hbar: [
            "--D", str(dim), "--alpha", str(alpha), f"--epsilon={eps!r}",
            f"--omega={omega!r}", f"--hbar={hbar!r}"],
        dims, st.integers(1, 12), _signed_magnitude(-8, -1),
        st.floats(-3.0, 3.0).map(lambda u: 10.0 ** u),
        st.floats(-3.0, 3.0).map(lambda u: 10.0 ** u))


_TORUS_SYSTEM = _system(_DIMS)
_TORUS_CAPS = st.builds(lambda n_r, l: ["--nr-max", str(n_r), "--l-max", str(l)],
                        st.integers(-1, 30), st.integers(-1, 30))
_WIDTH = st.floats(0.0, 2.0)
# A:B:N with B - A in [-1, 40] and at most 201 points: valid in most draws.
_TORUS_GRID = st.builds(lambda lo, span, n: f"{lo!r}:{lo + span!r}:{n}",
                        st.floats(0.0, 40.0), st.floats(-1.0, 40.0), st.integers(0, 201))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(system=_TORUS_SYSTEM, caps=_TORUS_CAPS, e_max=st.floats(-5.0, 40.0),
       grid=_TORUS_GRID, width=_WIDTH,
       source=st.sampled_from(["ebk", "ebk-dos", "ebk-dos --levels-in"]))
def test_torus_cli_gives_a_result_or_a_documented_exit(tmp_path_factory, system, caps, e_max,
                                                       grid, width, source):
    # `ebk`, and `ebk-dos` with the levels enumerated or read from a cache
    # that `ebk --levels-out` wrote for the same system out to e_max.
    if source == "ebk":
        cp = run_cli("ebk", *system, *caps, f"--e-max={e_max!r}")
        event(f"ebk exit {cp.returncode}")
        _assert_documented(cp, 1)
        return
    argv = ["ebk-dos", *system, *caps, f"--e-range={grid}", f"--width={width!r}"]
    if source.endswith("--levels-in"):
        cache = tmp_path_factory.mktemp("levels") / "levels.csv"
        cp = run_cli("ebk", *system, *caps, f"--e-max={e_max!r}", "--levels-out", str(cache))
        _assert_documented(cp, 1)
        argv += ["--levels-in", str(cache)]
    cp = run_cli(*argv)
    event(f"{source} exit {cp.returncode}")
    _assert_documented(cp, 2)


# Hypothesis draws the simplest values (0) most often; compare's k_max, grid
# and width are mapped so that those give a valid command.
_COMPARE_GRID = st.builds(
    lambda lo, span, n: f"{40.0 - lo!r}:{40.0 - lo + 39.0 - span!r}:{201 - n}",
    st.floats(0.0, 40.0), st.floats(-1.0, 40.0), st.integers(0, 201))
_REPORT_ARGV = st.one_of(
    st.builds(lambda system, caps, method, k_max, grid, width: [
        "compare", *system, *caps, "--method", method, "--k-max", str(k_max),
        f"--e-range={grid}", f"--width={width!r}"],
        _system(st.one_of(st.integers(2, 6), st.sampled_from([1, 60, 170]))), _TORUS_CAPS,
        st.sampled_from(["quad", "closed", "spa"]), st.integers(0, 10).map(lambda k: 10 - k),
        _COMPARE_GRID, _WIDTH.map(lambda w: 2.0 - w)),
    st.builds(lambda alpha, eps, omega, hbar, s_max: [
        "supershell", "--alpha", str(alpha), f"--epsilon={eps!r}", f"--omega={omega!r}",
        f"--hbar={hbar!r}", "--s-max", str(s_max)],
        st.integers(0, 4), st.one_of(_signed_magnitude(-8, -1), _signed_magnitude(-300, 300)),
        _SCALE, _SCALE, st.integers(-1, 50)),
    st.builds(lambda alpha_max, exact: ["coeffs", "--alpha-max", str(alpha_max), *exact],
              st.integers(-2, 40), st.sampled_from([[], ["--exact"]])),
    st.builds(lambda alpha_max: ["verify-legendre", "--alpha-max", str(alpha_max)],
              st.integers(-2, 40)),
    st.builds(lambda seed: ["oracle", "--check", "delta-s", "--seed", str(seed)],
              st.one_of(st.integers(-3, 3), st.integers(0, 2 ** 80))),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(argv=_REPORT_ARGV)
def test_report_cli_gives_a_result_or_a_documented_exit(argv):
    # compare, supershell, coeffs, verify-legendre and the delta-s oracle;
    # the oracle's conservation run (about 2 s) is left to its own test.
    cp = run_cli(*argv)
    event(f"{argv[0]} exit {cp.returncode}")
    _assert_documented(cp, 2)


@pytest.mark.parametrize("seed", ["0", str(2 ** 70)])
def test_oracle_conservation_gives_a_result(seed):
    # The conservation check takes about 2 s a run; its only input is the seed.
    cp = run_cli("oracle", "--check", "conservation", "--seed", seed)
    _assert_documented(cp, 2)
    assert (cp.returncode, cp.stderr) == (0, "")
    report = json.loads(cp.stdout)
    assert report["pass"] is True and report["conservation"]["pass"] is True


@pytest.mark.parametrize("argv,message", [
    # One grid energy, no oscillation left after exp(-(w k pi)^2) underflows,
    # and differences whose squares overflow: compare wrote NaN or inf here
    # with exit 0.
    (["compare", "--e-range", "5:6:1"], "RMS difference 0.000147261 and Pearson correlation nan"),
    (["compare", "--width", "20", "--e-range", "5:6:3", "--nr-max", "1", "--l-max", "1"],
     "RMS difference 15.1538 and Pearson correlation nan"),
    (["compare", "--D", "60", "--epsilon=-0.1", "--omega", "100", "--hbar", "0.1", "--nr-max",
      "0", "--l-max", "0", "--method", "spa", "--k-max", "1", "--e-range", "1:2:3"],
     "RMS difference inf"),
    # omega^2 of a harmonic term's effective frequency raised OverflowError.
    (["supershell", "--alpha", "1", "--omega", "1e155", "--s-max", "1"],
     "omega^2 leaves the float range at omega=1e+155"),
    (["dos", "--alpha", "1", "--omega", "1e155"], "omega^2 leaves the float range"),
], ids=["one-energy", "no-oscillation", "rms-overflow", "supershell-omega", "dos-omega"])
def test_report_values_past_their_domain_are_domain_errors(argv, message):
    # Capped levels (no-oscillation) print their truncation warning first.
    cp = run_cli(*argv)
    assert (cp.returncode, cp.stdout) == (2, "")
    *warned, error = cp.stderr.splitlines()
    assert error.startswith(f"hoshell: domain error: {message}"), cp.stderr
    assert all(line.startswith("hoshell: warning: ") for line in warned), cp.stderr


HELP_DIR = Path(__file__).resolve().parent / "help"


@pytest.mark.parametrize("command", [None, "coeffs", "verify-legendre", "modfactor", "dos",
                                     "supershell", "ebk", "ebk-dos", "oracle", "compare"])
def test_help_text_is_pinned(monkeypatch, command):
    # argparse wraps at the terminal width, read from COLUMNS.  A golden is
    # the output of `COLUMNS=80 hoshell [<command>] --help`; argparse's layout
    # differs between Python versions, and these are written by Python 3.11.
    monkeypatch.setenv("COLUMNS", "80")
    cp = run_cli(*([command, "--help"] if command else ["--help"]))
    assert (cp.returncode, cp.stderr) == (0, "")
    assert cp.stdout == (HELP_DIR / f"{command or 'hoshell'}.txt").read_text()
