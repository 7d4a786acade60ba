import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "hoshell.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_help():
    cp = run_cli("--help")
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
    lines = list(_csv(["n", "x"], "%d,%.17g\n", ((n, 0.5) for n in big)))
    assert lines == ["n,x\n", *(f"{n},0.5\n" for n in big)]


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
    import os

    env = dict(os.environ, HOSHELL_OUTDIR=str(tmp_path))
    cp = run_cli("coeffs", "--alpha-max", "2", "--exact", "--out", "sub/c.csv",
                 env=env)
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
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout


def test_cli_import_skips_scipy_optimize():
    code = "import sys, hoshell.cli; print('scipy.optimize' in sys.modules)"
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "False"


COLD_START = """
import json, sys
import hoshell, hoshell.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    assert hoshell.cli.main(argv) == 0, argv
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


def _cold_start(*argvs: list[str]) -> list[list[str]]:
    """scipy modules loaded in a fresh interpreter after `import hoshell.cli`
    and after each CLI command in turn."""
    cp = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(argvs)],
                        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    return json.loads(cp.stdout.splitlines()[-1])


def test_cold_start_loads_no_scipy(tmp_path: Path):
    # scipy is imported only by the even-D closed form (erf along the sqrt(i)
    # ray); importing the CLI and running the other commands must not load it.
    system = ["--alpha", "2", "--epsilon", "1.25e-3"]
    loaded = _cold_start(
        ["dos", "--D", "3", *system, "--method", "quad", "--e-range", "1:30:301",
         "--out", str(tmp_path / "quad.csv")],
        ["dos", "--D", "3", *system, "--method", "closed", "--e-range", "1:70:301",
         "--out", str(tmp_path / "closed3.csv")],
        ["dos", "--D", "5", *system, "--method", "closed", "--e-range", "1:70:301",
         "--out", str(tmp_path / "closed5.csv")],
        ["ebk", "--D", "2", *system, "--e-max", "10", "--out", str(tmp_path / "levels.csv")],
        ["coeffs", "--alpha-max", "6", "--out", str(tmp_path / "coeffs.csv")],
    )
    assert loaded == [[]] * 6


def test_even_dimension_closed_form_reaches_erf(tmp_path: Path):
    # At E = 70, |x a1| = k sigma / (2 hbar) reaches 190 > max(10, b/2): the
    # half-integer recursion, seeded by erf, which loads scipy.special.
    out = tmp_path / "closed4.csv"
    loaded = _cold_start(
        ["dos", "--D", "4", "--alpha", "2", "--epsilon", "1.25e-3", "--method", "closed",
         "--e-range", "1:70:301", "--out", str(out)],
    )
    assert loaded[0] == []
    assert "scipy.special" in loaded[1]
    assert out.read_text().count("\n") == 302


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
    assert "(n_r=30, l=0) above barrier" in cp.stderr
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


def test_matching_level_cache_accepted(d3_cache: Path):
    cp = run_cli("ebk-dos", "--D", "3", "--alpha", "2", "--epsilon", "1.25e-3",
                 "--e-range", "2:8:13", "--width", "0.3", "--levels-in", str(d3_cache))
    assert cp.returncode == 0, cp.stderr
    assert len(cp.stdout.splitlines()) == 14


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
    (("dos", "--omega", "1e200"), "(D-1)! (hbar omega)^D leaves the float range"),
    (("dos", "--hbar", "1e308"), "energy 70 hbar omega leaves the float range"),
    (("compare", "--omega", "1e308"), "energy 50 hbar omega leaves the float range"),
    (("ebk", "--epsilon=-1e-165", "--e-max", "5"),
     "the barrier of strength -1e-165 lies beyond the float range"),
    (("ebk-dos", "--omega", "1e308"), "energy 30 hbar omega leaves the float range"),
    (("supershell", "--omega", "1e308", "--epsilon", "1e-3", "--s-max", "2"),
     "super-shell nodes leave the float range"),
    (("dos", "--D", "400"), "(D-1)! (hbar omega)^D leaves the float range at D=400"),
    (("dos", "--hbar", "1e-300"), "(D-1)! (hbar omega)^D leaves the float range"),
    (("dos", "--k-max", "100000000"), "3451 energies x k_max 100000000 exceed the budget"),
    (("dos", "--D", "171", "--e-range", "1:1e10:3"),
     "E^(D-1) / ((D-1)! (hbar omega)^D) leaves the float range at E=5e+09"),
    (("ebk", "--hbar", "1e308"), "energy 30 hbar omega leaves the float range at hbar omega=1e+308"),
    (("ebk", "--hbar", "1e-200", "--alpha", "3", "--epsilon", "1e-3"),
     "hbar omega=1e-200 or the strength eps hbar^(alpha-1) / omega^(alpha+1)=0 leaves the float"),
    (("modfactor", "--D", "3", "--alpha", "2", "--k", "10",
      "--sigma-over-hbar-range", "0:1e308:3"), "sigma / hbar must be finite"),
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


def test_parser_surface():
    import argparse

    from hoshell.cli import build_parser

    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    surface = {
        name: sorted((*action.option_strings, action.default, action.type, action.choices,
                      action.required)
                     for action in parser._actions
                     if not isinstance(action, argparse._HelpAction))
        for name, parser in sub.choices.items()
    }
    assert surface == {name: sorted(options) for name, options in PARSER_SURFACE.items()}
