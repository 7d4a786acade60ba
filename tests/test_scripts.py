import math
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str, code: int = 0) -> subprocess.CompletedProcess:
    cp = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(SCRIPTS / name),
                         *args], capture_output=True, text=True)
    assert cp.returncode == code, cp.stderr
    return cp


def read_rows(path: Path) -> list[list[float]]:
    return [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]]


def test_modulation_sweep(tmp_path: Path):
    run_script("modulation_sweep.py", "--out-dir", str(tmp_path), "--x-max", "5",
               "--points", "6")
    files = sorted(tmp_path.glob("modulation_D*_alpha*.csv"))
    assert len(files) == 9
    for path in files:
        rows = read_rows(path)
        assert len(rows) == 6
        assert rows[0][1:] == [1.0, 1.0]  # M_1 = 1 at zero strength


def test_supershell_scan(tmp_path: Path):
    cp = run_script("supershell_scan.py", "--out-dir", str(tmp_path), "--e-max", "4")
    assert len(list(tmp_path.glob("dos_D*_alpha*.csv"))) == 9
    assert cp.stdout.count("peak amplitude ratios") == 3


def test_ebk_vs_pert_clips_the_grid_at_the_barrier(tmp_path: Path):
    # eps = -1.25e-3 puts the l = 0 barrier top at E = 50, below --e-max 60
    out = tmp_path / "cmp.csv"
    cp = run_script("ebk_vs_pert.py", "--out", str(out), "--epsilon=-1.25e-3",
                    "--e-min", "45")
    rows = read_rows(out)
    assert 49.9 < rows[-1][0] < 50.0
    assert all(math.isfinite(v) for row in rows for v in row)
    assert "quantized levels" in cp.stdout


def test_ebk_vs_pert_grid_above_the_barrier_exits_2(tmp_path: Path):
    # eps = -1.25e-3 puts the l = 0 barrier top at E = 50: no grid is left
    cp = run_script("ebk_vs_pert.py", "--out", str(tmp_path / "cmp.csv"), "--epsilon=-1.25e-3",
                    "--e-min", "55", code=2)
    assert "above the barrier top" in cp.stderr
    assert "Traceback" not in cp.stderr
    assert not (tmp_path / "cmp.csv").exists()
