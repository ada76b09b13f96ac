"""The example scripts run against the library as it is."""

from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_greens_sweep_runs(run_python):
    proc = run_python(
        str(SCRIPTS / "greens_sweep.py"), "--primes", "2", "3", "--max-m", "2", "--max-vdist", "4"
    )
    assert proc.returncode == 0, proc.stderr
    assert b", 0 misses\n" in proc.stdout


def test_spectrum_table_runs(run_python):
    proc = run_python(str(SCRIPTS / "spectrum_table.py"), "--p", "3", "--m", "2", "--max-conductor", "3")
    assert proc.returncode == 0, proc.stderr
    assert b"\nspectral gap: 3/2\n" in proc.stdout
    assert b"det D = 27/8 = 3/2 (angular) * 9/4 (radial)\n" in proc.stdout
