"""The example scripts run end to end as real subprocesses: each exits 0,
and every JSON report one writes parses."""

import json
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_convergence_study_writes_both_reports(tmp_path):
    run_script("convergence_study.py", "--schedule", "1,2", "--out-dir", tmp_path)
    for ratio in (1, 4):
        report = json.loads((tmp_path / f"convergence_ratio{ratio}.json").read_text())
        assert report["schedule"] == [1, 2]
        assert report["config"]["cutoff_ratio"] == ratio
    # matched windows agree to rounding at every cutoff
    assert report["final_max_difference"] <= 1e-10


def test_shift_decay_demo_prints_a_decaying_table_per_size():
    out = run_script("shift_decay_demo.py", "--sizes", "3,5").stdout
    blocks = out.split("\nN=")[1:]
    assert [block.split(",")[0] for block in blocks] == ["3", "5"]
    shifts = [float(line.rsplit("=", 1)[1]) for line in blocks[1].splitlines() if "distance" in line]
    assert len(shifts) == 3 and shifts[-1] < shifts[0]
