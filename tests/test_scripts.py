"""Each script in scripts/ runs to completion on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import welloop

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("compare_optimizers.py", "--rows 30 --budget 12 --bayes-budget 10 --trace-dir {out}"),
        ("compare_optimizers.py", "--rows 30 --wells 2 --budget 12 --bayes-budget 10"),
        ("shap_vs_exact.py", "--max-features 4 --rows 3"),
        ("run_demo.py", "--out {out} --rows 40 --budget 10"),
        ("count_lines.py", ""),
        ("artifact_digests.py", "--seeds 1 --workloads attribution"),
    ],
)
def test_script_exits_0(tmp_path, script, args):
    argv = [arg.format(out=tmp_path / "out") for arg in args.split()]
    paths = [str(Path(welloop.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
