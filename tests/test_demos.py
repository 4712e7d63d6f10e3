"""Every script in ``demos/`` runs to completion in a fresh interpreter, and
the deterministic ones that score credit, localize and run an outbreak
print what they always have."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no demos/*.py found"


def _run(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(demo)],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    result = _run(demo, tmp_path)
    assert result.returncode == 0, result.stderr[-2000:].decode(errors="replace")


def test_credit_dynamics_output_is_pinned(tmp_path):
    """Demo 03 scores contacts, decays a penalty and gates difficulty from
    a fixed seed; its printed scores, totals, weight and levels are
    deterministic."""
    result = _run(ROOT / "demos" / "03_credit_dynamics.py", tmp_path)
    assert result.returncode == 0, result.stderr[-2000:].decode(errors="replace")
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "347085e6738a2fcd332bc6bf681339cfb4962e201cf2a4de02611b913169ea9d"
    )


def test_music_localization_output_is_pinned(tmp_path):
    """Demo 04 runs the one-snapshot synthesis and MUSIC path end to end;
    its printed positions, errors and residuals are deterministic."""
    result = _run(ROOT / "demos" / "04_music_localization.py", tmp_path)
    assert result.returncode == 0, result.stderr[-2000:].decode(errors="replace")
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "204d9134a4462bf85e5c3b1c49f74f25eb27f773ec310005e099f6b2967f194d"
    )


def test_outbreak_simulation_output_is_pinned(tmp_path):
    """Demo 05 runs ``run_epoch`` through mobility, the credit kernel and
    the attacker's penalty from a fixed seed; its printed counts, credits
    and verdict are deterministic."""
    result = _run(ROOT / "demos" / "05_outbreak_simulation.py", tmp_path)
    assert result.returncode == 0, result.stderr[-2000:].decode(errors="replace")
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "3f20209c1e9823c01d280d695b03763b5b9303a42d09936c4588e623edd9852f"
    )
