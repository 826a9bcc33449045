"""Start-up cost: which modules a command loads.

scipy is imported only by the Powell-Brent baseline, and the process pool
only when a run asks for more than one worker. Each check starts a fresh
interpreter, since this test process has long since imported both.
"""

import json
import os
import subprocess
import sys

import pytest

import rrbandit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rrbandit.__file__)))
# imported only on the paths that need them
DEFERRED = ("scipy", "multiprocessing")


def _fresh(code, cwd):
    """Run code in a new interpreter that imports rrbandit from SRC; return
    the JSON value its last output line holds."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _loaded_after(statements, cwd):
    code = "\n".join(["import json, sys", *statements,
                      f"print(json.dumps([m for m in {DEFERRED!r} "
                      "if m in sys.modules]))"])
    return _fresh(code, cwd)


def test_importing_the_cli_loads_no_deferred_module(tmp_path):
    assert _loaded_after(["import rrbandit.harness.cli"], tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["toy", "--seeds", "0", "--set", "optimizer.epsilon=0.0625"],
    ["toy", "--optimizer", "spsa", "--set", "optimizer.max_iters=3",
     "--set", "optimizer.shots_per_eval=10"],
    ["qaoa", "--optimizer", "rr_powell", "--sizes", "3", "--budget", "20000"],
    ["pqc", "--optimizer", "spsa", "--sizes", "2", "--budget", "20000"],
    ["bounds"],
], ids=["toy-rr", "toy-spsa", "qaoa-rr_powell", "pqc-spsa", "bounds"])
def test_commands_load_no_deferred_module(argv, tmp_path):
    argv = argv + ["--out", str(tmp_path / "out")]
    loaded = _loaded_after([
        "from rrbandit.harness.cli import main",
        f"assert main({argv!r}) == 0"], tmp_path)
    assert loaded == []
    assert any(name.endswith(".csv") for name in os.listdir(tmp_path / "out"))


def test_powell_brent_imports_scipy_at_its_first_call(tmp_path):
    """The first powell_brent call loads scipy and finds the noiseless
    quadratic's minimum, as test_powell_brent_zero_noise_quadratic does."""
    before, after, point, value, exhausted = _fresh("\n".join([
        "import json, sys",
        "import numpy as np",
        "from rrbandit.bandits import GaussianBandit",
        "from rrbandit.baselines import PowellBrentConfig, powell_brent",
        "from rrbandit.rng import SeededRng",
        "before = 'scipy' in sys.modules",
        "bandit = GaussianBandit(",
        "    lambda p: np.sum((p - np.array([0.3, 0.7])) ** 2, axis=-1),",
        "    sigma=0.0)",
        "cfg = PowellBrentConfig(max_iters=30, xtol=1e-8, ftol=1e-10)",
        "res = powell_brent(bandit, np.array([0.5, 0.5]), cfg, SeededRng(0))",
        "print(json.dumps([before, 'scipy' in sys.modules,",
        "                  res.point.tolist(), res.value,",
        "                  res.budget_exhausted]))"]), tmp_path)
    assert not before
    assert after
    assert point == pytest.approx([0.3, 0.7], abs=1e-3)
    assert value < 1e-6
    assert not exhausted
