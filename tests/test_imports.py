"""What a fresh interpreter imports: scipy loads only where a run needs it.

``scipy.linalg`` is most of the library's import time, so the package
and the CLI import numpy and amboost only. Penalized base learners load
``scipy.linalg`` at first use and the binomial and poisson families
``scipy.special``. Each test runs its code in a new interpreter, because
this one has imported scipy long ago.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_CONFIG = ROOT / "demos" / "sample_config.ini"

# Prints whether any scipy module is loaded, as the last line.
SCIPY_LOADED = (
    "import sys\n"
    "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))\n"
)

# Runs that need scipy. Each prints the bytes of its recorded path.
RUNS = """
import numpy as np
from amboost import BoostConfig, BlockSpec, binomial, l2, make_partition, poisson, run_boost

rng = np.random.default_rng(3)
X = rng.normal(size=(60, 4))
eta = X @ np.array([0.8, -0.5, 0.3, 0.0])
cases = [
    (l2(), eta + rng.normal(size=60), [BlockSpec((0, 1, 2, 3), 2.0)], "joint"),
    (binomial(), (rng.uniform(size=60) < 1 / (1 + np.exp(-eta))).astype(float),
     [BlockSpec((0, 1)), BlockSpec((2, 3))], "greedy"),
    (poisson(), rng.poisson(np.exp(0.5 * eta)).astype(float),
     [BlockSpec((j,)) for j in range(4)], "cyclic"),
]
for loss, y, specs, mode in cases:
    path = run_boost(make_partition(X, specs), loss, y,
                     BoostConfig(nu=0.3, max_iter=40, mode=mode, init="offset"))
    for field in ("betas", "losses", "grad_norms", "selected"):
        print(loss.family, field, getattr(path, field).tobytes().hex())
"""


def run_python(code, *args):
    """Standard output of ``code`` run in a fresh interpreter on this source tree."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=ROOT,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_package_and_cli_import_without_scipy():
    assert run_python("import amboost, amboost.cli\n" + SCIPY_LOADED) == ["False"]


def test_fit_on_the_sample_config_runs_without_scipy(tmp_path):
    code = (
        "import sys\n"
        "from amboost.cli import main\n"
        "print(main(['fit', '--config', sys.argv[1], '--out', sys.argv[2]]))\n"
        + SCIPY_LOADED
    )
    out = run_python(code, str(SAMPLE_CONFIG), str(tmp_path))
    assert out[-2:] == ["0", "False"]
    assert (tmp_path / "fit_path.csv").exists()


def test_tied_coxph_run_without_scipy():
    code = """
import numpy as np
from amboost import BoostConfig, coxph, make_partition, run_boost, singleton_blocks

rng = np.random.default_rng(0)
X = rng.normal(size=(80, 3))
times = np.ceil(5 * rng.exponential(size=80))  # few distinct times: many ties
events = (rng.uniform(size=80) < 0.7).astype(float)
path = run_boost(make_partition(X, singleton_blocks(3)), coxph(times, events),
                 events, BoostConfig(nu=0.2, max_iter=30))
print(path.n_steps)
""" + SCIPY_LOADED
    assert run_python(code) == ["30", "False"]


def test_runs_match_those_with_scipy_imported_first():
    fresh = run_python(SCIPY_LOADED + RUNS)
    warm = run_python("import scipy.linalg, scipy.special\n" + RUNS)
    assert fresh[0] == "False"
    assert len(fresh[1:]) == 12
    assert fresh[1:] == warm


def test_singular_penalized_system_is_a_linalg_error():
    code = """
import numpy as np
from amboost import BoostConfig, BlockSpec, difference_penalty, l2, make_partition, run_boost

# one row and a rank-one penalty leave X'X + P of rank two
X = np.array([[0.3, -1.2, 0.7]])
part = make_partition(X, [BlockSpec((0, 1, 2), 1.0, difference_penalty(3, 2))])
try:
    run_boost(part, l2(), np.ones(1), BoostConfig(max_iter=1))
except np.linalg.LinAlgError as exc:
    print(type(exc).__module__, type(exc).__name__, str(exc).split(':')[0])
"""
    assert run_python(code) == ["numpy.linalg LinAlgError singular penalized system (lam=1)"]


def test_singular_penalized_system_exits_two_through_the_cli(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[data]\nn = 1\np = 3\nbeta_true = 1,1,1\n\n"
                   "[run]\nblocks = 3\npenalty = diff2\nlam = 1\n")
    code = (
        "import sys\n"
        "from amboost.cli import main\n"
        "print(main(['fit', '--config', sys.argv[1], '--out', sys.argv[2]]))\n"
    )
    assert run_python(code, str(cfg), str(tmp_path / "o")) == ["2"]
