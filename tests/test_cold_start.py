"""What a fresh process imports: every CLI command is one.

Each scipy submodule is imported inside the function that uses it, so
`import nlcurv` costs numpy alone and a command loads only what its
computation needs: `eval` and `flow` need none, even on a perturbed
sphere (its harmonics are numpy polynomials), and neither do the patch
and stability probes, whose candidate searches are numpy ball queries.
The geodesic search behind `probe --mode chordarc` and `sobolev
--distance intrinsic` is numpy too, so only the oracles load scipy.
The numpy-only commands do not load `numpy.ma` either, which the flagless
`np.unique` of numpy 2.4 imports.
The checks run in a fresh interpreter because pytest itself imports
scipy.integrate (the IntegrationWarning filter).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import nlcurv

SRC = str(Path(nlcurv.__file__).resolve().parents[1])


def _modules(code, cwd, top="scipy"):
    """Sorted names of the modules of package `top` loaded after running
    code in a fresh interpreter that imports nlcurv from this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    code += ("\nimport json, sys\nprint(json.dumps(sorted("
             f"m for m in sys.modules if m.split('.')[0] == {top!r})))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    assert _modules("import nlcurv, nlcurv.cli", tmp_path) == []


def test_import_loads_no_multiprocessing(tmp_path):
    # the probes fork their worker processes with os.fork alone
    assert _modules("import nlcurv, nlcurv.cli", tmp_path,
                    "multiprocessing") == []


def test_import_loads_no_thread_pool_or_logging(tmp_path):
    # every parallel step forks with os.fork; concurrent.futures, which
    # also imports logging, is not needed
    for top in ("concurrent", "logging"):
        assert _modules("import nlcurv, nlcurv.cli", tmp_path, top) == []


def test_eval_loads_no_unused_scipy(tmp_path):
    code = ("import nlcurv.cli\n"
            "assert nlcurv.cli.main(['eval', '--primitive', 'sphere_icosub', "
            "'--sub', '1', '--tangent-point', '--q', '6', '--out', 'out']) "
            "== 0")
    loaded = set(_modules(code, tmp_path))
    unused = {"scipy.spatial", "scipy.sparse.csgraph", "scipy.integrate",
              "scipy.optimize", "scipy.special"}
    assert not loaded & unused


def _cli_modules(argv, cwd, top="scipy"):
    code = ("import nlcurv.cli\n"
            f"assert nlcurv.cli.main({argv + ['--out', 'out']!r}) == 0")
    return _modules(code, cwd, top)


PERTURBED = ["--primitive", "perturbed_sphere", "--amp", "0.05", "--sub", "1"]


def test_eval_loads_no_scipy(tmp_path):
    assert _cli_modules(["eval", *PERTURBED, "--tangent-point",
                               "--q", "6"], tmp_path) == []


def test_flow_loads_no_scipy(tmp_path):
    assert _cli_modules(["flow", *PERTURBED, "--max-iter", "1"],
                              tmp_path) == []


def test_patch_and_stability_probes_load_no_scipy(tmp_path):
    for mode in (["patch", "--all-vertices"], ["stability"]):
        assert _cli_modules(["probe", *PERTURBED, "--mode", *mode],
                                  tmp_path) == []


def test_numpy_only_commands_load_no_numpy_ma(tmp_path):
    # the flagless np.unique of numpy 2.4 imports numpy.ma
    for argv in (["eval", *PERTURBED, "--tangent-point", "--q", "6"],
                 ["flow", *PERTURBED, "--max-iter", "1"],
                 ["probe", *PERTURBED, "--mode", "patch", "--all-vertices"],
                 ["probe", *PERTURBED, "--mode", "stability"]):
        assert "numpy.ma" not in _cli_modules(argv, tmp_path, "numpy")


def test_geodesic_commands_load_no_spatial_or_special(tmp_path):
    for argv in (["probe", *PERTURBED, "--mode", "chordarc"],
                 ["sobolev", *PERTURBED, "--distance", "intrinsic"]):
        assert _cli_modules(argv, tmp_path) == []
