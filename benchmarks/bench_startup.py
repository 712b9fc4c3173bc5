"""Start-up timing: a fresh interpreter's `import fednaslab.cli`.

Every `fednaslab` command is a new process, so this import is paid once
per stage before `cli.main` runs. Each round starts one child interpreter
that imports the package found on PYTHONPATH and reports the import's
duration (`import_s`), every module named `scipy` or `scipy.*` that it
loaded (`scipy`; the package imports none at run time) and whether it
loaded `numpy.f2py` (`numpy_f2py`), which scipy's array-API layer pulls
in. The file name does not match test_*.py, so the tier-1 suite does not
collect it. Run it on one BLAS thread, as the stage benchmark does:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python -m pytest benchmarks/bench_startup.py --benchmark-json out.json

Point PYTHONPATH at another checkout's src to time that version, and
compare runs by `extra_info["scaled_median_s"]`, the median scaled to the
reference host speed (benchmarks/conftest.py). For the per-module
breakdown, run `python -X importtime -c "import fednaslab.cli"`.
"""

import json
import os
import subprocess
import sys

_CHILD = """
import json, sys, time
t = time.perf_counter()
import fednaslab.cli
elapsed = time.perf_counter() - t
print(json.dumps({"import_s": elapsed, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "numpy_f2py": "numpy.f2py" in sys.modules}))
"""


def _import_cli() -> dict:
    out = subprocess.run([sys.executable, "-c", _CHILD], env=dict(os.environ),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_import_cli(benchmark):
    benchmark.group = "startup"
    report = benchmark.pedantic(_import_cli, rounds=10, iterations=1)
    benchmark.extra_info.update(report)
    assert report["import_s"] > 0
