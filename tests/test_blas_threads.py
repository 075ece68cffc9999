"""Importing frontera defaults OpenBLAS and OpenMP to one thread; a count the
caller set is kept. Each case runs in a fresh interpreter, because OpenBLAS
reads the variables once, when numpy first loads it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# the thread count of the OpenBLAS that numpy loaded, or None where it cannot be asked,
# and the BLAS numpy was built with, or None where numpy cannot say
PROBE = """
import ctypes, json, os
import frontera.cli  # loads numpy, and with it OpenBLAS, after frontera sets the counts
import numpy

def blas_threads():
    try:
        libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None

def numpy_blas():
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # numpy before 1.26, or a build that records no BLAS
        return None

print(json.dumps({"env": [os.environ.get(v) for v in %r], "threads": blas_threads(),
                  "blas": numpy_blas()}))
""" % (VARS,)


def probe(**preset) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_unset_defaults_to_one():
    assert probe()["env"] == ["1", "1"]


def test_preset_count_is_kept():
    assert probe(OPENBLAS_NUM_THREADS="2")["env"] == ["2", "1"]


def test_loaded_openblas_runs_one_thread():
    found = probe()
    if found["threads"] is None:
        # a skip only where numpy is not built with OpenBLAS; otherwise the probe is broken
        assert "openblas" not in str(found["blas"]).lower(), (
            f"numpy is built with {found['blas']}, but the probe found no OpenBLAS to ask"
        )
        pytest.skip(f"numpy is built with {found['blas']}, not OpenBLAS")
    assert found["threads"] == 1
