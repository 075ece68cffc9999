"""Every file the CLI writes for the bundled fixtures is byte-identical under
each OpenBLAS kernel this CPU can run.

OpenBLAS picks its gemm kernel per CPU, and the kernels add in different
orders, so the inverse differs between them in its last bits. The outputs
must not show it. Each kernel runs in its own child process, with
``OPENBLAS_CORETYPE`` set only in the child's environment, because OpenBLAS
reads it once, when numpy loads it. The child runs ``main`` in-process for
every run of ``test_golden``: ``replay`` of each fixture, ``summarize`` and
``analyze`` of ``fixtures/analyze``, in csv and markdown.

For the kernels this CPU cannot run, the same outputs must also survive an
inverse changed by a few units in its last place.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frontera import stats

from test_golden import GOLDEN, digests

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
# kernel -> the /proc/cpuinfo flag it needs
KERNELS = {"Haswell": "avx2", "Sandybridge": "avx", "SkylakeX": "avx512f"}

CHILD = """
import json, sys, tempfile
from pathlib import Path
from test_golden import digests
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps(digests(Path(tmp))))
"""


def cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {f for line in text.splitlines() if line.startswith("flags") for f in line.split()}


def kernel_digests(kernel: str) -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, cwd=TESTS, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, f"{kernel}: {done.stderr}"
    return json.loads(done.stdout)


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="OpenBLAS x86-64 kernels")
def test_outputs_identical_across_kernels():
    flags = cpu_flags()
    kernels = [k for k, flag in KERNELS.items() if flag in flags]
    if len(kernels) < 2:
        pytest.skip(f"this CPU runs fewer than two of {sorted(KERNELS)}")
    runs = {k: kernel_digests(k) for k in kernels}
    first, want = kernels[0], runs[kernels[0]]
    for kernel, got in runs.items():
        assert sorted(got) == sorted(want), f"{kernel} and {first} write different files"
        changed = [rel for rel in want if got[rel] != want[rel]]
        assert not changed, f"{kernel} and {first} differ in {', '.join(changed)}"


@pytest.mark.parametrize("seed", [1, 2])
def test_outputs_survive_a_few_ulp_change_in_the_inverse(seed, tmp_path, monkeypatch):
    # relative, so that an exact zero keeps its value and its sign: an absolute
    # change would print a zero of a diagonal covariance's inverse as -0%
    rng = np.random.default_rng(seed)
    invert = stats.invert_matrix

    def perturbed(matrix):
        inverse = invert(matrix)
        k = np.triu(rng.integers(-4, 5, inverse.shape))
        return inverse * (1 + (k + np.triu(k, 1).T) * 2.0**-53)  # symmetric, |k| <= 4

    monkeypatch.setattr(stats, "invert_matrix", perturbed)
    want, got = json.loads(GOLDEN.read_text()), digests(tmp_path)
    assert sorted(got) == sorted(want)
    changed = [rel for rel in want if got[rel] != want[rel]]
    assert not changed, f"a few-ulp change in the inverse changes {', '.join(changed)}"
