"""The python example under ``## Library`` in README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert len(blocks) == 1, "expected one python block under ## Library"
    return blocks[0]


def test_library_example_runs():
    names: dict = {}
    exec(compile(library_example(), str(README), "exec"), names)
    gmv, tan, rf = names["gmv"], names["tan"], names["rf"]
    assert abs(gmv.weights.sum() - 1.0) < 1e-12
    assert names["risk"] >= gmv.risk
    assert tan.slope == (tan.r_t - rf) / tan.sigma_rt
    assert abs(names["cml"][1] - tan.r_t) < 1e-15  # the CML meets the frontier at the tangency
