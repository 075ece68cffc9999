"""The benchmark's span tracer still finds every layer of this tree.

``perfbench/tracing.py`` wraps public functions by name. A rename that
drops every function of a span or counter would leave that per-layer
metric absent, while the benchmark's output check still passes. This test
loads the tracer from its file without changing it, runs ``main``
in-process under it for each subcommand the benchmark drives, and requires
every span and counter to be found and every metric to have a value.
"""

import importlib.util
from pathlib import Path

import frontera.cli as cli

from conftest import FIXTURES

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer(tmp_path):
    inputs = [str(p) for p in sorted(FIXTURES.glob("replay_*.json"))]
    runs = [
        ["replay", "--input", inputs[0]],
        ["summarize", "--inputs", *inputs],
        ["analyze", "--config", str(FIXTURES / "analyze" / "config.json")],
    ]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        # through the module, so that the call reaches the wrapped main
        codes = [cli.main(argv + ["--output-dir", str(tmp_path / str(i))])
                 for i, argv in enumerate(runs)]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    assert tracer.missing == {}
    absent = {name: why for name, (value, why) in tracer.metrics().items() if value is None}
    assert absent == {}
