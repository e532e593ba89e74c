"""The benchmark's tracer (perfbench/tracing.py) wraps weldnet functions by
name and silently skips a name the package no longer has, so a rename sets
that per-layer metric to 0.  These checks fail on such a rename instead."""

import importlib
import runpy
from pathlib import Path

import numpy as np

from weldnet import block

# run_path compiles the file without writing bytecode next to it
TRACING = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"))


def test_every_traced_name_exists():
    for short, names in TRACING["TRACED"].items():
        module = importlib.import_module(f"{TRACING['PACKAGE']}.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{short}.{name}"


def test_step_reaches_its_traced_parts_through_module_globals():
    parts = ("_forward_all", "_pick_tau", "block_gradients")
    meta = block.BlockMetaParams(neurons=3, alpha=0.5, gamma=1.0, lam=0.01,
                                 iterations=1000)
    rng = np.random.default_rng(0)
    blk = block.init_block(meta, 2, 0)
    with TRACING["Tracer"]() as tracer:
        block.run_steps(blk, rng.normal(size=(6, 2)), rng.normal(size=6), 2)
    steps = [s for s in tracer.spans if s.name == "block.backprop_step"]
    assert len(steps) == 2
    for part in parts:
        assert sum(s.name == f"block.{part}" and s.parent in steps
                   for s in tracer.spans) == 2, part


def test_package_names_follow_the_tracer():
    """weldnet looks its names up in their home modules on every use, so a
    name reads the tracer's wrapper while it is installed and the original
    after."""
    import weldnet
    from weldnet import dataset
    original = dataset.load_csv
    with TRACING["Tracer"]():
        assert weldnet.load_csv is dataset.load_csv is not original
    assert weldnet.load_csv is dataset.load_csv is original
