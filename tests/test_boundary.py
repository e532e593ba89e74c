"""Stacks stay inside block.py: the other modules train one block through
block.run_steps and many through block.run_blocks, and never build or run
a stack themselves.  Datasets are made inside dataset.py: training and
scoring index the row arrays, and wrap no rows in a Dataset of their own."""

import ast
from pathlib import Path

import pytest

import weldnet

STACK_NAMES = {"run_stack", "stack_blocks", "BlockStack", "Workspace"}
DATASET_CALLS = {"Dataset", "take"}
PACKAGE = Path(weldnet.__file__).parent


def names_used(source: str) -> set:
    """Every identifier a module names: variables, attributes and imports."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_names_used_sees_imports_attributes_and_names():
    source = ("from .block import run_stack as rs\n"
              "import weldnet.block\n"
              "weldnet.block.stack_blocks([])\n"
              "Workspace\n")
    assert {"run_stack", "stack_blocks", "Workspace"} <= names_used(source)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "block.py"),
                         ids=lambda p: p.name)
def test_no_stack_outside_block(path):
    assert not names_used(path.read_text(encoding="utf-8")) & STACK_NAMES


def names_called(source: str) -> set:
    """The name of every function a module calls, as f(...) or x.f(...)."""
    called = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                called.add(func.id)
            elif isinstance(func, ast.Attribute):
                called.add(func.attr)
    return called


def test_names_called_sees_names_and_attributes_only_when_called():
    source = ("ds.Dataset(X, Y, f, t)\n"
              "data.take(idx)\n"
              "Dataset\n"
              "rows.features[idx]\n")
    assert names_called(source) == {"Dataset", "take"}
    assert names_called("from .dataset import Dataset\nDataset\n") == set()


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "dataset.py"),
                         ids=lambda p: p.name)
def test_no_dataset_made_outside_dataset(path):
    assert not names_called(path.read_text(encoding="utf-8")) & DATASET_CALLS
