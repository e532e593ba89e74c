"""Spans around calls into weldnet's modules, recorded from outside the package.

A Tracer replaces chosen functions with timing wrappers in every weldnet
module namespace that binds them (``run_steps`` is bound in both
``weldnet.block`` and ``weldnet.model``, for example), so calls made through
any of those names are seen.  Spans stay in memory; uninstall() puts every
original object back.  Functions a later version of the package no longer
has are skipped, so the per-layer numbers that need them read 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

PACKAGE = "weldnet"

# (defining module, function) pairs wrapped in a traced run.
TRACED = {
    "block": ("backprop_step", "_forward_all", "_pick_tau", "block_gradients",
              "run_steps", "train"),
    "search": ("grid_search", "evaluate_point"),
    "model": ("train_all", "resize_hidden", "predict", "save", "load"),
    "baselines": ("optimizer_train", "mcr_fit", "normal_equation_fit"),
    "dataset": ("load_csv", "save_csv", "standardize"),
    "metrics": ("pearson", "spearman", "kendall"),
    "cli": ("cmd_synth", "cmd_train", "cmd_eval", "cmd_compare", "cmd_stats"),
}


def _rows(obj):
    return obj.features.shape[0]


def _width(block):
    return block.theta1.shape[1]


# Facts recorded on a span from the call's arguments and result.
HOOKS = {
    "search.evaluate_point": lambda args, result: {"finite": bool(result[0] < float("inf"))},
    "model.resize_hidden": lambda args, result: {"adopted": _width(result) != _width(args[0])},
    "model.predict": lambda args, result: {"rows": result.shape[0]},
    "model.save": lambda args, result: {"bytes": os.path.getsize(args[1])},
    "dataset.load_csv": lambda args, result: {"rows": _rows(result)},
    "dataset.save_csv": lambda args, result: {"rows": _rows(args[0])},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, end=0.0, parent=None, info=None):
        self.name, self.start, self.end = name, start, end
        self.parent, self.info = parent, info

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, children) -> float:
    """Span duration minus the part of it that its children's intervals cover."""
    covered, cur_start, cur_end = 0.0, None, None
    for s, e in sorted((max(c.start, span.start), min(c.end, span.end)) for c in children):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


def children_of(spans) -> dict:
    kids = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(id(s.parent), []).append(s)
    return kids


class Tracer:
    """Installs wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    span.info = hook(args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    span.info = None
            return result

        return wrapper

    def install(self) -> None:
        homes = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in TRACED}
        modules = self._modules()
        for short, names in TRACED.items():
            home = homes[short]
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take(self) -> list:
        """Spans recorded so far; the tracer starts a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out
