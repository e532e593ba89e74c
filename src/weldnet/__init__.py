"""Block-wise neural regression for weld bead parameter estimation.

The names in __all__ are looked up in their home modules on use (PEP 562),
so importing the package, or one of its modules, loads only what that
needs: a command such as `weldnet synth` never loads the training code.
"""

import importlib

# Home module of every name in __all__.
_HOMES = {
    "baselines": ("McrParams", "OptimizerState", "linear_predict", "mcr_fit",
                  "normal_equation_fit", "optimizer_train", "plain_ann_train"),
    "block": ("BlockMetaParams", "RegressionBlock", "TrainingTrace",
              "backprop_step", "cost", "init_block", "sigmoid", "train",
              "weighted_estimate"),
    "dataset": ("Dataset", "ScalerParams", "append_bias", "bead_surfaces",
                "combine", "load_csv", "prepare_features", "save_csv", "split",
                "standardize", "synthesize_weld"),
    "metrics": ("confidence_interval", "kendall", "pe", "pearson", "rmse",
                "spearman", "zscore"),
    "model": ("AggregateModel", "load", "predict", "resize_hidden", "save",
              "train_all"),
    "search": ("SearchSpace", "evaluate_point", "grid_search"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # looked up on every use, not cached here, so that the package name
    # follows whatever its home module binds
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
