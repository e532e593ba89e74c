"""Block-wise neural regression for weld bead parameter estimation."""

from .baselines import (
    McrParams,
    OptimizerState,
    linear_predict,
    mcr_fit,
    normal_equation_fit,
    optimizer_step,
    optimizer_train,
    plain_ann_train,
)
from .block import (
    BlockMetaParams,
    RegressionBlock,
    TrainingTrace,
    backprop_step,
    cost,
    init_block,
    sigmoid,
    train,
    weighted_estimate,
)
from .dataset import (
    Dataset,
    ScalerParams,
    append_bias,
    bead_surfaces,
    combine,
    load_csv,
    prepare_features,
    save_csv,
    split,
    standardize,
    synthesize_weld,
)
from .metrics import (
    confidence_interval,
    kendall,
    pe,
    pearson,
    rmse,
    spearman,
    zscore,
)
from .model import (
    AggregateModel,
    load,
    predict,
    resize_hidden,
    save,
    train_all,
)
from .search import SearchSpace, evaluate_point, grid_search

__all__ = [
    "AggregateModel", "BlockMetaParams", "Dataset", "McrParams",
    "OptimizerState", "RegressionBlock", "ScalerParams",
    "SearchSpace", "TrainingTrace", "append_bias",
    "backprop_step", "bead_surfaces", "combine",
    "confidence_interval", "cost", "evaluate_point", "grid_search",
    "init_block", "kendall", "linear_predict", "load", "load_csv", "mcr_fit",
    "normal_equation_fit", "optimizer_step", "optimizer_train", "pe",
    "pearson", "plain_ann_train", "predict", "prepare_features",
    "resize_hidden", "rmse", "save", "save_csv", "sigmoid", "spearman",
    "split", "standardize", "synthesize_weld", "train", "train_all",
    "weighted_estimate", "zscore",
]
