"""Interpretable LambdaMART: a constrained boosted ranker that is an exact
additive model over single features and a bounded set of feature pairs."""

from .dataset import BinMapper, Dataset, DatasetError, build_bins, load_svmlight
from .interpret import effect_importance, export_shapes
from .lambdas import compute_lambdas
from .metrics import NdcgReport, mean_ndcg
from .model import IlmartModel, InteractionSurface, ModelError, ShapeFunction, TrainConfig
from .stats import SignificanceResult, fisher_randomization
from .trainer import load_model, save_model, train_ilmart
from .trees import ConstraintRegime, DecisionTree, fit_tree

__version__ = "0.1.0"

__all__ = [
    "BinMapper",
    "ConstraintRegime",
    "Dataset",
    "DatasetError",
    "DecisionTree",
    "IlmartModel",
    "InteractionSurface",
    "ModelError",
    "NdcgReport",
    "ShapeFunction",
    "SignificanceResult",
    "TrainConfig",
    "build_bins",
    "compute_lambdas",
    "effect_importance",
    "export_shapes",
    "fisher_randomization",
    "fit_tree",
    "load_model",
    "load_svmlight",
    "mean_ndcg",
    "save_model",
    "train_ilmart",
]
