"""welloop: closed-loop analysis of well production data.

The package covers the full desk workflow: ingest and clean tabular well
data (or synthesize a plausible dataset), train regression-tree ensembles
from scratch, attribute predictions with exact Shapley values and the
polynomial tree algorithm, fuse base learners by stacked generalization,
sweep factors with individual conditional expectation grids, and search
bounded engineering parameters for the design that maximizes predicted
recovery.
"""

import types as _types

from welloop.data import (
    DEFAULT_SCHEMA,
    FactorSpec,
    PreprocessError,
    PreprocessReport,
    WellTable,
    ground_truth_eur,
    load_csv,
    load_schema,
    pearson_matrix,
    preprocess,
    synthesize,
)
from welloop.trees import (
    HyperParams,
    TreeEnsemble,
    TreeNode,
    fit_gbdt,
    fit_rf,
    fit_tree,
    fit_xgb,
    predict,
    tune_random_search,
)
from welloop.explain import (
    AttributionMatrix,
    CoalitionalGame,
    InteractionTensor,
    ModelIntegrityError,
    baseline_correlations,
    explain_well,
    rank_factors,
    shap_interactions,
    shapley_exact,
    supervised_cluster,
    tree_expectation,
    tree_game,
    tree_shap,
)
from welloop.stack import StackedModel, evaluate, fit_stacked
from welloop.ice import IceGrid, VariedFactor, ice
from welloop.optimize import (
    BoundedVariable,
    SearchProblem,
    SurrogateError,
    Trace,
    WellOptimization,
    bayes_opt,
    de,
    optimize_well,
    pso,
)

__version__ = "0.1.0"

# the public names are those imported above; the submodules that importing
# them binds on the package are not
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
