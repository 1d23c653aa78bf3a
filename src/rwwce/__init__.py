"""Cost-sensitive classification toolkit.

Cross-entropy losses whose error terms are priced by real-world marginal
costs, a minimal dense-network trainer, cost-aware evaluation metrics, IDX
corpus ingestion, and the experiment suites that compare cost-blind and
cost-weighted training.
"""

from .bernoulli import BernoulliScenario, analytic_minimizer, descend, likelihood_check
from .data import (
    Dataset,
    RawMnist,
    SplitDataset,
    concat_corpora,
    load_idx,
    load_idx_files,
    make_binary_dataset,
    make_categorical_dataset,
    split,
)
from .losses import (
    EPSILON,
    BinaryCostModel,
    LossSpec,
    fused_gradient_from_probs,
    loss_value,
    sigmoid,
    softmax,
)
from .metrics import (
    ConfusionCounts,
    ConfusionMatrix,
    TTestResult,
    best_f1_threshold,
    confusion_binary,
    confusion_categorical,
    f1_score,
    paired_t_test,
    real_world_cost_binary,
    real_world_cost_categorical,
    regularized_incomplete_beta,
    top1_error,
)
from .nn import (
    AdamState,
    DenseLayer,
    Mlp,
    TrainConfig,
    adam_step,
    backward,
    forward,
    gradcheck,
    gradcheck_matrix,
    init_mlp,
    outputs,
    train,
)
from .experiments import (
    BinaryTrialConfig,
    CategoricalTrialConfig,
    RunRecord,
    SuiteSummary,
    all_ordered_pairs,
    load_records,
    records_match,
    run_binary_suite,
    run_binary_trial,
    run_categorical_suite,
    run_categorical_trial,
    sample_pairs,
    save_records,
    summarize,
    summary_table,
    summary_to_csv,
)

__version__ = "0.1.0"
