"""Desk-scale simulator for decentralized federated learning by model
circulation: one model rides node to node, each holder trains it on local
minibatches, and a routing policy picks the next stop. Includes the
label-variance-minimizing dynamic router, static and random routes, and a
synchronous gossip baseline, all measured in model transmissions.
"""

from .config import ExperimentConfig, format_config, parse_config, parse_config_text
from .datasets import (
    LabeledDataset,
    LabelHistogram,
    draw_minibatch,
    generate_synthetic,
    generate_synthetic_split,
    load_csv,
    save_csv,
)
from .errors import ConfigError, ParseError, StateError
from .learner import (
    ArchSpec,
    ModelParams,
    average_params,
    evaluate,
    finite_diff_check,
    init_he,
    loss_and_grad,
    sgd_step,
)
from .partition import (
    DatasetShard,
    PartitionPlan,
    make_shard,
    make_shards,
    split_contiguous_labels,
    split_exponential_binary,
    split_random_k_labels,
)
from .routing import (
    RoutingState,
    dispersion,
    enumerate_static_routes,
    expected_usage,
    next_random,
    next_static,
    select_next_dynamic,
    update_ledger,
)
from .simulator import (
    EvalRecord,
    PolicySpec,
    RunConfig,
    TrialResult,
    TrialsSummary,
    params_digest,
    run_gossip,
    run_tram_fl,
    run_trials,
)

__version__ = "0.1.0"
