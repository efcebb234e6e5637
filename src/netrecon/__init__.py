"""Recover the hidden-layer weights of a black-box one-hidden-layer network.

The pipeline: train (or obtain) a teacher network, query it on crafted input
sets, train an ensemble of over-wide imitators on the queries, cluster the
imitators' hidden-neuron weight directions, collapse each well-shared cluster
into one neuron, and fine-tune. Query construction is the part that decides
success; the diagnostics in :mod:`netrecon.metrics` explain why.
"""

from .augment import (
    AugmentationSpec,
    AugmentedSet,
    build,
    grid_bands,
    rotate_image,
)
from .data import (
    ImageDataset,
    QuerySet,
    load_idx,
    load_queryset,
    make_synthetic_classification,
    save_idx,
    save_queryset,
    standardize,
    subset,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DegenerateDataError,
    DivergenceError,
    EmptyReconstructionError,
    FormatError,
    NetreconError,
    TruncatedFileError,
)
from .metrics import (
    Histogram,
    VariabilityStats,
    imitation_loss,
    preactivation_histogram,
    preactivation_variability,
    scatter_table,
)
from .network import (
    ForwardTrace,
    Mlp,
    activation,
    activation_prime,
    backward_mse,
    forward,
    init_mlp,
    load_mlp,
    mse_loss,
    save_mlp,
)
from .reconstruct import (
    ClusterResult,
    Neurons,
    ReconstructionReport,
    cluster_neurons,
    collapse,
    cosine_distance,
    evaluate_reconstruction,
    extract_neurons,
    fine_tune,
    run_reconstruction,
)
from .train import (
    AdamState,
    PlateauScheduler,
    StudentEnsemble,
    TrainConfig,
    accuracy,
    adam_step,
    fit_lm,
    fit_mse,
    iter_students,
    query_teacher,
    steps_for,
    train_ensemble,
    train_student,
    train_teacher,
)

__version__ = "0.1.0"
