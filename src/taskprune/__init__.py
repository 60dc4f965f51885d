"""taskprune: task-specific low-rank pruning for toy decoder-only transformers."""

from .calibrate import (
    AdapterCache,
    DEFAULT_FACTOR_SET,
    FactorSet,
    PrunedModel,
    PruningVector,
    assemble,
    build_cache,
    capture_calibration,
    compression_ratio,
    count_params,
    estimate_flops_per_token,
    load_cache,
    load_capture,
    save_cache,
    save_capture,
)
from .factorize import (
    DegenerateSiteError,
    FactorizationDiverged,
    FactorizedMatrix,
    FactorizeOptions,
    Method,
    OutputAlignedSite,
    RankDeficiencyError,
    UNPRUNED,
    factorize_output_aligned,
    factorize_svd_w,
    rank_for_factor,
)
from .linalg import AdamState, SvdResult, adam_step, frobenius_rel_error, truncated_svd
from .model import (
    ActivationCapture,
    ModelWeights,
    SiteId,
    SiteKind,
    TransformerConfig,
    forward,
    greedy_decode_batch,
    load_model,
    model_fingerprint,
    random_model,
    save_model,
    sites,
)
from .report import (
    SearchReport,
    build_report,
    calibration_sweep,
    emit_report,
    retention_tables,
    sweep_uniform,
)
from .search import (
    EvalRecord,
    EvalResult,
    GaConfig,
    TaskMode,
    TaskSpec,
    binary_search_uniform,
    bottleneck_analysis,
    evaluate,
    exact_match_task,
    fitness_from_compression,
    ga_search,
    load_task,
    make_eval_fn,
    read_history,
    save_task,
    threshold_accuracy,
    write_history,
)

__version__ = "0.1.0"
