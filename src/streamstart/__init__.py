"""streamstart: streaming event-start detection engine and evaluation toolkit.

Temporal-aggregation kernels with constant per-frame cost, a trainable
cosine-similarity detection head, Streaming Recall / Streaming Minimum
Distance metrics with asymmetric tolerance windows, and symbolic compute
cost accounting.
"""

__version__ = "0.1.0"

from .annotations import (
    EventAnnotation,
    Interval,
    SyntheticStreamSpec,
    derive_tolerance,
    gen_synthetic,
    interval_iou,
    parse_annotations,
    sample_windows,
    tolerance_from_variance,
)
from .errors import (
    ConfigError,
    IdMismatchError,
    NumericError,
    RowError,
    SchemaError,
    StreamstartError,
)
from .kernels import (
    AdapterConfig,
    AdapterParams,
    adapter_forward,
    block_forward,
    causal_conv,
    fo_pool,
    init_params,
    qrnn_forward,
    receptive_field,
    retention_parallel,
    retention_recurrent,
)
from .metrics import (
    MetricReport,
    ScoreSeries,
    ToleranceWindow,
    evaluate_dataset,
    extract_predictions,
    is_hit,
    smd_at_k,
    streaming_recall_at_k,
    sweep_thresholds,
)
from .detector import (
    DetectorModel,
    LossBreakdown,
    ModelConfig,
    StreamingScorer,
    TrainConfig,
    backward,
    build_model,
    infer_streaming,
    score_frames,
    score_streams,
    train,
)
from .costmodel import (
    CostReport,
    LayerSpec,
    bench_latency,
    count_macs,
    count_params,
    sliding_window_overhead,
)
