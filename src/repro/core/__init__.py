"""The BClean core: engine, scoring models, pruning, interaction."""

from repro.core.compensatory import (
    CompensatoryScorer,
    log_compensatory,
    log_compensatory_segments,
)
from repro.core.composition import COMPOSE_SEP, AttributeComposition
from repro.core.config import BCleanConfig, InferenceMode
from repro.core.confidence import (
    reliability_flags,
    table_confidences,
    tuple_confidence,
)
from repro.core.cooccurrence import CooccurrenceIndex
from repro.core.detection import (
    DetectionResult,
    ErrorDetector,
    Suspicion,
    detect_errors,
)
from repro.core.engine import BClean, clean_table
from repro.core.interaction import EditLog, NetworkEditSession
from repro.core.partition import SubNetwork, partition, partition_statistics
from repro.core.pruning import (
    DomainPruner,
    should_skip_cell,
    tuple_filter_score,
    tuple_filter_scores_all_rows,
)
from repro.core.repairs import (
    CleaningResult,
    CleaningStats,
    Repair,
    apply_repairs,
    collect_repairs,
)

__all__ = [
    "AttributeComposition",
    "BClean",
    "BCleanConfig",
    "COMPOSE_SEP",
    "CleaningResult",
    "CleaningStats",
    "CompensatoryScorer",
    "CooccurrenceIndex",
    "DetectionResult",
    "DomainPruner",
    "EditLog",
    "ErrorDetector",
    "InferenceMode",
    "NetworkEditSession",
    "Repair",
    "SubNetwork",
    "Suspicion",
    "apply_repairs",
    "clean_table",
    "collect_repairs",
    "detect_errors",
    "log_compensatory",
    "log_compensatory_segments",
    "partition",
    "partition_statistics",
    "reliability_flags",
    "should_skip_cell",
    "table_confidences",
    "tuple_confidence",
    "tuple_filter_score",
    "tuple_filter_scores_all_rows",
]
