"""Resource-centric next-activity prediction for event logs."""

from .encodings import (
    ENCODINGS,
    CapabilityMap,
    EncodedDataset,
    SelectedBigrams,
    bigram_count_columns,
    capability_map,
    count_2grams,
    encode_s2g,
    encode_s2gr,
    encode_scap,
    encode_seq_only,
    mutual_information,
    run_features,
    select_top_k,
)
from .errors import (
    CellTimeoutError,
    ConfigError,
    EmptyLogError,
    ParseError,
    ResnapError,
    ValidationError,
)
from .eventlog import (
    CaseView,
    Event,
    EventLog,
    ResourceView,
    build_event_log,
    case_view,
    resource_view,
)
from .experiment import (
    ExperimentConfig,
    ResultRecord,
    accuracy,
    handle_rare_classes,
    run_experiment,
    stratified_split,
)
from .parsers import CsvMapping, parse_csv, parse_xes
from .prefixes import (
    DEFAULT_PREFIX_CANDIDATES,
    PrefixDataset,
    build_prefix_dataset,
    eligible_resources,
    prefix_grid,
)
from .profiling import (
    DatasetProfile,
    LeakageReport,
    avg_repetition,
    avg_sequence_length,
    avg_specialization,
    example_leakage,
    majority_class_accuracy,
    profile,
    repetition,
    specialization,
    variant_ratio,
)
from .reporting import AggregateTable, aggregate, export_results, load_records

__version__ = "0.1.0"
