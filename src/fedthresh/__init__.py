"""Federated anomaly-detection thresholds from privacy-preserving summaries.

Train a shared autoencoder with FedAvg, summarize each client's
reconstruction errors as fixed-size moment statistics, aggregate them into
global per-class distributions, and search the resulting overlap region
for the F1-optimal global threshold; ten baseline threshold methods and a
scenario harness round out the package.
"""
import types

from .autoencoder import (ModelParams, TrainConfig, default_hidden_dims,
                          forward, init_model, load_model, mse_per_sample,
                          save_model, train_clients, train_local)
from .data import (Dataset, PartitionPlan, Scaler, fit_scaler, load_csv,
                   partition_even, partition_noniid, partition_random, split,
                   synth, synth_blobs)
from .error_stats import (ClassSummaries, ErrorSummary, OverlapRegion,
                          aggregate, generate_candidates, overlap_region,
                          summarize)
from .errors import (AuditError, ConfigError, DivergedTraining,
                     FederationError, InsufficientTail, NoAnomalyStatistics,
                     StageError)
from .federation import Channel, ClientState, FedConfig, Message, \
    average_params, run_fedavg
from .harness import (ResultRow, ScenarioConfig, audit_channel,
                      build_followup_dataset, emit_report, run_scenario,
                      sweep_clients, sweep_corruption, train_model)
from .metrics import Confusion, aggregate_f1, confusion, f1, f1_curve
from .thresholds import (METHOD_TAGS, classify, fed_filtered, fed_minmax,
                         fed_mse_std, kqe, local_minmax, local_simple,
                         our_method, pot)

__version__ = "0.1.0"

# every public name imported above, kept in one list: the imports
__all__ = [name for name, value in globals().items()
           if not name.startswith("_")
           and not isinstance(value, types.ModuleType)] + ["__version__"]
