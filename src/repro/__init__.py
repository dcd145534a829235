"""repro: reproduction of "Optimizing Deep Learning Recommender Systems'
Training On CPU Cluster Architectures" (Kalamkar et al., SC 2020).

Packages
--------
core      The paper's contribution: optimized DLRM training operators,
          update strategies, Split-SGD-BF16, configs (Table I/II).
kernels   Embedding/optimizer row operators (Alg. 1-4) in a NumPy and a
          native C tier, static thread partitions, workspaces.
hw        Analytic hardware model of the two testbeds (specs, topologies,
          cost model, calibration).
comm      Functional collectives, backend progress models (MPI vs CCL),
          exchange strategies, DDP gradient reducer.
parallel  The simulated SPMD cluster (per-rank virtual clocks and
          profilers), the hybrid-parallel DLRM, its analytic
          paper-scale twin, and the MLP overlap engine.
data      Random + synthetic-Criteo datasets.
tiering   Frequency-aware hot/cold embedding rows and table placement.
exec      Real parallelism: the RankExecutor surface the Trainer loop
          runs over (single model, inline ranks, process ranks over
          shared memory), the process's helper threads, the pool width
          that shards parallel ranks and kernels over them, and the
          prefetching data pipeline (bit-identical to sequential runs).
resilience Fault injection, typed failures, supervised recovery and
          durable checkpoints.
obs       Wall-clock tracing spans, their aggregation and export.
bench     Experiment drivers regenerating every paper table and figure.
train     The unified experiment API: JSON-round-trippable RunSpecs,
          component registries, the one callback-instrumented Trainer
          over a RankExecutor, and bit-exact ``.npz`` checkpointing.
serve     Batched, cache-aware inference: the forward-only engine
          (loadable from a training checkpoint), latency-budgeted
          micro-batcher, embedding cache, multi-socket replicas, SLA
          frontier.
tune      Self-tuning RunSpec search scored by measured short runs.

The stable public API is re-exported here: configs and the model
(``DLRMConfig``, ``DLRM``), optimizers, the simulated cluster, and the
``repro.train`` experiment surface (``RunSpec``, ``make_trainer``,
``Trainer``, checkpoint helpers).  Everything else is imported from
the module that defines it; a sub-package re-exports only the few
names its examples and benchmarks import through it.
"""

__version__ = "1.1.0"

from repro.core.config import CONFIGS, LARGE, MLPERF, SMALL, DLRMConfig, get_config
from repro.core.model import DLRM
from repro.core.optim import SGD, MasterWeightSGD, SparseAdagrad, SplitSGD
from repro.exec.pool import WorkerPool, get_pool, set_pool_workers
from repro.exec.prefetch import PrefetchLoader
from repro.parallel.cluster import SimCluster
from repro.parallel.hybrid import DistributedDLRM
from repro.parallel.timing import model_iteration, single_socket_iteration
from repro.serve.engine import InferenceEngine
from repro.train.callbacks import Callback
from repro.train.checkpoint import build_from_checkpoint, load_checkpoint, save_checkpoint
from repro.train.spec import RunSpec
from repro.train.trainer import Trainer, make_trainer

__all__ = [
    "__version__",
    "CONFIGS",
    "Callback",
    "DLRM",
    "DLRMConfig",
    "DistributedDLRM",
    "InferenceEngine",
    "LARGE",
    "MLPERF",
    "MasterWeightSGD",
    "PrefetchLoader",
    "RunSpec",
    "SGD",
    "WorkerPool",
    "get_pool",
    "set_pool_workers",
    "SMALL",
    "SimCluster",
    "SparseAdagrad",
    "SplitSGD",
    "Trainer",
    "build_from_checkpoint",
    "get_config",
    "load_checkpoint",
    "make_trainer",
    "model_iteration",
    "save_checkpoint",
    "single_socket_iteration",
]
