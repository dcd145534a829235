"""DLRM model configurations (paper Table I) and their derived
communication characteristics (paper Table II, Eqs. 1 and 2).

Three configurations are used throughout the paper:

* **Small** -- the model problem from the DLRM release paper: 8 uniform
  1M-row tables, E=64, ~50 look-ups per table.
* **Large** -- Small scaled up in every dimension for scale-out runs:
  64 six-million-row tables, E=256, deep 4096-wide top MLP.
* **MLPerf** -- the MLPerf recommendation benchmark on the Criteo
  Terabyte dataset: 26 tables with the real categorical cardinalities
  (capped at 40M rows), E=128, one look-up per table.

Note on the MLPerf top MLP: Table I prints "512-512-256-1", but Table
II's 9.0 MB allreduce volume is only consistent with the official MLPerf
DLRM top MLP **1024-1024-512-256-1** (Eq. 1 gives ~9.04 MiB with it, vs.
~3.1 MiB with the printed stack).  We implement the official topology and
record the discrepancy in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Criteo Terabyte categorical cardinalities used by MLPerf DLRM
#: (hash-capped at 40M rows; sum ~187.8M rows -> ~96 GiB at E=128 FP32,
#: the "98 GB" of Table II).
CRITEO_TB_CARDINALITIES: tuple[int, ...] = (
    39884406, 39043, 17289, 7420, 20263, 3, 7120, 1543, 63,
    38532951, 2953546, 403346, 10, 2208, 11938, 155, 4, 976, 14,
    39979771, 25641295, 39664984, 585935, 12972, 108, 36,
)

FP32_BYTES = 4


@dataclass(frozen=True)
class DLRMConfig:
    """One column of paper Table I, plus everything derivable from it."""

    name: str
    #: Single-socket minibatch N.
    minibatch: int
    #: Global minibatch for strong scaling (GN).
    global_minibatch: int
    #: Local (per-rank) minibatch for weak scaling (LN).
    local_minibatch: int
    #: Average look-ups per table (P).
    lookups_per_table: int
    #: Embedding dimension (E).
    embedding_dim: int
    #: Rows per table (M), one entry per table; len == S.
    table_rows: tuple[int, ...]
    #: Number of dense input features (length of the Bottom MLP input).
    dense_features: int
    #: Output sizes of the Bottom MLP layers; the last must equal E.
    bottom_mlp: tuple[int, ...]
    #: Output sizes of the Top MLP layers; the last must be 1 (the logit).
    top_mlp: tuple[int, ...]
    #: Interaction operator: "dot" (default DLRM) or "cat".
    interaction: str = "dot"

    def __post_init__(self) -> None:
        if not self.table_rows:
            raise ValueError("need at least one embedding table")
        if any(m <= 0 for m in self.table_rows):
            raise ValueError("table rows must be positive")
        if self.bottom_mlp[-1] != self.embedding_dim:
            raise ValueError(
                "Bottom MLP must end at the embedding dimension so its output "
                f"can be interacted with the tables (got {self.bottom_mlp[-1]} "
                f"vs E={self.embedding_dim})"
            )
        if self.top_mlp[-1] != 1:
            raise ValueError("Top MLP must end with a single logit")
        if self.interaction not in ("dot", "cat"):
            raise ValueError(f"interaction must be 'dot' or 'cat', got {self.interaction!r}")

    # -- basic shape quantities ------------------------------------------------

    @property
    def num_tables(self) -> int:
        """S, the number of sparse features."""
        return len(self.table_rows)

    @property
    def num_vectors(self) -> int:
        """Vectors entering the interaction: S tables + the bottom output."""
        return self.num_tables + 1

    @property
    def interaction_dim(self) -> int:
        """Width of the Top MLP input.

        Dot interaction: the bottom output (E) concatenated with the
        strictly-lower-triangular pairwise dot products of the S+1
        vectors.  Cat interaction: plain concatenation.
        """
        v = self.num_vectors
        if self.interaction == "dot":
            return self.embedding_dim + v * (v - 1) // 2
        return v * self.embedding_dim

    def bottom_layer_shapes(self) -> list[tuple[int, int]]:
        """(in, out) per Bottom MLP layer."""
        dims = (self.dense_features, *self.bottom_mlp)
        return list(zip(dims[:-1], dims[1:]))

    def top_layer_shapes(self) -> list[tuple[int, int]]:
        """(in, out) per Top MLP layer."""
        dims = (self.interaction_dim, *self.top_mlp)
        return list(zip(dims[:-1], dims[1:]))

    def mlp_layer_shapes(self) -> list[tuple[int, int]]:
        return self.bottom_layer_shapes() + self.top_layer_shapes()

    # -- Table II quantities ------------------------------------------------------

    @property
    def num_mlp_parameters(self) -> int:
        """All dense parameters: sum of fi*fo + fo over every MLP layer."""
        return sum(fi * fo + fo for fi, fo in self.mlp_layer_shapes())

    @property
    def allreduce_bytes(self) -> int:
        """Paper Eq. 1: allreduce volume per rank = the full MLP gradient.

        Independent of rank count and minibatch -- the strong-scaling
        bottleneck.
        """
        return self.num_mlp_parameters * FP32_BYTES

    def alltoall_bytes(self, global_minibatch: int | None = None) -> int:
        """Paper Eq. 2: total alltoall volume = S * N * E elements.

        Proportional to the *global* minibatch: constant under strong
        scaling, growing linearly under weak scaling.
        """
        n = self.global_minibatch if global_minibatch is None else global_minibatch
        return self.num_tables * n * self.embedding_dim * FP32_BYTES

    @property
    def embedding_bytes(self) -> int:
        """FP32 capacity of all embedding tables."""
        return sum(self.table_rows) * self.embedding_dim * FP32_BYTES

    @property
    def total_lookups(self) -> int:
        """Embedding rows read per single-socket iteration: S * N * P."""
        return self.num_tables * self.minibatch * self.lookups_per_table

    def required_memory_bytes(self) -> int:
        """Single-socket working-set estimate: tables + gradients of the
        touched rows + MLP weights/grads + activations.

        With the paper's ~17% overhead on top of the raw tables this
        reproduces "the large config ... needs minimum of 450GB DRAM".
        """
        act = self.minibatch * (self.interaction_dim + sum(self.bottom_mlp) + sum(self.top_mlp))
        grads = self.total_lookups * self.embedding_dim
        return int(
            self.embedding_bytes * 1.17
            + 3 * self.num_mlp_parameters * FP32_BYTES
            + (act + grads) * FP32_BYTES
        )

    def min_sockets(self, socket_capacity_bytes: float) -> int:
        """Smallest power-of-two socket count whose aggregate DRAM holds
        the working set (the paper scales in power-of-two rank steps)."""
        need = self.required_memory_bytes()
        r = 1
        while r * socket_capacity_bytes < need:
            r *= 2
            if r > self.max_ranks:
                raise ValueError(
                    f"{self.name}: does not fit even at the maximum rank count"
                )
        return r

    @property
    def max_ranks(self) -> int:
        """Embedding tables are distributed whole -> at most S ranks."""
        return self.num_tables

    # -- derived configs ---------------------------------------------------------------

    def scaled_down(self, rows_cap: int | None = 2000, minibatch: int | None = 64) -> "DLRMConfig":
        """The same topology with at most ``rows_cap`` rows a table and a
        ``minibatch`` of samples (global 4x, local 1x); None keeps either."""
        cfg = self
        if rows_cap is not None:
            cfg = replace(cfg, table_rows=tuple(min(m, rows_cap) for m in cfg.table_rows))
        if minibatch is not None:
            cfg = replace(cfg, minibatch=minibatch, global_minibatch=minibatch * 4, local_minibatch=minibatch)
        return cfg


# --- Paper Table I presets ------------------------------------------------

#: The DLRM release-paper model problem.
SMALL = DLRMConfig(
    name="small",
    minibatch=2048,
    global_minibatch=8192,
    local_minibatch=1024,
    lookups_per_table=50,
    embedding_dim=64,
    table_rows=(1_000_000,) * 8,
    dense_features=512,
    bottom_mlp=(512, 64),
    top_mlp=(1024, 1024, 1024, 1),
)

#: Small scaled in every aspect for scale-out runs.
LARGE = DLRMConfig(
    name="large",
    minibatch=2048,  # not runnable on one socket (Table I leaves it blank)
    global_minibatch=16384,
    local_minibatch=512,
    lookups_per_table=100,
    embedding_dim=256,
    table_rows=(6_000_000,) * 64,
    dense_features=2048,
    bottom_mlp=(2048,) * 7 + (256,),
    top_mlp=(4096,) * 15 + (1,),
)

#: The MLPerf recommendation benchmark (Criteo Terabyte).
MLPERF = DLRMConfig(
    name="mlperf",
    minibatch=2048,
    global_minibatch=16384,
    local_minibatch=2048,
    lookups_per_table=1,
    embedding_dim=128,
    table_rows=CRITEO_TB_CARDINALITIES,
    dense_features=13,
    bottom_mlp=(512, 256, 128),
    top_mlp=(1024, 1024, 512, 256, 1),
)

CONFIGS: dict[str, DLRMConfig] = {c.name: c for c in (SMALL, LARGE, MLPERF)}


def get_config(name: str) -> DLRMConfig:
    """Look up a paper config by name ('small', 'large', 'mlperf')."""
    try:
        return CONFIGS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown config {name!r}; have {sorted(CONFIGS)}") from None


def table_one() -> list[dict[str, object]]:
    """Rows of paper Table I as dictionaries (one per config)."""
    rows = []
    for cfg in CONFIGS.values():
        rows.append(
            {
                "config": cfg.name,
                "minibatch": cfg.minibatch,
                "global_minibatch_strong": cfg.global_minibatch,
                "local_minibatch_weak": cfg.local_minibatch,
                "lookups_per_table": cfg.lookups_per_table,
                "num_tables": cfg.num_tables,
                "embedding_dim": cfg.embedding_dim,
                "max_rows_per_table": max(cfg.table_rows),
                "bottom_mlp": "-".join(map(str, cfg.bottom_mlp)),
                "top_mlp": "-".join(map(str, cfg.top_mlp)),
            }
        )
    return rows


def table_two(socket_capacity_bytes: float = 192e9) -> list[dict[str, object]]:
    """Rows of paper Table II: distributed-run characteristics."""
    rows = []
    for cfg in CONFIGS.values():
        rows.append(
            {
                "config": cfg.name,
                "embedding_capacity_gb": cfg.embedding_bytes / 2**30,
                "min_sockets": cfg.min_sockets(socket_capacity_bytes),
                "max_ranks": cfg.max_ranks,
                "allreduce_mb": cfg.allreduce_bytes / 2**20,
                "alltoall_strong_mb": cfg.alltoall_bytes() / 2**20,
            }
        )
    return rows
