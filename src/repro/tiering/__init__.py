"""Frequency-aware embedding tiering (hot/cold rows + placement planning).

The paper's scaling story is bottlenecked by embedding tables, and the
workload-characterization literature (Gupta et al., Acun et al.) shows a
small Zipf head of rows absorbing most look-ups.  This package turns
that skew into capacity and speed:

* :mod:`repro.tiering.freqstats` -- streaming per-table row-access
  frequency counters (exact for small tables, count-min + top-K for
  large ones), fed from :class:`~repro.core.embedding.EmbeddingBag`
  gathers or a profiling pass over the deterministic dataset, and
  seedable from the serving cache's hit statistics.
* :mod:`repro.tiering.planner` -- a placement planner that consumes a
  frequency snapshot plus :class:`~repro.hw.costmodel.CostModel` gather
  costs and emits a :class:`~repro.tiering.planner.TieredPlacement`
  (per-table flat vs. hot/cold storage, plus cost-balanced table-to-rank
  owners): ``placement="auto"`` next to ``round_robin`` and
  ``balanced``.
* :mod:`repro.tiering.store` -- :class:`~repro.tiering.store.TieredEmbeddingBag`,
  tiering as a permutation: the table's rows in hot-first order (the
  pinned-hot ids are the prefix) on a file mapping, plus the id -> row
  map; inside a model the rows stay in the embedding slab.  Bit-identical
  to the flat table for any plan.
"""
