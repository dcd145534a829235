"""Embedding-exchange strategies (paper Sect. IV-B).

The hybrid-parallel DLRM runs embeddings model-parallel (each rank owns
whole tables, producing outputs for the *global* minibatch) and the MLPs
data-parallel (each rank works on its minibatch shard).  At the
interaction these must be realigned: each rank needs *all* S tables'
outputs, but only for its own N/R samples.  Three realisations are
compared in the paper:

* **ScatterList** -- Facebook's original multi-device scheme lifted to
  MPI: one scatter per table, S collective calls.  Slow: every call pays
  the backend's software overhead and the table owner's single port
  serialises the transfer.
* **Fused Scatter** -- coalesce each rank's local tables into one buffer,
  one scatter per *rank* (R calls).
* **Alltoall** -- the textbook HPC answer: a single personalised
  all-to-all moving S*N*E elements in total, spreading the traffic over
  every link at once.

All three move exactly the same data (an invariant the tests pin); only
the composed transfer cost differs.  Combined with the CCL backend, the
third becomes the paper's fastest "CCL-Alltoall" variant.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from repro.hw.network import CollectiveCost
from repro.obs.tracer import trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.cluster import CollectiveHandle, SimCluster


def _slice_for_rank(buf: np.ndarray, rank: int, n_ranks: int) -> np.ndarray:
    n = buf.shape[0]
    if n % n_ranks:
        raise ValueError(f"global minibatch {n} not divisible by {n_ranks} ranks")
    ln = n // n_ranks
    return buf[rank * ln : (rank + 1) * ln]


class ExchangeStrategy(ABC):
    """Forward: owner-held (GN, E) outputs -> per-rank (LN, E) slices of
    every table.  Backward: the exact transpose, returning (GN, E)
    gradients to each owner."""

    name: str = ""

    def __init__(self) -> None:
        #: (framework copy s per rank, transfer cost) of one exchange
        #: direction, priced once per (cluster, placement, table size).
        self._prices: dict[tuple, tuple[float, CollectiveCost]] = {}

    # -- functional redistribution (identical for every strategy) ---------

    def _redistribute_forward(
        self,
        emb_out: list[dict[int, np.ndarray]],
        owners: list[int],
        n_ranks: int,
    ) -> list[dict[int, np.ndarray]]:
        out: list[dict[int, np.ndarray]] = [{} for _ in range(n_ranks)]
        with trace("comm.alltoall.framework") as sp:
            moved = 0
            for t, owner in enumerate(owners):
                buf = emb_out[owner][t]
                moved += buf.nbytes
                for r in range(n_ranks):
                    out[r][t] = _slice_for_rank(buf, r, n_ranks).copy()
            sp.add(bytes=moved)
        return out

    def _redistribute_backward(
        self,
        demb: list[dict[int, np.ndarray]],
        owners: list[int],
        n_ranks: int,
    ) -> list[dict[int, np.ndarray]]:
        grads: list[dict[int, np.ndarray]] = [{} for _ in range(n_ranks)]
        with trace("comm.alltoall.framework") as sp:
            for t, owner in enumerate(owners):
                grads[owner][t] = np.concatenate(
                    [demb[r][t] for r in range(n_ranks)], axis=0
                )
            sp.add(bytes=sum(g.nbytes for d in grads for g in d.values()))
        return grads

    # -- strategy-specific transfer cost ------------------------------------

    @abstractmethod
    def _transfer_cost(
        self, cluster: "SimCluster", owners: list[int], table_bytes: float
    ) -> CollectiveCost:
        """Composite network cost of one exchange direction;
        ``table_bytes`` is the (GN, E) byte size of one table's output."""

    # -- public API ---------------------------------------------------------------

    def issue_timed(
        self,
        cluster: "SimCluster",
        owners: list[int],
        table_bytes: float,
        blocking: bool | None = None,
    ) -> "CollectiveHandle":
        """Charge the framework copies and issue the composed transfer.

        This is the timing half on its own -- the analytic iteration
        model (paper-scale benches) calls it directly; the functional
        :meth:`forward`/:meth:`backward` call it after moving real data.
        Framework charge: every rank packs and unpacks its share.
        """
        key = (cluster, tuple(owners), table_bytes)
        price = self._prices.get(key)
        if price is None:
            per_rank = table_bytes * len(owners) / cluster.n_ranks
            price = self._prices[key] = (
                cluster.cost.copy_time(2.0 * per_rank, cores=cluster.compute_cores),
                self._transfer_cost(cluster, owners, table_bytes),
            )
        copy_s, cost = price
        for r in cluster.ranks:
            cluster.clocks[r].advance(copy_s)
            cluster.profilers[r].add("comm.alltoall.framework", copy_s)
        return cluster.issue("alltoall", cost, blocking)

    def forward(
        self,
        cluster: "SimCluster",
        emb_out: list[dict[int, np.ndarray]],
        owners: list[int],
        blocking: bool | None = None,
    ) -> tuple[list[dict[int, np.ndarray]], "CollectiveHandle"]:
        table_bytes = self._table_bytes(emb_out, owners)
        out = self._redistribute_forward(emb_out, owners, cluster.n_ranks)
        handle = self.issue_timed(cluster, owners, table_bytes, blocking)
        return out, handle

    def backward(
        self,
        cluster: "SimCluster",
        demb: list[dict[int, np.ndarray]],
        owners: list[int],
        blocking: bool | None = None,
    ) -> tuple[list[dict[int, np.ndarray]], "CollectiveHandle"]:
        # One table's (GN, E) gradient = R per-rank (LN, E) slices.
        table_bytes = float(
            sum(demb[0][t].nbytes for t in range(len(owners)))
        ) / max(1, len(owners)) * cluster.n_ranks
        grads = self._redistribute_backward(demb, owners, cluster.n_ranks)
        handle = self.issue_timed(cluster, owners, table_bytes, blocking)
        return grads, handle

    @staticmethod
    def _table_bytes(emb_out: list[dict[int, np.ndarray]], owners: list[int]) -> float:
        for t, owner in enumerate(owners):
            if t in emb_out[owner]:
                return float(emb_out[owner][t].nbytes)
        raise ValueError("no embedding outputs present")

    def _extra_call_overhead(self, cluster: "SimCluster", calls: int) -> float:
        """Software overhead of the calls beyond the one charged by
        ``SimCluster.issue``."""
        return max(0, calls - 1) * cluster.backend.call_overhead_s


class ScatterListStrategy(ExchangeStrategy):
    """One scatter per table: S serialised root-scatters."""

    name = "scatterlist"

    def _transfer_cost(self, cluster, owners, table_bytes):
        participants = cluster.participants()
        transfer = latency = 0.0
        for t, owner in enumerate(owners):
            c = cluster.net.scatter(owner, participants, table_bytes)
            transfer += c.transfer
            latency += c.latency
        latency += self._extra_call_overhead(cluster, len(owners))
        return CollectiveCost(transfer, latency)


class FusedScatterStrategy(ExchangeStrategy):
    """Local tables coalesced into one buffer: R serialised scatters."""

    name = "fused"

    def _transfer_cost(self, cluster, owners, table_bytes):
        participants = cluster.participants()
        transfer = latency = 0.0
        calls = 0
        for root in cluster.ranks:
            local_tables = sum(1 for o in owners if o == root)
            if local_tables == 0:
                continue
            c = cluster.net.scatter(root, participants, table_bytes * local_tables)
            transfer += c.transfer
            latency += c.latency
            calls += 1
        latency += self._extra_call_overhead(cluster, calls)
        return CollectiveCost(transfer, latency)


class AlltoallStrategy(ExchangeStrategy):
    """One personalised all-to-all over the full exchange volume."""

    name = "alltoall"

    def _transfer_cost(self, cluster, owners, table_bytes):
        total = table_bytes * len(owners)
        return cluster.net.alltoall(cluster.participants(), total)


EXCHANGE_STRATEGIES: dict[str, type[ExchangeStrategy]] = {
    "scatterlist": ScatterListStrategy,
    "fused": FusedScatterStrategy,
    "alltoall": AlltoallStrategy,
}


def make_exchange(name: str) -> ExchangeStrategy:
    try:
        return EXCHANGE_STRATEGIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown exchange strategy {name!r}; have {sorted(EXCHANGE_STRATEGIES)}"
        ) from None
