"""Step-by-step pipelined collectives (the paper's allreduce realisation)
-- a test oracle for the production fold, not on any ``src/`` path.

Sect. IV-A materialises the MLP-gradient allreduce as a reduce-scatter
followed by an allgather so the two phases can be pipelined against the
backward GEMMs (Fig. 2).  The canonical-tree folds in
:mod:`repro.comm.collectives` give the *semantics*; this module executes
the algorithm step by step, with explicit per-step sends -- so tests can
assert not just the result but the algorithm's defining property: every
rank transmits ``(R-1)/R * nbytes`` per phase (exactly so at power-of-two
rank counts; the bandwidth-optimality bound the cost model assumes).

Schedule:

* reduce-scatter: recursive halving over the *canonical summation tree*
  of :func:`repro.comm.collectives.tree_sum` -- contiguous rank groups
  merge bottom-up; at each merge, for every chunk, the group that does
  not keep custody ships its partial and the keeper combines
  ``left + right`` in tree order.  Custody descends toward the chunk's
  final holder, so after ``ceil(log2 R)`` merge levels rank r holds the
  fully-reduced chunk r -- combined at the same tree nodes in the same
  order as the direct fold, hence bitwise equal to
  ``array_split(tree_sum(bufs), R)``.
* allgather: the classic ring rotation, copying only (order-free).

Rank r returns chunk r of ``np.array_split`` over the first axis
(uneven sizes allowed, like MPI_Reduce_scatter with counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.collectives import _split


@dataclass
class RingTrace:
    """Byte accounting of one ring phase (for optimality assertions)."""

    steps: int = 0
    #: bytes each rank transmitted, indexed by rank.
    bytes_sent: list[float] = field(default_factory=list)

    def max_sent(self) -> float:
        return max(self.bytes_sent) if self.bytes_sent else 0.0


def _chunk(buf: np.ndarray, r: int) -> list[np.ndarray]:
    return [c.copy() for c in np.array_split(buf, r, axis=0)]


def ring_reduce_scatter(
    bufs: list[np.ndarray], trace: RingTrace | None = None
) -> list[np.ndarray]:
    """Ring reduce-scatter: rank r receives the r-th chunk of the sum."""
    r = len(bufs)
    if r == 0:
        raise ValueError("need at least one rank buffer")
    if r == 1:
        if trace is not None:
            trace.bytes_sent = [0.0]
        return [bufs[0].copy()]
    shapes = {b.shape for b in bufs}
    if len(shapes) != 1:
        raise ValueError(f"rank buffers disagree on shape: {shapes}")
    chunks = [_chunk(b, r) for b in bufs]  # chunks[rank][chunk_id]
    sent = [0.0] * r

    def merge(lo: int, hi: int) -> tuple[dict[int, tuple[int, np.ndarray]], int]:
        """Reduce ranks [lo, hi): returns ({chunk: (custodian, partial)},
        merge depth).  Leaves hold their own local chunk values."""
        if hi - lo == 1:
            return {cid: (lo, chunks[lo][cid]) for cid in range(r)}, 0
        mid = _split(lo, hi)
        left, dl = merge(lo, mid)
        right, dr = merge(mid, hi)
        state: dict[int, tuple[int, np.ndarray]] = {}
        for cid in range(r):
            lc, lp = left[cid]
            rc, rp = right[cid]
            # Custody follows the chunk's final holder (rank cid); ties
            # -- holder outside this group -- stay with the left child.
            if mid <= cid < hi:
                sent[lc] += lp.nbytes
                keeper = rc
            else:
                sent[rc] += rp.nbytes
                keeper = lc
            # Combine in canonical tree order: left partial + right partial.
            state[cid] = (keeper, lp + rp)
        return state, 1 + max(dl, dr)

    final, depth = merge(0, r)
    if trace is not None:
        trace.steps = depth
        trace.bytes_sent = sent
    # Custody descended toward each chunk's final holder: rank c has chunk c.
    return [final[cid][1] for cid in range(r)]


def ring_allgather(
    chunks_in: list[np.ndarray], trace: RingTrace | None = None
) -> list[np.ndarray]:
    """Ring allgather: every rank assembles [chunk_0 .. chunk_{R-1}]."""
    r = len(chunks_in)
    if r == 0:
        raise ValueError("need at least one rank chunk")
    if r == 1:
        if trace is not None:
            trace.bytes_sent = [0.0]
        return [chunks_in[0].copy()]
    have: list[dict[int, np.ndarray]] = [
        {rank: chunks_in[rank].copy()} for rank in range(r)
    ]
    sent = [0.0] * r
    for step in range(r - 1):
        outgoing = []
        for rank in range(r):
            cid = (rank - step) % r
            outgoing.append((rank, (rank + 1) % r, cid, have[rank][cid].copy()))
        for src, dst, cid, payload in outgoing:
            have[dst][cid] = payload
            sent[src] += payload.nbytes
    if trace is not None:
        trace.steps = r - 1
        trace.bytes_sent = sent
    return [
        np.concatenate([have[rank][cid] for cid in range(r)], axis=0)
        for rank in range(r)
    ]


def ring_allreduce(
    bufs: list[np.ndarray], trace: RingTrace | None = None
) -> list[np.ndarray]:
    """Reduce-scatter + allgather: the paper's overlappable allreduce.

    The combined trace shows each rank sending ``2 (R-1)/R`` of the
    buffer -- the classic bandwidth-optimal bound.
    """
    rs_trace = RingTrace() if trace is not None else None
    scattered = ring_reduce_scatter(bufs, rs_trace)
    ag_trace = RingTrace() if trace is not None else None
    gathered = ring_allgather(scattered, ag_trace)
    if trace is not None:
        trace.steps = rs_trace.steps + ag_trace.steps
        trace.bytes_sent = [
            a + b for a, b in zip(rs_trace.bytes_sent, ag_trace.bytes_sent)
        ]
    # Restore the original leading-axis length (array_split may have
    # produced uneven chunks; concatenation already handles it).
    return gathered
