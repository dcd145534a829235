"""The serving simulation on 27 operating points, digested.

Run as a script (``PYTHONPATH=<src>:<repo> python tests/serve/dispatch_bits.py``)
it prints one JSON object: for every router x batcher policy x fault plan
of :data:`ROUTERS`, :data:`POLICIES` and :data:`FAULTS`, the sha256 of the
per-request latencies' ``float.hex()``, the makespan, each replica's
``(batches, samples, hits, misses, busy_s)``, the summary row and -- for
the fault plans -- the degradation ledger and a digest of its events.
The simulation runs on virtual clocks, so the output is the same on every
host.  ``tests/serve/data/parent_7541f89_expected.json`` is this output
with commit 7541f89's ``src/`` on the path, where a fault-free run still
took the plain ``ReplicaSet.serve`` loop and a fault run
``ResilientReplicaSet.serve``; ``test_dispatch_bits.py`` holds the one
loop that replaced both to it.
"""

from __future__ import annotations

import functools
import hashlib
import json

from repro.core.config import get_config
from repro.serve import ServeParams, run_serving
from repro.serve.batcher import StreamConfig, poisson_stream
from repro.serve.driver import ServingWorkload

ROUTERS = ("round_robin", "least_loaded", "cache_affinity")
POLICIES = ("static", "dynamic", "adaptive")
#: No plan, a replica death, and errors enough to open a breaker (the
#: default threshold is three) and later readmit the replica.
FAULTS = {
    "none": "",
    "die": "serve.replica:replica=1,action=die",
    "error": "serve.replica:replica=2,action=error,count=4",
}
#: Three ``large`` replicas just keep up with this stream while its
#: batches are still closed by the deadline (so the batcher policies plan
#: differently); every run queues past the default policy's shed line,
#: so the fault cells hedge, shed, trip a breaker and readmit, and the
#: fault-free cells show that a run given no plan does none of it.
LOAD = dict(config="large", requests=240, mean_qps=2500.0, replicas=3, seed=1)
LEDGER = ("retries", "hedges", "shed_requests", "dead_replicas", "breaker_trips")


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cells() -> list[tuple[str, str, str]]:
    return [(r, p, f) for r in ROUTERS for p in POLICIES for f in FAULTS]


@functools.lru_cache(maxsize=None)
def shared():
    """The cells replay one stream over one index memo, as a sweep does."""
    stream = poisson_stream(
        StreamConfig(requests=LOAD["requests"], mean_qps=LOAD["mean_qps"], seed=LOAD["seed"])
    )
    return ServingWorkload(get_config(LOAD["config"]), seed=LOAD["seed"]), stream


def digest(router: str, policy: str, fault: str) -> dict:
    """What one cell's run produced, floats as ``float.hex()``."""
    workload, stream = shared()
    result, row = run_serving(
        ServeParams(router=router, policy=policy, fault=FAULTS[fault], **LOAD),
        workload=workload,
        stream=stream,
    )
    out = {
        "latencies": _sha(",".join(x.hex() for x in result.latencies.tolist())),
        "makespan_s": result.makespan_s.hex(),
        "replicas": [
            [r.batches, r.samples, r.hits, r.misses, float(r.busy_s).hex()]
            for r in result.replicas
        ],
        "row": {key: _bits(value) for key, value in row.items()},
    }
    if fault != "none":
        out["ledger"] = {key: getattr(result, key) for key in LEDGER}
        out["events"] = _sha(json.dumps(result.events, sort_keys=True))
    return out


if __name__ == "__main__":
    print(json.dumps({"/".join(c): digest(*c) for c in cells()}, indent=1, sort_keys=True))
