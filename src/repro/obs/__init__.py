"""repro.obs: wall-clock tracing spans, aggregation and export.

The virtual-clock :class:`~repro.parallel.cluster.Profiler` answers "what
*would* this cost at paper scale"; this package answers "where did the
wall-clock time of *this run on this machine* actually go".  A process
(or worker process) installs one :class:`Tracer`; instrumented code
paths open nested spans through :func:`~repro.obs.tracer.trace`, which record into
per-thread ring buffers (the hot path is a clock read and an index
bump, and with tracing disabled the whole call collapses to one global
load and a no-op context manager).  Drained spans merge across threads
and worker processes into a single rank-attributed timeline which
exports as structured JSONL, as a Chrome ``trace_event`` file viewable
in Perfetto, or as the per-stage aggregate table the Trainer/serve/CLI
summaries print.

All exported events carry :data:`~repro.obs.tracer.TELEMETRY_SCHEMA`; consumers
(``repro trace``, :func:`~repro.obs.export.read_jsonl`) refuse mismatched
versions instead of misreading them.
"""

from repro.obs.tracer import Tracer, set_tracer

__all__ = ["Tracer", "set_tracer"]
