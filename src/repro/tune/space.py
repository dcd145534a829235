"""Search space: which RunSpec/ServeParams knobs ``repro tune`` may turn.

A :class:`Knob` is an *ordered* list of candidate values plus an
``expand`` function turning one value into the dotted-path overrides it
implies.  Ordered matters twice: (a) sampling indexes values through a
seeded :class:`random.Random`, so the arm pool is a pure function of
the seed, and (b) the bottleneck attributor steers mutation as "step
this knob up/down", which only makes sense along a monotone axis
(bucket_mb up = fewer/larger buckets, prefetch up = deeper pipeline).

Coupled knobs expand to *several* overrides so no invalid intermediate
spec ever exists: ``precision="split_bf16"`` also switches the
optimizer to ``split_sgd`` (RunSpec validation makes them imply each
other), and ``tiering="auto"`` enables tiering *and* hands table
placement to the planner.  Cross-knob conflicts that expansion cannot
express (tiering requires FP32 storage) are handled by construction
validation: :meth:`SearchSpace.sample` applies every candidate overlay
to the base spec and resamples the ones RunSpec rejects, so the arm
pool only ever contains buildable configurations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.train.spec import RunSpec

#: Overlay = dotted-path overrides, the unit the tuner passes around.
Overlay = dict[str, Any]


def _single(path: str) -> Callable[[Any], Overlay]:
    return lambda value: {path: value}


def _expand_precision(value: Any) -> Overlay:
    if value == "split_bf16":
        return {"precision.storage": "split_bf16", "optimizer.name": "split_sgd"}
    return {"precision.storage": "fp32", "optimizer.name": "sgd"}


def _expand_tiering(value: Any) -> Overlay:
    if value == "auto":
        return {"tiering.enabled": True, "parallel.placement": "auto"}
    if value == "on":
        return {"tiering.enabled": True}
    return {"tiering.enabled": False}


@dataclass(frozen=True)
class Knob:
    """One tunable axis: a name, ordered values, and their expansion."""

    name: str
    values: tuple[Any, ...]
    expand: Callable[[Any], Overlay]

    def overlay(self, value: Any) -> Overlay:
        if value not in self.values:
            raise ValueError(f"knob {self.name}: {value!r} not in {self.values}")
        return self.expand(value)


@dataclass
class SearchSpace:
    """The knob set for one tuning run, bound to a base spec.

    ``validate`` turns a candidate overlay into a constructed object (a
    RunSpec or ServeParams), raising on invalid combinations; sampling
    uses it to reject-and-resample, so every arm the tuner sees builds.
    """

    knobs: list[Knob]
    validate: Callable[[Overlay], Any]
    #: Per-arm chance a knob moves off its base value (rest stay default,
    #: keeping arms near the topology-aware starting point).
    flip_prob: float = 0.5
    #: canonical overlay -> the knob assignment that built it.
    _assignments: dict[tuple, dict[str, Any]] = field(default_factory=dict)

    # -- construction -------------------------------------------------------

    @classmethod
    def train_space(cls, base: RunSpec) -> "SearchSpace":
        """The RunSpec knobs, conditioned on the base topology.

        Distributed-only knobs (bucket_mb, exec backend/workers) are
        omitted for single-process specs; batch candidates stay
        divisible by the rank count so every sampled arm validates.
        """
        cfg = base.build_config()
        batch = base.train_batch_size(cfg)
        ranks = base.parallel.ranks
        halved = max(ranks, (batch // 2 // max(ranks, 1)) * max(ranks, 1))
        batches = tuple(sorted({halved, batch, batch * 2}))
        knobs = [
            Knob("batch_size", batches, _single("schedule.batch_size")),
            Knob("precision", ("fp32", "split_bf16"), _expand_precision),
            Knob("tiering", ("off", "on", "auto"), _expand_tiering),
            Knob(
                "coverage_threshold",
                (0.3, 0.5, 0.7),
                _single("tiering.coverage_threshold"),
            ),
        ]
        if ranks > 1:
            knobs += [
                Knob("bucket_mb", (1.0, 4.0, 16.0), _single("parallel.bucket_mb")),
                Knob(
                    "exec_backend",
                    ("thread", "process"),
                    _single("parallel.exec_backend"),
                ),
                Knob(
                    "exec_workers",
                    tuple(sorted({1, 2, min(4, ranks), ranks})),
                    _single("parallel.exec_workers"),
                ),
            ]

        def validate(overlay: Overlay) -> RunSpec:
            return base.with_overrides(overlay)

        return cls(knobs=knobs, validate=validate)

    @classmethod
    def serve_space(cls, base: Any) -> "SearchSpace":
        """ServeParams knobs (flat field names, no sections).

        ``base`` is a :class:`repro.serve.driver.ServeParams`; overlays
        are plain field replacements validated by ``dataclasses.replace``
        plus one :func:`run_serving`-independent sanity pass.
        """
        import dataclasses

        knobs = [
            Knob("policy", ("static", "dynamic", "adaptive"), _single("policy")),
            Knob(
                "router",
                ("round_robin", "least_loaded", "cache_affinity"),
                _single("router"),
            ),
            Knob("replicas", (2, 4, 8), _single("replicas")),
            Knob("max_batch_samples", (64, 256, 1024), _single("max_batch_samples")),
            Knob("cache_rows", (2048, 8192, 32768), _single("cache_rows")),
            Knob("cache_policy", ("lru", "lfu"), _single("cache_policy")),
        ]

        def validate(overlay: Overlay) -> Any:
            return dataclasses.replace(base, **overlay)

        return cls(knobs=knobs, validate=validate)

    # -- sampling -----------------------------------------------------------

    def canonical(self, overlay: Overlay) -> tuple:
        """Hashable dedup key: two arms with equal overlays are one arm."""
        return tuple(sorted(overlay.items()))

    def _overlay_of(self, assignment: dict[str, Any]) -> Overlay:
        """Expand a knob assignment, in knob order, into its overlay."""
        overlay: Overlay = {}
        for knob in self.knobs:
            if knob.name in assignment:
                overlay.update(knob.overlay(assignment[knob.name]))
        return overlay

    def _admit(self, overlay: Overlay, assignment: dict[str, Any]) -> bool:
        """Whether ``overlay`` builds; if so, remember what it came from."""
        try:
            self.validate(overlay)
        except (ValueError, KeyError):
            return False
        self._assignments[self.canonical(overlay)] = assignment
        return True

    def assignment_of(self, overlay: Overlay) -> dict[str, Any]:
        """The knob->value assignment an overlay was built from.

        Empty for overlays this space did not produce (e.g. the
        all-defaults arm, whose overlay is ``{}``).
        """
        return dict(self._assignments.get(self.canonical(overlay), {}))

    def sample(self, n: int, rng: random.Random) -> list[Overlay]:
        """``n`` distinct valid overlays, deterministic in ``rng``'s seed.

        Each draw flips each knob off its first (default-ish) value with
        ``flip_prob``; invalid combinations and duplicates are redrawn,
        up to ``200 * n`` draws in all.  Returns fewer than ``n`` only
        when the space is exhausted.
        """
        seen: set[tuple] = set()
        out: list[Overlay] = []
        tries = 0
        while len(out) < n and tries < 200 * n:
            tries += 1
            assignment = {
                knob.name: rng.choice(knob.values)
                for knob in self.knobs
                if rng.random() < self.flip_prob
            }
            overlay = self._overlay_of(assignment)
            key = self.canonical(overlay)
            if key in seen or not overlay or not self._admit(overlay, assignment):
                continue
            seen.add(key)
            out.append(overlay)
        return out

    # -- mutation -----------------------------------------------------------

    def step(
        self, overlay: Overlay, knob_name: str, direction: int
    ) -> Overlay | None:
        """The overlay with ``knob_name`` stepped one value up/down.

        Returns None when the knob is absent from this space, already at
        its boundary, or the stepped overlay fails validation -- the
        tuner then simply mutates nothing for that survivor.
        """
        knob = next((k for k in self.knobs if k.name == knob_name), None)
        if knob is None:
            return None
        assignment = self.assignment_of(overlay)
        current = assignment.get(knob_name, knob.values[0])
        idx = knob.values.index(current) + (1 if direction >= 0 else -1)
        if not 0 <= idx < len(knob.values):
            return None
        assignment[knob_name] = knob.values[idx]
        mutated = self._overlay_of(assignment)
        if not mutated or self.canonical(mutated) == self.canonical(overlay):
            return None
        return mutated if self._admit(mutated, assignment) else None
