"""Retained checkpoint ring with automatic fallback past corruption.

A :class:`CheckpointRing` owns one directory of step-stamped durable
checkpoints (``ckpt-00000040.npz`` …), keeps the newest ``keep`` files,
and loads "the latest *good* one": a candidate failing CRC/archive
verification is quarantined (renamed ``*.corrupt``) and the previous
entry is tried -- so a torn or bit-flipped latest checkpoint costs a few
extra replay steps, never the run.  A directory may hold another run's
entries: a save removes every entry past its own step, and a restore
takes only an entry whose embedded spec is the run's own.

:class:`RingCheckpoint` is the trainer callback flavour: save every N
steps plus one final save, all through the ring.  A restarting
:meth:`Trainer.fit <repro.train.trainer.Trainer.fit>` restores from the
same ring after a failure.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.resilience.errors import CheckpointCorrupt
from repro.train.callbacks import Callback
from repro.train.checkpoint import Checkpoint, load_checkpoint
from repro.train.spec import RunSpec

_ENTRY = re.compile(r"^ckpt-(\d{8})\.npz$")


class CheckpointRing:
    """The newest ``keep`` checkpoints of one run, as files."""

    def __init__(self, directory: str | Path, keep: int = 3):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.keep = keep

    @classmethod
    def of(cls, spec: RunSpec) -> "CheckpointRing":
        """The ring a spec's ``resilience`` section names."""
        res = spec.resilience
        return cls(res.ring_dir or f"checkpoints/{spec.name}-ring", keep=res.ring_keep)

    def path_for(self, step: int) -> Path:
        return self.directory / f"ckpt-{step:08d}.npz"

    def entries(self) -> list[Path]:
        """Ring files, oldest first (quarantined files excluded)."""
        if not self.directory.is_dir():
            return []
        return sorted(
            p for p in self.directory.iterdir() if _ENTRY.match(p.name)
        )

    def save(self, trainer) -> Path:
        """Checkpoint ``trainer`` into the ring and prune it.

        Idempotent per step (replay after recovery rewrites the same
        file with the same bits -- the bit-exactness contract).
        """
        path = self.path_for(trainer.step)
        trainer.save_checkpoint(path)
        self.prune(path)
        return path

    def prune(self, newest: Path) -> None:
        """Keep the ``keep`` entries up to ``newest``.  Entries past it
        are another run's or steps this run is replaying, so a stale
        entry never outlives -- or evicts -- one of the run's own."""
        entries = self.entries()
        mine = entries[: entries.index(newest) + 1]
        for stale in entries[len(mine):] + mine[: -self.keep]:
            stale.unlink(missing_ok=True)

    def load_latest(self, spec: RunSpec, at_most: int) -> tuple[Checkpoint, Path] | None:
        """The newest verifiable checkpoint (with its path) at or below
        step ``at_most`` whose embedded spec is ``spec``, walking past --
        and quarantining -- corrupt entries.  None when the ring holds
        no such checkpoint."""
        for path in reversed(self.entries()):
            if int(_ENTRY.match(path.name)[1]) > at_most:
                continue
            try:
                ckpt = load_checkpoint(path, verify=True)
            except CheckpointCorrupt:
                path.replace(path.with_suffix(path.suffix + ".corrupt"))
                continue
            if ckpt.spec == spec:
                return ckpt, path
        return None


class RingCheckpoint(Callback):
    """Save into a :class:`CheckpointRing` every ``every`` steps, and
    once more at fit end (so the ring always holds the final state)."""

    def __init__(self, directory: str | Path, every: int, keep: int = 3):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.ring = CheckpointRing(directory, keep=keep)
        self.every = every

    def on_step_end(self, trainer, step: int, loss: float) -> None:
        if trainer.step % self.every == 0:
            self._save(trainer)

    def on_fit_end(self, trainer) -> None:
        if trainer.step and trainer.step % self.every != 0:
            self._save(trainer)

    def _save(self, trainer) -> None:
        path = self.ring.save(trainer)
        faults = getattr(trainer, "faults", None)
        if faults is not None:
            point = faults.fire("ckpt.save", step=trainer.step)
            if point is not None and point.action == "corrupt":
                from repro.resilience.faults import corrupt_file

                corrupt_file(path)
