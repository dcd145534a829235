"""Twenty steps of the benchmark's training specs at test scale, digested.

Run as a script (``PYTHONPATH=<src>:<repo> python tests/train/step_bits.py
[checkpoint.npz [suite]]``) it prints one JSON object: for each case of
the suite (:data:`SUITES`; ``workloads`` unless named) and each executor
it runs on, the loss bits, the ``state_digest`` of the consolidated model
and optimizer state and the rank clocks after :data:`STEPS` steps.  With
a path it also saves the local run of every case :func:`checkpoints`
lists at step :data:`CHECKPOINT_STEP`, and ``resumed`` is, by case, what
each file reaches once resumed for the remaining steps; ``kernels`` is
the kernel tier the process ran (``CC=/bin/false`` selects ``numpy``).
``tests/train/data/parent_15082ab_expected.json`` is the ``workloads``
output with commit 15082ab's ``src/`` on the path and
``parent_82d76ee_expected.json`` the ``optimizers`` output with commit
82d76ee's; ``test_slab_executors.py`` runs both against the working tree.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.kernels import native
from repro.train import RunSpec, Trainer

from tests.conftest import host_fingerprint
from tests.train.test_slab_executors import state_digest

REPO = Path(__file__).resolve().parents[2]
WORKLOADS = ("train_emb", "train_emb_tiered", "train_bf16", "train_dist4")
#: The ``optimizers`` suite: ``train_dist4`` under each dense optimizer
#: the benchmark's own workloads leave out.
OPTIMIZERS = {
    "momentum": {"name": "sgd", "lr": 0.05, "kwargs": {"momentum": 0.9}},
    "adagrad": {"name": "adagrad", "lr": 0.05},
    "master_weight": {"name": "master_weight", "lr": 0.05},
}
SUITES = ("workloads", "optimizers")
STEPS = 20
CHECKPOINT_STEP = 10
#: Test scale: the workload's optimizer, update strategy, storage, data
#: set, tiering and rank count over tables and MLPs a tier-1 test can
#: afford (1 024 Zipf look-ups into 320 rows still makes runs dozens
#: of look-ups long).
MODEL_SCALE = {"embedding_dim": 8, "bottom_mlp": [16, 8], "top_mlp": [32, 16, 1]}
BATCH = 32


def at_test_scale(name: str) -> dict:
    spec = json.loads((REPO / "benchmarks/suite/workloads" / f"{name}.json").read_text())
    overrides = spec["model"]["overrides"]
    overrides.update(MODEL_SCALE, table_rows=[320] * len(overrides["table_rows"]))
    spec["schedule"].update(steps=STEPS, batch_size=BATCH, eval_size=BATCH)
    if "tiering" in spec:
        spec["tiering"].update(hot_rows=32, min_table_rows=64)
    return spec


def cases(suite: str) -> dict[str, dict]:
    """Case name -> spec, for one of :data:`SUITES`."""
    if suite == "workloads":
        return {name: at_test_scale(name) for name in WORKLOADS}
    return {
        f"train_dist4+{key}": {**at_test_scale("train_dist4"), "optimizer": optimizer}
        for key, optimizer in OPTIMIZERS.items()
    }


def checkpoints(path: str, suite: str) -> dict[str, str]:
    """Case name -> where its local run is saved at :data:`CHECKPOINT_STEP`:
    ``path`` for ``train_bf16``, ``<stem>_<optimizer>.npz`` beside it
    for each case of the ``optimizers`` suite."""
    if suite == "workloads":
        return {"train_bf16": path}
    stem = Path(path)
    return {
        f"train_dist4+{key}": str(stem.with_name(f"{stem.stem}_{key}.npz")) for key in OPTIMIZERS
    }


def executors(spec: dict, local: bool = False) -> dict[str, tuple[dict, dict]]:
    """Executor name -> (the spec it runs, ``Trainer.from_spec`` keywords);
    ``local`` adds the one-rank run to a multi-rank spec."""
    ranks = spec.get("parallel", {}).get("ranks", 1)
    parallel = {**spec.get("parallel", {}), "ranks": max(ranks, 2), "platform": "cluster"}
    multi = {**spec, "parallel": parallel}
    runs = {
        "inline": (multi, {"backend": "thread"}),
        "process": (multi, {"backend": "process", "workers": 2}),
    }
    if ranks == 1 or local:
        runs["local"] = ({k: v for k, v in spec.items() if k != "parallel"}, {})
    return runs


def digest(trainer: Trainer) -> dict:
    model_state, opt_state = trainer._executor.state_dicts()
    losses = [float(x).hex() for x in trainer.losses]
    return {
        "losses": hashlib.sha256(" ".join(losses).encode()).hexdigest(),
        "final_loss": losses[-1],
        "model": state_digest(model_state),
        "optimizer": state_digest(opt_state),
        "rank_clocks": [c.hex() for c in trainer._executor.clocks()],
    }


def resume(checkpoint: str) -> dict:
    resumed = Trainer.from_checkpoint(checkpoint)
    try:
        resumed.fit(STEPS - CHECKPOINT_STEP)
        return digest(resumed)
    finally:
        resumed.close()


def main(checkpoint: str | None = None, suite: str = "workloads") -> dict:
    out: dict = {"host": host_fingerprint(), "steps": STEPS, "runs": {}}
    saved = checkpoints(checkpoint, suite) if checkpoint else {}
    for name, case in cases(suite).items():
        for executor, (spec, how) in executors(case, local=suite == "optimizers").items():
            trainer = Trainer.from_spec(RunSpec.from_dict(spec), **how)
            try:
                if executor == "local" and name in saved:
                    trainer.fit(CHECKPOINT_STEP)
                    trainer.save_checkpoint(saved[name])
                    trainer.fit(STEPS - CHECKPOINT_STEP)
                else:
                    trainer.fit(STEPS)
                out["runs"][f"{name}/{executor}"] = digest(trainer)
            finally:
                trainer.close()
    if saved:
        out["resumed"] = {name: resume(path) for name, path in saved.items()}
    out["kernels"] = native.tier()
    return out


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:3]), indent=1))
