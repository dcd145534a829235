"""Twenty steps of the benchmark's training specs at test scale, digested.

Run as a script (``PYTHONPATH=<src>:<repo> python tests/train/step_bits.py
[checkpoint.npz]``) it prints one JSON object: for each workload of
:data:`WORKLOADS` and each executor it runs on, the loss bits, the
``state_digest`` of the consolidated model and optimizer state and the
rank clocks after :data:`STEPS` steps.  With a path it also saves the
``train_bf16`` local run at step :data:`CHECKPOINT_STEP` there, and
``resumed`` is what that file reaches once resumed for the remaining
steps.  ``tests/train/data/parent_15082ab_expected.json`` is this output
with commit 15082ab's ``src/`` on the path; ``test_slab_executors.py``
runs it against the working tree.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.train import RunSpec, Trainer

from tests.train.test_slab_executors import host_fingerprint, state_digest

REPO = Path(__file__).resolve().parents[2]
WORKLOADS = ("train_emb", "train_emb_tiered", "train_bf16", "train_dist4")
STEPS = 20
CHECKPOINT_STEP = 10
#: Test scale: the workload's optimizer, update strategy, storage, data
#: set, tiering and rank count over tables and MLPs a tier-1 test can
#: afford (1 024 Zipf look-ups into 320 rows still makes runs longer
#: than the fold's head).
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


def executors(spec: dict) -> dict[str, tuple[dict, dict]]:
    """Executor name -> (the spec it runs, ``Trainer.from_spec`` keywords)."""
    ranks = spec.get("parallel", {}).get("ranks", 1)
    parallel = {**spec.get("parallel", {}), "ranks": max(ranks, 2), "platform": "cluster"}
    multi = {**spec, "parallel": parallel}
    runs = {
        "inline": (multi, {"backend": "thread"}),
        "process": (multi, {"backend": "process", "workers": 2}),
    }
    if ranks == 1:
        runs["local"] = (spec, {})
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


def main(checkpoint: str | None = None) -> dict:
    out: dict = {"host": host_fingerprint(), "steps": STEPS, "runs": {}}
    for name in WORKLOADS:
        for executor, (spec, how) in executors(at_test_scale(name)).items():
            trainer = Trainer.from_spec(RunSpec.from_dict(spec), **how)
            try:
                if checkpoint and (name, executor) == ("train_bf16", "local"):
                    trainer.fit(CHECKPOINT_STEP)
                    trainer.save_checkpoint(checkpoint)
                    trainer.fit(STEPS - CHECKPOINT_STEP)
                else:
                    trainer.fit(STEPS)
                out["runs"][f"{name}/{executor}"] = digest(trainer)
            finally:
                trainer.close()
    if checkpoint:
        resumed = Trainer.from_checkpoint(checkpoint)
        try:
            resumed.fit(STEPS - CHECKPOINT_STEP)
            out["resumed"] = digest(resumed)
        finally:
            resumed.close()
    return out


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:2]), indent=1))
