"""Quickstart: declare a RunSpec, train it, and inspect the cost model.

The experiment is *data*: a :class:`repro.train.RunSpec` describing a
scaled-down version of the paper's *small* configuration (Table I),
turned into a live :class:`repro.train.Trainer` by ``make_trainer``.
The trainer owns the loop; a ``MetricLogger`` callback prints losses.
Afterwards the analytic cost model prices the same iteration at full
scale on the paper's Skylake socket -- reproducing the Fig. 7 headline
(reference vs. optimised).

Usage:  python examples/quickstart.py
"""

from repro.parallel.timing import single_socket_iteration
from repro.util import format_seconds
from repro.train import MetricLogger, RunSpec, make_trainer


def main(steps: int = 20, rows_cap: int = 5000, minibatch: int = 128) -> None:
    # --- functional training at laptop scale -----------------------------
    spec = RunSpec.from_dict(
        {
            "name": "quickstart",
            "model": {"config": "small", "rows_cap": rows_cap, "minibatch": minibatch},
            "data": {"name": "random", "seed": 1},
            "optimizer": {"name": "sgd", "lr": 0.05},
            "update": {"name": "racefree"},
            "schedule": {"steps": steps, "eval_size": minibatch},
        }
    )
    cfg = spec.build_config()
    print(f"config: {cfg.name}  (S={cfg.num_tables} tables, E={cfg.embedding_dim}, "
          f"N={cfg.minibatch})")

    logger = MetricLogger(print_every=5)
    trainer = make_trainer(spec, callbacks=[logger])
    print(f"\ntraining {steps} iterations on the random dataset:")
    trainer.fit()
    last_step, last_loss = logger.history[-1]
    print(f"  step {last_step:3d}  loss = {last_loss:.4f}")

    probs = trainer.predict_proba(trainer.dataset.batch(cfg.minibatch, 999))
    print(f"\npredictions on a held-out batch: mean CTR = {probs.mean():.3f}")

    # --- the paper-scale cost model ----------------------------------------
    print("\nmodelled single-socket iteration at paper scale (Fig. 7):")
    ref = single_socket_iteration("small", update="reference", gemm_impl="pytorch_mkl")
    opt_t = single_socket_iteration("small", update="racefree")
    print(f"  PyTorch v1.4 reference : {format_seconds(ref.iteration_time)}")
    print(f"  this work (race-free)  : {format_seconds(opt_t.iteration_time)}")
    print(f"  speed-up               : {ref.iteration_time / opt_t.iteration_time:.0f}x "
          f"(paper: 110x)")


if __name__ == "__main__":
    main()
