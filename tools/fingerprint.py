"""Print the bits a refactor must keep: names, digests, losses and served responses.

Run from the repository root with ``PYTHONPATH=src python3 tools/fingerprint.py``
on two trees and ``diff`` the outputs. Each line is a parameter-name digest,
an initial-parameter digest, a trainable count, a loss trajectory (float hex)
or a trainable/frozen digest after training, for the three builders and the
plain base; then the benchmark's train setup for both adapted builders and
the sha256 of 300 served responses per serve kind. It only prints, and
it imports the benchmark's setup code without changing it. It pins BLAS to
one thread, as ``benchmarks/run.py`` does, since products summed over other
thread counts round differently.
"""

import hashlib
import os
import sys
from fractions import Fraction
from pathlib import Path

# set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from genieblue import (  # noqa: E402
    StageConfig,
    TaskSpec,
    build_cogvlm,
    build_full_lora,
    build_genieblue,
    count_trainable,
    data,
    plan_placement,
    run_stage,
    synth_dataset,
)
from genieblue.model import ModelConfig, build_model  # noqa: E402
from genieblue.util import digest_tensors  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import workloads  # noqa: E402

config = ModelConfig()
ds = synth_dataset(TaskSpec("grid-caption", 64, seed=3))
place = plan_placement(config.n_layers, Fraction(1, 4), "skip")
makers = {
    "genieblue": lambda b: build_genieblue(b, place, rank=8, seed=1),
    "cogvlm": lambda b: build_cogvlm(b, place, rank=8, seed=1),
    "full_lora": lambda b: build_full_lora(b, rank=8, seed=1),
    "base": lambda b: b,
}
for name, make in makers.items():
    m = make(build_model(config, 1))
    params = m.named_parameters()
    print(name, "names", hashlib.sha256("\n".join(params).encode()).hexdigest())
    print(name, "init", digest_tensors(params))
    print(name, "count", count_trainable(m))
    for stage, steps in ((1, 2), (2, 3)):
        r = run_stage(m, StageConfig(stage=stage, total_steps=steps, batch_size=8), ds, seed=3)
        print(name, stage, "losses", [x.hex() for x in r.losses])
        print(name, stage, "trainable", r.trainable_digest_final, "frozen", r.frozen_digest_final)

for builder in ("build_genieblue", "build_cogvlm"):
    p = workloads.train_pass(*workloads.setup_train(builder, 13, config), 4, 16)
    print(builder, "bench losses", [x.hex() for x in p.report.losses])
    print(builder, "bench trainable", p.report.trainable_digest_final, "frozen", p.report.frozen_digest_final)
for kinds in (data.TEXT_KINDS, data.GRID_KINDS):
    deployment, requests = workloads.setup_serve(kinds, 13, config)
    print(kinds[0], "served", workloads.serve_pass(deployment, requests, config, count=300, check=False).digest)
