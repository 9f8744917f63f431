"""The benchmark's named workloads and the synthetic teacher data.

Every workload runs 4 replicas with swap interval 50; they differ in
data size, proposal, surrogate use and schedule, so that each stresses
a different layer (see README.md in this directory).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sapt.data import make_dataset, save_csv

REPLICAS = 4
SWAP_INTERVAL = 50

SYNTH_ROWS = 20_000
SYNTH_FEATURES = 16
SYNTH_CLASSES = 3
SYNTH_HIDDEN = 12


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str            # registered name, or "synth" for teacher data
    proposal: str           # "rw" or "lg", as the CLI's --proposal
    surrogate_prob: float
    steps_per_replica: int
    sequential: bool        # the schedule the end-to-end run uses
    seeds_per_run: int      # sampler seeds whose accuracy and ESS are pooled
    hidden: int | None = None

    @property
    def total_samples(self) -> int:
        return REPLICAS * self.steps_per_replica


WORKLOADS = {
    w.name: w for w in (
        Workload("iris-lg", "iris", "lg", 0.0, 2000, sequential=False,
                 seeds_per_run=16),
        Workload("cancer-surrogate", "cancer", "rw", 0.5, 2000,
                 sequential=True, seeds_per_run=10),
        Workload("synth-large", "synth", "rw", 0.5, 200, sequential=False,
                 seeds_per_run=4, hidden=SYNTH_HIDDEN),
    )
}


def teacher_dataset(seed: int):
    """Labelled data drawn from a random one-hidden-layer teacher network.

    Features are standard normals rounded to 4 decimals (short CSV
    fields); labels are sampled from the teacher's softmax, with the
    logits centred per class so that the classes come out near
    balanced. Everything is drawn from default_rng(seed).
    """
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(SYNTH_ROWS, SYNTH_FEATURES)), 4)
    w = rng.normal(0.0, 2.0 / np.sqrt(SYNTH_FEATURES),
                   size=(SYNTH_FEATURES, SYNTH_HIDDEN))
    v = rng.normal(0.0, 3.0 / np.sqrt(SYNTH_HIDDEN),
                   size=(SYNTH_HIDDEN, SYNTH_CLASSES))
    logits = np.tanh(x @ w) @ v
    logits -= logits.mean(axis=0)
    gumbel = -np.log(-np.log(rng.uniform(size=logits.shape)))
    labels = np.argmax(logits + gumbel, axis=1)
    return make_dataset(x, labels, SYNTH_CLASSES, name="synth")


def write_teacher_csv(seed: int, path) -> None:
    """Write teacher_dataset(seed) as a label-last CSV at path."""
    save_csv(teacher_dataset(seed), path)
