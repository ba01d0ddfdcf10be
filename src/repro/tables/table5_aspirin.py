"""Table T5 — §7.4 Figure 7a: the aspirin-count query, Conclave vs SMCQL.

* **conclave** — SMCQL's slicing, applied by hand as in the paper: the
  single-party slices are counted locally in Spark, and the shared
  slices run through the compiled aspirin plan (``compile_query`` +
  ``Engine.run``: §5.3 public join, then a distinct count over the
  public patient ID) on the secret-sharing backend. The clear Spark
  work dominates; only shared-patient rows see MPC, where the count is
  share-local sums per patient and one equality batch over the
  patients. The point's hybrid clock spans the slicing, the local
  counts and the engine.
* **smcql** — slicing + one ObliVM garbled-circuit MPC per shared
  patient slice (quadratic within slices, ~1 s setup per slice), which
  puts 40k rows in the ~15-minute regime and DNFs beyond, as in the
  paper.

Inputs use the paper's HealthLNK-like setting: 2% patient-ID overlap
between the two hospitals.

:func:`repro.bench_util.sweep` drives :data:`SIZES` through :func:`point`.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..mpc.accounting import Meter
from ..queries import aspirin as Q
from ..smcql.runners import run_aspirin_conclave, run_aspirin_smcql

#: system -> (full, quick) rows per party
SIZES = {
    "conclave": ([4000, 40_000, 400_000, 4_000_000], [4000, 40_000]),
    "smcql": ([4000, 40_000, 400_000], [4000, 40_000]),
}


def point(spark: SparkSession, system: str, n_per_party: int) -> Meter:
    gen = Q.gen_inputs(n_per_party=n_per_party, overlap_frac=0.02, seed=1)
    runner = run_aspirin_conclave if system == "conclave" else run_aspirin_smcql
    _, meter = runner(spark, gen)
    return meter

