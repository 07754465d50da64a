"""The per-layer metrics of the traced run, defined once.

Each group names the functions it reports as <function>.calls and
<function>.self_s, the other per-layer metrics that belong with them,
and which end-to-end metric they should move on which workload.
run.py reports exactly metric_names(), baseline.py writes the groups
into bench/baseline.json, and a test checks that BENCHMARK.json's
per_layer list is the same.
"""
from __future__ import annotations

LAYERS = ("linalg", "states", "channels", "measurement", "mixing", "classical",
          "amplitude_damping", "fuzz", "serialization", "cli")

# Fuzz suite name -> the function that runs its trials.
FUZZ_SUITES = {"theorem": "fuzz.fuzz_bound", "prop1": "fuzz.fuzz_measurement",
               "prop2": "fuzz.fuzz_mixing", "schmidt": "fuzz.fuzz_schmidt",
               "bridge": "fuzz.fuzz_bridge"}

GROUPS = (
    {"functions": ("channels.couple", "channels.block_decompose",
                   "channels.BlockMatrix.diagonal_projection", "channels.embed_reference",
                   "channels.exchange_entropy", "channels.verify_entropy_bound",
                   "linalg.partial_trace"),
     "metrics": ("channels.self_share", "linalg.self_share"),
     "workload": "bound-large", "moves": ("op_p50_s", "op_tail_s", "peak_rss_mb"),
     "note": "barely moves fuzz-all, where these see matrices of size <= 24"},
    {"functions": ("channels.CouplingModel",), "metrics": (),
     "workload": "bound-large", "moves": (),
     "note": "the unitarity check is part of the model's contract; expected constant"},
    {"functions": ("states.validate_density", "states.random_unitary",
                   "states.random_density", "states.random_pure_state",
                   "measurement.project", "measurement.purity_decomposition",
                   "measurement.projectors_from_partition",
                   "mixing.Ensemble", "mixing.mixing_bound_report",
                   "mixing.schmidt_entropy_pair",
                   "classical.partition_entropy", "classical.dit_count",
                   "fuzz.run_suite", *FUZZ_SUITES.values()),
     "metrics": (*(f"fuzz.{suite}.trials_per_s" for suite in FUZZ_SUITES),
                 "states.self_share", "measurement.self_share", "mixing.self_share",
                 "classical.self_share", "fuzz.self_share"),
     "workload": "fuzz-all", "moves": ("ops_per_s",)},
    {"functions": ("serialization.load_json", "serialization.matrix_from_json",
                   "serialization.model_from_json", "serialization.matrix_to_json",
                   "serialization.dump_json"),
     "metrics": ("serialization.bytes_read", "cli.bytes_written",
                 "serialization.self_share"),
     "workload": "cli-files", "moves": ("op_tail_s", "ops_per_s")},
    {"functions": ("cli.main", "amplitude_damping.coupling_model",
                   "amplitude_damping.closed_form_purity",
                   "amplitude_damping.closed_form_bound",
                   "channels.extract_kraus", "channels.apply_channel"),
     "metrics": ("cli.self_share", "amplitude_damping.self_share"),
     "workload": "cli-files", "moves": ("op_p50_s",)},
    {"functions": (), "metrics": ("bench.self_share", "trace.overhead"),
     "workload": "all", "moves": (),
     "note": "the benchmark's own residual and the tracing cost; reported, not targets"},
)

FUNCTIONS = tuple(fn for group in GROUPS for fn in group["functions"])

# Unit and better direction of a per-layer metric, by the last part of its name.
KINDS = {"calls": ("calls/op", "lower"), "self_s": ("s/op", "lower"),
         "self_share": ("fraction", "lower"), "trials_per_s": ("1/s", "higher"),
         "bytes_read": ("B/op", "lower"), "bytes_written": ("B/op", "lower"),
         "overhead": ("ratio", "higher")}


def group_metrics(group: dict) -> list[str]:
    """Every per-layer metric name of one group."""
    return [f"{fn}.{part}" for fn in group["functions"] for part in ("calls", "self_s")] \
        + list(group["metrics"])


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    return [name for group in GROUPS for name in group_metrics(group)]


def kind(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric."""
    return KINDS[name.rsplit(".", 1)[1]]
