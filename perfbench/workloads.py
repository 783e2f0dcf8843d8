"""The benchmark's workloads: seeded inputs, one job, and its correctness gate.

Each workload builds its inputs from the seed alone (``setup``), runs one
job through the public lowprec entry points (``run``) and checks the job's
reports (``check``). Every job of a run repeats the same work on the same
inputs, so the worker also requires each job's reports to match the first
job's byte for byte.

README.md in this directory gives the reason for each workload and the
layer each one is meant to expose.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from lowprec import cli, graphir, streams
from lowprec.convsub import SUBSAMPLERS
from lowprec.floatsim import FP16

# Sizes per mode. "full" is what the benchmark measures; "toy" runs every
# code path in well under a second for the smoke check.
SIZES = {
    "full": {
        "stream_rows": 1024, "stream_width": 512, "chunk_rows": 256,
        "conv_chunks": 1, "conv_hw": (80, 1000),
        "mha": {"heads": 8, "features": 512, "seq": 64}, "mha_instances": 10,
        "theory_args": [],
    },
    "toy": {
        "stream_rows": 64, "stream_width": 64, "chunk_rows": 16,
        "conv_chunks": 1, "conv_hw": (20, 40),
        "mha": {"heads": 2, "features": 16, "seq": 8}, "mha_instances": 2,
        "theory_args": ["--n-max", "2", "--vectors", "200",
                        "--samples", "100000"],
    },
}

CONV_CONFIGS = ("conv2d6", "dws2d6")
MHA_PASSES = ["layout", "chunk", "einsum"]
THEORY_CHECKS = 12  # rows in theory_report.json; a missing check fails the job


def conv_macs(layers, h: int, w: int) -> list[int]:
    """Per-layer MACs of one valid, strided, grouped conv stack.

    Written out here, not taken from lowprec.convsub.mac_count, so that the
    MAC table in the profile-conv report is checked against an independent
    count.
    """
    out = []
    for layer in layers:
        (kh, kw), (sh, sw) = layer.kernel, layer.stride
        h, w = (h - kh) // sh + 1, (w - kw) // sw + 1
        out.append(h * w * layer.out_channels * kh * kw
                   * (layer.in_channels // layer.groups))
    return out


class Workload:
    """Inputs under ``work``; reports of the current job under ``work/out``."""

    name = ""
    items = 0  # work items one job completes

    def __init__(self, work: Path, seed: int, size: dict):
        self.work = work
        self.out = work / "out"
        self.seed = seed
        self.size = size
        self.rng = np.random.default_rng(seed)
        self.inputs: list[Path] = []
        self.out.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Generate and write the inputs; build weights and graphs."""

    def run(self) -> tuple[list[int], dict[str, bytes]]:
        """One job: CLI exit codes, plus any outputs kept in memory."""
        raise NotImplementedError

    def check(self, reports: dict[str, bytes]) -> list[str]:
        """Failures found in one job's reports (empty when it passed)."""
        raise NotImplementedError

    def main(self, *argv) -> int:
        return cli.main([*map(str, argv), "--out-dir", str(self.out)])


class StabilityAudit(Workload):
    """audit-layernorm with the theorem-1 pre-normalizer, then audit-softmax."""

    name = "stability_audit"

    def setup(self):
        rows, width = self.size["stream_rows"], self.size["stream_width"]
        x = self.rng.normal(0.0, 500.0, (rows, width))
        hot = slice(3, None, 4)  # every 4th row carries 10x the scale
        x[hot] = self.rng.normal(0.0, 5000.0, x[hot].shape)
        step = self.size["chunk_rows"]
        self.stream = self.work / "stream.bin"
        streams.write_stream(self.stream, [x[i:i + step] for i in range(0, rows, step)])
        self.inputs = [self.stream]
        # Rows whose fp16 maximum passes the softmax rescale threshold,
        # rounded by numpy's own float16 cast rather than by lowprec.
        self.hot_rows = int(np.count_nonzero(x.max(axis=1).astype(np.float16) > 4096.0))
        self.items = rows

    def run(self):
        return [self.main("audit-layernorm", self.stream, "--prenorm", "theorem1"),
                self.main("audit-softmax", self.stream)], {}

    def check(self, reports):
        errors = []
        rows = {r["config"]: r for r in json.loads(reports["layernorm_audit.json"])["rows"]}
        for name, row in rows.items():
            if name.startswith("prenorm=theorem1") and row["overflow_invocations"]:
                errors.append(f"{name}: {row['overflow_invocations']} rows overflowed")
        naive = rows["prenorm=none,mult=1"]["overflow_fraction"]
        if naive < 0.5:
            errors.append(f"naive fp16 layernorm overflow fraction {naive} < 0.5")
        softmax = json.loads(reports["softmax_audit.json"])
        if not softmax["pass"]:
            errors.append("softmax audit did not pass")
        if softmax["rescaled_rows"] != self.hot_rows:
            errors.append(f"rescaled_rows {softmax['rescaled_rows']} != "
                          f"{self.hot_rows} hot rows in the input")
        return errors


class FrontendProfile(Workload):
    """profile-conv over conv2d6 and dws2d6 in exact arithmetic."""

    name = "frontend_profile"

    def setup(self):
        h, w = self.size["conv_hw"]
        chunks = [self.rng.normal(0.0, 1.0, (h, w))
                  for _ in range(self.size["conv_chunks"])]
        self.stream = self.work / "frames.bin"
        streams.write_stream(self.stream, chunks)
        self.inputs = [self.stream]
        self.expected = {n: conv_macs(SUBSAMPLERS[n].layers, h, w) for n in CONV_CONFIGS}
        self.items = len(chunks) * len(CONV_CONFIGS)

    def run(self):
        return [self.main("profile-conv", self.stream, "--conv", ",".join(CONV_CONFIGS),
                          "--seed", self.seed)], {}

    def check(self, reports):
        errors = []
        table = {r["config"]: r for r in json.loads(reports["mac_table.json"])["rows"]}
        for name, per_layer in self.expected.items():
            row = table[name]
            if row["per_layer_macs"] != per_layer or row["frontend_macs"] != sum(per_layer):
                errors.append(f"{name}: MAC table {row['per_layer_macs']} != {per_layer}")
        return errors


class MhaRewrite(Workload):
    """rewrite-graph mha --check, then both graphs executed in fp16."""

    name = "mha_rewrite"

    def setup(self):
        dims = self.size["mha"]
        self.params = graphir.MHAParams(**dims)
        self.weights = graphir.mha_weights(self.params, seed=self.seed)
        self.weights_path = self.work / "weights.bin"
        streams.write_tensors(self.weights_path, self.weights)
        self.inputs = [self.weights_path]
        self.graphs = [graphir.build_mha_bsf(self.params)]
        self.graphs.append(graphir.apply_passes(self.graphs[0], MHA_PASSES,
                                                n_chunks=dims["heads"]))
        shape = (1, dims["seq"], 1, dims["features"])
        self.feed = {"x": np.random.default_rng([self.seed, 1]).normal(0.0, 1.0, shape)}
        self.instances = self.size["mha_instances"]
        self.items = 2 * self.instances + len(self.graphs)

    def run(self):
        dims = self.size["mha"]
        code = self.main("rewrite-graph", "mha", "--check",
                         "--check-instances", self.instances,
                         "--heads", dims["heads"], "--features", dims["features"],
                         "--seq", dims["seq"], "--weights", self.weights_path,
                         "--seed", self.seed)
        self.traces = [graphir.execute_traced(g, self.feed, self.weights, FP16)
                       for g in self.graphs]
        outputs = {f"fp16_output_{i}": t.outputs["y"].tobytes()
                   for i, t in enumerate(self.traces)}
        return [code], outputs

    def check(self, reports):
        errors = []
        metrics = json.loads(reports["rewrite_metrics.json"])
        if not metrics["check"]["pass"]:
            errors.append("rewritten graph failed the equivalence check")
        score = metrics["after"]["movement"]["memory_copy_score"]
        if score != 0:
            errors.append(f"memory_copy_score after rewrite is {score}")
        for g, t in zip(self.graphs, self.traces):
            if not np.all(np.isfinite(t.outputs["y"])):
                errors.append(f"{g.name}: fp16 output not finite")
            if t.total_overflow.overflow:
                errors.append(f"{g.name}: {t.total_overflow.overflow} fp16 overflows")
        return errors


class TheorySelfcheck(Workload):
    """verify-theory with its default budgets."""

    name = "theory_selfcheck"
    items = THEORY_CHECKS

    def run(self):
        return [self.main("verify-theory", "--seed", self.seed,
                          *self.size["theory_args"])], {}

    def check(self, reports):
        checks = json.loads(reports["theory_report.json"])["checks"]
        errors = [f"check {c['name']} failed" for c in checks if not c["pass"]]
        if len(checks) != THEORY_CHECKS:
            errors.append(f"{len(checks)} checks reported, expected {THEORY_CHECKS}")
        return errors


WORKLOADS = {w.name: w for w in (StabilityAudit, FrontendProfile, MhaRewrite,
                                 TheorySelfcheck)}
