"""Device descriptions for the latency model.

Headline numbers are the published specifications of the boards the
paper evaluates on; efficiency factors are modelling choices (fractions
of peak that each kernel class realistically achieves) and are held
constant across devices so that cross-strategy ratios are driven by the
counters, not by tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.registry import GPUS, register_gpu

__all__ = ["GPUSpec", "RTX3090", "RTX2080", "A100", "V100", "get_gpu", "list_gpus"]


@dataclass(frozen=True)
class GPUSpec:
    """One simulated device.

    Attributes
    ----------
    num_sms:
        Streaming multiprocessors; with ``blocks_per_sm`` determines the
        number of concurrently resident thread blocks, which sets the
        degree-imbalance exposure of vertex-balanced kernels.
    peak_fp32_tflops / mem_bandwidth_gbps / dram_gb:
        Published board specs.
    kernel_launch_us:
        Fixed host-side cost per launch, including framework dispatch
        overhead (eager frameworks spend tens of microseconds per
        operator) — the term fusion amortises on small graphs.
    dense_efficiency / graph_compute_efficiency:
        Fraction of peak FLOPs achieved by library GEMMs vs irregular
        graph kernels.
    stream_bw_efficiency / gather_bw_efficiency:
        Fraction of peak bandwidth for streaming vs random access.
    atomic_overhead:
        Multiplier on reduction-write time under edge-balanced mapping.
    smem_fusion_overhead:
        Compute-time multiplier for fused kernels that buffer a vertex
        intermediate in shared memory (ReduceScatter kernels).
    """

    name: str
    num_sms: int
    peak_fp32_tflops: float
    mem_bandwidth_gbps: float
    dram_gb: float
    blocks_per_sm: int = 16
    kernel_launch_us: float = 10.0
    dense_efficiency: float = 0.60
    graph_compute_efficiency: float = 0.06
    stream_bw_efficiency: float = 0.85
    gather_bw_efficiency: float = 0.55
    atomic_overhead: float = 3.0
    smem_fusion_overhead: float = 1.25

    def __post_init__(self) -> None:
        # Every count, rate, capacity and multiplier prices something:
        # 0 divides by zero, a negative or nan one prices nonsense.  A
        # launch may cost nothing.
        for f in fields(self):
            if f.name != "name":
                _require_positive(self, f.name, allow_zero=f.name == "kernel_launch_us")

    # ------------------------------------------------------------------
    @property
    def peak_flops(self) -> float:
        return self.peak_fp32_tflops * 1e12

    @property
    def bandwidth(self) -> float:
        """Bytes/second."""
        return self.mem_bandwidth_gbps * 1e9

    @property
    def dram_bytes(self) -> int:
        return int(self.dram_gb * (1024 ** 3))

    @property
    def concurrent_blocks(self) -> int:
        return self.num_sms * self.blocks_per_sm

    @property
    def kernel_launch_s(self) -> float:
        return self.kernel_launch_us * 1e-6


def _require_positive(spec, name: str, allow_zero: bool = False) -> None:
    """Refuse ``spec.<name>`` unless it is finite and > 0 (≥ 0 with
    ``allow_zero``)."""
    value = getattr(spec, name)
    if not (math.isfinite(value) and (value >= 0 if allow_zero else value > 0)):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValueError(
            f"{type(spec).__name__}.{name} must be finite and {bound}, got {value!r}"
        )


RTX3090 = register_gpu(GPUSpec(
    name="RTX3090",
    num_sms=82,
    peak_fp32_tflops=35.6,
    mem_bandwidth_gbps=936.0,
    dram_gb=24.0,
))

RTX2080 = register_gpu(GPUSpec(
    name="RTX2080",
    num_sms=46,
    peak_fp32_tflops=10.1,
    mem_bandwidth_gbps=448.0,
    dram_gb=8.0,
))

A100 = register_gpu(GPUSpec(
    name="A100",
    num_sms=108,
    peak_fp32_tflops=19.5,
    mem_bandwidth_gbps=1555.0,
    dram_gb=40.0,
))

# The workhorse of multi-GPU training clusters (SXM2 32 GB variant);
# the scaling experiments build V100xN clusters from this spec.
V100 = register_gpu(GPUSpec(
    name="V100",
    num_sms=80,
    peak_fp32_tflops=15.7,
    mem_bandwidth_gbps=900.0,
    dram_gb=32.0,
))


def get_gpu(name: str) -> GPUSpec:
    return GPUS.get(name)


def list_gpus() -> list[str]:
    return GPUS.names()
