"""Numerical stabilization toolkit for low-precision transformer inference."""

from lowprec.convsub import (
    ConvLayerSpec,
    SubsamplingConfig,
    SUBSAMPLERS,
    conv2d_forward,
    mac_count,
    profile_dynamic_range,
)
from lowprec.floatsim import FP16, FP32, FloatFormat, OverflowStats, QuantizeStatus
from lowprec.graphir import (
    Graph,
    GraphError,
    GraphRewriteError,
    MHAParams,
    Node,
    apply_passes,
    build_mha_bsf,
    check_equivalence,
    movement_profile,
)
from lowprec.prenorm import (
    PrenormSpec,
    layernorm,
    prenormalize,
    theorem1_scale,
)
from lowprec.softmax_lut import ExpLUT, softmax_reference
from lowprec.streams import StreamFormatError, read_stream, write_stream

__all__ = [
    "FP16",
    "FP32",
    "FloatFormat",
    "OverflowStats",
    "QuantizeStatus",
    "ConvLayerSpec",
    "SubsamplingConfig",
    "SUBSAMPLERS",
    "conv2d_forward",
    "mac_count",
    "profile_dynamic_range",
    "Graph",
    "GraphError",
    "GraphRewriteError",
    "MHAParams",
    "Node",
    "apply_passes",
    "build_mha_bsf",
    "check_equivalence",
    "movement_profile",
    "PrenormSpec",
    "layernorm",
    "prenormalize",
    "theorem1_scale",
    "ExpLUT",
    "softmax_reference",
    "StreamFormatError",
    "read_stream",
    "write_stream",
]

__version__ = "0.1.0"
