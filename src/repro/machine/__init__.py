"""Machine substrate: STREAM measurement, Roofline bounds, platform specs."""

from .roofline import (
    PAPER_BYTES_PER_STENCIL,
    bytes_per_point,
    roofline_stencils_per_s,
    roofline_time,
)
from .specs import I7_4765T, K20C, PAPER_PLATFORMS, MachineSpec, host_spec
from .stream import STREAM_DOT_C_SOURCE, stream_dot_bandwidth

__all__ = [
    "PAPER_BYTES_PER_STENCIL",
    "bytes_per_point",
    "roofline_stencils_per_s",
    "roofline_time",
    "I7_4765T",
    "K20C",
    "PAPER_PLATFORMS",
    "MachineSpec",
    "host_spec",
    "STREAM_DOT_C_SOURCE",
    "stream_dot_bandwidth",
]
