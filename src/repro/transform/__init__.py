"""Code-transformation exploration (the GROPHECY core loop).

For each kernel skeleton GROPHECY enumerates candidate GPU mappings —
thread-block size, shared-memory staging of reused neighborhoods, loop
unrolling — synthesizes the kernel characteristics each mapping would
exhibit, scores them with the analytical GPU model, and keeps the best.
The projected kernel time of the paper's methodology (Section IV-A) is the
time of this best-performing version.
"""

from repro.transform.space import MappingConfig, TransformationSpace
from repro.transform.synthesize import (
    access_is_coalesced,
    synthesize_characteristics,
)
from repro.transform.analysis import KernelAnalysis, analyze_kernel
from repro.transform.explorer import (
    TOP_K,
    CandidateResult,
    KernelProjection,
    ProgramProjection,
    explore_configs,
    explore_kernel,
    project_program,
)
from repro.transform.fusion import (
    FusionChoice,
    StencilShape,
    best_fusion,
    fused_characteristics,
    stencil_shape,
)

__all__ = [
    "MappingConfig",
    "TransformationSpace",
    "access_is_coalesced",
    "synthesize_characteristics",
    "KernelAnalysis",
    "analyze_kernel",
    "CandidateResult",
    "KernelProjection",
    "ProgramProjection",
    "TOP_K",
    "explore_configs",
    "explore_kernel",
    "project_program",
    "FusionChoice",
    "StencilShape",
    "best_fusion",
    "fused_characteristics",
    "stencil_shape",
]
