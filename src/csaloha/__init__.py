"""Coded slotted ALOHA with successive interference cancelation: asymptotic
analysis (density evolution, MAP bound, load bound) and finite-length Monte
Carlo simulation, for block frames and spatially-coupled super-frames."""

from .analysis import (
    AreaSolutionError,
    BlockDeConfig,
    DeResult,
    ThresholdBracketError,
    block_threshold,
    block_threshold_grid,
    coupled_threshold,
    de_block_run,
    de_coupled_run,
    efficiency,
    map_load_bound,
    solve_load_bound,
    termination_adjusted_load,
)
from .core import (
    LoadPoint,
    SchemeParams,
    build_circulant_topology,
    build_topology,
    rng_stream,
)
from .sim import (
    FrameGraph,
    SimReport,
    gje_decode,
    peel,
    run_trials,
    sample_block_frame,
    sample_coupled_frame,
)

__version__ = "0.1.0"
