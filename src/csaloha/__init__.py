"""Coded slotted ALOHA with successive interference cancelation: asymptotic
analysis (density evolution, MAP bound, load bound) and finite-length Monte
Carlo simulation, for block frames and spatially-coupled super-frames."""

from .core import (
    DeResult,
    LoadPoint,
    SchemeParams,
    build_circulant_topology,
    build_topology,
    rng_stream,
)
from .de_block import (
    BlockDeConfig,
    ThresholdBracketError,
    block_threshold,
    block_threshold_grid,
    de_block_run,
    efficiency,
    solve_load_bound,
)
from .de_coupled import (
    coupled_threshold,
    de_coupled_run,
    termination_adjusted_load,
)
from .map_bound import AreaSolutionError, map_load_bound
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
