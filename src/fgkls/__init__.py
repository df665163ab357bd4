"""Exact solver for the FGKLS (Lindblad) master equation of a two-level
open quantum system: stationary pointers, analytic spectral solutions,
positivity windows, weak-coupling expansions and uniton classification,
cross-validated by an independent fixed-step integrator."""

from .errors import (
    ConfigError,
    ContractError,
    InputError,
    InternalError,
    NotReducibleError,
)
from .evolution import (
    AnalyticSolution,
    SingleModeReduction,
    TimeWindow,
    positivity_window,
    rho_at,
    single_mode_reduction,
    solve_ivp,
    trajectory,
)
from .generator import AffineGenerator, RateCoefficients, build_generator, coefficients, rhs
from .model import (
    Canonical,
    DensityReport,
    DiagonalL,
    GeneralL,
    Hamiltonian,
    JordanL,
    LindbladForm,
    SystemSpec,
    canonicalize,
    gauge_shift,
    validate_density,
)
from .numerics import CubicRoots, RootPattern, cubic_roots, schur2, solve3
from .oracle import IntegratorConfig, det_scan, integrate, pointer_numeric
from .perturb import OrderEstimate, RateSeries, order_estimate, pointer_series, weak_rates
from .pointer import (
    DiagonalFamily,
    FullFamily,
    LineFamily,
    NoAttractor,
    PointerResult,
    UniquePointer,
    compute_pointer,
    pointer_residual,
)
from .spectral import (
    Mode,
    ModeDecomposition,
    SpectrumStructure,
    StabilityVerdict,
    assert_stability,
    char_cubic,
    spectrum,
)
from .uniton import AllStates, NoUnitons, StationaryPointerOnly, classify_unitons

__version__ = "0.1.0"
