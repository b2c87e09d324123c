"""Discrete time-frequency analysis on finite lattice-torus truncations.

Everything is built from exact pieces: signals on an integer box, torus
integrals evaluated by quadrature rules that are exact for the trigonometric
polynomials in play, and dense linear algebra for operators.  The verify
module re-checks every claimed identity and inequality on seeded random
ensembles.
"""

from .errors import (
    ConditioningError,
    DomainError,
    PrecisionError,
    RangeError,
    UnboundedError,
    UsageError,
)
from .lattice import (
    LatticeSpec,
    PhaseSpaceField,
    Signal,
    TorusGrid,
    gabor_atom,
    inner,
    modulate,
    norm2,
    translate,
)
from .locop import (
    OperatorKernel,
    SpectralSummary,
    adjoint_kernel,
    apply_operator,
    kernel,
    sigma_tilde,
    spectrum,
    weak_pairing,
)
from .modulation import (
    WindowSpec,
    embedding_condition,
    modulation_norm,
    orlicz_modulation_norm,
    symbol_modulation_norm,
    symbol_window,
    window_signal,
)
from .orlicz import (
    convolve_phase_space,
    holder_pairing,
    luxemburg,
    mixed_norm,
    mixed_norm_swapped,
    orlicz_norm,
)
from . import serialization  # perfbench's tracer finds every layer module in sys.modules
from .stft import SymbolTransform, invert, stft, stft_adjoint, stft_symbol
from .verify import (
    CheckResult,
    CheckSpec,
    Environment,
    default_specs,
    generate_ensemble,
    report_lines,
    run_suite,
)
from .young import (
    YoungFunction,
    complementary,
    conjugate_table,
    eq5,
    power,
    quasi_young,
)

__version__ = "0.1.0"
