"""Moving-conductor magnetic induction on structured grids.

Solvers for the 1D and 2D transported vector-potential problem with either
the standard Galerkin input or the element-averaged input that suppresses
the node-to-node instability at high Peclet number, plus the exact Z-domain
machinery (transfer functions, pole-zero certificates, factorization
identities) and the closed-form 1D ground truth used to validate it all.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    InvalidArgumentError, NumericalFailureError, Material, Mesh1D, Mesh2D,
    RectPulse1D, RectPulse2D, Scheme, SmoothCircle2D, material_for_peclet,
    peclet_of, sample_profile)
from .fem1d import (  # noqa: F401
    DiscreteSystem1D, Solution1D, assemble_1d, input_weights,
    peak_spurious_error, reaction_field, rect_pulse_case, solve_1d)
from .fem2d import (  # noqa: F401
    DiscreteSystem2D, RegionMap2D, Solution2D, assemble_2d, axis_profile,
    oscillation_metric, rhs_2d, solve_2d)
from .oracle import (  # noqa: F401
    AnalyticParams, AnalyticSolution, OutOfValidityError, analytic_solve,
    peak_error, peak_error_from_solution)
from .zpoly import (  # noqa: F401
    InexactDivisionError, Poly, RationalFunction)
from .ztransfer import (  # noqa: F401
    PoleZeroReport, SingularNormalizationError, Stability, TransferFunction2D,
    UnsupportedStructureError, analyze, peak_error_certificate, polys_2d,
    run_identity_checks, tf_1d, tf_2d)
