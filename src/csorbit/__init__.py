"""csorbit: coherent-state orbits of Lie algebra representations.

Given a Lie algebra with a matrix highest-weight representation, the package
builds the coherent-state vector field and reproducing kernel on the orbit of
the extremal vector, realizes every generator as a first-order holomorphic
differential operator with polynomial coefficients, and validates the result
(homomorphism, cocycle, flow, Parseval, adjoint and degree checks).
"""

from .algebra import (
    AlgebraElement,
    LieAlgebraSpec,
    MatrixRep,
    MeasureSpec,
    OrbitModel,
    ValidationReport,
    derived_matrix,
    validate_model,
    validate_representation,
    validate_structure,
)
from .analysis import (
    QuadratureRule,
    adjoint_residual,
    parseval_residual,
    quadrature_rule,
    reproducing_residual,
)
from .catalog import (
    catalog_names,
    dump_model,
    load_model,
    model_from_dict,
    model_to_dict,
    read_complex_matrix,
)
from .checks import CHECK_ORDER, run_checks
from .errors import (
    CsorbitError,
    DegeneratePointError,
    ModelStructureError,
    ModelValidationError,
    NonpolynomialRealizationError,
    PartialTableError,
    PointOffOrbitError,
    PolarDivisorError,
    TruncationWarning,
    UnsupportedCheckError,
)
from .orbit import (
    coherent_covector,
    coherent_vector,
    extract_coordinates,
    group_action,
    group_element,
    kernel,
    kernel_eval,
    normalization,
    polar_check,
)
from .polyops import MultiPoly, render_diffop, render_poly
from .realize import (
    DegreeReport,
    RealizationTable,
    cocycle_residual,
    degree_report,
    flow_crosscheck,
    homomorphism_residual,
    intertwining_residual,
    realize_all,
    realize_generator,
    symbol,
)

__version__ = "0.1.0"
