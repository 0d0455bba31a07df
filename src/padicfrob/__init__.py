"""p-adic Frobenius structures of Calabi-Yau type differential operators.

The package computes the matrix of the p-adic Frobenius structure of a
MUM-type operator in its standard basis, reproduces the closed-form
Frobenius constants as p-adic Gamma / zeta expressions, and
cross-validates the two against each other through integrality of the
structure's coefficients.
"""

__version__ = "0.1.0"

from .padic_core import (  # noqa: F401
    BadPrime,
    CongruenceSolution,
    CongruenceSystem,
    InconsistentSystem,
    PadicNum,
    PrecisionError,
    bernoulli,
    multinomial,
    solve_affine_congruences,
    vp,
)
from .qseries import (  # noqa: F401
    LogSeries,
    PowerSeries,
)
from .zeta_gamma import (  # noqa: F401
    ZetaPoly,
    alpha_hyperoctahedral,
    alpha_simplicial,
    evaluate_zeta_poly,
    gamma_ratio_congruence_check,
    gammap_int,
    gammap_taylor,
    zetap,
    zetap_bernoulli,
    zetap_interpolated,
)
from .mum import (  # noqa: F401
    KNOWN_HYPEROCT_OPERATORS,
    MumOperator,
    NoOperatorFound,
    StandardBasis,
    apply_operator,
    guess_operator,
    period_series_hyperoctahedral,
    period_series_simplicial,
    simplicial_operator,
    standard_basis,
)
from .frobenius import (  # noqa: F401
    AnalyticReport,
    FrobeniusDecomposition,
    IntegralityReport,
    PrecisionExhausted,
    analytic_bound,
    check_analytic,
    check_integrality,
    integrality_digits,
    nonuniqueness_witness,
    recover_alpha,
    solve_A_series,
    verify_frobenius_property,
)
from .expansion import (  # noqa: F401
    alternating_identity_check,
    brute_force_expand,
    mu_at_zero,
    simplicial_coeff_series,
)
