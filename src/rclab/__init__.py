"""rclab: exact Rankin-Cohen bracket laboratory.

Exact-arithmetic modular forms, the pi-free sl2 lowest-weight machinery
behind the brackets, the one-parameter families of deformed products built
on them, and machine verification of the associativity / uniqueness /
positivity claims the construction rests on.
"""

from .exactcore import MPoly, QSeries, Rat, binom, pochhammer, rat
from .forms import (
    GradedForm,
    ModularForm,
    delta,
    eisenstein,
    eisenstein_form,
    eta_log_derivative,
    form_by_name,
    phi_zagier,
    sigma,
)
from .nearlyholo import (
    NearlyHoloForm,
    canonical_rc,
    combi_brackets,
    lower,
    ramanujan_X,
    rc_bracket,
    shimura_X,
    verify_canonical_rc,
    verify_der_identity,
    zagier_sequence,
)
from .rep import (
    Vector,
    act_lower,
    act_raise,
    act_weight,
    casimir,
    casimir_eigenvalue,
    lowest_weight_tensor,
    realize_and_multiply,
    triple_kernel_dim,
    triple_preimage,
    xi_vectors,
)
from .starprod import (
    HbarSeries,
    PoleError,
    StarCoefficients,
    assoc_residual,
    cmz_coeff,
    free_assoc_residual,
    ident_numerators,
    ident_residual,
    rc_series,
    star_product,
)
from .coeffsolve import (
    ATable,
    LinSystem,
    a2_family_assoc,
    build_ident_system,
    degree_in_c,
    det2x2_lemma,
    kappa_c_report,
    kappa_to_c,
    solve,
)
from .uniq import (
    IsobaricPoly,
    bracket_shift_residual,
    fine_det3,
    p3_build,
    rc_uniqueness_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
