"""Exact-arithmetic stability decisions for weighted isotropic flag
configurations, with Hilbert-Mumford cross-checks.

The package decides stability of row-tuple / flag-system instances over the
Gaussian rationals, computes parabolic degrees and Hilbert-Mumford weights
for the split orthogonal linearization, and re-verifies every verdict with
machine-checkable certificates.
"""

from .errors import InputError, InternalConsistencyError, IsoflagError, ParseError
from .flags import (
    FlagSystem,
    IsotropicFlag,
    pardeg_subspace,
    random_flag,
    validate_flag,
)
from .higgs import (
    Certificate,
    ExtensionLine,
    HiggsTuple,
    Verdict,
    condition1_isotropic_span,
    decide_stability,
    generate_stable_instance,
    line_oracle,
    max_pardeg_isotropic_in,
    verify_certificate,
)
from .hmgit import (
    INFINITE,
    OnePS,
    bounded_destabilizer_search,
    consistency_check,
    destabilizing_oneps,
    hm_base,
    hm_flag_total,
    hm_total,
)
from .linalg import (
    BilinearForm,
    Subspace,
    isotropy_classify,
    orthocomplement,
)
from .weights import (
    Weight,
    WeightStats,
    compactness_criterion,
    j_interval,
    monodromy_and_toledo,
    region_membership,
    validate_weight,
    weight_stats,
)

__version__ = "0.1.0"
