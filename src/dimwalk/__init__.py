"""Dimension walks for Schoenberg expansion coefficients on spheres.

Exact closed-form weight rows convert Fourier-cosine (dimension 1) and
Legendre (dimension 2) expansion coefficients of an isotropic positive
definite function into its higher-dimensional ultraspherical coefficients;
the recursion route, series evaluation, coefficient extraction, and
positive-definiteness spot checks round out the toolkit.
"""

from .exactnum import pochhammer
from .models import (
    HSModelSpec,
    MODEL_NAMES,
    example_closed_form,
    example_fourier_seq,
    example_psi,
    example_walked_closed_form_seq,
    example_walked_seq,
    get_model,
    hs_model_seq,
)
from .seqio import (
    SequenceFormatError,
    read_sequence,
    sequence_from_json,
    sequence_to_json,
    write_sequence,
)
from .series import (
    GramReport,
    MembershipReport,
    ResolutionError,
    SphericalModel,
    check_membership,
    evaluate_series,
    extract_fourier,
    extract_legendre,
    gauss_legendre_rule,
    gram_psd_check,
    model_from_seq,
    symmetric_eigenvalues,
)
from .walk import (
    CoeffSeq,
    step_up,
    verify_walk_equivalence,
    walk_closed_form,
    walk_recursive,
)
from .weights import (
    EVEN,
    ODD,
    WalkWeights,
    even_weights,
    odd_weights,
)

__version__ = "0.1.0"
