"""gmlattice: exact integer lattice arithmetic for Gushel-Mukai fourfold
discriminants.

Decides the K3-surface, twisted-K3 and Hilbert-square association criteria
for labelling discriminants, and produces constructive lattice witnesses
(hyperbolic planes, normal forms, isotropic classes, Pell solutions) for
every positive answer.  All arithmetic uses unbounded integers and exact
rationals; no floating point anywhere.
"""

from .errors import DomainError, LatticeError
from .lattice import (
    GramLattice,
    Sublattice,
    determinant,
    direct_sum,
    find_hyperbolic_plane,
    format_gram_text,
    hyperbolic_partner,
    mukai_sign_reversed,
    orthogonal_complement,
    parse_gram_text,
    saturate,
    signature,
    standard_lattice,
    twist,
)
from .discriminant import (
    DiscriminantData,
    GlueData,
    GlueExtensionReport,
    check_isotropic,
    discriminant_group,
    glue,
    glue_extension_check,
)
from .pell import (
    PellSolution,
    cf_sqrt,
    negative_pell,
    pell_general,
    pell_solvable,
)
from .forms import BinaryForm, find_prime_1mod4, reduce_form, represents
from .oracle import (
    D_MAX,
    CounterexampleFamilyReport,
    CounterexampleGeneralReport,
    DivisorReport,
    K3WitnessReport,
    LemmaReport,
    QFormAnalysis,
    admissible,
    classify,
    counterexample_family,
    counterexample_general,
    hilb2_criterion,
    hilb2_witness,
    k3_witness,
    labelling_lattice,
    labelling_normal_form,
    lemma_checks,
    qform_rank4,
    twisted_witness,
)

__version__ = "0.1.0"
