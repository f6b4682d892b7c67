"""spinrest: exact combinatorics and GF(p) linear algebra for irreducible
restrictions of spin representations of symmetric-group double covers."""

from .partitions import (
    a_0,
    a_p,
    dominance_leq,
    format_partition,
    is_p_strict,
    is_restricted_p_strict,
    parse_partition,
    part_counts,
    restricted_p_strict_partitions,
)
from .residues import (
    build_profile,
    char0_branching_down,
    char0_branching_up,
    endo_dim_formula,
    eps_vector,
    js_class,
    residue_counts,
    residue_of_column,
    tilde_e,
    tilde_f,
)
from .regularization import ladder, leading_coefficient, reg_closed_form, regularize
from .labels import (
    ModuleLabel,
    alpha_n,
    basic_table,
    beta_n,
    intro_dims,
    m_n,
    mu_na,
    schur_char0_dim,
    second_basic_table,
    trp_set,
)
from .classify import (
    Outcome,
    PrimitiveCase,
    RestrictionQuery,
    RestrictionVerdict,
    TableIICase,
    classify,
)
from .specht import (
    SubgroupSpec,
    dual_specht_invariant_dim,
    eta,
    generators,
    gram_irreducibility,
    orbit_count,
    perm_basis,
    polytabloid_matrix,
    wilson_rank,
    z_invariant_dim,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
