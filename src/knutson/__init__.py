"""Exact character-theory toolkit: tables, Knutson indices, sequences."""

from .algnum import CyclotomicTau, MultiQuadratic
from .chartable import (
    CharacterTable,
    ConjClass,
    Irrep,
    zero_in_every_nontrivial_column,
)
from .charring import (
    VirtualCharacter,
    evaluate,
    fusion_matrix,
    inner_product,
    regular_character,
    tensor_decompose,
    trivial_index,
)
from .errors import CapExceededError, TableError
from .knutsonlat import (
    generalized_lower_bound,
    is_rho_invertible,
    knutson_index_char,
    knutson_index_group,
    min_multiplier,
    min_rho_search,
    solve_integer,
    verify_rho_pm_obstruction,
    zero_column_criterion,
)
from .numtheory import is_loeschian, is_triangular, quadform_xxyy, sigma3
from .partitions import (
    count_t_cores,
    exists_t_core,
    find_t_core,
    is_t_core,
    partitions,
)
from .sequences import SequenceRecord, seq_L_An, seq_L_Sn, seq_zero_columns_sn
from .sl2tables import (
    Sl2Param,
    lcm_degrees_sl2_expected,
    paper_rho_inverses,
    psl2_table,
    rho_theorem_character,
    sl2_table,
)
from .symchar import an_table, cycle_types, mn_value, sn_table

__version__ = "1.0.0"

__all__ = [
    "CapExceededError",
    "CharacterTable",
    "ConjClass",
    "CyclotomicTau",
    "Irrep",
    "MultiQuadratic",
    "SequenceRecord",
    "Sl2Param",
    "TableError",
    "VirtualCharacter",
    "an_table",
    "count_t_cores",
    "cycle_types",
    "evaluate",
    "exists_t_core",
    "find_t_core",
    "fusion_matrix",
    "generalized_lower_bound",
    "inner_product",
    "is_loeschian",
    "is_rho_invertible",
    "is_t_core",
    "is_triangular",
    "knutson_index_char",
    "knutson_index_group",
    "lcm_degrees_sl2_expected",
    "min_multiplier",
    "min_rho_search",
    "mn_value",
    "paper_rho_inverses",
    "partitions",
    "psl2_table",
    "quadform_xxyy",
    "regular_character",
    "rho_theorem_character",
    "seq_L_An",
    "seq_L_Sn",
    "seq_zero_columns_sn",
    "sigma3",
    "sl2_table",
    "sn_table",
    "solve_integer",
    "tensor_decompose",
    "trivial_index",
    "verify_rho_pm_obstruction",
    "zero_column_criterion",
    "zero_in_every_nontrivial_column",
]
