"""Exact character-theory toolkit: tables, Knutson indices, sequences.

The public names load lazily (PEP 562): `import knutson` imports no
submodule, and the first use of a name imports the one module that
defines it, so a command pays only for the layers it runs.
`from knutson import *` and `from knutson import cli` work as before.
"""

from importlib import import_module

__version__ = "1.0.0"

_EXPORTS = {
    "algnum": ("CyclotomicTau", "MultiQuadratic"),
    "chartable": ("CharacterTable", "ConjClass", "Irrep"),
    "charring": (
        "VirtualCharacter", "fusion_matrix", "is_rho_invertible", "min_rho_search",
    ),
    "errors": ("CapExceededError", "TableError"),
    "knutsonlat": (
        "generalized_lower_bound", "knutson_index_char", "knutson_index_group",
        "min_multiplier", "solve_integer", "zero_column_criterion",
    ),
    "numtheory": ("is_loeschian", "is_triangular", "quadform_xxyy", "sigma3"),
    "partitions": ("count_t_cores", "exists_t_core", "find_t_core", "is_t_core"),
    "sequences": ("SequenceRecord", "seq_L_An", "seq_L_Sn", "seq_zero_columns_sn"),
    "sl2tables": (
        "paper_rho_inverses", "psl2_table", "rho_theorem_character",
        "sl2_table", "verify_rho_pm_obstruction",
    ),
    "symchar": ("an_table", "mn_value", "sn_table"),
}
# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # also how `from knutson import cli` finds that cli is a submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

