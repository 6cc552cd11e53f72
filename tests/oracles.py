"""Brute-force oracles that the package's fast paths are tested against."""

from knutson.chartable import CharacterTable


def _row_product(table: CharacterTable, a: int, c: int) -> tuple:
    return tuple(
        va * vc
        for va, vc in zip(table.irreps[a].values, table.irreps[c].values)
    )


def tensor_decompose_exact(table: CharacterTable, a: int, c: int) -> tuple[int, ...]:
    """Multiplicities N with chi_a * chi_c = sum_b N_b chi_b, by exact inner
    products of exact algebraic values."""
    prod_vals = _row_product(table, a, c)
    out = []
    for b in range(len(table.irreps)):
        got = table.inner_product_rows(prod_vals, table.irreps[b].values)
        if got.denominator != 1 or got < 0:
            raise AssertionError(
                f"bad multiplicity {got} of {table.irreps[b].label} in "
                f"{table.irreps[a].label} * {table.irreps[c].label}"
            )
        out.append(got.numerator)
    degrees = table.degrees
    if sum(n * d for n, d in zip(out, degrees)) != degrees[a] * degrees[c]:
        raise AssertionError("tensor decomposition degree identity fails")
    return tuple(out)


def fusion_matrix_exact(table: CharacterTable, a: int) -> list[list[int]]:
    """M with M[b][c] = multiplicity of chi_b in chi_a * chi_c, exactly."""
    n = len(table.irreps)
    cols = [tensor_decompose_exact(table, a, c) for c in range(n)]
    return [[cols[c][b] for c in range(n)] for b in range(n)]
