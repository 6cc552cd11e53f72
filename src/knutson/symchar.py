"""Character tables of S_n and A_n.

A conjugacy class of S_n is its cycle type, a partition mu of n, and
the classes of each group are listed once, by _classes: for S_n every
mu in reverse lexicographic order, for A_n the even mu, with those of
distinct odd parts split in two.  check_group counts that list, and
sn_table and an_table label their columns from it; the identity 1^n is
its last class.

Whole tables come from a forward Murnaghan-Nakayama sweep on the bead
masks of partitions (_add_hooks adds a signed rim hook to n-bead masks).
The rule holds for the cycle lengths taken in any order, so each cycle
type mu is swept from the empty shape adding hooks of its parts smallest
first, keeping a dict from mask to nonzero value; after the last part
the dict is the whole column of mu.  The cycle types are walked as a
trie, depth first, so those that share their small parts share the
dicts of that prefix, and one sweep per table build fills every column.

mn_value evaluates a single chi_lam(mu) by the backward recursion over
beta-sets, memoized globally on (remaining shape, remaining cycles)
with the largest cycle stripped first.  No package code calls it: it
serves the tests as an independent oracle, and the benchmark's tracer
reads its memo.

A_n is built by restriction: a non-self-conjugate pair of S_n
characters restricts to one irreducible, a self-conjugate shape splits
into two characters that differ only on the split classes whose cycle
type equals its principal hook lengths, where the two values are
(e +/- sqrt(e * prod hooks)) / 2 with e = (-1)^((n - r) / 2) for r
principal hooks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, prod

from .algnum import MultiQuadratic
from .chartable import CharacterTable, ConjClass, Irrep
from .errors import CapExceededError
from .partitions import (
    Partition,
    _add_hooks,
    _shape_mask,
    conjugate,
    degree_hook,
    partitions,
    principal_hooks,
)

DEFAULT_CAP = 22


def check_group(kind: str, n: int) -> tuple[str, int]:
    """(label, class count) of the S_n ("sn") or A_n ("an") table before
    it is built, and the one check of n: ValueError below 1 (S_n) or 3
    (A_n), CapExceededError above DEFAULT_CAP.  The count is the length
    of the memoised class list, which the builder then reads."""
    group = kind[0].upper()  # "S" or "A"
    least = 3 if group == "A" else 1
    if n < least:
        raise ValueError(f"{group}_n needs n >= {least}, not n = {n}")
    if n > DEFAULT_CAP:
        raise CapExceededError(f"n = {n} exceeds cap {DEFAULT_CAP}")
    return f"{group}{n}", len(_classes(kind, n))


@cache
def _classes(kind: str, n: int) -> tuple[ConjClass, ...]:
    """The classes of S_n ("sn") or A_n ("an") for a checked n, one per
    cycle type mu in reverse lexicographic order, of size n!/z_mu.

    S_n: data is mu.  A_n: the even mu, with data (mu, half); a mu of
    distinct odd parts splits into two classes of half the size,
    labelled '+' (half 1) and '-' (half 2), and any other has half 0.
    The identity 1^n comes last: it is even and never split.
    """
    order = factorial(n)
    out = []
    for mu in partitions(n):
        label = f"({','.join(map(str, mu))})"
        # z_mu, the order of the centralizer: k^m m! for each part k of
        # multiplicity m
        z = prod(k ** mu.count(k) * factorial(mu.count(k)) for k in set(mu))
        size = order // z
        if kind == "sn":
            out.append(ConjClass(label, size, mu))
        elif (n - len(mu)) % 2:
            continue
        elif all(p % 2 for p in mu) and len(set(mu)) == len(mu):
            out.append(ConjClass(label + "+", size // 2, (mu, 1)))
            out.append(ConjClass(label + "-", size // 2, (mu, 2)))
        else:
            out.append(ConjClass(label, size, (mu, 0)))
    if out[-1].data not in ((1,) * n, ((1,) * n, 0)):
        raise AssertionError(f"the last class of {kind} {n} is not the identity")
    return tuple(out)


def _beta_set(lam: Partition) -> tuple[int, ...]:
    r = len(lam)
    return tuple(lam[i] + (r - 1 - i) for i in range(r))


def _from_beta(beta: list[int]) -> Partition:
    beta = sorted(beta, reverse=True)
    r = len(beta)
    parts = tuple(b - (r - 1 - i) for i, b in enumerate(beta))
    return tuple(p for p in parts if p > 0)


def rim_hook_removals(lam: Partition, t: int) -> list[tuple[Partition, int]]:
    """All ways to strip a rim hook of length t: (smaller shape, leg length)."""
    beta = _beta_set(lam)
    beta_set = set(beta)
    out = []
    for i, b in enumerate(beta):
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        leg = sum(1 for x in beta if nb < x < b)
        new_beta = list(beta)
        new_beta[i] = nb
        out.append((_from_beta(new_beta), leg))
    return out


@cache
def mn_value(lam: Partition, mu: Partition) -> int:
    """Character value chi_lam on the class of cycle type mu (both sum to n).

    mu must be sorted weakly decreasing; the recursion strips the
    largest cycle first.
    """
    if not lam:
        return 1
    t = mu[0]
    rest = mu[1:]
    total = 0
    for smaller, leg in rim_hook_removals(lam, t):
        total += (-1) ** leg * mn_value(smaller, rest)
    return total


def _sweep(n: int, shapes: list[Partition], mus: list[Partition]) -> list[list[int]]:
    """rows[i][j] = chi_shapes[i](mus[j]), from one depth-first walk of
    the trie of cycle types of n, smallest part first.  A cycle type
    may repeat in mus."""
    masks = [_shape_mask(lam, n) for lam in shapes]
    rows = [[0] * len(mus) for _ in shapes]
    index: dict[Partition, list[int]] = {}
    for j, mu in enumerate(mus):
        index.setdefault(mu, []).append(j)

    def walk(column: dict[int, int], rest: int, low: int, parts: Partition) -> None:
        # a child adds a part t that leaves rest - t >= t for the parts
        # after it; the leaf below this node adds rest as the last part
        for t in range(low, rest // 2 + 1):
            walk(_add_hooks(column, t), rest - t, t, parts + (t,))
        js = index.get((rest,) + parts[::-1])
        if js:
            leaf = _add_hooks(column, rest)
            for row, mask in zip(rows, masks):
                for j in js:
                    row[j] = leaf.get(mask, 0)

    walk({_shape_mask((), n): 1}, n, 1, ())
    return rows


def sn_table(n: int) -> CharacterTable:
    """Exact integer character table of S_n.

    Classes and characters both run over partitions of n in reverse
    lexicographic order, so the identity class (1^n) comes last.
    """
    label, _count = check_group("sn", n)
    classes = _classes("sn", n)
    shapes = list(partitions(n))
    irreps = []
    for lam, row in zip(shapes, _sweep(n, shapes, [c.data for c in classes])):
        irreps.append(Irrep(str(lam), row[-1], tuple(row)))
    return CharacterTable(label, factorial(n), classes, tuple(irreps), len(classes) - 1)


def an_table(n: int) -> CharacterTable:
    """Exact character table of A_n (n >= 3), values in MultiQuadratic or int.

    Which half of a split pair of classes receives the +sqrt value is a
    documented convention (the half labelled '+'); only consistency is
    observable.
    """
    label, _count = check_group("an", n)
    classes = _classes("an", n)

    # chi_lam and chi_lam' agree on A_n: sweep the first shape of each
    # conjugate pair in enumeration order
    shapes = [lam for lam in partitions(n) if lam >= conjugate(lam)]
    rows = _sweep(n, shapes, [c.data[0] for c in classes])
    irreps = []
    for lam, row in zip(shapes, rows):
        if lam != conjugate(lam):
            irreps.append(Irrep(str(lam), degree_hook(lam), tuple(row)))
            continue
        # the values on the split classes of cycle type hooks
        hooks = principal_hooks(lam)
        eps = (-1) ** ((n - len(hooks)) // 2)
        root = MultiQuadratic.sqrt(eps * prod(hooks), Fraction(1, 2))
        half_eps = MultiQuadratic({1: Fraction(eps, 2)})
        v_plus, v_minus = half_eps + root, half_eps - root
        half_degree = degree_hook(lam) // 2
        vals_p, vals_m = [], []
        for c, full in zip(classes, row):
            mu, half = c.data
            if half and mu == hooks:
                a, b = (v_plus, v_minus) if half == 1 else (v_minus, v_plus)
                vals_p.append(a)
                vals_m.append(b)
            elif full % 2:
                raise AssertionError(
                    f"odd restricted value {full} for {lam} on {mu}"
                )
            else:
                vals_p.append(full // 2)
                vals_m.append(full // 2)
        irreps.append(Irrep(f"{lam}+", half_degree, tuple(vals_p)))
        irreps.append(Irrep(f"{lam}-", half_degree, tuple(vals_m)))
    return CharacterTable(
        label, factorial(n) // 2, classes, tuple(irreps), len(classes) - 1
    )
