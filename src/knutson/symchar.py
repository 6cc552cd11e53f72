"""Character tables of S_n and A_n.

S_n values come from the rim-hook (Murnaghan-Nakayama) recursion over
beta-sets, memoized globally on (remaining shape, remaining cycles) with
the largest cycle stripped first.  A_n is built by restriction: a
non-self-conjugate pair of S_n characters restricts to one irreducible,
a self-conjugate shape splits into two characters that differ only on
the split classes whose cycle type equals its principal hook lengths,
where the two values are (e +/- sqrt(e * prod hooks)) / 2 with
e = (-1)^((n - r) / 2) for r principal hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, prod

from .algnum import MultiQuadratic
from .chartable import CharacterTable, ConjClass, Irrep
from .errors import CapExceededError
from .partitions import (
    Partition,
    conjugate,
    degree_hook,
    partitions,
    principal_hooks,
)

DEFAULT_CAP = 22
NONVANISHING_CAP = 30


@dataclass(frozen=True)
class CycleType:
    """Conjugacy class of S_n, labelled by its cycle lengths."""

    parts: Partition

    @property
    def n(self) -> int:
        return sum(self.parts)

    def multiplicities(self) -> dict[int, int]:
        mult: dict[int, int] = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def centralizer_order(self) -> int:
        return prod(k**m * factorial(m) for k, m in self.multiplicities().items())

    def class_size(self) -> int:
        return factorial(self.n) // self.centralizer_order()

    def is_even(self) -> bool:
        return (self.n - len(self.parts)) % 2 == 0

    def splits_in_alternating(self) -> bool:
        return all(p % 2 for p in self.parts) and len(set(self.parts)) == len(self.parts)

    def nonfixed(self) -> Partition:
        return tuple(p for p in self.parts if p > 1)

    def label(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")" if self.parts else "()"


def cycle_types(n: int) -> list[CycleType]:
    """One class per partition of n, in reverse lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")
    return [CycleType(mu) for mu in partitions(n)]


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


def sn_table(n: int) -> CharacterTable:
    """Exact integer character table of S_n.

    Classes and characters both run over partitions of n in reverse
    lexicographic order, so the identity class (1^n) comes last.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > DEFAULT_CAP:
        raise CapExceededError(f"sn_table({n}) exceeds cap {DEFAULT_CAP}")
    classes = tuple(
        ConjClass(ct.label(), ct.class_size(), ct) for ct in cycle_types(n)
    )
    mus = [c.data.parts for c in classes]
    identity_index = mus.index((1,) * n)
    irreps = []
    for lam in partitions(n):
        values = tuple(mn_value(lam, mu) for mu in mus)
        irreps.append(Irrep(str(lam), values[identity_index], values))
    return CharacterTable(
        f"S{n}", factorial(n), classes, tuple(irreps), identity_index
    )


def _split_value(lam: Partition) -> tuple[int, MultiQuadratic, MultiQuadratic]:
    """(epsilon, plus value, minus value) on the split classes of shape
    principal_hooks(lam), for self-conjugate lam."""
    hooks = principal_hooks(lam)
    n, r = sum(lam), len(hooks)
    eps = (-1) ** ((n - r) // 2)
    root = MultiQuadratic.sqrt(eps * prod(hooks), Fraction(1, 2))
    half_eps = MultiQuadratic.from_rational(Fraction(eps, 2))
    return eps, half_eps + root, half_eps - root


def an_classes(n: int) -> list[tuple[CycleType, int]]:
    """A_n classes as (cycle type, half) with half in {0} or {1, 2}."""
    out = []
    for ct in cycle_types(n):
        if not ct.is_even():
            continue
        if ct.splits_in_alternating():
            out.append((ct, 1))
            out.append((ct, 2))
        else:
            out.append((ct, 0))
    return out


def an_table(n: int) -> CharacterTable:
    """Exact character table of A_n (n >= 3), values in MultiQuadratic or int.

    Which half of a split pair of classes receives the +sqrt value is a
    documented convention (the half labelled '+'); only consistency is
    observable.
    """
    if n < 3:
        raise ValueError("an_table requires n >= 3")
    if n > DEFAULT_CAP:
        raise CapExceededError(f"an_table({n}) exceeds cap {DEFAULT_CAP}")
    cls_list = an_classes(n)
    classes = []
    for ct, half in cls_list:
        if half == 0:
            classes.append(ConjClass(ct.label(), ct.class_size(), (ct, 0)))
        else:
            sign = "+" if half == 1 else "-"
            classes.append(
                ConjClass(ct.label() + sign, ct.class_size() // 2, (ct, half))
            )
    identity_index = next(
        i for i, c in enumerate(classes) if c.data[0].parts == (1,) * n
    )

    irreps = []
    seen: set[Partition] = set()
    for lam in partitions(n):
        if lam in seen:
            continue
        conj_lam = conjugate(lam)
        seen.add(lam)
        seen.add(conj_lam)
        if lam != conj_lam:
            values = tuple(mn_value(lam, ct.parts) for ct, _half in cls_list)
            irreps.append(Irrep(str(lam), degree_hook(lam), values))
            continue
        hooks = principal_hooks(lam)
        _eps, v_plus, v_minus = _split_value(lam)
        half_degree = degree_hook(lam) // 2
        vals_p, vals_m = [], []
        for ct, half in cls_list:
            if half and ct.parts == hooks:
                a, b = (v_plus, v_minus) if half == 1 else (v_minus, v_plus)
                vals_p.append(a)
                vals_m.append(b)
            else:
                full = mn_value(lam, ct.parts)
                if full % 2:
                    raise AssertionError(
                        f"odd restricted value {full} for {lam} on {ct.parts}"
                    )
                vals_p.append(full // 2)
                vals_m.append(full // 2)
        irreps.append(Irrep(f"{lam}+", half_degree, tuple(vals_p)))
        irreps.append(Irrep(f"{lam}-", half_degree, tuple(vals_m)))
    return CharacterTable(
        f"A{n}", factorial(n) // 2, classes, tuple(irreps), identity_index
    )


@cache
def _shapes_by_degree(n: int) -> tuple[Partition, ...]:
    return tuple(sorted(partitions(n), key=degree_hook, reverse=True))


def class_has_zero(n: int, mu: Partition) -> bool:
    """Early-exit column scan: does some chi_lam vanish on class mu?

    Characters are scanned in decreasing degree order, where zeros are
    most frequent.
    """
    return any(mn_value(lam, mu) == 0 for lam in _shapes_by_degree(n))


def nonvanishing_classes_sn(n: int) -> list[CycleType]:
    """Classes of S_n on which no irreducible character vanishes.

    For n >= 3 the result is checked against the structural constraint
    that the non-fixed-point part of each class has shape (3^a, 2^b)
    with b even; a violation raises.  The full observed shapes (which
    may carry fixed points) are what is returned.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > NONVANISHING_CAP:
        raise CapExceededError(
            f"nonvanishing_classes_sn({n}) exceeds cap {NONVANISHING_CAP}"
        )
    out = []
    for ct in cycle_types(n):
        if not class_has_zero(n, ct.parts):
            out.append(ct)
    if n >= 3:
        for ct in out:
            nf = ct.nonfixed()
            b = sum(1 for p in nf if p == 2)
            if any(p not in (2, 3) for p in nf) or b % 2:
                raise AssertionError(
                    f"non-vanishing class {ct.parts} of S_{n} violates the "
                    "(3^a, 2^b), b even shape constraint"
                )
    return out
