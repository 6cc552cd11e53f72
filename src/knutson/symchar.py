"""Character tables of S_n and A_n.

Whole tables come from a forward Murnaghan-Nakayama sweep on the
1-runner abacus (James & Kerber 1981).  A shape lam of n is an n-bead
bitmask with bead i at position lam_i + n - 1 - i, so the empty shape
is (1 << n) - 1.  Adding a rim t-hook moves one bead from b to an empty
position b + t, with sign (-1)^(number of beads strictly between b and
b + t).  The rule holds for the cycle lengths taken in any order, so
each cycle type mu is swept from the empty shape adding hooks of its
parts smallest first, keeping a dict from mask to nonzero value; after
the last part the dict is the whole column of mu.  The cycle types are
walked as a trie, depth first, so those that share their small parts
share the dicts of that prefix, and one sweep per table build fills
every column.

zero_in_small_part_columns decides many classes with parts at most 3,
of every n at once, on one bead count, sharing the columns of their 1s
and 2s; a class has a zero when its column holds fewer than p(n)
shapes.  It decides the a363701 classes that have no vanishing
certificate.  An odd class (an odd number of even parts) of n != 2 is
not swept: chi_lam' = sgn * chi_lam, so the character of a
self-conjugate lam vanishes on it, and one such lam is checked per n.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, prod
from typing import TypeVar

from .algnum import MultiQuadratic
from .chartable import CharacterTable, ConjClass, Irrep
from .errors import CapExceededError
from .partitions import (
    Partition,
    conjugate,
    degree_hook,
    partition_counts,
    partitions,
    principal_hooks,
)

DEFAULT_CAP = 22

K = TypeVar("K")


def check_cap(kind: str, n: int) -> None:
    """The one cap of the S_n ("sn") and A_n ("an") tables."""
    if n > DEFAULT_CAP:
        raise CapExceededError(f"{kind}_table({n}) exceeds cap {DEFAULT_CAP}")


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


def _shape_mask(lam: Partition, n: int) -> int:
    """lam as n beads on one runner: bead i at lam_i + n - 1 - i."""
    mask = (1 << (n - len(lam))) - 1
    for i, part in enumerate(lam):
        mask |= 1 << (part + n - 1 - i)
    return mask


def _add_hooks(column: dict[int, int], t: int) -> dict[int, int]:
    """Every shape of column with one rim t-hook added, in every way,
    each weighted by its hook's sign; zero sums are dropped."""
    out: dict[int, int] = {}
    between = (1 << (t - 1)) - 1
    for mask, value in column.items():
        movable = mask & ~(mask >> t)  # beads b with b + t empty
        while movable:
            low = movable & -movable
            movable ^= low
            grown = mask ^ low ^ (low << t)
            # the beads on the t - 1 positions strictly above b
            if (mask & (between * (low << 1))).bit_count() & 1:
                out[grown] = out.get(grown, 0) - value
            else:
                out[grown] = out.get(grown, 0) + value
    return {mask: value for mask, value in out.items() if value}


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

    walk({(1 << n) - 1: 1}, n, 1, ())
    return rows


def sn_table(n: int) -> CharacterTable:
    """Exact integer character table of S_n.

    Classes and characters both run over partitions of n in reverse
    lexicographic order, so the identity class (1^n) comes last.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_cap("sn", n)
    classes = tuple(
        ConjClass(ct.label(), ct.class_size(), ct) for ct in cycle_types(n)
    )
    mus = [c.data.parts for c in classes]
    identity_index = mus.index((1,) * n)
    shapes = list(partitions(n))
    irreps = []
    for lam, row in zip(shapes, _sweep(n, shapes, mus)):
        values = tuple(row)
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
    half_eps = MultiQuadratic({1: Fraction(eps, 2)})
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
    check_cap("an", n)
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

    shapes = list(partitions(n))
    rows = _sweep(n, shapes, [ct.parts for ct, _half in cls_list])
    irreps = []
    seen: set[Partition] = set()
    for lam, row in zip(shapes, rows):
        if lam in seen:
            continue
        conj_lam = conjugate(lam)
        seen.add(lam)
        seen.add(conj_lam)
        if lam != conj_lam:
            values = tuple(row)
            irreps.append(Irrep(str(lam), degree_hook(lam), values))
            continue
        hooks = principal_hooks(lam)
        _eps, v_plus, v_minus = _split_value(lam)
        half_degree = degree_hook(lam) // 2
        vals_p, vals_m = [], []
        for (ct, half), full in zip(cls_list, row):
            if half and ct.parts == hooks:
                a, b = (v_plus, v_minus) if half == 1 else (v_minus, v_plus)
                vals_p.append(a)
                vals_m.append(b)
            elif full % 2:
                raise AssertionError(
                    f"odd restricted value {full} for {lam} on {ct.parts}"
                )
            else:
                vals_p.append(full // 2)
                vals_m.append(full // 2)
        irreps.append(Irrep(f"{lam}+", half_degree, tuple(vals_p)))
        irreps.append(Irrep(f"{lam}-", half_degree, tuple(vals_m)))
    return CharacterTable(
        f"A{n}", factorial(n) // 2, classes, tuple(irreps), identity_index
    )


def _self_conjugate_shape(n: int) -> Partition:
    """A shape of n equal to its conjugate, for n != 2: the one with
    principal hooks (n) for odd n, (n - 1, 1) for even n."""
    k = n // 2
    if n % 2:
        return (k + 1,) + (1,) * k
    return (k, 2) + (1,) * (k - 2)


@cache
def self_conjugate_certificate(n: int) -> Partition:
    """_self_conjugate_shape(n), checked to be a partition of n equal to
    its conjugate.  chi_lam' = sgn * chi_lam, so its character vanishes
    on every odd class of S_n."""
    lam = _self_conjugate_shape(n)
    if sum(lam) != n or conjugate(lam) != lam:
        raise AssertionError(f"self-conjugate certificate {lam} fails for n = {n}")
    return lam


def zero_in_small_part_columns(groups: dict[K, list[Partition]]) -> set[K]:
    """The keys of groups whose classes all have a zero in their column.

    Every class is (3^a 2^b 1^c), a class of S_n for n = 3a + 2b + c.
    An odd class (b odd) of n != 2 has a zero, on the character of
    self_conjugate_certificate(n).  The others are swept from the empty
    shape, parts smallest first, as in _sweep: _add_hooks drops zero
    sums, so a class has a zero exactly when its column holds fewer than
    p(n) shapes.  They are swept on one bead count, the largest n, in
    the order of (c, b, a): the column of 1^c grows by one 1-hook at a
    time, the column of 1^c 2^b grows from it by one 2-hook at a time,
    and a class adds its a 3-hooks to the latter.  So classes of every n
    share the sweep of their 1s and 2s, and at most three columns are
    held.  A key is dropped at its first class without a zero; its other
    classes are not swept.
    """
    todo = []
    for key, mus in groups.items():
        for mu in mus:
            n = sum(mu)
            c, b, a = mu.count(1), mu.count(2), mu.count(3)
            if c + 2 * b + 3 * a != n:
                raise ValueError(f"class {mu} has a part above 3")
            if b % 2 and n != 2:
                self_conjugate_certificate(n)  # vanishes on this class
                continue
            todo.append(((c, b, a), key))
    todo.sort(key=lambda item: item[0])
    beads = max((c + 2 * b + 3 * a for (c, b, a), _key in todo), default=0)
    counts = partition_counts(beads)
    ones = twos = {(1 << beads) - 1: 1}  # the columns of 1^c0 and 1^c0 2^b0
    c0 = b0 = 0
    failed = set()
    for (c, b, a), key in todo:
        if key in failed:
            continue
        if c > c0:
            for _ in range(c - c0):
                ones = _add_hooks(ones, 1)
            twos, c0, b0 = ones, c, 0
        for _ in range(b - b0):
            twos = _add_hooks(twos, 2)
        b0 = b
        column = twos
        for _ in range(a):
            column = _add_hooks(column, 3)
        if len(column) == counts[c + 2 * b + 3 * a]:
            failed.add(key)
    return set(groups) - failed
