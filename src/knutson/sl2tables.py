"""Generic character tables of SL2(q) and PSL2(q), and the rho machinery.

The tables are instantiated from the classical generic table,
parametrized by abstract roots of unity alpha of order q-1 and beta of
order q+1 (realized inside Q(zeta_m) with m = lcm(q-1, q+1), the least
field holding both; p would only enlarge it) and, for odd q, the
quadratic element tau with tau^2 = eps*q where eps = (-1)^((q-1)/2),
kept formal.  No matrix realizations are needed; the classes
are index-parametrized.  Exact row orthogonality is checked on
construction (the column relations follow from it) -- a transcription
error in any single entry breaks it.  For odd q the PSL2(q) table is
read off unchecked SL2(q) rows: its rows are the ones fixing -id, and
its classes are the SL2 columns those rows do not tell apart.  It is
checked as itself, which checks the kept rows as SL2 rows: each PSL2
class is the image of SL2 classes of twice its size, on which they are
constant.  The rows it drops are checked only by sl2_table.

For odd q the classes come in the order
    1, z, c, d, zc, zd, a^1 .. a^((q-3)/2), b^1 .. b^((q-1)/2)
with z = -id, c/d the two unipotent classes, a of order q-1 and b of
order q+1; for even q there is no center and the order is
    1, c, a^1 .. a^((q-2)/2), b^1 .. b^(q/2).

The table is built from its centre, {1} for even q and {1, z} for odd
q.  By Schur's lemma z acts on each irreducible chi as a scalar
omega = chi(z) / chi(1), a sign, so chi(z^k g) = omega^k chi(g).  Each
family is therefore one row spec: its degree, omega, its values on c
and d, and its values on the a^l and b^m.  The central columns come
from the degree and the zc, zd columns from the c, d values; nothing
is written out twice.  The same specs serve even q, which has one
unipotent class and no z.  Sl2Param.from_q is the one check of the
caps: q <= ODD_CAP for odd q and q <= EVEN_CAP for even q.

The rho machinery lives here too, the one import of higher layers
(charring, knutsonlat) by a table module.  It takes the SL2(q) table its
caller holds, for odd q >= 5, and reads q off it as psi's degree.
rho+ and rho-, the sums of chi(1)*chi over the irreducibles fixing and
negating -id, are built once: rho = 2*rho+ is the theorem's character,
and the pair carries the obstruction certifying K'(SL2(q)) = 1.  The
published seven-row table of explicit inverses has its two columns
both headed "q = 1 mod 4" (an evident misprint), so the
column-to-residue assignment is resolved by exact verification rather
than by trusting either header.  One row
("chi_i with i odd", second column) carries the coefficient (q-1)/3,
which is not even an integer for most q; that row is reported with its
exact discrepancy, and a small coefficient search looks for a verifying
replacement, reported beside it.  Nothing is corrected silently.

The printed table is the one literal _PRINTED: row name -> (left
column, right column), each column a tuple of terms (name, a, b, d)
meaning (a*q + b)/d times every member of the family `name` or times
the one irreducible of that name.  The families are eta = {eta1, eta2},
xi = {xi1, xi2}, psi = {psi} and the chi_i and theta_j split by the
parity of the index; a row inverts the members of its namesake family.
The suspect term is _SUSPECT, and the search keeps the rest of its row.
Row verification and the search share one check, _discrepancies, of
chi (x) lam - rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algnum import CyclotomicTau
from .chartable import CharacterTable, ConjClass, Irrep
from .charring import VirtualCharacter, fusion_matrix, is_rho_invertible
from .errors import CapExceededError
from .knutsonlat import mat_vec
from .numtheory import factorize

EVEN_CAP = 32
ODD_CAP = 13


@dataclass(frozen=True)
class Sl2Param:
    """The numerics hanging off a prime power q = p^f."""

    q: int
    p: int
    f: int

    @classmethod
    def from_q(cls, q: int) -> "Sl2Param":
        """The parameters of q, and the one check of the SL2 caps.

        q above both caps raises CapExceededError before it is
        factorised, a prime power above the cap of its parity after;
        q < 2 is not a prime power and is not factorised.
        """
        top = max(EVEN_CAP, ODD_CAP)
        if q > top:
            raise CapExceededError(f"q = {q} exceeds the largest supported q, {top}")
        fac = factorize(q) if q > 1 else []
        if len(fac) != 1:
            raise ValueError(f"q = {q} is not a prime power")
        p, f = fac[0]
        cap = EVEN_CAP if p == 2 else ODD_CAP
        if q > cap:
            raise CapExceededError(f"q = {q} exceeds cap {cap}")
        return cls(q, p, f)

    @property
    def is_even(self) -> bool:
        return self.q % 2 == 0

    @property
    def eps(self) -> int:
        """(-1)^((q-1)/2); only defined for odd q."""
        if self.is_even:
            raise ValueError("eps is defined for odd q only")
        return -1 if self.q % 4 == 3 else 1

    @property
    def tau_sq(self) -> int:
        return 0 if self.is_even else self.eps * self.q

    @property
    def m(self) -> int:
        """Order of the least cyclotomic field holding alpha and beta:
        lcm(q-1, q+1).  tau is formal, so p adds nothing to it."""
        return lcm(self.q - 1, self.q + 1)

    @property
    def order(self) -> int:
        return self.q * (self.q * self.q - 1)


def check_group(kind: str, q: int) -> tuple[str, int]:
    """(label, class count) of the SL2(q) ("sl2") or PSL2(q) ("psl2")
    table, known before it is built; Sl2Param.from_q checks q.  SL2(q)
    has the q + 4 classes listed above for odd q, and PSL2(q) (q + 5)/2;
    for even q both are one group of q + 1 classes."""
    Sl2Param.from_q(q)
    if q % 2 == 0:
        count = q + 1
    else:
        count = q + 4 if kind == "sl2" else (q + 5) // 2
    return f"{kind.upper()}({q})", count


def _pair(par: Sl2Param, n: int, k: int) -> CyclotomicTau:
    """x^k + x^(-k) for x of order n: alpha for n = q - 1, beta for q + 1."""
    m, s = par.m, (par.m // n) * k
    return (
        CyclotomicTau.root_of_unity(m, s, par.tau_sq)
        + CyclotomicTau.root_of_unity(m, -s, par.tau_sq)
    )


def _half_tau(par: Sl2Param, a: int, b: int) -> CyclotomicTau:
    """(a + b*tau) / 2."""
    return CyclotomicTau(
        par.m, par.tau_sq, {0: Fraction(a, 2)}, {0: Fraction(b, 2)}
    )


def _sl2(par: Sl2Param) -> CharacterTable:
    """The generic table of SL2(q), one row spec per family.

    A spec is (label, degree, omega, values on c and d, values on the
    a^l, values on the b^m).  Each irreducible is a scalar omega on the
    centre, so its value at z^k g is omega^k times its value at g: that
    gives the central columns from the degree and the zc, zd columns
    from the c, d values.  Even q has no d and a trivial centre, and
    only the first unipotent value of a spec is used.
    """
    q = par.q
    na, nb = (q - 2) // 2, q // 2
    ells, ems = range(1, na + 1), range(1, nb + 1)
    centre = ("1",) if par.is_even else ("1", "z")
    unipotent = ("c",) if par.is_even else ("c", "d")
    zu = [u if z == "1" else z + u for z in centre for u in unipotent]

    classes = [ConjClass(z, 1, (z,)) for z in centre]
    classes += [ConjClass(u, (q * q - 1) // len(unipotent), (u,)) for u in zu]
    classes += [ConjClass(f"a{l}", q * (q + 1), ("a", l)) for l in ells]
    classes += [ConjClass(f"b{m}", q * (q - 1), ("b", m)) for m in ems]

    specs = [
        ("1", 1, 1, (1, 1), (1,) * na, (1,) * nb),
        ("psi", q, 1, (0, 0), (1,) * na, (-1,) * nb),
    ]
    specs += [
        (f"chi{i}", q + 1, (-1) ** i, (1, 1),
         tuple(_pair(par, q - 1, i * l) for l in ells), (0,) * nb)
        for i in ells
    ]
    specs += [
        (f"theta{j}", q - 1, (-1) ** j, (-1, -1),
         (0,) * na, tuple(-_pair(par, q + 1, j * m) for m in ems))
        for j in ems
    ]
    if not par.is_even:
        eps = par.eps
        hpp, hpm = _half_tau(par, 1, 1), _half_tau(par, 1, -1)
        hmp, hmm = _half_tau(par, -1, 1), _half_tau(par, -1, -1)
        xi_a = tuple((-1) ** l for l in ells)
        eta_b = tuple((-1) ** (m + 1) for m in ems)
        specs += [
            ("xi1", (q + 1) // 2, eps, (hpp, hpm), xi_a, (0,) * nb),
            ("xi2", (q + 1) // 2, eps, (hpm, hpp), xi_a, (0,) * nb),
            ("eta1", (q - 1) // 2, -eps, (hmp, hmm), (0,) * na, eta_b),
            ("eta2", (q - 1) // 2, -eps, (hmm, hmp), (0,) * na, eta_b),
        ]
    powers = range(len(centre))
    irreps = [
        Irrep(
            label, degree,
            tuple(omega**k * degree for k in powers)
            + tuple(omega**k * v for k in powers for v in uni[: len(unipotent)])
            + on_ells + on_ems,
        )
        for label, degree, omega, uni, on_ells, on_ems in specs
    ]
    return CharacterTable(f"SL2({q})", par.order, tuple(classes), tuple(irreps))


def sl2_table(q: int) -> CharacterTable:
    """Exact character table of SL2(q); orthogonality-validated."""
    table = _sl2(Sl2Param.from_q(q))
    table.check_orthogonality()
    return table


def center_fixed_indices(table: CharacterTable) -> list[int]:
    """Irreducibles of an odd-q SL2 table with chi(-id) = chi(id)."""
    return [
        i for i, ir in enumerate(table.irreps)
        if ir.values[1] == ir.degree
    ]


def _psl2_odd(sl2: CharacterTable) -> CharacterTable:
    """The table of SL2(q) / {+-1} for odd q, read off the SL2(q) table.

    The rows fixing -id are the full table of PSL2(q), so they separate
    its classes and agree on g and -g: SL2 columns with equal values on
    those rows are exactly the classes fused by the quotient.  Each
    group is one class, labelled by its first member, of half the
    members' total size.  A kept row that differs on g and -g leaves an
    extra class, which the table's own validation rejects.
    """
    kept = [sl2.irreps[i] for i in center_fixed_indices(sl2)]
    groups: dict[tuple, list[int]] = {}
    for k in range(len(sl2.classes)):
        groups.setdefault(tuple(ir.values[k] for ir in kept), []).append(k)
    classes = tuple(
        ConjClass(
            sl2.classes[ks[0]].label,
            sum(sl2.classes[k].size for k in ks) // 2,
            tuple(sl2.classes[k].label for k in ks),
        )
        for ks in groups.values()
    )
    irreps = tuple(
        Irrep(ir.label, ir.degree, tuple(ir.values[ks[0]] for ks in groups.values()))
        for ir in kept
    )
    return CharacterTable(f"P{sl2.label}", sl2.order // 2, classes, irreps)


def psl2_table(q: int) -> CharacterTable:
    """Exact character table of PSL2(q); equals SL2(q) for even q.  It
    is read off unchecked SL2(q) rows and checked as itself."""
    sl2 = _sl2(Sl2Param.from_q(q))
    if q % 2 == 0:
        table = CharacterTable(
            f"PSL2({q})", sl2.order, sl2.classes, sl2.irreps,
            sl2.identity_index,
        )
    else:
        table = _psl2_odd(sl2)
    table.check_orthogonality()
    return table


def _odd_q(table: CharacterTable) -> int:
    """q of an SL2(q) table for odd q >= 5, read off as psi's degree;
    ValueError for any other table.  The row orthogonality check runs
    here (free once passed), so a cached table is verified where used.
    """
    q = next((ir.degree for ir in table.irreps if ir.label == "psi"), 0)
    if q % 2 == 0 or q < 5 or table.label != f"SL2({q})":
        raise ValueError(
            f"the rho machinery requires SL2(q) for odd q >= 5, not {table.label}"
        )
    table.check_orthogonality()
    return q


def _rho_pm(table: CharacterTable) -> tuple[VirtualCharacter, VirtualCharacter]:
    """(rho+, rho-): the sums of chi(1)*chi over the chi fixing, and the
    chi negating, -id, for odd q >= 5.

    They are the only degree-|G|/2 characters vanishing off the centre:
    rho+/- takes |G|/2 at id, +/-|G|/2 at -id and 0 elsewhere (asserted).
    """
    _odd_q(table)
    fixed = set(center_fixed_indices(table))
    pm = tuple(
        VirtualCharacter(table, tuple(
            ir.degree if (i in fixed) == plus else 0
            for i, ir in enumerate(table.irreps)
        ))
        for plus in (True, False)
    )
    half = table.order // 2
    zeros = (0,) * (len(table.classes) - 2)
    want = ((half, half) + zeros, (half, -half) + zeros)
    if tuple(rho.values() for rho in pm) != want:
        raise AssertionError(f"rho+/- evaluation mismatch on {table.label}")
    return pm


def rho_theorem_character(table: CharacterTable) -> VirtualCharacter:
    """rho = rho+ + rho+, the sum of 2*chi(1)*chi over the chi fixing -id,
    of the SL2(q) table for odd q >= 5: |G| at +/-id and 0 on every other
    class."""
    rho_plus, _ = _rho_pm(table)
    return rho_plus + rho_plus


def verify_rho_pm_obstruction(table: CharacterTable) -> bool:
    """Confirm the rho+/- obstruction certifying K'(SL2(q)) = 1 on the
    SL2(q) table, odd q >= 5.

    For each of rho+ and rho-, at least one member of the designated
    pair (degree q-1 for q = 1 mod 4, degree q+1 otherwise) must fail to
    be invertible -- otherwise the pair would manufacture a regular
    inverse.
    """
    q = _odd_q(table)
    pm = _rho_pm(table)
    family = "theta" if q % 4 == 1 else "chi"
    pair = [table.irrep_index(f"{family}{k}") for k in (1, 2)]
    return not any(
        all(is_rho_invertible(table, i, rho) is not None for i in pair)
        for rho in pm
    )


# ---------------------------------------------------------------------------
# the published seven-row table of explicit rho-inverses

# The (q-1)/3 chi_1 term of the right-hand chi_odd row.
_SUSPECT = ("chi1", 1, -1, 3)

# Row name -> (left column, right column), rows in the printed order;
# a term (name, a, b, d) is (a*q + b)/d times family or irreducible name.
_PRINTED = {
    "eta": (
        (("eta", 0, 2, 1), ("theta_odd", 0, 4, 1), ("chi1", 1, 1, 1)),
        (("1", 1, -1, 1), ("eta", 0, 2, 1), ("theta_even", 0, 4, 1), ("psi", 1, 3, 1)),
    ),
    "xi": (
        (("1", 0, 4, 1), ("xi", 0, 2, 1), ("theta2", 1, 1, 1), ("chi_even", 0, 4, 1)),
        (("xi", 0, 2, 1), ("theta1", 1, -1, 1), ("chi_odd", 0, 4, 1)),
    ),
    "theta_odd": (
        (("eta", 0, 1, 1), ("theta_odd", 0, 2, 1), ("chi1", 1, 1, 2)),
        (("xi", 1, 1, 2), ("theta_odd", 0, 2, 1)),
    ),
    "theta_even": (
        (("1", 0, -2, 1), ("xi", 1, 3, 2), ("theta_even", 0, 2, 1)),
        (("1", 1, -1, 2), ("eta", 0, 1, 1), ("theta_even", 0, 2, 1), ("psi", 1, 3, 2)),
    ),
    "psi": (
        (("1", 0, -2, 1), ("theta_even", 0, 4, 1), ("psi", 0, 2, 1)),
        (("1", 0, -2, 1), ("eta", 0, 2, 1), ("theta_even", 0, 4, 1), ("psi", 0, 2, 1)),
    ),
    "chi_odd": (
        (("eta", 1, -1, 2), ("chi_odd", 0, 2, 1)),
        (("xi", 0, 1, 1), _SUSPECT, ("chi_odd", 0, 2, 1)),
    ),
    "chi_even": (
        (("1", 0, 2, 1), ("xi", 0, 1, 1), ("theta2", 1, 1, 2), ("chi_even", 0, 2, 1)),
        (("1", 0, 2, 1), ("eta", 1, 1, 2), ("chi_even", 0, 2, 1)),
    ),
}


def _families(q: int) -> dict[str, list[str]]:
    """Family name -> its members; a row's targets are its namesake family."""
    chi = [f"chi{i}" for i in range(1, (q - 3) // 2 + 1)]
    theta = [f"theta{j}" for j in range(1, (q - 1) // 2 + 1)]
    return {
        "eta": ["eta1", "eta2"], "xi": ["xi1", "xi2"], "psi": ["psi"],
        "theta_odd": theta[0::2], "theta_even": theta[1::2],
        "chi_odd": chi[0::2], "chi_even": chi[1::2],
    }


def _coefficients(terms, q: int) -> dict[str, Fraction]:
    """The coefficients of printed terms at q, summed per irreducible: the
    right-hand chi_odd row names chi1 alone and inside the chi_odd family."""
    fam = _families(q)
    out: dict[str, Fraction] = {}
    for name, a, b, d in terms:
        for label in fam.get(name, (name,)):
            out[label] = out.get(label, 0) + Fraction(a * q + b, d)
    return out


def _coeffs_to_virtual(
    table: CharacterTable, coeffs: dict[str, Fraction]
) -> VirtualCharacter | None:
    """The virtual character, or None when a coefficient is not an integer."""
    mults = [0] * len(table.irreps)
    for label, c in coeffs.items():
        if c.denominator != 1:
            return None
        mults[table.irrep_index(label)] = c.numerator
    return VirtualCharacter(table, tuple(mults))


def _discrepancies(
    table: CharacterTable, rho: VirtualCharacter, targets, lam: VirtualCharacter
) -> dict[str, tuple[int, ...]]:
    """label -> chi (x) lam - rho, in multiplicities, for each target chi
    that lam does not invert; empty when lam inverts them all."""
    out: dict[str, tuple[int, ...]] = {}
    for label in targets:
        got = mat_vec(fusion_matrix(table, table.irrep_index(label)), lam.mults)
        diff = tuple(g - r for g, r in zip(got, rho.mults))
        if any(diff):
            out[label] = diff
    return out


@dataclass
class RhoRowReport:
    """Verification outcome of one printed row under one column."""

    name: str
    targets: tuple[str, ...]
    coefficients: dict[str, Fraction]
    lam: VirtualCharacter | None
    verified: bool
    discrepancies: dict[str, tuple[int, ...]]
    correction: VirtualCharacter | None = None

    @property
    def accepted(self) -> bool:
        """The row verifies, or a verifying replacement was found."""
        return self.verified or self.correction is not None


@dataclass
class RhoInverseReport:
    """Both columns of the printed table verified against rho for one q."""

    q: int
    column: str  # printed column selected by verification: left / right
    rows: dict[str, dict[str, RhoRowReport]]  # column -> row name -> report

    def selected_rows(self) -> dict[str, RhoRowReport]:
        return self.rows[self.column]


def _verify_row(
    table: CharacterTable, rho: VirtualCharacter, name: str, terms, q: int
) -> RhoRowReport:
    targets = _families(q)[name]
    coeffs = _coefficients(terms, q)
    lam = _coeffs_to_virtual(table, coeffs)
    discrepancies = {} if lam is None else _discrepancies(table, rho, targets, lam)
    # A row with no targets at this q (e.g. no even chi indices when
    # (q-3)/2 < 2) is vacuously fine.
    verified = not targets or (lam is not None and not discrepancies)
    return RhoRowReport(name, tuple(targets), coeffs, lam, verified, discrepancies)


def _search_chi_odd_correction(
    table: CharacterTable, rho: VirtualCharacter, q: int
) -> VirtualCharacter | None:
    """Replace the suspect (q-1)/3 chi_1 term by c * (single irreducible).

    The rest of the printed right-hand row is kept; the degree identity
    deg(lam) = |G| / (q+1) pins c once the replacement character is
    chosen, so the search is one exact verification per irreducible.
    """
    targets = _families(q)["chi_odd"]
    base = _coefficients([t for t in _PRINTED["chi_odd"][1] if t != _SUSPECT], q)
    base_deg = sum(
        c * table.irreps[table.irrep_index(label)].degree
        for label, c in base.items()
    )
    want_deg = table.order // (q + 1)  # deg(lam) forced by chi (x) lam = rho
    missing = want_deg - base_deg
    for ir in table.irreps:
        c, r = divmod(missing, ir.degree)
        if r:
            continue
        coeffs = dict(base)
        coeffs[ir.label] = coeffs.get(ir.label, 0) + c
        lam = _coeffs_to_virtual(table, coeffs)
        if not _discrepancies(table, rho, targets, lam):
            return lam
    return None


def paper_rho_inverses(table: CharacterTable) -> RhoInverseReport:
    """Verify the printed rho-inverse rows on the SL2(q) table, odd q >= 5.

    Both printed columns are checked against every row; the column under
    which more rows verify is selected (resolving the duplicated header
    by computation).  Rows failing under the selected column keep their
    exact discrepancy vectors, and the known suspect row additionally
    gets a bounded coefficient search for a verifying replacement.
    """
    q = _odd_q(table)
    rho = rho_theorem_character(table)
    rows = {
        column: {
            name: _verify_row(table, rho, name, columns[i], q)
            for name, columns in _PRINTED.items()
        }
        for i, column in enumerate(("left", "right"))
    }
    score = {
        col: sum(1 for r in rows[col].values() if r.verified)
        for col in rows
    }
    column = max(score, key=lambda col: score[col])
    suspect = rows[column]["chi_odd"]
    if not suspect.verified:
        suspect.correction = _search_chi_odd_correction(table, rho, q)
    return RhoInverseReport(q, column, rows)
