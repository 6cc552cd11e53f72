"""Generic character tables of SL2(q) and PSL2(q), and the rho machinery.

The tables are instantiated from the classical generic table,
parametrized by abstract roots of unity alpha of order q-1 and beta of
order q+1 (realized inside Q(zeta_m) with m = lcm(p, q-1, q+1)) and,
for odd q, the quadratic element tau with tau^2 = eps*q where
eps = (-1)^((q-1)/2).  No matrix realizations are needed; the classes
are index-parametrized.  Exact row orthogonality is checked on
construction (the column relations follow from it) -- a transcription
error in any single entry breaks it.  For odd q the PSL2(q) table is
read off the SL2(q) table: its rows are the ones fixing -id, and its
classes are the SL2 columns those rows do not tell apart.

For odd q the classes come in the order
    1, z, c, d, zc, zd, a^1 .. a^((q-3)/2), b^1 .. b^((q-1)/2)
with z = -id, c/d the two unipotent classes, a of order q-1 and b of
order q+1; for even q there is no center and the order is
    1, c, a^1 .. a^((q-2)/2), b^1 .. b^(q/2).

The rho-inverse bookkeeping lives here too: the published seven-row
table of explicit inverses has its two columns both headed "q = 1 mod 4"
(an evident misprint), so the column-to-residue assignment is resolved
by exact verification rather than by trusting either header.  One row
("chi_i with i odd", second column) carries the coefficient (q-1)/3,
which is not even an integer for most q; that row is reported with its
exact discrepancy, and a small coefficient search looks for a verifying
replacement, reported beside it.  Nothing is corrected silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm

from .algnum import CyclotomicTau
from .chartable import CharacterTable, ConjClass, Irrep
from .charring import VirtualCharacter, fusion_matrix
from .errors import CapExceededError
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
        """Raises CapExceededError above every cap, before factorising q."""
        cap = max(EVEN_CAP, ODD_CAP)
        if q > cap:
            raise CapExceededError(f"q = {q} exceeds the largest supported q, {cap}")
        fac = factorize(q)
        if len(fac) != 1:
            raise ValueError(f"q = {q} is not a prime power")
        p, f = fac[0]
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
        """Order of the ambient cyclotomic field: lcm(p, q-1, q+1)."""
        return lcm(self.p, self.q - 1, self.q + 1)

    @property
    def order(self) -> int:
        return self.q * (self.q * self.q - 1)

    @property
    def default_cap(self) -> int:
        """Largest q whose table is built."""
        return EVEN_CAP if self.is_even else ODD_CAP


def _zeta(par: Sl2Param, k: int) -> CyclotomicTau:
    return CyclotomicTau.root_of_unity(par.m, k, par.tau_sq)


def _alpha_pair(par: Sl2Param, k: int) -> CyclotomicTau:
    """alpha^k + alpha^(-k) with alpha of order q - 1."""
    s = (par.m // (par.q - 1)) * k
    return _zeta(par, s) + _zeta(par, -s)


def _beta_pair(par: Sl2Param, k: int) -> CyclotomicTau:
    """beta^k + beta^(-k) with beta of order q + 1."""
    s = (par.m // (par.q + 1)) * k
    return _zeta(par, s) + _zeta(par, -s)


def _half_tau(par: Sl2Param, a: int, b: int) -> CyclotomicTau:
    """(a + b*tau) / 2."""
    return CyclotomicTau(
        par.m, par.tau_sq, {0: Fraction(a, 2)}, {0: Fraction(b, 2)}
    )


def _sl2_odd(par: Sl2Param) -> CharacterTable:
    q, eps = par.q, par.eps
    na, nb = (q - 3) // 2, (q - 1) // 2
    ells = range(1, na + 1)
    ems = range(1, nb + 1)

    classes = [
        ConjClass("1", 1, ("1",)),
        ConjClass("z", 1, ("z",)),
        ConjClass("c", (q * q - 1) // 2, ("c",)),
        ConjClass("d", (q * q - 1) // 2, ("d",)),
        ConjClass("zc", (q * q - 1) // 2, ("zc",)),
        ConjClass("zd", (q * q - 1) // 2, ("zd",)),
    ]
    classes += [ConjClass(f"a{l}", q * (q + 1), ("a", l)) for l in ells]
    classes += [ConjClass(f"b{m}", q * (q - 1), ("b", m)) for m in ems]

    irreps = [
        Irrep("1", 1, tuple([1] * len(classes))),
        Irrep(
            "psi", q,
            (q, q, 0, 0, 0, 0) + tuple(1 for _ in ells) + tuple(-1 for _ in ems),
        ),
    ]
    for i in range(1, na + 1):
        si = (-1) ** i
        irreps.append(Irrep(
            f"chi{i}", q + 1,
            (q + 1, si * (q + 1), 1, 1, si, si)
            + tuple(_alpha_pair(par, i * l) for l in ells)
            + tuple(0 for _ in ems),
        ))
    for j in range(1, nb + 1):
        sj = (-1) ** j
        irreps.append(Irrep(
            f"theta{j}", q - 1,
            (q - 1, sj * (q - 1), -1, -1, -sj, -sj)
            + tuple(0 for _ in ells)
            + tuple(-_beta_pair(par, j * m) for m in ems),
        ))
    hpp, hpm = _half_tau(par, 1, 1), _half_tau(par, 1, -1)
    hmp, hmm = _half_tau(par, -1, 1), _half_tau(par, -1, -1)
    half_q1 = (q + 1) // 2
    half_qm1 = (q - 1) // 2
    irreps.append(Irrep(
        "xi1", half_q1,
        (half_q1, eps * half_q1, hpp, hpm, eps * hpp, eps * hpm)
        + tuple((-1) ** l for l in ells) + tuple(0 for _ in ems),
    ))
    irreps.append(Irrep(
        "xi2", half_q1,
        (half_q1, eps * half_q1, hpm, hpp, eps * hpm, eps * hpp)
        + tuple((-1) ** l for l in ells) + tuple(0 for _ in ems),
    ))
    irreps.append(Irrep(
        "eta1", half_qm1,
        (half_qm1, -eps * half_qm1, hmp, hmm, -eps * hmp, -eps * hmm)
        + tuple(0 for _ in ells) + tuple((-1) ** (m + 1) for m in ems),
    ))
    irreps.append(Irrep(
        "eta2", half_qm1,
        (half_qm1, -eps * half_qm1, hmm, hmp, -eps * hmm, -eps * hmp)
        + tuple(0 for _ in ells) + tuple((-1) ** (m + 1) for m in ems),
    ))
    return CharacterTable(f"SL2({q})", par.order, tuple(classes), tuple(irreps))


def _sl2_even(par: Sl2Param) -> CharacterTable:
    q = par.q
    na, nb = (q - 2) // 2, q // 2
    ells = range(1, na + 1)
    ems = range(1, nb + 1)

    classes = [ConjClass("1", 1, ("1",)), ConjClass("c", q * q - 1, ("c",))]
    classes += [ConjClass(f"a{l}", q * (q + 1), ("a", l)) for l in ells]
    classes += [ConjClass(f"b{m}", q * (q - 1), ("b", m)) for m in ems]

    irreps = [
        Irrep("1", 1, tuple([1] * len(classes))),
        Irrep(
            "psi", q,
            (q, 0) + tuple(1 for _ in ells) + tuple(-1 for _ in ems),
        ),
    ]
    for i in range(1, na + 1):
        irreps.append(Irrep(
            f"chi{i}", q + 1,
            (q + 1, 1)
            + tuple(_alpha_pair(par, i * l) for l in ells)
            + tuple(0 for _ in ems),
        ))
    for j in range(1, nb + 1):
        irreps.append(Irrep(
            f"theta{j}", q - 1,
            (q - 1, -1)
            + tuple(0 for _ in ells)
            + tuple(-_beta_pair(par, j * m) for m in ems),
        ))
    return CharacterTable(f"SL2({q})", par.order, tuple(classes), tuple(irreps))


@cache
def _sl2_cached(q: int) -> CharacterTable:
    par = Sl2Param.from_q(q)
    table = _sl2_even(par) if par.is_even else _sl2_odd(par)
    table.check_orthogonality()
    return table


def sl2_table(q: int) -> CharacterTable:
    """Exact character table of SL2(q); orthogonality-validated."""
    cap = Sl2Param.from_q(q).default_cap
    if q > cap:
        raise CapExceededError(f"sl2_table({q}) exceeds cap {cap}")
    return _sl2_cached(q)


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


@cache
def _psl2_cached(q: int) -> CharacterTable:
    sl2 = _sl2_cached(q)
    if q % 2 == 0:
        return CharacterTable(
            f"PSL2({q})", sl2.order, sl2.classes, sl2.irreps,
            sl2.identity_index,
        )
    table = _psl2_odd(sl2)
    table.check_orthogonality()
    return table


def psl2_table(q: int) -> CharacterTable:
    """Exact character table of PSL2(q); equals SL2(q) for even q."""
    cap = Sl2Param.from_q(q).default_cap
    if q > cap:
        raise CapExceededError(f"psl2_table({q}) exceeds cap {cap}")
    return _psl2_cached(q)


def lcm_degrees_sl2_expected(q: int) -> int:
    """Closed form for the lcm of the degrees of SL2(q), q >= 4."""
    if q < 4:
        raise ValueError("the closed form requires q >= 4")
    base = (q + 1) * q * (q - 1)
    return base // 2 if q % 2 else base


def rho_theorem_character(q: int) -> VirtualCharacter:
    """rho = sum of 2*chi(1)*chi over the chi fixing -id, for odd q >= 5.

    Evaluates to |G| at +/-id and 0 on every other class (asserted).
    """
    par = Sl2Param.from_q(q)
    if par.is_even or q < 5:
        raise ValueError("rho_theorem_character requires odd q >= 5")
    table = sl2_table(q)
    fixed = set(center_fixed_indices(table))
    mults = tuple(
        2 * ir.degree if i in fixed else 0
        for i, ir in enumerate(table.irreps)
    )
    rho = VirtualCharacter(table, mults)
    want = (table.order,) * 2 + (0,) * (len(table.classes) - 2)
    if rho.values() != want:
        raise AssertionError(f"rho evaluation mismatch on {table.label}")
    return rho


# ---------------------------------------------------------------------------
# the published seven-row table of explicit rho-inverses

_ROW_NAMES = (
    "eta", "xi", "theta_odd", "theta_even", "psi", "chi_odd", "chi_even",
)


def _family_labels(q: int) -> dict[str, list[str]]:
    chi = [f"chi{i}" for i in range(1, (q - 3) // 2 + 1)]
    theta = [f"theta{j}" for j in range(1, (q - 1) // 2 + 1)]
    return {
        "chi_odd": chi[0::2],
        "chi_even": chi[1::2],
        "theta_odd": theta[0::2],
        "theta_even": theta[1::2],
    }


def _row_targets(name: str, q: int) -> list[str]:
    fam = _family_labels(q)
    return {
        "eta": ["eta1", "eta2"],
        "xi": ["xi1", "xi2"],
        "theta_odd": fam["theta_odd"],
        "theta_even": fam["theta_even"],
        "psi": ["psi"],
        "chi_odd": fam["chi_odd"],
        "chi_even": fam["chi_even"],
    }[name]


def _row_coefficients(name: str, column: str, q: int) -> dict[str, Fraction]:
    """Raw coefficients of one printed row, keyed by irreducible label.

    column is "left" or "right" as printed (both headers claim
    q = 1 mod 4; the real assignment is decided by verification).
    """
    fam = _family_labels(q)
    out: dict[str, Fraction] = {}

    def add(label: str, coeff) -> None:
        out[label] = out.get(label, Fraction(0)) + Fraction(coeff)

    def add_family(key: str, coeff) -> None:
        for label in fam[key]:
            add(label, coeff)

    if name == "eta":
        if column == "left":
            add("eta1", 2), add("eta2", 2)
            add_family("theta_odd", 4)
            add("chi1", q + 1)
        else:
            add("1", q - 1)
            add("eta1", 2), add("eta2", 2)
            add_family("theta_even", 4)
            add("psi", q + 3)
    elif name == "xi":
        if column == "left":
            add("1", 4)
            add("xi1", 2), add("xi2", 2)
            add("theta2", q + 1)
            add_family("chi_even", 4)
        else:
            add("xi1", 2), add("xi2", 2)
            add("theta1", q - 1)
            add_family("chi_odd", 4)
    elif name == "theta_odd":
        if column == "left":
            add("eta1", 1), add("eta2", 1)
            add_family("theta_odd", 2)
            add("chi1", Fraction(q + 1, 2))
        else:
            add("xi1", Fraction(q + 1, 2)), add("xi2", Fraction(q + 1, 2))
            add_family("theta_odd", 2)
    elif name == "theta_even":
        if column == "left":
            add("1", -2)
            add("xi1", Fraction(q + 3, 2)), add("xi2", Fraction(q + 3, 2))
            add_family("theta_even", 2)
        else:
            add("1", Fraction(q - 1, 2))
            add("eta1", 1), add("eta2", 1)
            add_family("theta_even", 2)
            add("psi", Fraction(q + 3, 2))
    elif name == "psi":
        add("1", -2)
        if column == "right":
            add("eta1", 2), add("eta2", 2)
        add_family("theta_even", 4)
        add("psi", 2)
    elif name == "chi_odd":
        if column == "left":
            add("eta1", Fraction(q - 1, 2)), add("eta2", Fraction(q - 1, 2))
            add_family("chi_odd", 2)
        else:
            add("xi1", 1), add("xi2", 1)
            add("chi1", Fraction(q - 1, 3))
            add_family("chi_odd", 2)
    elif name == "chi_even":
        if column == "left":
            add("1", 2)
            add("xi1", 1), add("xi2", 1)
            add("theta2", Fraction(q + 1, 2))
            add_family("chi_even", 2)
        else:
            add("1", 2)
            add("eta1", Fraction(q + 1, 2)), add("eta2", Fraction(q + 1, 2))
            add_family("chi_even", 2)
    else:
        raise KeyError(name)
    return out


def _coeffs_to_virtual(
    table: CharacterTable, coeffs: dict[str, Fraction]
) -> VirtualCharacter | None:
    """Build the virtual character, or None when a coefficient is not an
    integer (or names a character the table does not have)."""
    mults = [0] * len(table.irreps)
    for label, c in coeffs.items():
        if c.denominator != 1:
            return None
        try:
            mults[table.irrep_index(label)] = c.numerator
        except KeyError:
            return None
    return VirtualCharacter(table, tuple(mults))


def _apply_fusion(table: CharacterTable, a: int, lam: VirtualCharacter) -> tuple[int, ...]:
    matrix = fusion_matrix(table, a)
    return tuple(
        sum(row[c] * lam.mults[c] for c in range(len(lam.mults)))
        for row in matrix
    )


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


@dataclass
class RhoInverseReport:
    """Both columns of the printed table verified against rho for one q."""

    q: int
    column: str  # printed column selected by verification: left / right
    rows: dict[str, dict[str, RhoRowReport]]  # column -> row name -> report

    def selected_rows(self) -> dict[str, RhoRowReport]:
        return self.rows[self.column]


def _verify_row(
    table: CharacterTable,
    rho: VirtualCharacter,
    name: str,
    column: str,
    q: int,
) -> RhoRowReport:
    targets = _row_targets(name, q)
    coeffs = _row_coefficients(name, column, q)
    lam = _coeffs_to_virtual(table, coeffs)
    discrepancies: dict[str, tuple[int, ...]] = {}
    # A row with no targets at this q (e.g. no even chi indices when
    # (q-3)/2 < 2) is vacuously fine.
    verified = lam is not None or not targets
    if lam is not None:
        for label in targets:
            got = _apply_fusion(table, table.irrep_index(label), lam)
            diff = tuple(g - r for g, r in zip(got, rho.mults))
            if any(diff):
                verified = False
                discrepancies[label] = diff
    return RhoRowReport(
        name, tuple(targets), coeffs, lam, verified, discrepancies
    )


def _search_chi_odd_correction(
    table: CharacterTable, rho: VirtualCharacter, q: int
) -> VirtualCharacter | None:
    """Replace the suspect (q-1)/3 chi_1 term by c * (single irreducible).

    The rest of the printed row is kept; the degree identity
    deg(lam) = |G| / (q+1) pins c once the replacement character is
    chosen, so the search is one exact verification per irreducible.
    """
    fam = _family_labels(q)
    targets = fam["chi_odd"]
    if not targets:
        return None
    base = {"xi1": Fraction(1), "xi2": Fraction(1)}
    for label in targets:
        base[label] = Fraction(2)
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
        coeffs[ir.label] = coeffs.get(ir.label, Fraction(0)) + c
        lam = _coeffs_to_virtual(table, coeffs)
        if lam is None:
            continue
        if all(
            _apply_fusion(table, table.irrep_index(label), lam) == rho.mults
            for label in targets
        ):
            return lam
    return None


def paper_rho_inverses(q: int) -> RhoInverseReport:
    """Verify the printed rho-inverse rows for odd q >= 5.

    Both printed columns are checked against every row; the column under
    which more rows verify is selected (resolving the duplicated header
    by computation).  Rows failing under the selected column keep their
    exact discrepancy vectors, and the known suspect row additionally
    gets a bounded coefficient search for a verifying replacement.
    """
    par = Sl2Param.from_q(q)
    if par.is_even or q < 5:
        raise ValueError("paper_rho_inverses requires odd q >= 5")
    table = sl2_table(q)
    rho = rho_theorem_character(q)
    rows: dict[str, dict[str, RhoRowReport]] = {}
    for column in ("left", "right"):
        rows[column] = {
            name: _verify_row(table, rho, name, column, q)
            for name in _ROW_NAMES
        }
    score = {
        col: sum(1 for r in rows[col].values() if r.verified)
        for col in rows
    }
    column = max(score, key=lambda col: score[col])
    for row in rows[column].values():
        if row.targets and not row.verified and row.name == "chi_odd":
            row.correction = _search_chi_odd_correction(table, rho, q)
    return RhoInverseReport(q, column, rows)
