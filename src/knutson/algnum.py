"""Exact arithmetic for character values.

Two independent systems, each closed under exactly the operations its
tables need:

* MultiQuadratic -- Q-linear combinations of square roots of squarefree
  integers (radicand 1 is the rational part, negative radicands are
  allowed and mean i*sqrt(|d|)).  Carries the split character values of
  alternating groups.

* CyclotomicTau -- elements a + b*tau of Q(zeta_m)[tau] with tau^2 a
  fixed integer (eps * q for the SL2 tables).  The zeta components are
  held as sparse exponent -> coefficient maps and reduced against the
  m-th cyclotomic polynomial only when equality or zero-ness is decided.
  tau is adjoined formally; complex conjugation sends zeta to zeta^(m-1)
  and tau to sign(tau^2) * tau.

Plain int and fractions.Fraction mix freely with both via the arithmetic
dunders, and the module-level helpers (conj_value, value_is_zero,
approx_value, rational_value, residue_value) dispatch over all four kinds.

ResidueField is a ring homomorphism from such values into F_p for one
large prime p; it lets exact integer results (fusion coefficients) be
read off from modular arithmetic on plain ints.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .numtheory import factorize

_RATIONAL_TYPES = (int, Fraction)


@cache
def squarefree_decompose(n: int) -> tuple[int, int]:
    """n = g*g*d with d squarefree (d keeps the sign of n); returns (g, d)."""
    if n == 0:
        raise ValueError("radicand must be nonzero")
    g, d = 1, 1 if n > 0 else -1
    for p, e in factorize(abs(n)):
        g *= p ** (e // 2)
        if e % 2:
            d *= p
    return g, d


def _mul_radicals(d1: int, d2: int) -> tuple[int, int]:
    """sqrt(d1)*sqrt(d2) = g*sqrt(d3) under the principal branch.

    Negative radicands mean i*sqrt(|d|), so two negatives contribute an
    extra factor of -1.
    """
    g, d3 = squarefree_decompose(abs(d1 * d2))
    if d1 < 0 and d2 < 0:
        g = -g
    elif (d1 < 0) != (d2 < 0):
        d3 = -d3
    return g, d3


class MultiQuadratic:
    """Finite Q-linear combination of sqrt(d) for squarefree integers d."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        """Any nonzero integer radicands; each is reduced to squarefree form."""
        out: dict[int, Fraction] = {}
        for d, c in (coeffs or {}).items():
            if d == 0:
                continue  # sqrt(0) = 0
            g, d = squarefree_decompose(d)
            if g != 1:
                c *= g
            out[d] = out[d] + c if d in out else c
        self.coeffs = {d: c for d, c in out.items() if c != 0}

    @classmethod
    def from_rational(cls, r) -> "MultiQuadratic":
        return cls({1: Fraction(r)})

    @classmethod
    def sqrt(cls, n: int, scale=1) -> "MultiQuadratic":
        """scale * sqrt(n) for any nonzero integer n."""
        g, d = squarefree_decompose(n)
        return cls({d: Fraction(scale) * g})

    def _coerce(self, other):
        if isinstance(other, MultiQuadratic):
            return other
        if isinstance(other, _RATIONAL_TYPES):
            return MultiQuadratic.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for d, c in o.coeffs.items():
            out[d] = out.get(d, Fraction(0)) + c
        return MultiQuadratic(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiQuadratic({d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in o.coeffs.items():
                if d1 == 1:
                    g, d3 = 1, d2
                elif d2 == 1:
                    g, d3 = 1, d1
                elif d1 == d2:
                    g, d3 = d1, 1
                else:
                    g, d3 = _mul_radicals(d1, d2)
                out[d3] = out.get(d3, Fraction(0)) + c1 * c2 * g
        return MultiQuadratic(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL_TYPES):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def conj(self) -> "MultiQuadratic":
        """Complex conjugation: fixes real radicands, negates imaginary ones."""
        return MultiQuadratic(
            {d: (-c if d < 0 else c) for d, c in self.coeffs.items()}
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return set(self.coeffs) <= {1}

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return self.coeffs.get(1, Fraction(0))

    def approx(self) -> complex:
        return sum(
            (complex(c) * cmath.sqrt(d) for d, c in self.coeffs.items()),
            complex(0),
        )

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    def __hash__(self):
        # A rational value must hash like the int or Fraction it equals.
        if self.is_rational():
            return hash(self.coeffs.get(1, Fraction(0)))
        return hash(frozenset(self.coeffs.items()))

    def residue(self, field: "ResidueField") -> int:
        terms = (field.rational(c) * field.sqrt(d) for d, c in self.coeffs.items())
        return sum(terms) % field.p

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for d in sorted(self.coeffs):
            c = self.coeffs[d]
            terms.append(str(c) if d == 1 else f"{c}*sqrt({d})")
        return " + ".join(terms)


@cache
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, low degree first."""
    if m < 1:
        raise ValueError("m must be positive")
    # x^m - 1 divided by Phi_d for every proper divisor d.
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_poly_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _exact_poly_div(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (low degree first)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c == 0:
            continue
        q, r = divmod(c, den[dd])
        if r:
            raise ArithmeticError("polynomial division not exact")
        out[k - dd] = q
        for i, dc in enumerate(den):
            num[k - dd + i] -= q * dc
    if any(num):
        raise ArithmeticError("polynomial division not exact")
    return out


@cache
def _power_table(m: int) -> list[tuple[int, ...]]:
    """x^k mod Phi_m for 0 <= k < m, as integer vectors of length phi(m)."""
    phi = list(cyclotomic_polynomial(m))
    deg = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    cur = [0] * deg
    if deg > 0:
        cur[0] = 1
    for _ in range(m):
        rows.append(tuple(cur))
        lead = cur[-1] if deg > 0 else 0
        cur = [0] + cur[:-1]
        if lead:
            # subtract lead * x^deg = lead * (-(phi minus leading term))
            for i in range(deg):
                cur[i] += lead * -phi[i]
        # degree-0 field Q (m=1): nothing to track
    return rows


def _canonical(m: int, comp: dict[int, Fraction]) -> tuple[Fraction, ...]:
    table = _power_table(m)
    deg = len(table[0]) if table else 0
    if not comp:
        return (Fraction(0),) * deg
    # Scale to a common denominator so the accumulation is pure-int.
    den = 1
    for c in comp.values():
        den = den * c.denominator // gcd(den, c.denominator)
    out = [0] * deg
    for e, c in comp.items():
        k = c.numerator * (den // c.denominator)
        if k == 0:
            continue
        row = table[e % m]
        for i, r in enumerate(row):
            if r:
                out[i] += k * r
    return tuple(Fraction(v, den) for v in out)


class CyclotomicTau:
    """a + b*tau with a, b in Q(zeta_m) and tau^2 = tau_sq (an integer).

    tau_sq = 0 marks a table without the quadratic element (even q);
    the tau component is then identically empty.
    """

    __slots__ = ("m", "tau_sq", "base", "tau")

    def __init__(self, m: int, tau_sq: int, base=None, tau=None):
        self.m = m
        self.tau_sq = tau_sq
        self.base = {e % m: Fraction(c) for e, c in (base or {}).items() if c != 0}
        self.tau = {e % m: Fraction(c) for e, c in (tau or {}).items() if c != 0}
        if tau_sq == 0 and self.tau:
            raise ValueError("tau component without a tau^2 relation")

    @classmethod
    def rational(cls, m: int, tau_sq: int, r) -> "CyclotomicTau":
        return cls(m, tau_sq, {0: Fraction(r)})

    @classmethod
    def root_of_unity(cls, m: int, k: int, tau_sq: int = 0) -> "CyclotomicTau":
        return cls(m, tau_sq, {k % m: Fraction(1)})

    @classmethod
    def tau_element(cls, m: int, tau_sq: int, scale=1) -> "CyclotomicTau":
        return cls(m, tau_sq, None, {0: Fraction(scale)})

    def _coerce(self, other):
        if isinstance(other, CyclotomicTau):
            if other.m != self.m or other.tau_sq != self.tau_sq:
                raise ValueError(
                    "mixed cyclotomic contexts: "
                    f"({self.m},{self.tau_sq}) vs ({other.m},{other.tau_sq})"
                )
            return other
        if isinstance(other, _RATIONAL_TYPES):
            return CyclotomicTau.rational(self.m, self.tau_sq, other)
        return None

    @staticmethod
    def _dadd(a, b, sign=1):
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, Fraction(0)) + sign * c
        return out

    def _dmul(self, a, b):
        out: dict[int, Fraction] = {}
        m = self.m
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1 + e2) % m
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return out

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicTau(
            self.m, self.tau_sq,
            self._dadd(self.base, o.base), self._dadd(self.tau, o.tau),
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicTau(
            self.m, self.tau_sq,
            {e: -c for e, c in self.base.items()},
            {e: -c for e, c in self.tau.items()},
        )

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        base = self._dmul(self.base, o.base)
        if self.tau and o.tau:
            tt = self._dmul(self.tau, o.tau)
            base = self._dadd(base, {e: c * self.tau_sq for e, c in tt.items()})
        tau: dict[int, Fraction] = {}
        if o.tau:
            tau = self._dadd(tau, self._dmul(self.base, o.tau))
        if self.tau:
            tau = self._dadd(tau, self._dmul(self.tau, o.base))
        return CyclotomicTau(self.m, self.tau_sq, base, tau)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL_TYPES):
            inv = Fraction(1) / Fraction(other)
            return CyclotomicTau(
                self.m, self.tau_sq,
                {e: c * inv for e, c in self.base.items()},
                {e: c * inv for e, c in self.tau.items()},
            )
        return NotImplemented

    def conj(self) -> "CyclotomicTau":
        m = self.m
        eps = 0 if self.tau_sq == 0 else (1 if self.tau_sq > 0 else -1)
        return CyclotomicTau(
            m, self.tau_sq,
            {(m - e) % m: c for e, c in self.base.items()},
            {(m - e) % m: eps * c for e, c in self.tau.items()},
        )

    def canonical(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """Components reduced mod Phi_m: vectors of length phi(m)."""
        return _canonical(self.m, self.base), _canonical(self.m, self.tau)

    def is_zero(self) -> bool:
        cb, ct = self.canonical()
        return not any(cb) and not any(ct)

    def is_rational(self) -> bool:
        cb, ct = self.canonical()
        return not any(ct) and not any(cb[1:])

    def rational_value(self) -> Fraction:
        cb, ct = self.canonical()
        if any(ct) or any(cb[1:]):
            raise ValueError("not a rational value")
        return cb[0] if cb else Fraction(0)

    def approx(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.m)
        out = sum((complex(c) * z**e for e, c in self.base.items()), complex(0))
        if self.tau:
            t = cmath.sqrt(self.tau_sq)
            out += t * sum(
                (complex(c) * z**e for e, c in self.tau.items()), complex(0)
            )
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    def __hash__(self):
        cb, ct = self.canonical()
        if not any(ct) and not any(cb[1:]):
            # A rational value must hash like the int or Fraction it equals.
            return hash(cb[0])
        return hash((self.m, self.tau_sq, cb, ct))

    def residue(self, field: "ResidueField") -> int:
        if (self.m, self.tau_sq) != (field.m, field.tau_sq):
            raise ValueError(
                f"value in context ({self.m},{self.tau_sq}) but residue field "
                f"built for ({field.m},{field.tau_sq})"
            )
        base = field.cyclotomic(self.base)
        if not self.tau:
            return base
        return (base + field.tau * field.cyclotomic(self.tau)) % field.p

    def __repr__(self):
        def fmt(comp, suffix=""):
            return " + ".join(
                f"{c}*z{self.m}^{e}{suffix}" for e, c in sorted(comp.items())
            )

        parts = [s for s in (fmt(self.base), fmt(self.tau, "*tau")) if s]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# generic value helpers (plain rationals mix with both exact systems)

def conj_value(x):
    if isinstance(x, _RATIONAL_TYPES):
        return x
    return x.conj()


def value_is_zero(x) -> bool:
    if isinstance(x, _RATIONAL_TYPES):
        return x == 0
    return x.is_zero()


def rational_value(x) -> Fraction:
    """Exact rational content of a value; raises if it is irrational."""
    if isinstance(x, _RATIONAL_TYPES):
        return Fraction(x)
    return x.rational_value()


def residue_value(x, field: "ResidueField") -> int:
    """phi(x) in F_p, for a value of the kinds field was built from."""
    if isinstance(x, _RATIONAL_TYPES):
        return field.rational(x)
    return x.residue(field)


def approx_value(x) -> complex:
    if isinstance(x, _RATIONAL_TYPES):
        return complex(x)
    return x.approx()


# ---------------------------------------------------------------------------
# reduction into a prime field

# Miller-Rabin with the first 13 prime bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_square_mod(a: int, p: int) -> bool:
    """Euler's criterion, for an odd prime p not dividing a."""
    return pow(a, (p - 1) // 2, p) == 1


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p.

    Tonelli-Shanks: write p - 1 = q * 2^s with q odd and walk the 2-power
    part of the unit group with a fixed non-residue z.
    """
    a %= p
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _is_square_mod(z, p):
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == s:
            raise ValueError(f"{a} is not a square modulo {p}")
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _primitive_root_of_unity(m: int, p: int) -> int:
    """An element of order exactly m in F_p^*, for m dividing p - 1."""
    primes = [r for r, _e in factorize(m)]
    g = 2
    while True:
        w = pow(g, (p - 1) // m, p)
        if all(pow(w, m // r, p) != 1 for r in primes):
            return w
        g += 1


@dataclass(frozen=True)
class ResidueField:
    """A ring homomorphism phi from exact character values into F_p.

    zeta_m goes to omega, a primitive m-th root of unity mod p; tau goes
    to a square root of tau_sq mod p; sqrt(d) goes to the product of the
    chosen square roots of the primes dividing |d| (with multiplicity),
    times a square root i of -1 when d < 0.  The last rule reproduces
    _mul_radicals, so phi respects the MultiQuadratic product, and omega
    is a root of Phi_m mod p, so phi is well defined on the sparse
    CyclotomicTau representation without reduction.  A rational a/b with
    p not dividing b goes to a * b^-1.
    """

    p: int
    m: int
    tau_sq: int
    powers: tuple[int, ...]  # omega^e for 0 <= e < m
    tau: int
    roots: dict[int, int]  # prime r, and -1 -> the chosen square root mod p

    @classmethod
    def for_values(cls, values, bound: int) -> "ResidueField":
        """The field for the given values, with p deterministic.

        p is the least prime p = 1 (mod lcm(4, m)) above bound, 2^61 and
        every coefficient denominator for which tau_sq and every prime
        dividing a radicand are squares mod p.
        """
        context = None
        primes: set[int] = set()
        den = 1
        for v in values:
            if isinstance(v, Fraction):
                den = max(den, v.denominator)
            elif isinstance(v, MultiQuadratic):
                for d, c in v.coeffs.items():
                    den = max(den, c.denominator)
                    primes.update(r for r, _e in factorize(abs(d)))
            elif isinstance(v, CyclotomicTau):
                if context is None:
                    context = (v.m, v.tau_sq)
                elif context != (v.m, v.tau_sq):
                    raise ValueError(
                        f"mixed cyclotomic contexts: {context} vs ({v.m},{v.tau_sq})"
                    )
                for c in (*v.base.values(), *v.tau.values()):
                    den = max(den, c.denominator)
        m, tau_sq = context or (1, 0)
        step = lcm(4, m)
        low = max(2**61, bound, den)
        p = low + 1 + (-low) % step  # least p > low with p = 1 mod step
        squares = sorted(primes) + ([tau_sq] if tau_sq else [])
        while not (_is_prime(p) and all(_is_square_mod(a, p) for a in squares)):
            p += step
        omega = _primitive_root_of_unity(m, p)
        powers = [1]
        for _ in range(m - 1):
            powers.append(powers[-1] * omega % p)
        roots = {r: _sqrt_mod(r, p) for r in primes}
        roots[-1] = _sqrt_mod(-1, p)
        tau = _sqrt_mod(tau_sq, p) if tau_sq else 0
        return cls(p, m, tau_sq, tuple(powers), tau, roots)

    def rational(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def sqrt(self, d: int) -> int:
        """phi(sqrt(d)) for a nonzero integer d."""
        p = self.p
        out = self.roots[-1] if d < 0 else 1
        for r, e in factorize(abs(d)):
            out = out * pow(self.roots[r], e, p) % p
        return out

    def cyclotomic(self, comp: dict) -> int:
        """phi of sum c_e zeta_m^e, for a sparse exponent -> coefficient map."""
        powers = self.powers
        return sum(self.rational(c) * powers[e] for e, c in comp.items()) % self.p
