"""Exact scalar arithmetic and exact linear algebra.

Rationals are plain ``fractions.Fraction`` (always in lowest terms with a
positive denominator, which is exactly the invariant we need).  ``QSqrtQ``
adjoins a formal square root of a prime power q; zero testing is done
coefficient-wise, so the type is safe even when q happens to be a perfect
square.  ``FieldData`` packages the numeric invariants (p, e, f) of a
finite extension L of Q_p and fixes the valuation normalizations used
throughout the library:

* ``val_p``: val_p(p) = 1  (absolute p-adic valuation)
* ``val_L``: val_L(p) = e  (so a uniformizer of L has valuation 1)
* ``val_q``: val_q(q) = 1  (q-normalized; used for Satake coefficients)

The conversion constant is val_L = e*f*val_q = degree*val_q.

No operation in this module ever rounds; the only non-rational value that
can appear is ``INF``, the valuation of zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

INF = float("inf")

RatLike = Union[int, Fraction]


def parse_rat(text: str) -> Fraction:
    """Parse the decimal-free "n/d" (or "n") form of a rational; d != 0."""
    text = text.strip()
    if not re.fullmatch(r"-?\d+(/\d*[1-9]\d*)?", text):
        raise ValueError(f"not a rational in n/d form with a nonzero d: {text!r}")
    return Fraction(text)


def format_rat(x: RatLike) -> str:
    """Render a rational as "n/d" ("n" when the denominator is 1)."""
    return str(Fraction(x))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^f with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    f = 0
    m = q
    while m % p == 0:
        m //= p
        f += 1
    if m != 1:
        raise ValueError(f"not a prime power: {q}")
    return p, f


def val_p_rat(x: RatLike, p: int):
    """p-adic valuation of a rational, with val_p(p) = 1; INF at zero."""
    x = Fraction(x)
    if x == 0:
        return INF

    def mult(n: int) -> int:
        n = abs(n)
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        return k

    return Fraction(mult(x.numerator) - mult(x.denominator))


@dataclass(frozen=True)
class FieldData:
    """Numeric invariants of a finite extension L of Q_p.

    p is the residue characteristic, e the ramification index, f the
    residue degree; q = p^f and [L:Q_p] = e*f.  The number of coefficient
    field embeddings used everywhere equals e*f.
    """

    p: int
    e: int
    f: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.e < 1 or self.f < 1:
            raise ValueError("e and f must be >= 1")

    @property
    def q(self) -> int:
        return self.p**self.f

    @property
    def degree(self) -> int:
        """[L:Q_p] = e*f, also the number of embeddings."""
        return self.e * self.f

    def val_p(self, x: RatLike):
        return val_p_rat(x, self.p)

    def val_L(self, x: RatLike):
        v = self.val_p(x)
        return INF if v == INF else self.e * v

    def val_q(self, x: RatLike):
        v = self.val_p(x)
        return INF if v == INF else v / self.f


def _as_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class QSqrtQ:
    """Element a + b*sqrt(q) of the formal quadratic extension by sqrt(q).

    sqrt(q) is treated as a formal symbol with (sqrt q)^2 = q, so equality
    is coefficient-wise.  Division requires the rational norm a^2 - q*b^2
    to be nonzero; for q a non-square this is automatic on nonzero
    elements.
    """

    a: Fraction
    b: Fraction
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_frac(self.a))
        object.__setattr__(self, "b", _as_frac(self.b))
        prime_power(self.q)

    @classmethod
    def of(cls, a: RatLike, b: RatLike, q: int) -> "QSqrtQ":
        return cls(Fraction(a), Fraction(b), q)

    @classmethod
    def zero(cls, q: int) -> "QSqrtQ":
        return cls(Fraction(0), Fraction(0), q)

    @classmethod
    def one(cls, q: int) -> "QSqrtQ":
        return cls(Fraction(1), Fraction(0), q)

    @classmethod
    def sqrtq(cls, q: int) -> "QSqrtQ":
        return cls(Fraction(0), Fraction(1), q)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _check(self, other: "QSqrtQ") -> None:
        if self.q != other.q:
            raise ValueError(f"mismatched q: {self.q} vs {other.q}")

    def __add__(self, other: "QSqrtQ") -> "QSqrtQ":
        self._check(other)
        return QSqrtQ(self.a + other.a, self.b + other.b, self.q)

    def __sub__(self, other: "QSqrtQ") -> "QSqrtQ":
        self._check(other)
        return QSqrtQ(self.a - other.a, self.b - other.b, self.q)

    def __neg__(self) -> "QSqrtQ":
        return QSqrtQ(-self.a, -self.b, self.q)

    def __mul__(self, other) -> "QSqrtQ":
        if isinstance(other, QSqrtQ):
            self._check(other)
            return QSqrtQ(
                self.a * other.a + self.q * self.b * other.b,
                self.a * other.b + self.b * other.a,
                self.q,
            )
        return QSqrtQ(self.a * _as_frac(other), self.b * _as_frac(other), self.q)

    __rmul__ = __mul__

    def conjugate(self) -> "QSqrtQ":
        return QSqrtQ(self.a, -self.b, self.q)

    def rat_norm(self) -> Fraction:
        """The rational norm a^2 - q*b^2 (product with the conjugate)."""
        return self.a * self.a - self.q * self.b * self.b

    def inverse(self) -> "QSqrtQ":
        n = self.rat_norm()
        if n == 0:
            raise ZeroDivisionError("element has zero norm (q is a square or element is zero)")
        return QSqrtQ(self.a / n, -self.b / n, self.q)

    def __truediv__(self, other: "QSqrtQ") -> "QSqrtQ":
        if isinstance(other, QSqrtQ):
            return self * other.inverse()
        return QSqrtQ(self.a / _as_frac(other), self.b / _as_frac(other), self.q)

    def __str__(self) -> str:
        return format_qsqrtq(self)


_QSQRT_RE = re.compile(r"(-?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)\*sqrtq")


def format_qsqrtq(x: QSqrtQ) -> str:
    """Canonical decimal-free form "a+b*sqrtq" (sign of b folded in)."""
    sign = "-" if x.b < 0 else "+"
    return f"{format_rat(x.a)}{sign}{format_rat(abs(x.b))}*sqrtq"


def parse_qsqrtq(text: str, q: int) -> QSqrtQ:
    m = _QSQRT_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not an a+b*sqrtq form: {text!r}")
    return QSqrtQ(Fraction(m.group(1)), Fraction(m.group(2)), q)


def val_q(x: QSqrtQ):
    """q-normalized valuation of a + b*sqrt(q).

    val(q) = 1 and val(sqrt q) = 1/2; on rationals the value is the p-adic
    valuation divided by f where q = p^f.  Unit parts are ignored: the
    result is min(val_q(a), val_q(b) + 1/2) over the nonzero coefficients,
    and INF for zero.  For q a non-square this is the honest valuation of
    the quadratic extension (in particular additive on products).
    """
    p, f = prime_power(x.q)
    vals = []
    if x.a != 0:
        vals.append(val_p_rat(x.a, p) / f)
    if x.b != 0:
        vals.append(val_p_rat(x.b, p) / f + Fraction(1, 2))
    if not vals:
        return INF
    return min(vals)


# ---------------------------------------------------------------------------
# Exact linear algebra over Fraction
# ---------------------------------------------------------------------------


Matrix = Sequence[Sequence[RatLike]]


def _copy_matrix(rows: Matrix) -> list[list[Fraction]]:
    out = [[Fraction(v) for v in row] for row in rows]
    width = {len(r) for r in out}
    if len(width) > 1:
        raise ValueError("ragged matrix")
    return out


def solve_linear(rows: Matrix, rhs: Sequence[RatLike]) -> Optional[list[Fraction]]:
    """Solve A x = b exactly by Gaussian elimination.

    Returns one exact solution (free variables set to 0), or None when the
    system is inconsistent.  Raises ValueError on dimension mismatch.
    """
    a = _copy_matrix(rows)
    b = [Fraction(v) for v in rhs]
    if len(a) != len(b):
        raise ValueError("matrix/rhs dimension mismatch")
    m = len(a)
    n = len(a[0]) if m else 0
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        pr = next((i for i in range(row, m) if a[i][col] != 0), None)
        if pr is None:
            continue
        a[row], a[pr] = a[pr], a[row]
        b[row], b[pr] = b[pr], b[row]
        inv = a[row][col]
        a[row] = [v / inv for v in a[row]]
        b[row] /= inv
        for i in range(m):
            if i != row and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [v - factor * w for v, w in zip(a[i], a[row])]
                b[i] -= factor * b[row]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if b[i] != 0:
            return None
    x = [Fraction(0)] * n
    for r, c in pivots:
        x[c] = b[r]
    return x


def rank(rows: Matrix) -> int:
    """Exact rank of a matrix of rationals."""
    a = _copy_matrix(rows)
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for col in range(n):
        pr = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][col]
        for i in range(r + 1, m):
            if a[i][col] != 0:
                factor = a[i][col] / inv
                a[i] = [v - factor * w for v, w in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r


def lp_feasible(rows: Matrix, rhs: Sequence[RatLike]) -> bool:
    """Decide whether {x >= 0 : A x = b} is nonempty, exactly.

    Phase-1 simplex over Fraction with Bland's rule (no cycling); the
    verdict is exact because no arithmetic ever leaves Q.
    """
    if len(rows) != len(rhs):
        raise ValueError("matrix/rhs dimension mismatch")
    m = len(rows)
    if m == 0:
        return True
    n = len(rows[0])
    tableau: list[list[Fraction]] = []
    for i in range(m):
        if len(rows[i]) != n:
            raise ValueError("ragged matrix")
        r = [Fraction(v) for v in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            r = [-v for v in r]
            b = -b
        tableau.append(r + [b])
    # w = sum of artificials = sum(b) - sum_j colsum_j x_j; artificials
    # never re-enter, so only the n real columns are tracked in the
    # objective row.
    obj = [-sum(tableau[i][j] for i in range(m)) for j in range(n)]
    obj.append(sum(tableau[i][n] for i in range(m)))
    basis = [n + i for i in range(m)]  # artificial markers
    while True:
        enter = next((j for j in range(n) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            t = tableau[i][enter]
            if t > 0:
                ratio = tableau[i][n] / t
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:  # pragma: no cover - phase 1 is always bounded
            raise ArithmeticError("unbounded phase-1 simplex")
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                factor = tableau[i][enter]
                tableau[i] = [v - factor * w for v, w in zip(tableau[i], tableau[leave])]
        factor = obj[enter]
        if factor != 0:
            # w = const + sum obj[j] x_j; substituting x_enter from the pivot
            # row subtracts from the coefficients but adds to the constant.
            for j in range(n):
                obj[j] -= factor * tableau[leave][j]
            obj[n] += factor * tableau[leave][n]
        basis[leave] = enter
    return obj[n] == 0
