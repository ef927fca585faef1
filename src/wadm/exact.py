"""Exact scalar arithmetic and exact linear algebra.

Rationals are plain ``fractions.Fraction`` (always in lowest terms with a
positive denominator, which is exactly the invariant we need).  ``QSqrtQ``
adjoins a formal square root of a prime power q; zero testing is done
coefficient-wise, so the type is safe even when q happens to be a perfect
square.  ``FieldData`` packages the numeric invariants (p, e, f) of a
finite extension L of Q_p.  The valuation normalizations used throughout
the library are:

* val_p(p) = 1  (absolute p-adic valuation; ``val_p_rat``)
* val_L(p) = e  (so a uniformizer of L has valuation 1)
* val_q(q) = 1  (q-normalized; used for Satake coefficients; ``val_q``)

The conversion constant is val_L = e*f*val_q = degree*val_q.

No operation in this module ever rounds; the only non-rational value that
can appear is ``INF``, the valuation of zero.  ``rank`` and
``_reduced_echelon`` share one fraction-free elimination (rows scaled to
integers, then Bareiss).  ``farkas_certificate``, the one LP, takes integer
rows only and pivots them with the same exact step, by its own rule.  When
{x >= 0 : A x = b} is empty it returns the proof, a row y with y.A <= 0
and y.b > 0 (Farkas): the multiplier behind the final phase-1 objective
row, signed back to the rows as given.  ``_integer_rows`` copies an
all-``int`` row (such as the oracle's flags) in one pass; only a row with
a ``Fraction`` in it is scaled by the lcm of its denominators.  ``_reduced_echelon``
back-eliminates ``_echelon``'s rows in integers, for the subobject oracle,
so the linear algebra builds no ``Fraction``.

The library's frozen value types (``FieldData``, ``QSqrtQ``, root data,
highest weights, modules, filtrations, Weil-Deligne data) derive from
``_Frozen``: each is written out with ``__slots__`` and its own
``__init__``, and the base gives them immutability, equality and hashing on
their fields, and the ``Name(field=value, ...)`` repr.  Writing them out
keeps ``dataclasses`` (and the ``inspect`` it imports) and its one ``exec``
per generated method out of every process start.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

INF = float("inf")

RatLike = Union[int, Fraction]


class UnsupportedRegimeError(RuntimeError):
    """The module is outside the subobject-enumerable regimes.

    Raised instead of returning a possibly wrong verdict: with repeated
    eigenvalue labels and no declared chain structure the set of stable
    subobjects is not finite.  Defined here, with no other dependency, so
    that the command line catches it without loading the oracle.
    """


def parse_rat(text: str) -> Fraction:
    """Parse the decimal-free "n/d" (or "n") form of a rational; d != 0."""
    text = text.strip()
    if not re.fullmatch(r"-?\d+(/\d*[1-9]\d*)?", text):
        raise ValueError(f"not a rational in n/d form with a nonzero d: {text!r}")
    return Fraction(text)


def format_rat(x: RatLike) -> str:
    """Render a rational as "n/d" ("n" when the denominator is 1).  An
    ``int`` or a ``Fraction`` already prints that way; anything else
    (``bool`` included, which would print as "True") goes through
    ``Fraction`` first."""
    if type(x) is int or type(x) is Fraction:
        return str(x)
    return str(Fraction(x))


# Miller-Rabin over these bases is exact below MILLER_RABIN_BOUND, the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the prime bases 2..41; raises
    ValueError for n >= MILLER_RABIN_BOUND, where those bases stop being
    a proof."""
    if n < 2:
        return False
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: the Miller-Rabin test "
                         f"used here is exact only below {MILLER_RABIN_BOUND}")
    if any(n % b == 0 for b in _MILLER_RABIN_BASES):
        return n in _MILLER_RABIN_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b in _MILLER_RABIN_BASES:
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


def _integer_root(q: int, f: int) -> int:
    """floor(q^(1/f)) for q >= 1, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // f)
    while True:
        s = ((f - 1) * r + q // r ** (f - 1)) // f
        if s >= r:
            return r
        r = s


@lru_cache(maxsize=None)
def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^f with p prime, or raise ValueError.  p is an exact
    integer f-th root of q, tried from the largest f down, so only the
    candidate p is tested for primality.  Cached: every ``QSqrtQ`` construction
    and every ``val_q`` asks again for the same q."""
    for f in range(q.bit_length() if q >= 2 else 0, 0, -1):
        r = _integer_root(q, f)
        if r**f == q and is_prime(r):
            return r, f
    raise ValueError(f"not a prime power: {q}")


def val_p_rat(x: RatLike, p: int):
    """p-adic valuation of a rational, with val_p(p) = 1: an ``int``, the
    multiplicity of p in the numerator minus that in the denominator; INF
    at zero."""
    if type(x) is not int and type(x) is not Fraction:
        x = Fraction(x)
    if x == 0:
        return INF
    n, d = abs(x.numerator), x.denominator
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    while d % p == 0:
        d //= p
        k -= 1
    return k


class _Frozen:
    """Base of the frozen value types.

    A subclass lists its fields in ``_fields`` (also its ``__slots__``, plus
    any cached private slots) and sets each field in its ``__init__`` with
    ``object.__setattr__``; its ``_key`` is ``operator.attrgetter(*_fields)``.
    Instances are then immutable, equal exactly when they are of the same
    class with equal fields, hashed on those fields, printed as
    ``Name(field=value, ...)``, and copied or pickled by calling the class
    on the fields again.  The mutable records (``checker.CheckLine`` and
    ``Verdict``, ``InstanceResult``, ``instances.KeyValues``) list
    ``_fields`` too and borrow only the repr.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = operator.attrgetter(*cls._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


class FieldData(_Frozen):
    """Numeric invariants of a finite extension L of Q_p.

    p is the residue characteristic, e the ramification index, f the
    residue degree; q = p^f and [L:Q_p] = e*f.  The number of coefficient
    field embeddings used everywhere equals e*f.
    """

    _fields = ("p", "e", "f")
    __slots__ = _fields + ("_hash",)

    def __init__(self, p: int, e: int, f: int) -> None:
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if e < 1 or f < 1:
            raise ValueError("e and f must be >= 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_hash", hash((p, e, f)))  # once: a cache key on every lookup

    def __hash__(self) -> int:
        return self._hash

    @property
    def q(self) -> int:
        return self.p**self.f

    @property
    def degree(self) -> int:
        """[L:Q_p] = e*f, also the number of embeddings."""
        return self.e * self.f


def _as_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class QSqrtQ(_Frozen):
    """Element a + b*sqrt(q) of the formal quadratic extension by sqrt(q).

    sqrt(q) is treated as a formal symbol with (sqrt q)^2 = q, so equality
    is coefficient-wise.  Sums and products are all the group ring needs;
    there is no division.  The constructor checks that a and b are exact
    rationals and q a prime power; a sum or product of two such values (or
    of one and a checked scalar) is built by ``_checked`` without checking
    again, since its coefficients are ``Fraction`` sums and products and
    its q is the operands' q.
    """

    __slots__ = _fields = ("a", "b", "q")

    def __init__(self, a: Fraction, b: Fraction, q: int) -> None:
        object.__setattr__(self, "a", _as_frac(a))
        object.__setattr__(self, "b", _as_frac(b))
        object.__setattr__(self, "q", q)
        prime_power(q)

    @classmethod
    def _checked(cls, a: Fraction, b: Fraction, q: int) -> "QSqrtQ":
        x = object.__new__(cls)
        object.__setattr__(x, "a", a)
        object.__setattr__(x, "b", b)
        object.__setattr__(x, "q", q)
        return x

    @classmethod
    def of(cls, a: RatLike, b: RatLike, q: int) -> "QSqrtQ":
        return cls(Fraction(a), Fraction(b), q)

    @classmethod
    def one(cls, q: int) -> "QSqrtQ":
        return cls(Fraction(1), Fraction(0), q)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def _check(self, other: "QSqrtQ") -> None:
        if self.q != other.q:
            raise ValueError(f"mismatched q: {self.q} vs {other.q}")

    def __add__(self, other: "QSqrtQ") -> "QSqrtQ":
        self._check(other)
        return QSqrtQ._checked(self.a + other.a, self.b + other.b, self.q)

    def __mul__(self, other) -> "QSqrtQ":
        if isinstance(other, QSqrtQ):
            self._check(other)
            return QSqrtQ._checked(
                self.a * other.a + self.q * self.b * other.b,
                self.a * other.b + self.b * other.a,
                self.q,
            )
        other = _as_frac(other)
        return QSqrtQ._checked(self.a * other, self.b * other, self.q)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_qsqrtq(self)


def format_qsqrtq(x: QSqrtQ) -> str:
    """Canonical decimal-free form "a+b*sqrtq" (sign of b folded in)."""
    sign = "-" if x.b < 0 else "+"
    return f"{format_rat(x.a)}{sign}{format_rat(abs(x.b))}*sqrtq"


def _twice_f_val_q(x: QSqrtQ, p: int, f: int):
    """2f * val_q(x) as an ``int``, for q = p^f; INF at zero.  On a
    coefficient that is 2 * val_p, and on the sqrt(q) part 2 * val_p + f,
    from ``val_p_rat``'s integer valuations."""
    if x.a:
        va = 2 * val_p_rat(x.a, p)
        return min(va, 2 * val_p_rat(x.b, p) + f) if x.b else va
    return 2 * val_p_rat(x.b, p) + f if x.b else INF


def val_q(x: QSqrtQ):
    """q-normalized valuation of a + b*sqrt(q).

    val(q) = 1 and val(sqrt q) = 1/2; on rationals the value is the p-adic
    valuation divided by f where q = p^f.  Unit parts are ignored: the
    result is min(val_q(a), val_q(b) + 1/2) over the nonzero coefficients,
    and INF for zero.  For q a non-square this is the honest valuation of
    the quadratic extension (in particular additive on products).  It is
    one ``Fraction``, ``_twice_f_val_q`` over 2f.
    """
    p, f = prime_power(x.q)
    v = _twice_f_val_q(x, p, f)
    return INF if v == INF else Fraction(v, 2 * f)


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


Matrix = Sequence[Sequence[RatLike]]


def _integer_rows(rows: Matrix) -> list[list[int]]:
    """Each row times the lcm of its denominators, as integers; raises
    ValueError on a ragged matrix, comparing each row's length with the
    first row's as it is appended.  A row of ``int`` (or ``bool``) entries
    is copied as it is, with no denominator read."""
    a: list[list[int]] = []
    for row in rows:
        try:
            v = list(map(operator.index, row))
        except TypeError:  # a Fraction (or a non-rational) entry: scale below
            # A list, not a generator: ``*`` unpacks a generator into a tuple
            # sized by its length hint and then shrinks it, which leaves tuples
            # on CPython's per-size free lists and raises peak RSS.
            scale = math.lcm(*[x.denominator for x in row])
            if scale == 1:  # integral Fraction rows: no division
                v = [x.numerator for x in row]
            else:
                v = [x.numerator * (scale // x.denominator) for x in row]
        if a and len(v) != len(a[0]):
            raise ValueError("ragged matrix")
        a.append(v)
    return a


def _echelon(rows: Matrix) -> list[tuple[int, int, list[int]]]:
    """Fraction-free row echelon form of a matrix of rationals.

    Each row is scaled to integers by the lcm of its denominators, which
    keeps the row space.  Bareiss's one-step rule then keeps every entry an
    integer: after k pivots an entry is the (k+1)-minor on the pivot rows
    and columns plus its own row and column (Sylvester's identity), so the
    division by the previous pivot is exact, skipped columns included, as
    long as every remaining row takes the step.  The pivot row and the
    pivot column leave the matrix after each step.

    Returns one ``(column, pivot, entries right of the pivot)`` triple per
    pivot row, in column order; together these rows span the input's row
    space.
    """
    a = _integer_rows(rows)
    pivots: list[tuple[int, int, list[int]]] = []
    col = 0
    prev = 1
    while a and a[0]:
        for pr, v in enumerate(a):
            if v[0]:
                break
        else:
            a = [v[1:] for v in a]
            col += 1
            continue
        w = a.pop(pr)
        p = w[0]
        w = w[1:]
        a = [[(p * x - f * y) // prev for x, y in zip(v[1:], w)] for v in a for f in (v[0],)]
        pivots.append((col, p, w))
        prev = p
        col += 1
    return pivots


def _reduced_echelon(rows: Matrix) -> list[tuple[int, list[int]]]:
    """Reduced row echelon form of a matrix of rationals, in integers.

    ``_echelon``'s pivot rows, back-eliminated from the last pivot up:
    each later pivot column is cleared from a row by an integer combination
    with that pivot's (already reduced) row, and the row is then divided by
    the gcd of its entries, signed so that its pivot is positive.

    Returns one ``(column, row)`` pair per pivot, in column order, each row
    full length; a pivot column is zero outside its own pivot row, and
    together the rows span the input's row space.
    """
    reduced: list[tuple[int, list[int]]] = []
    for c, p, w in reversed(_echelon(rows)):
        v = [0] * c + [p] + w
        for d, u in reduced:
            f = v[d]
            if f:
                v = [u[d] * x - f * y for x, y in zip(v, u)]
        g = math.gcd(*v)
        reduced.append((c, [x // g for x in v] if v[c] > 0 else [-x // g for x in v]))
    reduced.reverse()
    return reduced


def rank(rows: Matrix) -> int:
    """Exact rank of a matrix of rationals, by fraction-free elimination."""
    return len(_echelon(rows))


def _phase_one(a: list[list[int]], n: int) -> list[int]:
    """The final objective row of the phase-1 simplex on the integer rows
    ``a``, each [A' | b' | carried columns] with b' >= 0.

    The objective w + sum_j colsum_j x_j = sum b' (w the sum of the
    artificials) is one more row, the sum of the rows.  The entering column
    is the largest positive objective entry (Dantzig) until the first
    degenerate pivot, one whose leaving row has rhs 0; from then on it is
    the first positive one (Bland).  The leaving row is the least ratio
    v[n] / v[s], ties to the least basis index.  This terminates: before
    the switch every pivot strictly lowers w, so no basis repeats, and
    after it Bland's rule cannot cycle (Bland, Math. Oper. Res. 2, 1977).
    Every row but the pivot row takes ``_echelon``'s step
    (p*v - v[s]*w) // d, which keeps each entry d times its rational value,
    d > 0 the basis determinant (Edmonds 1967), so every division is exact,
    in the carried columns too; a row with 0 in the pivot column is only
    rescaled by p / d.  The rule reads only the first n + 1 columns, so
    carried columns do not change the pivots.
    """
    m = len(a)
    a = a + [[sum(col) for col in zip(*a)]]
    basis = list(range(n, n + m))  # artificial markers; artificials never re-enter
    d = 1
    bland = False
    while True:
        obj = a[m]
        if bland:
            s = next((j for j in range(n) if obj[j] > 0), None)
        else:
            top = max(obj[:n], default=0)
            s = obj.index(top) if top > 0 else None
        if s is None:
            return obj
        # the least ratio v[n] / v[s], cross-multiplied; 1 / 0 is infinite
        leave, num, den = None, 1, 0
        for i in range(m):
            v = a[i]
            if v[s] > 0:
                c = v[n] * den - num * v[s]
                if c < 0 or (c == 0 and basis[i] < basis[leave]):
                    leave, num, den = i, v[n], v[s]
        if leave is None:  # pragma: no cover - phase 1 is always bounded
            raise ArithmeticError("unbounded phase-1 simplex")
        w = a[leave]
        p = w[s]
        bland = bland or not num  # a degenerate pivot (rhs 0) hands over to Bland's rule
        for i, v in enumerate(a):
            f = v[s]
            if f and i != leave:
                a[i] = [(p * x - f * y) // d for x, y in zip(v, w)]
            elif not f and p != d:
                a[i] = [p * x // d for x in v]
        basis[leave] = s
        d = p


def farkas_certificate(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Optional[list[int]]:
    """Decide whether {x >= 0 : A x = b} is nonempty, exactly: None when it
    is, and otherwise a Farkas certificate, an integer y with y.A <= 0 on
    every column and y.b > 0 (which no x >= 0 with A x = b can meet).

    A and b are read through ``operator.index``, so a ``Fraction`` or a
    float raises ``TypeError`` and a ragged matrix ``ValueError``.
    ``_phase_one`` runs on the rows A' of [A | b], each negated where b < 0.
    The system is feasible when the final w is 0.  Otherwise the same pivots
    run again with an m-column identity block carried through them: it
    holds the multiplier u of the rows behind each tableau row, so the final
    objective row is u.A' <= 0 on every column and u.b' = d * w > 0.  u
    with each row's sign is y on the rows as given, returned divided by its
    gcd.  The first run carries no block, since a feasible system needs none.
    """
    if len(rows) != len(rhs):
        raise ValueError("matrix/rhs dimension mismatch")
    if not rows:
        return None
    a = [[*map(operator.index, row), operator.index(b)] for row, b in zip(rows, rhs)]
    m, n = len(a), len(a[0]) - 1
    if any(len(r) != n + 1 for r in a):
        raise ValueError("ragged matrix")
    a = [[-v for v in r] if r[n] < 0 else r for r in a]
    if _phase_one(a, n)[n] == 0:
        return None
    u = _phase_one([r + [int(i == j) for j in range(m)] for i, r in enumerate(a)], n)[n + 1:]
    y = [-v if b < 0 else v for v, b in zip(u, rhs)]
    g = math.gcd(*y)
    return [v // g for v in y]
