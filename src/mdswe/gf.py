"""Exact arithmetic in finite fields GF(p^m).

Elements are plain integers in [0, q): the base-p digits of the integer
are the polynomial-basis coordinates of the element, so for GF(2^m) an
element is the usual bitmask of its polynomial over GF(2).  Arithmetic
reduces modulo a monic reduction polynomial that is verified irreducible
at construction (trial division by every monic polynomial of degree up
to m/2).

Default reduction polynomials shipped for GF(2^m) (bit i = coefficient
of x^i):

    m=1 : x               m=5 : x^5 + x^2 + 1
    m=2 : x^2 + x + 1     m=6 : x^6 + x + 1
    m=3 : x^3 + x + 1     m=7 : x^7 + x^3 + 1
    m=4 : x^4 + x + 1     m=8 : x^8 + x^4 + x^3 + x^2 + 1
    ... up to m=16 (standard primitive polynomials)

plus a few small odd-characteristic extensions.  Any verified irreducible
polynomial is acceptable; enumerator results do not depend on the basis.

Multiplication is polynomial-basis by default.  ``build_tables()``
installs log/antilog tables (q <= 2^16) as a faster path; both paths are
required to agree and the tests check them against each other
exhaustively for small fields.

Fields are immutable after construction (the lazily built lookup tables
never change results), so they are safe to share across threads.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .primes import factorize, prime_power


class NotPrimeError(ValueError):
    """Characteristic is not a prime (or an order is not a prime power)."""


class NotIrreducibleError(ValueError):
    """Reduction polynomial factors over GF(p)."""


class DegreeMismatchError(ValueError):
    """Reduction polynomial is not monic of the requested degree."""


# Primitive polynomials for GF(2^m), bitmask form (bit i = coeff of x^i).
_GF2_DEFAULT_POLY = {
    1: 0b10,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}

# Odd-characteristic extension defaults, (p, m) -> coefficient tuple
# (index i = coeff of x^i).
_ODD_DEFAULT_POLY = {
    (3, 2): (1, 0, 1),          # x^2 + 1
    (3, 3): (1, 2, 0, 1),       # x^3 + 2x + 1
    (3, 4): (2, 1, 0, 0, 1),    # x^4 + x + 2
    (5, 2): (2, 0, 1),          # x^2 + 2
    (5, 3): (1, 1, 0, 1),       # x^3 + x + 1
    (7, 2): (1, 0, 1),          # x^2 + 1
    (7, 3): (2, 1, 0, 1),       # x^3 + x + 2
}

_TABLE_LIMIT = 1 << 16


def _poly_trim(c: Sequence[int]) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of a by b over GF(p); b monic."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    while da >= db:
        c = a[da] % p
        if c:
            for i in range(db + 1):
                a[da - db + i] = (a[da - db + i] - c * b[i]) % p
        da -= 1
        while da >= 0 and a[da] % p == 0:
            da -= 1
        a = a[: da + 1]
    return _poly_trim(x % p for x in a)


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    m = len(poly) - 1
    if m == 1:
        return True
    for deg in range(1, m // 2 + 1):
        for low in range(p**deg):
            div = []
            v = low
            for _ in range(deg):
                div.append(v % p)
                v //= p
            div.append(1)
            if not _poly_mod(poly, div, p):
                return False
    return True


class Field:
    """The finite field GF(p^m) with a fixed reduction polynomial.

    Arithmetic methods (`add`, `mul`, `inv`, ...) operate on raw integer
    element values.
    """

    def __init__(self, characteristic: int, extension_degree: int = 1,
                 reduction_poly: Optional[Sequence[int]] = None) -> None:
        p, m = characteristic, extension_degree
        if prime_power(p) != (p, 1):
            raise NotPrimeError(f"characteristic {p} is not prime")
        if m < 1:
            raise DegreeMismatchError(f"extension degree must be >= 1, got {m}")
        if reduction_poly is None:
            reduction_poly = self._default_poly(p, m)
        poly = tuple(int(c) % p for c in reduction_poly)
        if len(poly) != m + 1:
            raise DegreeMismatchError(
                f"reduction polynomial has degree {len(poly) - 1}, expected {m}")
        if poly[-1] != 1:
            raise DegreeMismatchError("reduction polynomial must be monic")
        if not _is_irreducible(poly, p):
            raise NotIrreducibleError(
                f"reduction polynomial {poly} is reducible over GF({p})")

        self.characteristic = p
        self.extension_degree = m
        self.reduction_poly = poly
        self.order = p**m
        # bitmask form of the reduction polynomial, used by the GF(2^m)
        # shift-and-xor multiply
        self._poly_mask = sum(c << i for i, c in enumerate(poly)) if p == 2 else None
        # x^m == _xm_tail in the quotient ring (odd-characteristic reduce step)
        self._xm_tail = tuple((-c) % p for c in poly[:m])
        self._exp: Optional[list[int]] = None
        self._log: Optional[list[int]] = None
        self._generator: Optional[int] = None

    @staticmethod
    def _default_poly(p: int, m: int) -> tuple[int, ...]:
        if m == 1:
            return (0, 1)  # x; any monic linear works for GF(p)
        if p == 2 and m in _GF2_DEFAULT_POLY:
            mask = _GF2_DEFAULT_POLY[m]
            return tuple((mask >> i) & 1 for i in range(m + 1))
        if (p, m) in _ODD_DEFAULT_POLY:
            return _ODD_DEFAULT_POLY[(p, m)]
        raise DegreeMismatchError(
            f"no default reduction polynomial for GF({p}^{m}); pass one explicitly")

    # -- raw integer arithmetic ------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.characteristic == 2:
            return a ^ b
        if self.extension_degree == 1:
            return (a + b) % self.characteristic
        return self._from_digits(
            (x + y) % self.characteristic
            for x, y in zip(self._to_digits(a), self._to_digits(b)))

    def neg(self, a: int) -> int:
        if self.characteristic == 2:
            return a
        if self.extension_degree == 1:
            return (-a) % self.characteristic
        return self._from_digits((-x) % self.characteristic for x in self._to_digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._log is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def _mul_raw(self, a: int, b: int) -> int:
        """Table-free polynomial-basis multiply (the correctness path)."""
        p, m = self.characteristic, self.extension_degree
        if p == 2:
            mask = self._poly_mask
            top = 1 << m
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mask
            return r
        if m == 1:
            return (a * b) % p
        da, db = self._to_digits(a), self._to_digits(b)
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] += x * y
        for i in range(2 * m - 2, m - 1, -1):
            c = conv[i] % p
            if c:
                for j, t in enumerate(self._xm_tail):
                    conv[i - m + j] += c * t
            conv[i] = 0
        return self._from_digits(c % p for c in conv[:m])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        if self._log is not None:
            return self._exp[(self.order - 1) - self._log[a]]
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    # -- structure --------------------------------------------------------

    def generator(self) -> int:
        """Smallest element generating the multiplicative group."""
        if self._generator is not None:
            return self._generator
        q1 = self.order - 1
        if q1 == 1:
            self._generator = 1
            return 1
        prime_factors = list(factorize(q1))
        for g in range(2, self.order):
            if all(self.pow(g, q1 // f) != 1 for f in prime_factors):
                self._generator = g
                return g
        raise AssertionError(f"no generator found in {self!r}")  # unreachable

    def build_tables(self) -> None:
        """Install log/antilog multiply tables (q <= 2^16). Idempotent."""
        if self._log is not None:
            return
        if self.order > _TABLE_LIMIT:
            raise ValueError(f"table path limited to q <= {_TABLE_LIMIT}")
        g = self.generator()
        q1 = self.order - 1
        exp = [1] * (2 * q1 + 1) if q1 else [1, 1]
        log = [0] * self.order
        v = 1
        for i in range(q1):
            exp[i] = v
            log[v] = i
            v = self._mul_raw(v, g)
        for i in range(q1, len(exp)):
            exp[i] = exp[i - q1] if q1 else 1
        self._exp, self._log = exp, log

    def _to_digits(self, a: int) -> tuple[int, ...]:
        p = self.characteristic
        out = []
        for _ in range(self.extension_degree):
            out.append(a % p)
            a //= p
        return tuple(out)

    def _from_digits(self, digits) -> int:
        p = self.characteristic
        v = 0
        for d in reversed(list(digits)):
            v = v * p + d
        return v

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and self.characteristic == other.characteristic
                and self.extension_degree == other.extension_degree
                and self.reduction_poly == other.reduction_poly)

    def __hash__(self) -> int:
        return hash((self.characteristic, self.extension_degree, self.reduction_poly))

    def __repr__(self) -> str:
        return f"GF({self.order})"

    def spec_string(self) -> str:
        """Round-trippable CLI spec, e.g. ``gf:2^3:poly=0xb``."""
        mask = self._from_digits(self.reduction_poly)
        return f"gf:{self.characteristic}^{self.extension_degree}:poly={mask:#x}"


def field_from_order(q: int) -> Field:
    """Field of order q = p^m with the default reduction polynomial."""
    pm = prime_power(q)
    if pm is None:
        raise NotPrimeError(f"{q} is not a prime power")
    return Field(*pm)


def parse_field_spec(spec: str) -> Field:
    """Parse ``gf:<p>^<m>[:poly=<hex bitmask>]``.

    The poly value is an integer whose base-p digits (little-endian) are
    the reduction polynomial coefficients; for p=2 that is the usual
    bitmask, e.g. ``gf:2^3:poly=0xB`` for x^3 + x + 1.
    """
    parts = spec.split(":")
    if len(parts) not in (2, 3) or parts[0] != "gf":
        raise ValueError(f"bad field spec {spec!r}; expected gf:<p>^<m>[:poly=<mask>]")
    try:
        p_str, m_str = parts[1].split("^")
        p, m = int(p_str), int(m_str)
    except ValueError:
        raise ValueError(f"bad field spec {spec!r}; expected gf:<p>^<m>[:poly=<mask>]")
    poly = None
    if len(parts) == 3:
        if not parts[2].startswith("poly="):
            raise ValueError(f"bad field spec option {parts[2]!r}; expected poly=<mask>")
        mask = int(parts[2][5:], 0)
        digits = []
        v = mask
        while v:
            digits.append(v % p)
            v //= p
        poly = tuple(digits)
    return Field(p, m, poly)
