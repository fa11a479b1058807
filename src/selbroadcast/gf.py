"""Arithmetic in GF(2^c) for the symbol widths c = 1..8.

Elements are plain ints in [0, 2^c).  Addition is XOR; multiplication is
carry-less polynomial multiplication reduced modulo the pinned polynomial
of degree c.  Every pinned polynomial is primitive, so x generates the
multiplicative group: the field is built once as the table of the powers
of x (exp) and its inverse map (log), and mul, pow and inv are lookups.
The tables carry a zero sentinel, which RS reads too: log[0] = 2*order
lies past every sum of two real logs (each < order), and exp reads 0
from there on, so a product of logs needs no zero test.
"""

from __future__ import annotations

# Pinned primitive reduction polynomials per width, as bit patterns
# (degree-c term included), so codewords are reproducible across runs.
DEFAULT_POLYNOMIALS = {
    1: 0b11,          # x + 1
    2: 0b111,         # x^2 + x + 1
    3: 0b1011,        # x^3 + x + 1
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1000011,     # x^6 + x + 1
    7: 0b10001001,    # x^7 + x^3 + 1
    8: 0b100011101,   # x^8 + x^4 + x^3 + x^2 + 1
}


class GF:
    """GF(2^c) over the pinned primitive polynomial, with generator x."""

    def __init__(self, c: int):
        if c not in DEFAULT_POLYNOMIALS:
            raise ValueError(f"no pinned polynomial for c={c}; need 1 <= c <= 8")
        self.c = c
        self.polynomial = DEFAULT_POLYNOMIALS[c]
        self.size = 1 << c
        self.order = self.size - 1  # size of the multiplicative group
        self.generator = 2 if c > 1 else 1  # x, which is 1 modulo x + 1
        exp = [1]
        for _ in range(self.order - 1):
            a = exp[-1] << 1  # times x, reduced
            exp.append(a ^ self.polynomial if a & self.size else a)
        self.log = [2 * self.order] * self.size
        for k, a in enumerate(exp):
            self.log[a] = k
        # Stored twice over, so a sum of two real logs needs no reduction;
        # then 0 for every sum with the sentinel.
        self.exp = exp + exp + [0] * (2 * self.order + 1)

    def _check(self, *xs: int) -> None:
        for x in xs:
            if not 0 <= x < self.size:
                raise ValueError(f"{x} is not an element of GF(2^{self.c})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return self.exp[self.log[a] + self.log[b]]

    def pow(self, a: int, k: int) -> int:
        self._check(a)
        if a == 0:
            return 1 if k == 0 else 0
        return self.exp[self.log[a] * k % self.order]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.exp[self.order - self.log[a]]

    def __repr__(self) -> str:
        return f"GF(2^{self.c}, poly=0b{self.polynomial:b})"
