"""(n, n-2t) Reed-Solomon error-detection code over GF(2^c).

A data block is a tuple of n-2t field symbols, read as the coefficients
(low degree first) of a polynomial of degree < n-2t.  The codeword is the
evaluation of that polynomial at the n points a^0, a^1, ..., a^(n-1),
where a is the field's generator x (the int 2; 1 when c = 1), read from
the field's power table; the encoder keeps the logs of each point's
powers x^0..x^(n-2t-1), so a codeword symbol is an XOR of products
read from the field's exp/log tables (whose zero sentinel makes a zero
factor read as 0), computed by the same log-domain matrix-vector
product that decoding uses.  Because two distinct codewords agree on at
most n-2t-1 positions, any view with at least n-2t non-null symbols
determines at most one consistent codeword, which is what the
consistency check exploits.

Decoding from n-2t distinct positions multiplies their symbols by the
inverse of the Vandermonde matrix of those points.  A code keeps that
matrix, in log form, for each position subset it meets (in a run, nearly
always the first n-2t positions), so a decode is (n-2t)^2 exp/log lookups
after one field check of the n-2t symbols.

A code keeps one slot, `_last`: the last codeword it wrote with its data
block, or the last view it checked, as a tuple, with its verdict.  A view
equal to the slot's gets that verdict without a decode or a re-encode.  A
full view equal to a codeword has that codeword's block as its only
consistent block, by the distance property above, so the peers of an
honest generation, whose views equal the codeword their own encode has
just written, decode nothing.
"""

from __future__ import annotations

from functools import cache
from typing import Optional, Sequence

from .gf import GF

# A partial view is a length-n list with None marking the null symbol.
PartialView = Sequence[Optional[int]]


@cache
def bit_strings(c: int) -> tuple[str, ...]:
    """The c-bit string of every symbol of GF(2^c), by value."""
    return tuple(format(s, f"0{c}b") for s in range(1 << c))


def symbols_to_bits(symbols: Sequence[int], c: int) -> str:
    return "".join(map(bit_strings(c).__getitem__, symbols))


def bits_to_symbols(bits: str, c: int) -> tuple[int, ...]:
    if len(bits) % c:
        raise ValueError("bit string length is not a multiple of the symbol width")
    return tuple([int(bits[i : i + c], 2) for i in range(0, len(bits), c)])


class RSCode:
    """Encoder and consistency checker for one (n, t, field)."""

    def __init__(self, n: int, t: int, field: GF):
        k = n - 2 * t
        if k < 1:
            raise ValueError("need n > 2t")
        if n > field.order:
            raise ValueError(f"n={n} exceeds 2^c - 1 = {field.order}")
        self.n = n
        self.k = k
        self.field = field
        g = field.generator
        self.points = tuple(field.pow(g, j) for j in range(n))
        # power_logs[j][d] = log(points[j]^d): no point is 0, so every power has a log.
        self.power_logs = tuple(
            tuple(field.log[field.pow(x, d)] for d in range(k)) for x in self.points
        )
        self._decoders: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        self._last: tuple = (None, None)  # the last codeword written or view checked, and its block

    def encode(self, data: Sequence[int]) -> tuple[int, ...]:
        """Evaluate the data polynomial at all n points."""
        if len(data) != self.k:
            raise ValueError(f"data block must have {self.k} symbols")
        self.field._check(*data)
        codeword = self._product(data, self.power_logs)
        self._last = codeword, tuple(data)
        return codeword

    def _decode(self, view: PartialView, positions: tuple[int, ...]) -> tuple[int, ...]:
        """The data block whose codeword holds view's symbols at positions
        (sorted, distinct): data[d] is the XOR over i of y_i * M[d][i], M
        the inverse Vandermonde matrix of those positions, whose logs are
        kept per position subset."""
        rows = self._decoders.get(positions)
        if rows is None:
            rows = self._decoders[positions] = self._decoding_rows(positions)
        ys = [view[p - 1] for p in positions]
        self.field._check(*ys)
        return self._product(ys, rows)

    def _product(self, vector: Sequence[int], rows) -> tuple[int, ...]:
        """Entry r: the XOR over i of vector[i] times the element whose log
        is rows[r][i], with a zero factor read from the sentinel as 0."""
        log, exp = self.field.log, self.field.exp
        logs = [log[v] for v in vector]
        out = []
        for row in rows:
            acc = 0
            for a, b in zip(logs, row):
                acc ^= exp[a + b]
            out.append(acc)
        return tuple(out)

    def _decoding_rows(self, positions: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Logs of M[d][i], the coefficient of X^d in the Lagrange basis
        polynomial prod_{j != i} (X + x_j) / (x_i + x_j) of position i."""
        f = self.field
        xs = [self.points[p - 1] for p in positions]
        k = len(xs)
        columns = []
        for i in range(k):
            num = [1]  # coefficients low degree first
            denom = 1
            for j in range(k):
                if j == i:
                    continue
                # num *= X + xs[j]: coefficient d becomes num[d]*xs[j] + num[d-1]
                num = [f.mul(a, xs[j]) ^ b for a, b in zip(num + [0], [0] + num)]
                denom = f.mul(denom, f.add(xs[i], xs[j]))
            scale = f.inv(denom)
            columns.append([f.log[f.mul(cf, scale)] for cf in num])
        return tuple(zip(*columns))

    def consistency_check(self, view: PartialView) -> Optional[tuple[int, ...]]:
        """Return the unique consistent data block, or None on inconsistency.

        Reconstructs from the first n-2t non-null positions, re-encodes,
        and compares against every non-null entry.  By the minimum-distance
        property this gives the same verdict as enumerating all subsets.
        A view equal in content to the last codeword written, or to the
        last view checked, gets that one's block or verdict without a
        decode.  Raises ValueError if fewer than n-2t entries are non-null
        (a dispute-accounting bug upstream).
        """
        symbols = tuple(view)
        if symbols == self._last[0]:
            return self._last[1]
        nonnull = [p for p in range(1, self.n + 1) if symbols[p - 1] is not None]
        if len(nonnull) < self.k:
            raise ValueError(
                f"view has {len(nonnull)} non-null symbols, need at least {self.k}"
            )
        data = self._decode(symbols, tuple(nonnull[: self.k]))
        codeword = self.encode(data)
        if any(codeword[p - 1] != symbols[p - 1] for p in nonnull):
            data = None
        self._last = symbols, data
        return data
