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

A code also keeps its last checked view, as a tuple, and its verdict: an
equal view gets that verdict without a decode, so the equal views of an
honest generation's peers decode once.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .gf import GF

# A partial view is a length-n list with None marking the null symbol.
PartialView = Sequence[Optional[int]]


def symbols_to_bits(symbols: Sequence[int], c: int) -> str:
    return "".join(format(s, f"0{c}b") for s in symbols)


def bits_to_symbols(bits: str, c: int) -> tuple[int, ...]:
    if len(bits) % c:
        raise ValueError("bit string length is not a multiple of the symbol width")
    return tuple(int(bits[i : i + c], 2) for i in range(0, len(bits), c))


class RSCode:
    """Encoder / reconstructor / consistency checker for one (n, t, field)."""

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
        self._last: tuple = (None, None)  # the last checked view, as a tuple, and its verdict

    def encode(self, data: Sequence[int]) -> tuple[int, ...]:
        """Evaluate the data polynomial at all n points."""
        if len(data) != self.k:
            raise ValueError(f"data block must have {self.k} symbols")
        self.field._check(*data)
        return self._product(data, self.power_logs)

    def reconstruct(self, view: PartialView, subset: Sequence[int]) -> tuple[int, ...]:
        """Interpolate the unique data block agreeing with view on subset.

        subset holds 1-based positions; it must have exactly n-2t entries,
        all distinct and non-null in the view.
        """
        positions = tuple(sorted(subset))
        if len(positions) != self.k or len(set(positions)) != self.k:
            raise ValueError(f"subset must have exactly {self.k} distinct positions")
        return self._decode(view, positions)

    def _decode(self, view: PartialView, positions: tuple[int, ...]) -> tuple[int, ...]:
        """The data block whose codeword holds view's symbols at positions
        (sorted, distinct): data[d] is the XOR over i of y_i * M[d][i], M
        the inverse Vandermonde matrix of those positions, whose logs are
        kept per position subset."""
        rows = self._decoders.get(positions)
        if rows is None:
            for p in positions:
                if not 1 <= p <= self.n:
                    raise ValueError(f"position {p} out of range")
            rows = self._decoders[positions] = self._decoding_rows(positions)
        ys = [view[p - 1] for p in positions]
        if None in ys:
            p = positions[ys.index(None)]
            raise ValueError(f"position {p} is null in the view")
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
        A view equal in content to the last one checked gets its verdict
        again, without a decode.  Raises ValueError if fewer than n-2t
        entries are non-null (a dispute-accounting bug upstream).
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
