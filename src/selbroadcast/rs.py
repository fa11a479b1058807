"""(n, n-2t) Reed-Solomon error-detection code over GF(2^c).

A data block is a tuple of n-2t field symbols, read as the coefficients
(low degree first) of a polynomial of degree < n-2t.  The codeword is the
evaluation of that polynomial at the n points a^0, a^1, ..., a^(n-1),
where a is the field's generator x (the int 2; 1 when c = 1), read from
the field's power table; the encoder keeps the logs of each point's
powers x^0..x^(n-2t-1), so a codeword symbol is an XOR of exp/log
products.  Because two distinct codewords agree on at most
n-2t-1 positions, any view with at least n-2t non-null symbols determines
at most one consistent codeword, which is what the consistency check
exploits.
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

    def encode(self, data: Sequence[int]) -> tuple[int, ...]:
        """Evaluate the data polynomial at all n points."""
        if len(data) != self.k:
            raise ValueError(f"data block must have {self.k} symbols")
        f = self.field
        f._check(*data)
        exp = f.exp
        terms = [(d, f.log[a]) for d, a in enumerate(data) if a]
        out = []
        for row in self.power_logs:
            acc = 0
            for d, log_a in terms:  # sum over d of data[d] * x^d
                acc ^= exp[log_a + row[d]]
            out.append(acc)
        return tuple(out)

    def reconstruct(self, view: PartialView, subset: Sequence[int]) -> tuple[int, ...]:
        """Interpolate the unique data block agreeing with view on subset.

        subset holds 1-based positions; it must have exactly n-2t entries,
        all non-null in the view.
        """
        positions = sorted(set(subset))
        if len(positions) != self.k:
            raise ValueError(f"subset must have exactly {self.k} distinct positions")
        xs, ys = [], []
        for p in positions:
            if not 1 <= p <= self.n:
                raise ValueError(f"position {p} out of range")
            y = view[p - 1]
            if y is None:
                raise ValueError(f"position {p} is null in the view")
            xs.append(self.points[p - 1])
            ys.append(y)
        return self._lagrange_coefficients(xs, ys)

    def _lagrange_coefficients(self, xs: list[int], ys: list[int]) -> tuple[int, ...]:
        f = self.field
        k = len(xs)
        coeffs = [0] * k
        for i in range(k):
            # basis polynomial prod_{j != i} (X + xs[j]) / (xs[i] + xs[j]),
            # coefficients low degree first
            num = [1]
            denom = 1
            for j in range(k):
                if j == i:
                    continue
                # num *= X + xs[j]: coefficient d becomes num[d]*xs[j] + num[d-1]
                num = [f.mul(a, xs[j]) ^ b for a, b in zip(num + [0], [0] + num)]
                denom = f.mul(denom, f.add(xs[i], xs[j]))
            scale = f.mul(ys[i], f.inv(denom))
            for d, cf in enumerate(num):
                coeffs[d] ^= f.mul(cf, scale)
        return tuple(coeffs)

    def consistency_check(self, view: PartialView) -> Optional[tuple[int, ...]]:
        """Return the unique consistent data block, or None on inconsistency.

        Reconstructs from the first n-2t non-null positions, re-encodes,
        and compares against every non-null entry.  By the minimum-distance
        property this gives the same verdict as enumerating all subsets.
        Raises ValueError if fewer than n-2t entries are non-null (a
        dispute-accounting bug upstream).
        """
        nonnull = [p for p in range(1, self.n + 1) if view[p - 1] is not None]
        if len(nonnull) < self.k:
            raise ValueError(
                f"view has {len(nonnull)} non-null symbols, need at least {self.k}"
            )
        data = self.reconstruct(view, nonnull[: self.k])
        codeword = self.encode(data)
        for p in nonnull:
            if codeword[p - 1] != view[p - 1]:
                return None
        return data
