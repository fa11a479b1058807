import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from selbroadcast.adversaries import make_strategy
from selbroadcast.channel import SystemConfig
from selbroadcast.dispute_bb import run_byzantine_broadcast
from selbroadcast.gf import GF
from selbroadcast.rs import RSCode, bits_to_symbols, symbols_to_bits


@pytest.fixture(scope="module")
def code():
    return RSCode(4, 1, GF(3))


def all_blocks(code):
    return list(itertools.product(range(code.field.size), repeat=code.k))


def subset_solutions(code, view, subset, table):
    """Every data block whose encoding matches the view on the subset,
    found by exhaustive enumeration (the test oracle)."""
    return [
        d
        for d in table
        if all(table[d][p - 1] == view[p - 1] for p in subset)
    ]


@pytest.fixture(scope="module")
def encode_table(code):
    return {d: code.encode(d) for d in all_blocks(code)}


def test_encode_examples(code):
    assert code.points == (1, 2, 4, 3)
    assert code.encode((1, 0)) == (1, 1, 1, 1)
    assert code.encode((0, 1)) == (1, 2, 4, 3)
    assert code.encode((1, 1)) == (0, 3, 5, 2)


def horner(code, data):
    """The data polynomial at each point by Horner's rule, one field
    operation at a time (the test oracle for the power-row encoder)."""
    f = code.field
    out = []
    for x in code.points:
        acc = 0
        for coeff in reversed(data):
            acc = f.add(f.mul(acc, x), coeff)
        out.append(acc)
    return tuple(out)


def test_encode_matches_horner_for_every_block(code):
    for data in all_blocks(code):
        assert code.encode(data) == horner(code, data)


@pytest.mark.parametrize("n, t, c", [(13, 4, 4), (15, 2, 4), (40, 13, 8), (60, 10, 8)])
def test_encode_matches_horner_on_random_blocks(n, t, c):
    code = RSCode(n, t, GF(c))
    rng = random.Random(n * c)
    for _ in range(100):
        data = tuple(rng.randrange(code.field.size) for _ in range(code.k))
        assert code.encode(data) == horner(code, data)
    assert code.encode((0,) * code.k) == (0,) * n


def test_encode_rejects_a_symbol_outside_the_field(code):
    for bad in ((8, 0), (0, -1)):
        with pytest.raises(ValueError):
            code.encode(bad)


def through(code, view, subset):
    """The data block whose codeword agrees with `view` at the n-2t
    positions of `subset`: the consistency check of the view nulled
    elsewhere, which decodes from exactly those positions."""
    return code.consistency_check([v if p in subset else None for p, v in enumerate(view, start=1)])


def test_subset_decode_examples(code):
    assert through(code, (0, 3, 5, 2), [1, 2]) == (1, 1)
    assert through(code, (1, 1, 1, 1), [3, 4]) == (1, 0)
    assert through(code, (1, 1, 1, 3), [3, 4]) == (6, 3)


def lagrange(code, xs, ys):
    """The data block through the points (xs[i], ys[i]), solved afresh
    one field operation at a time (the test oracle for the cached decoder)."""
    f = code.field
    coeffs = [0] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num, denom = [1], 1
        for j, xj in enumerate(xs):
            if j != i:
                num = [f.mul(a, xj) ^ b for a, b in zip(num + [0], [0] + num)]
                denom = f.mul(denom, f.add(xi, xj))
        scale = f.mul(yi, f.inv(denom))
        for d, cf in enumerate(num):
            coeffs[d] ^= f.mul(cf, scale)
    return tuple(coeffs)


@pytest.mark.parametrize("n, t, c", [(7, 2, 3), (13, 4, 4), (40, 13, 8)])
def test_cached_decoder_matches_a_fresh_lagrange_solve(n, t, c):
    code = RSCode(n, t, GF(c))  # one code, so later views hit its decoder cache
    rng = random.Random(n + t + c)
    size = code.field.size
    subsets = []
    for _ in range(150):
        view = list(code.encode(tuple(rng.randrange(size) for _ in range(code.k))))
        for p in range(n):
            r = rng.random()
            if r < 0.1:
                view[p] = rng.randrange(size)
            elif r < 0.3:
                view[p] = None
        nonnull = [p for p in range(1, n + 1) if view[p - 1] is not None]
        if len(nonnull) < code.k:
            continue
        first = nonnull[: code.k]
        data = lagrange(code, [code.points[p - 1] for p in first], [view[p - 1] for p in first])
        codeword = horner(code, data)
        consistent = all(codeword[p - 1] == view[p - 1] for p in nonnull)
        assert code.consistency_check(view) == (data if consistent else None)
        subset = rng.sample(nonnull, code.k)
        ys = [view[p - 1] for p in sorted(subset)]
        expected = lagrange(code, [code.points[p - 1] for p in sorted(subset)], ys)
        assert through(code, view, subset) == expected
        subsets += [tuple(first), tuple(sorted(subset))]
    assert len(set(subsets)) > 20 and len(set(subsets)) < len(subsets)  # misses and hits
    # A symbol outside GF(2^c) at a decoding position, with the subset
    # cached (code) or not (a fresh code).  consistency_check decodes a
    # view with no null from positions 1..k.
    subset = subsets[0]
    for decoder in (code, RSCode(n, t, GF(c))):
        for bad in (size, -1):
            view = [0] * n
            view[subset[-1] - 1] = bad
            with pytest.raises(ValueError):
                through(decoder, view, subset)
            view = [0] * n
            view[code.k - 1] = bad
            with pytest.raises(ValueError):
                decoder.consistency_check(view)


def test_consistency_examples(code):
    assert code.consistency_check((0, 3, 5, 2)) == (1, 1)
    assert code.consistency_check((0, 3, 5, 7)) is None
    assert code.consistency_check((0, 3, None, 2)) == (1, 1)


def test_consistency_needs_enough_symbols(code):
    with pytest.raises(ValueError):
        code.consistency_check((0, None, None, None))


def test_round_trip_exhaustive(code, encode_table):
    # Every data block, every (n-2t)-subset.
    for d, cw in encode_table.items():
        for subset in itertools.combinations(range(1, 5), 2):
            assert through(code, cw, subset) == d


def test_subset_decode_matches_enumeration(code, encode_table):
    rng = random.Random(42)
    blocks = all_blocks(code)
    for _ in range(200):
        d = blocks[rng.randrange(len(blocks))]
        view = list(encode_table[d])
        subset = rng.sample(range(1, 5), 2)
        sols = subset_solutions(code, view, subset, encode_table)
        assert sols == [through(code, view, subset)]


def test_consistency_matches_all_subsets_oracle(code, encode_table):
    """Decode-once-and-re-encode agrees with the literal all-subsets
    uniqueness test on random tamper/null patterns."""
    rng = random.Random(7)
    blocks = all_blocks(code)
    for _ in range(500):
        d = blocks[rng.randrange(len(blocks))]
        view = list(encode_table[d])
        for p in range(4):
            r = rng.random()
            if r < 0.25:
                view[p] = rng.randrange(8)
            elif r < 0.40:
                view[p] = None
        if sum(v is not None for v in view) < 2:
            continue
        subsets = itertools.combinations(
            [p for p in range(1, 5) if view[p - 1] is not None], 2
        )
        sols = set()
        for subset in subsets:
            found = subset_solutions(code, view, subset, encode_table)
            assert len(found) == 1
            sols.add(found[0])
        expected = sols.pop() if len(sols) == 1 else None
        assert code.consistency_check(view) == expected


def test_minimum_distance(code, encode_table):
    # Two distinct codewords agree on at most n-2t-1 positions.
    words = list(encode_table.values())
    for a, b in itertools.combinations(words, 2):
        agreements = sum(1 for x, y in zip(a, b) if x == y)
        assert agreements <= 1


@settings(max_examples=50)
@given(st.integers(0, 63), st.data())
def test_round_trip_larger_code(block_index, data):
    code = RSCode(7, 2, GF(3))
    d = tuple((block_index >> (3 * i)) & 7 for i in range(3))
    cw = code.encode(d)
    subset = data.draw(st.permutations(range(1, 8))) [: code.k]
    assert through(code, cw, subset) == d


def test_bit_conversions():
    assert symbols_to_bits((1, 0), 3) == "001000"
    assert bits_to_symbols("001000", 3) == (1, 0)
    with pytest.raises(ValueError):
        bits_to_symbols("0010", 3)


def _counted(monkeypatch, name):
    """Calls of RSCode.`name` from here on, each by its view."""
    calls = []
    original = getattr(RSCode, name)

    def counted(self, view, *args):
        calls.append(tuple(view))
        return original(self, view, *args)

    monkeypatch.setattr(RSCode, name, counted)
    return calls


def test_an_equal_view_gets_the_last_verdict_without_a_decode(monkeypatch):
    decodes = _counted(monkeypatch, "_decode")
    code = RSCode(4, 1, GF(3))
    assert code.consistency_check([1, 1, 1, 1]) == (1, 0)
    assert code.consistency_check((1, 1, 1, 1)) == (1, 0)  # equal contents, another object
    assert len(decodes) == 1
    assert code.consistency_check([1, 1, 1, 3]) is None
    assert code.consistency_check([1, 1, 1, 3]) is None  # a detection is kept as well
    assert len(decodes) == 2
    view = [1, 1, None, 1]
    assert code.consistency_check(view) == (1, 0)
    view[3] = 3  # changed in place after its check: checked afresh
    assert code.consistency_check(view) is None
    assert len(decodes) == 4


def test_a_view_equal_to_the_last_codeword_gets_its_block_without_a_decode(monkeypatch):
    decodes = _counted(monkeypatch, "_decode")
    code = RSCode(7, 2, GF(3))
    codeword = code.encode((5, 0, 3))
    assert code.consistency_check(list(codeword)) == (5, 0, 3)
    assert decodes == []
    changed = list(codeword)
    changed[4] ^= 1  # one symbol off the codeword: checked afresh, and inconsistent
    assert code.consistency_check(changed) is None
    assert len(decodes) == 1
    code.encode((5, 0, 3))
    nulled = list(codeword)
    nulled[4] = None  # every non-null symbol matches, but the view is not the codeword
    assert code.consistency_check(nulled) == (5, 0, 3)
    assert len(decodes) == 2


def test_an_honest_generation_decodes_once(monkeypatch):
    # (10,3,4), L=160: 10 generations, each with 9 peers that check one
    # equal view, the codeword each peer's own encode has just written:
    # no view is decoded.
    checks = _counted(monkeypatch, "consistency_check")
    decodes = _counted(monkeypatch, "_decode")
    config = SystemConfig(n=10, t=3, c=4, L=160)
    x = format(random.Random(3).getrandbits(config.L), f"0{config.L}b")
    outcome = run_byzantine_broadcast(x, config, make_strategy("honest", config))
    assert outcome.outputs == dict.fromkeys(config.peers, x)
    assert (len(checks), len(decodes)) == (90, 0)
