"""Packed (Kronecker) ring arithmetic against the schoolbook oracles.

Products, dot products (a one-column packed matrix, the shape of
``SecretKey.rows``), row combinations of a packed matrix and tensor
contractions (``hom_mul`` included) are computed on packed integers whose
slot width is derived from the largest possible result coefficient.
All-(q-1) operands and tensors reach that largest value, so a slot one
byte too narrow shows up here as a wrong coefficient.

``Ring.layout`` evaluates at one point, or, for ``u = X^d - 1`` of even
degree once the packed operand reaches ``SIX_POINT_BYTES``, at six: the
values at ``+-2^(8w)`` (half-width slots), each cut into its residues mod
``2^m + 1``, ``2^(m/2) + 1`` and ``2^(m/2) - 1``.  Every other ring, odd
degrees and large non-cyclic ones included, runs on one point.  Two cyclic
rings sit either side of the switch, degrees 40 to 72 put the six points at
``d/2`` odd and even, and the large-channel worst cases run on six points;
all-(q-1) operands put every slot at its bound, and operands at q-1 on one
half or on alternate quarters and 0 elsewhere drive the ``+ 1`` residues
negative.  The layouts each kernel picks are asserted as ``(points,
width)``, so moving the switch cannot silently drop a layout from these
tests.

The contraction reads the tensor's layers, ``ProductTensor.layers``: one
layer ``alpha (x) beta`` for every key's tensor; drawn cubes are given as
one layer per plane (``oracles.planes``).  Each layer's sum ``B = sum_ij
beta[i][j] v1[i] v2[j]`` is packed at the slots for ``n^2 d (q-1)^3``,
reached by all-(q-1) operands and ``beta``; ``hom_mul`` then folds
``-alpha mod q`` into a narrower pass.  Rank-one tensors are drawn as one
layer, so both layer shapes meet the oracles.
"""

import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aces.channel import ArithmeticChannel, RandomSource
from aces.cipher import Ciphertext, decrypt, encrypt, shadow
from aces.errors import ParameterError
from aces.homo import hom_mul, tensor_contract
from aces.keygen import ProductTensor, keygen
from aces.refresh import make_refreshable, refresh_ct, secret_refresh_checker
from aces.rings import SIX_POINT_BYTES, Layout, PackedRows, Ring, RingPoly

from oracles import conv_mul, kronecker, naive_contract, planes, rank_one, reduce_poly, ring_op

DESK_Q = 15015
MID_Q = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
LARGE_Q = math.prod((5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))  # 57 bits
MODULI = (DESK_Q, MID_Q, LARGE_Q)
DEGREES = (4, 5, 16, 33, 40, 64, 65, 66, 68, 72)
# The 57-bit q at degrees 34 and 36: a product's packed operand is 34 and 36
# slots of 15 bytes, 510 and 540 bytes, either side of SIX_POINT_BYTES.
SWITCH = ((LARGE_Q, 34), (LARGE_Q, 36))


@st.composite
def rings(draw, degrees=DEGREES):
    """(q, u) with u cyclic, negacyclic, another binomial or a general monic
    polynomial.  The binomial ``X^d + u_0`` is one only mod q: its middle
    coefficients are nonzero multiples of q, which the fold and the long
    division must both see as zero."""
    q, d = draw(st.sampled_from([(q, d) for q in MODULI for d in degrees] + list(SWITCH)))
    kind = draw(st.sampled_from(("cyclic", "negacyclic", "binomial", "general")))
    if kind == "cyclic":
        u = [-1] + [0] * (d - 1) + [1]
    elif kind == "negacyclic":
        u = [1] + [0] * (d - 1) + [1]
    elif kind == "binomial":
        middle = draw(st.lists(st.sampled_from((-2, -1, 1, 2)), min_size=d - 1, max_size=d - 1))
        u = [draw(st.integers(-q, q))] + [k * q for k in middle] + [1]
    else:
        u = draw(st.lists(st.integers(-q, q), min_size=d, max_size=d)) + [1]
        if all(c % q == 0 for c in u[1:d]):
            u[1] = 1  # keep it off the binomial path
    return q, tuple(u)


def coefficient_vectors(draw, q, d, count):
    """``count`` coefficient lists: all q-1 (the widest slot value) or drawn."""
    if draw(st.booleans()):
        return [[q - 1] * d for _ in range(count)]
    return [draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d)) for _ in range(count)]


def test_ring_is_shared_and_knows_its_reduction():
    assert Ring(DESK_Q, (-1, 0, 0, 0, 1)) is Ring(DESK_Q, [-1, 0, 0, 0, 1])
    assert RingPoly.make(DESK_Q, (-1, 0, 0, 0, 1), [5]).ring is Ring(DESK_Q, (-1, 0, 0, 0, 1))
    assert Ring(DESK_Q, (-1, 0, 0, 0, 1)) is not Ring(DESK_Q, (1, 0, 0, 0, 1))


def _cyclic(d):
    return tuple([-1] + [0] * (d - 1) + [1])


def test_the_switch_rings_straddle_six_point_bytes():
    assert SIX_POINT_BYTES == 512
    (q, below), (_, above) = SWITCH
    assert Ring(q, _cyclic(below)).layout(1)[1:] == (1, 15)
    assert Ring(q, _cyclic(above)).layout(1)[1:] == (6, 8)


def test_the_layouts_at_the_57_bit_modulus():
    """One point below SIX_POINT_BYTES (d = 32: 480 bytes); above it six
    points for a cyclic u of even degree, and still one for an odd degree or
    any other u."""
    q = LARGE_Q
    assert Ring(q, _cyclic(32)).layout(1)[1:] == (1, 15)
    for d in (40, 64, 66, 68, 72):
        assert Ring(q, _cyclic(d)).layout(1)[1:] == (6, 8)
    assert Ring(q, _cyclic(65)).layout(1)[1:] == (1, 15)
    assert Ring(q, _codec_u(40, "negacyclic")).layout(1)[1:] == (1, 15)
    assert Ring(q, _codec_u(68, "general")).layout(1)[1:] == (1, 15)


@pytest.fixture()
def layouts(monkeypatch):
    """The ``(points, width)`` of every layout ``Ring.layout`` returns while
    the test runs."""
    seen, layout = [], Ring.layout

    def spy(ring, terms):
        made = layout(ring, terms)
        seen.append((made.points, made.width))
        return made

    monkeypatch.setattr(Ring, "layout", spy)
    return seen


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_mul_matches_schoolbook_oracle(data):
    q, u = data.draw(rings())
    d = len(u) - 1
    a, b = coefficient_vectors(data.draw, q, d, 2)
    got = RingPoly(q, u, a) * RingPoly(q, u, b)
    assert list(got.coeffs) == ring_op(a, b, "mul", list(u), q)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_square_matches_schoolbook_oracle(data):
    q, u = data.draw(rings())
    (a,) = coefficient_vectors(data.draw, q, len(u) - 1, 1)
    x = RingPoly(q, u, a)
    assert list((x * x).coeffs) == ring_op(a, a, "mul", list(u), q)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_make_reduces_long_inputs_like_the_oracle(data):
    q, u = data.draw(rings(degrees=(4, 16)))
    d = len(u) - 1
    raw = data.draw(st.lists(st.integers(-(q**2), q**2), max_size=3 * d + 2))
    assert list(RingPoly.make(q, u, raw).coeffs) == reduce_poly(raw, list(u), q)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_vector_dot_matches_oracle(data):
    """A dot product as the combination of a one-column packed matrix."""
    q, u = data.draw(rings())
    d = len(u) - 1
    count = data.draw(st.integers(1, 12))
    va = coefficient_vectors(data.draw, q, d, count)
    vb = coefficient_vectors(data.draw, q, d, count)
    want = [0] * d
    for a, b in zip(va, vb):
        want = [(x + y) % q for x, y in zip(want, reduce_poly(conv_mul(a, b), list(u), q))]
    column = PackedRows((RingPoly(q, u, a),) for a in va)
    (got,) = column.combine(tuple(RingPoly(q, u, b) for b in vb))
    assert list(got.coeffs) == want


def _symmetric(draw, q, n):
    """A symmetric tensor: drawn entries (one layer per plane), all q-1, or
    q-1 off the diagonal and q-n on it (both rank one, beta near q-1)."""
    kind = draw(st.sampled_from(("drawn", "top", "worst")))
    if kind == "top":
        return [[[q - 1] * n for _ in range(n)] for _ in range(n)]
    if kind == "worst":
        return [[[(q - n) % q if i == j else q - 1 for _ in range(n)] for j in range(n)]
                for i in range(n)]
    lam = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            row = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
            lam[i][j] = lam[j][i] = row
    return lam


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_tensor_contract_matches_naive_triple_loop(data):
    q, u = data.draw(rings())
    d = len(u) - 1
    n = data.draw(st.integers(1, 3))
    lam = _symmetric(data.draw, q, n)
    v1 = coefficient_vectors(data.draw, q, d, n)
    v2 = coefficient_vectors(data.draw, q, d, n)
    tensor = planes(lam, q)
    got = tensor_contract(tensor, tuple(RingPoly(q, u, c) for c in v1),
                          tuple(RingPoly(q, u, c) for c in v2))
    assert [list(part.coeffs) for part in got] == naive_contract(lam, v1, v2, list(u), q)


def test_tensor_contract_worst_case_at_the_large_channel(layouts):
    """n = 10, d = 64, 57-bit q, every operand coefficient and every pair
    weight at q - 1.  Each product is the same polynomial P, so the
    contraction is sum_ij lam[i][j][k] * P, computed here with the oracle.
    Both of its packed passes (the layer sums, then the weights) run on six
    points."""
    q, n, d = LARGE_Q, 10, 64
    u = tuple([-1] + [0] * (d - 1) + [1])
    lam = tuple(tuple(tuple((q - n) % q if i == j else q - 1 for _ in range(n))
                      for j in range(n)) for i in range(n))
    top = [q - 1] * d
    product = reduce_poly(conv_mul(top, top), list(u), q)
    vec = tuple(RingPoly(q, u, top) for _ in range(n))
    got = tensor_contract(planes(lam, q), vec, vec)
    assert [points for points, _ in layouts] == [6, 6]
    for k, part in enumerate(got):
        weight = sum(lam[i][j][k] for i in range(n) for j in range(n))
        assert list(part.coeffs) == [(weight * c) % q for c in product]


def test_ring_elements_pickle_into_the_shared_ring_and_stay_immutable():
    x = RingPoly.make(DESK_Q, (-1, 0, 0, 0, 1), [3, DESK_Q + 5])
    y = pickle.loads(pickle.dumps(x))
    assert y == x and y.ring is x.ring
    with pytest.raises(AttributeError):
        x.coeffs = (0, 0, 0, 0)


def test_a_ring_pickles_and_copies_into_the_interned_ring():
    ring = Ring(DESK_Q, (-1, 0, 0, 0, 1))
    assert pickle.loads(pickle.dumps(ring)) is ring
    assert copy.deepcopy(ring) is ring and copy.copy(ring) is ring


def test_ring_elements_equal_only_ring_elements_and_hash_by_value():
    x = RingPoly.make(DESK_Q, (-1, 0, 0, 0, 1), [3])
    y = RingPoly.make(DESK_Q, (-1, 0, 0, 0, 1), [3 + DESK_Q, 0, 0, 0, DESK_Q])
    assert (x == 3) is False and x != 3
    assert x == y and x is not y and hash(x) == hash(y) and len({x, y}) == 1


def _oracle_sum(pairs, u, q):
    """sum of the reduced schoolbook products of the coefficient-list pairs."""
    total = [0] * (len(u) - 1)
    for a, b in pairs:
        total = [(x + y) % q for x, y in zip(total, reduce_poly(conv_mul(a, b), list(u), q))]
    return total


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_packed_rows_combination_matches_oracle(data):
    """Winograd row pairing, odd row counts included: all-(q-1) rows and
    weights put every slot of the paired sum at the width's bound."""
    q, u = data.draw(rings())
    d = len(u) - 1
    big_n = data.draw(st.sampled_from((1, 2, 3, 5)))
    cols = data.draw(st.integers(1, 4))
    flat = coefficient_vectors(data.draw, q, d, big_n * cols)
    rows = [flat[i * cols:(i + 1) * cols] for i in range(big_n)]
    weights = coefficient_vectors(data.draw, q, d, big_n)
    matrix = PackedRows(tuple(RingPoly(q, u, c) for c in row) for row in rows)
    got = matrix.combine(tuple(RingPoly(q, u, w) for w in weights))
    want = [_oracle_sum([(weights[i], rows[i][j]) for i in range(big_n)], u, q)
            for j in range(cols)]
    assert [list(part.coeffs) for part in got] == want


def test_packed_rows_refuse_mismatched_shapes():
    q, u = DESK_Q, (-1, 0, 0, 0, 1)
    x = RingPoly(q, u, [1, 2, 3, 4])
    for empty in ((), [()]):
        with pytest.raises(ParameterError, match="at least one row and one column"):
            PackedRows(empty)
    with pytest.raises(ParameterError):
        PackedRows([(x, x), (x,)])
    with pytest.raises(ParameterError):
        PackedRows([(x,), (RingPoly(q, (1, 0, 0, 0, 1), [1, 2, 3, 4]),)])
    with pytest.raises(ParameterError):
        PackedRows([(x,), (x,)]).combine((x,))


def _hom_mul_oracle(lam, c1, p1, c2, p2, u, q):
    """``(c2'*c1_k + c1'*c2_k - contract_k, c1'*c2')`` on coefficient lists."""
    cross = naive_contract(lam, c1, c2, list(u), q)
    vector = [
        [(x - y) % q for x, y in zip(_oracle_sum([(p2, a), (p1, b)], u, q), z)]
        for a, b, z in zip(c1, c2, cross)
    ]
    return vector, reduce_poly(conv_mul(p1, p2), list(u), q)


def _hom_mul_worst(n):
    """The tensor whose ``ProductTensor.extended`` puts the weight q-1 on
    every pair it shares with the tensor (off-diagonal entries 1, diagonal
    ``n - [i == k]``), the largest slots ``hom_mul``'s contraction can reach."""
    return [[[n - (k == i) if i == j else 1 for k in range(n)] for j in range(n)]
            for i in range(n)]


def _ciphertext(q, u, vector, scalar):
    return Ciphertext(tuple(RingPoly(q, u, c) for c in vector), RingPoly(q, u, scalar), 0)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_hom_mul_matches_its_defining_formula(data):
    q, u = data.draw(rings(degrees=(4, 5, 16)))
    d = len(u) - 1
    n = data.draw(st.sampled_from((1, 2, 3, 5)))
    lam = _hom_mul_worst(n) if data.draw(st.booleans()) else _symmetric(data.draw, q, n)
    c1, c2 = (coefficient_vectors(data.draw, q, d, n) for _ in range(2))
    p1, p2 = coefficient_vectors(data.draw, q, d, 2)
    ch = ArithmeticChannel(p=2, q=q, omega=1, u=u, n=n, big_n=1, k0=1)
    tensor = planes(lam, q)
    got = hom_mul(ch, tensor, _ciphertext(q, u, c1, p1), _ciphertext(q, u, c2, p2))
    vector, scalar = _hom_mul_oracle(lam, c1, p1, c2, p2, u, q)
    assert [list(part.coeffs) for part in got.c] == vector
    assert list(got.cprime.coeffs) == scalar


def test_hom_mul_worst_case_at_the_large_channel(layouts):
    """n = 10, d = 64, 57-bit q, all-(q-1) ciphertexts and a tensor that is
    not rank one (one layer per plane, so ten layer sums and ten weights per
    slot).  Every product is the same polynomial P, so slot k is ``(2 -
    sum_ij lam[i][j][k]) * P`` and the scalar part is P."""
    q, n, d = LARGE_Q, 10, 64
    u = tuple([-1] + [0] * (d - 1) + [1])
    lam = tuple(tuple(tuple(row) for row in plane) for plane in _hom_mul_worst(n))
    top = [q - 1] * d
    product = reduce_poly(conv_mul(top, top), list(u), q)
    ct = _ciphertext(q, u, [top] * n, top)
    ch = ArithmeticChannel(p=3, q=q, omega=1, u=u, n=n, big_n=8, k0=1)
    got = hom_mul(ch, planes(lam, q), ct, ct)
    assert [points for points, _ in layouts] == [6, 6]
    for k, part in enumerate(got.c):
        weight = 2 - sum(lam[i][j][k] for i in range(n) for j in range(n))
        assert list(part.coeffs) == [(weight * c) % q for c in product]
    assert list(got.cprime.coeffs) == product


@pytest.mark.parametrize("square", [False, True])
def test_mul_worst_case_at_the_large_channel(layouts, square):
    """d = 64, 57-bit q, all-(q-1) factors: the middle coefficient of the
    unreduced product is d(q-1)^2, the bound the slots are sized for."""
    q, d = LARGE_Q, 64
    u = _cyclic(d)
    top = [q - 1] * d
    x = RingPoly(q, u, top)
    got = x * (x if square else RingPoly(q, u, top))
    assert layouts == [(6, 8)]
    assert list(got.coeffs) == reduce_poly(conv_mul(top, top), list(u), q)


@pytest.mark.parametrize("big_n", [8, 9, 98])
def test_packed_rows_worst_case_at_the_large_channel(layouts, big_n):
    """d = 64, 57-bit q, all-(q-1) rows and weights (8 rows as in
    ``PublicKey.rows``, 98 as in the large ``refresh_rows``): every product
    is the same polynomial P, so each column is ``big_n * P``."""
    q, d = LARGE_Q, 64
    u = _cyclic(d)
    top = [q - 1] * d
    x = RingPoly(q, u, top)
    matrix = PackedRows([(x, x)] * big_n)
    got = matrix.combine((x,) * big_n)
    assert [points for points, _ in layouts] == [6] and matrix.layout.points == 6
    product = reduce_poly(conv_mul(top, top), list(u), q)
    assert [list(part.coeffs) for part in got] == [[(big_n * c) % q for c in product]] * 2


def _halves(q, d):
    """Operands at q-1 on one half, or on alternate quarters, and 0 elsewhere:
    their reductions mod ``X^(d/2) + 1`` and (for ``4 | d``) ``X^(d/4) + 1``
    reach ``-(q-1)``, a signed extreme that all-(q-1) operands never give."""
    half, quarter = d // 2, d // 4
    return [[q - 1] * half + [0] * (d - half), [0] * half + [q - 1] * (d - half),
            [q - 1 if i // quarter % 2 else 0 for i in range(d)]]


@pytest.mark.parametrize("d", [40, 64, 66])
def test_signed_worst_cases_on_six_points(layouts, d):
    """Every product and square of the half and quarter operands, and their
    row combinations, equal the oracles at the 57-bit q."""
    q, u = LARGE_Q, _cyclic(d)
    ops = _halves(q, d)
    for a in ops:
        for b in ops:
            got = RingPoly(q, u, a) * RingPoly(q, u, b)
            assert list(got.coeffs) == reduce_poly(conv_mul(a, b), list(u), q)
    matrix = PackedRows([tuple(RingPoly(q, u, a) for a in ops)] * 3)
    got = matrix.combine(tuple(RingPoly(q, u, a) for a in ops))
    assert [list(part.coeffs) for part in got] == [
        _oracle_sum([(w, a) for w in ops], u, q) for a in ops]
    assert {points for points, _ in layouts} == {6}


# The bench channels' parameters: desk, mid and large.
CHANNELS = {
    "desk": dict(p=2, q=DESK_Q, d=4, n=3, big_n=2),
    "mid": dict(p=2, q=MID_Q, d=16, n=6, big_n=4),
    "large": dict(p=3, q=LARGE_Q, d=64, n=10, big_n=8),
}


def _channel(name):
    c = CHANNELS[name]
    return ArithmeticChannel(p=c["p"], q=c["q"], omega=1, u=_cyclic(c["d"]), n=c["n"],
                             big_n=c["big_n"], k0=1).require_valid()


@pytest.mark.parametrize("top", [False, True], ids=["drawn", "all-q-1"])
@pytest.mark.parametrize("name", list(CHANNELS))
def test_hom_mul_of_a_ciphertext_by_itself_squares(monkeypatch, name, top):
    """``hom_mul(ct, ct)`` packs its operand once per pass (the layer sums,
    then the pass that folds them in) and squares; it equals the product
    with a distinct, equal-valued copy, and the defining formula."""
    packed, pack = [], Layout.pack
    monkeypatch.setattr(Layout, "pack", lambda layout, polys: packed.append(polys) or pack(layout, polys))
    ch = _channel(name)
    q, u, n, d = ch.q, ch.u, ch.n, ch.degree
    rnd = random.Random(f"square/{name}")
    if top:
        lam, c, p = _hom_mul_worst(n), [[q - 1] * d] * n, [q - 1] * d
    else:
        lam = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                lam[i][j] = lam[j][i] = [rnd.randrange(q) for _ in range(n)]
        c = [[rnd.randrange(q) for _ in range(d)] for _ in range(n)]
        p = [rnd.randrange(q) for _ in range(d)]
    tensor = planes(lam, q)
    ct, copy = _ciphertext(q, u, c, p), _ciphertext(q, u, c, p)
    assert ct == copy and ct.c[0] is not copy.c[0]
    layers = len(tensor.layers)
    got = hom_mul(ch, tensor, ct, ct)
    assert [len(polys) for polys in packed] == [n, n + 1 + layers]
    assert got == hom_mul(ch, tensor, ct, copy)
    assert [len(polys) for polys in packed[2:]] == [2 * n, 2 * n + 2 + layers]
    if name != "large":  # the oracle's n^3 schoolbook products take seconds there
        vector, scalar = _hom_mul_oracle(lam, c, p, c, p, u, q)
        assert [list(part.coeffs) for part in got.c] == vector
        assert list(got.cprime.coeffs) == scalar


def test_every_desk_kernel_runs_on_one_point(layouts):
    """Key generation, encryption, products, refresh and decryption at the
    desk channel: the packed operands stay far below SIX_POINT_BYTES."""
    ch = _channel("desk")
    bundle = keygen(ch, RandomSource(b"desk/one point"))
    rng = RandomSource(b"desk/one point/run")
    a = encrypt(bundle.public, ch, 1, rng)
    b = hom_mul(ch, bundle.tensor, a, a)
    checker = secret_refresh_checker(bundle.secret, ch)
    ready = make_refreshable(shadow(ch, b), checker, bundle.public, rng)
    fresh = refresh_ct(bundle, ready, rng)
    assert decrypt(bundle.secret, ch, fresh) == 1
    assert (a.c[0] * a.c[1]).ring is ch.ring
    assert layouts and {points for points, _ in layouts} == {1}


def test_every_mid_kernel_runs_on_one_point(layouts):
    """The same at the mid channel: its packed operands stay below
    SIX_POINT_BYTES too."""
    ch = _channel("mid")
    bundle = keygen(ch, RandomSource(b"mid/one point"))
    rng = RandomSource(b"mid/one point/run")
    a = encrypt(bundle.public, ch, 1, rng)
    b = hom_mul(ch, bundle.tensor, a, a)
    checker = secret_refresh_checker(bundle.secret, ch)
    ready = make_refreshable(shadow(ch, b), checker, bundle.public, rng)
    fresh = refresh_ct(bundle, ready, rng)
    assert decrypt(bundle.secret, ch, fresh) == 1
    assert (a.c[0] * a.c[1]).ring is ch.ring
    assert layouts and {points for points, _ in layouts} == {1}


def test_the_large_channel_contraction_and_rows_run_on_six_points(layouts):
    """At the large channel ``encrypt`` (``PublicKey.rows``), both passes of
    ``hom_mul`` (the layer sum in 12-byte half slots, then the pass that
    folds it in with 8-byte ones) and the refresh matrix all pick six
    points."""
    ch = _channel("large")
    bundle = keygen(ch, RandomSource(b"large/two points"))
    del layouts[:]
    rng = RandomSource(b"large/two points/run")
    a = encrypt(bundle.public, ch, 1, rng)
    assert [points for points, _ in layouts] == [6]
    b = hom_mul(ch, bundle.tensor, a, a)
    assert layouts[1:] == [(6, 12), (6, 8)]
    assert bundle.refresh_rows.layout.points == 6
    assert decrypt(bundle.secret, ch, b) == 1


@pytest.mark.parametrize("name", list(CHANNELS))
def test_every_key_tensor_is_one_layer(name):
    """So every workload's products take the short path: n products for the
    layer sum instead of n per plane."""
    ch = _channel(name)
    for seed in range(3):
        bundle = keygen(ch, RandomSource(f"{name}/layers/{seed}".encode()))
        assert len(bundle.tensor.layers) == 1


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rank_one_tensors_match_the_oracles(data):
    """Drawn ``alpha (x) beta`` layers (all-(q-1) factors and zero entries
    of alpha included): their contraction and ``hom_mul`` equal the
    schoolbook oracles on the cube ``coeffs``."""
    q, u = data.draw(rings(degrees=(4, 5, 16)))
    d = len(u) - 1
    n = data.draw(st.sampled_from((1, 2, 3, 5)))
    kind = data.draw(st.sampled_from(("drawn", "all q-1", "some alpha_k = 0")))
    entries = st.just(q - 1) if kind == "all q-1" else st.integers(0, q - 1)
    alpha = data.draw(st.lists(entries, min_size=n, max_size=n))
    if kind == "some alpha_k = 0":
        for k in data.draw(st.sets(st.integers(0, n - 1), min_size=1)):
            alpha[k] = 0
    beta = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            beta[i][j] = beta[j][i] = data.draw(entries)
    tensor = ProductTensor(q, ((tuple(alpha), tuple(map(tuple, beta))),))
    lam = [[list(row) for row in plane] for plane in tensor.coeffs]
    assert lam == [[[a * beta[i][j] % q for a in alpha] for j in range(n)] for i in range(n)]
    c1, c2 = (coefficient_vectors(data.draw, q, d, n) for _ in range(2))
    p1, p2 = coefficient_vectors(data.draw, q, d, 2)
    got = tensor_contract(tensor, *(tuple(RingPoly(q, u, c) for c in v) for v in (c1, c2)))
    assert [list(part.coeffs) for part in got] == naive_contract(lam, c1, c2, list(u), q)
    ch = ArithmeticChannel(p=2, q=q, omega=1, u=u, n=n, big_n=1, k0=1)
    got = hom_mul(ch, tensor, _ciphertext(q, u, c1, p1), _ciphertext(q, u, c2, p2))
    vector, scalar = _hom_mul_oracle(lam, c1, p1, c2, p2, u, q)
    assert [list(part.coeffs) for part in got.c] == vector
    assert list(got.cprime.coeffs) == scalar


@pytest.mark.parametrize("square", [False, True])
def test_rank_one_worst_case_at_the_large_channel(layouts, square):
    """n = 10, d = 64, 57-bit q, all-(q-1) ciphertexts and the all-(q-1)
    tensor, whose layer (``rank_one``) is ``beta`` all q-1 and ``alpha`` all
    1, so every weight ``-alpha mod q`` is q-1 and the layer sum reaches its
    bound ``n^2 d (q-1)^3``.  Every product is the same polynomial P: slot k is
    ``(2 - n^2 (q-1)) * P`` and the scalar part is P."""
    q, n, d = LARGE_Q, 10, 64
    u = _cyclic(d)
    alpha, beta = rank_one(((((q - 1,) * n,) * n,) * n), q)
    assert alpha == (1,) * n and beta == (((q - 1,) * n,) * n)
    tensor = ProductTensor(q, ((alpha, beta),))
    top = [q - 1] * d
    product = reduce_poly(conv_mul(top, top), list(u), q)
    ch = ArithmeticChannel(p=3, q=q, omega=1, u=u, n=n, big_n=8, k0=1)
    ct = _ciphertext(q, u, [top] * n, top)
    got = hom_mul(ch, tensor, ct, ct if square else _ciphertext(q, u, [top] * n, top))
    assert layouts == [(6, 12), (6, 8)]
    weight = (2 - n * n * (q - 1)) % q
    assert [list(part.coeffs) for part in got.c] == [[weight * c % q for c in product]] * n
    assert list(got.cprime.coeffs) == product


# The codecs' branches: six-point half slots of exactly a word or wider,
# large odd-degree and non-cyclic rings on one point, and the largest q.
# Each ring's layouts are the one of a non-cyclic u, then the one of a cyclic
# u (``_codec_layout``).  Both decodes read every slot with ``Layout._slots``.
CODEC_RINGS = {
    "large-d64": (LARGE_Q, 64, (1, 15), (6, 8)),   # 8-byte half slots: one word
    "mid-d64": (MID_Q, 64, (1, 12), (6, 8)),       # ceil(bits/16) = 6 bytes, widened to the word
    "large-d65": (LARGE_Q, 65, (1, 15), (1, 15)),  # odd d: one point for every u
    "2^64-d64": (2**64, 64, (1, 17), (6, 9)),      # the largest q a ring takes
}


def _codec_u(d, kind):
    if kind == "cyclic":
        return _cyclic(d)
    if kind == "negacyclic":
        return tuple([1] + [0] * (d - 1) + [1])
    return tuple([3, 1] + [0] * (d - 2) + [1])  # X^d + X + 3: not a binomial


def _codec_layout(name, kind):
    return CODEC_RINGS[name][3 if kind == "cyclic" else 2]


def test_the_codec_rings_pick_their_layouts():
    for name, (q, d, *_) in CODEC_RINGS.items():
        for kind in ("cyclic", "negacyclic", "general"):
            assert Ring(q, _codec_u(d, kind)).layout(1)[1:] == _codec_layout(name, kind)


@pytest.mark.parametrize("kind", ["cyclic", "negacyclic", "general"])
@pytest.mark.parametrize("name", list(CODEC_RINGS))
def test_codec_branches_match_the_oracles(layouts, name, kind):
    """A product, a square and a combination of packed rows, with all-(q-1)
    operands (every slot at its bound) and drawn ones, equal the schoolbook
    ``conv_mul``/``reduce_poly`` oracles."""
    q, d, *_ = CODEC_RINGS[name]
    u = _codec_u(d, kind)
    rnd = random.Random(f"codec/{name}/{kind}")
    top = [q - 1] * d
    drawn = [[rnd.randrange(q) for _ in range(d)] for _ in range(4)]
    for a, b in ((top, top), (drawn[0], drawn[1])):
        x, y = RingPoly(q, u, a), RingPoly(q, u, b)
        assert list((x * y).coeffs) == reduce_poly(conv_mul(a, b), list(u), q)
        assert list((x * x).coeffs) == reduce_poly(conv_mul(a, a), list(u), q)
    assert set(layouts) == {_codec_layout(name, kind)}
    rows = [[top, drawn[2]], [drawn[3], top], [top, top]]
    weights = [top, drawn[0], drawn[1]]
    matrix = PackedRows(tuple(RingPoly(q, u, c) for c in row) for row in rows)
    got = matrix.combine(tuple(RingPoly(q, u, w) for w in weights))
    want = [_oracle_sum([(weights[i], rows[i][j]) for i in range(3)], u, q) for j in range(2)]
    assert [list(part.coeffs) for part in got] == want


def test_a_modulus_above_2_to_the_64_is_refused_at_every_degree():
    """No residue word holds ``q - 1`` past ``2^64``: ``Ring`` refuses such a
    q for every u, as files do."""
    for d in (4, 64, 65):
        for kind in ("cyclic", "negacyclic", "general"):
            with pytest.raises(ParameterError, match="q = 36893488147419103245 is above 2\\*\\*64"):
                Ring(2**65 + 13, _codec_u(d, kind))


# q at each side of every residue word width, and the largest q.
WORD_EDGE_Q = (256, 257, 65536, 65537, 2**32, 2**32 + 1, 2**64)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_every_slot_holds_a_residue_word(data):
    """At every word edge, in both layouts, each slot ``Ring.layout`` gives
    is at least a residue word wide (the fewest of 1, 2, 4 or 8 bytes that
    hold q - 1), and ``Layout.pack`` equals the per-coefficient ``to_bytes``
    values (``oracles.kronecker``): exactly at one point, and mod each of
    the six moduli at six, where a product still meets the schoolbook
    oracle."""
    assert {Ring(q, _cyclic(d)).layout(1).points for q in WORD_EDGE_Q for d in (2, 256)} == {1, 6}
    q = data.draw(st.sampled_from(WORD_EDGE_Q))
    d = data.draw(st.sampled_from((2, 5, 64, 256, 258)))
    u = data.draw(st.sampled_from((_cyclic(d), _codec_u(d, "negacyclic"))))
    ring, n = Ring(q, u), data.draw(st.integers(1, 4))
    terms = data.draw(st.sampled_from((1, 3, 4 * n, n * n * (q - 1))))
    _, points, width = layout = ring.layout(terms)
    assert width >= next(w for w in (1, 2, 4, 8) if q - 1 < 256**w)
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    pick = data.draw(st.sampled_from((lambda: q - 1, lambda: rnd.choice((0, 1, q - 1)),
                                      lambda: rnd.randrange(q))))
    coeffs = [[pick() for _ in range(d)] for _ in range(3)]
    packed = layout.pack([RingPoly(q, u, c) for c in coeffs])
    if points == 1:
        assert packed == [[kronecker(c, width) for c in coeffs]]
        return
    m = 4 * width * d
    moduli = [(1 << m) + 1, (1 << m // 2) + 1, (1 << m // 2) - 1]
    for values, sign, modulus in zip(packed, (1, 1, 1, -1, -1, -1), moduli * 2):
        assert [v % modulus for v in values] == [kronecker(c, width, sign) % modulus
                                                 for c in coeffs]
    x, y = (RingPoly(q, u, c) for c in coeffs[:2])
    assert list((x * y).coeffs) == reduce_poly(conv_mul(coeffs[0], coeffs[1]), list(u), q)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_six_point_decode_takes_any_representatives(data):
    """``unpack`` reads each residue through any representative: a product's
    six values shifted by multiples of their moduli, negative ones included,
    decode to the same element, and the moduli themselves (each a
    representative of zero) to zero."""
    d = data.draw(st.sampled_from((40, 64, 66)))
    q, u = LARGE_Q, _cyclic(d)
    ring = Ring(q, u)
    layout = ring.layout(1)
    m = 4 * layout.width * d
    moduli = [(1 << m) + 1, (1 << m // 2) + 1, (1 << m // 2) - 1] * 2
    a, b = coefficient_vectors(data.draw, q, d, 2)
    packed = layout.pack((RingPoly(q, u, a), RingPoly(q, u, b)))
    shifts = data.draw(st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    sums = [[x * y + k * modulus] for (x, y), k, modulus in zip(packed, shifts, moduli)]
    assert list(layout.unpack(sums)[0].coeffs) == reduce_poly(conv_mul(a, b), list(u), q)
    assert layout.unpack([[modulus] for modulus in moduli]) == (ring.zero(),)


def _decode_products(monkeypatch, q, u, d, p, big_n):
    """A product, a row combination and both passes of ``hom_mul`` on
    all-(q-1) operands equal the oracles; returns how often each called
    ``Ring.reduce``."""
    x = RingPoly(q, u, [q - 1] * d)
    want = reduce_poly(conv_mul([q - 1] * d, [q - 1] * d), list(u), q)
    calls, reduce = [], Ring.reduce

    def spy(ring, coeffs):
        calls[-1] += 1
        return reduce(ring, coeffs)

    monkeypatch.setattr(Ring, "reduce", spy)
    calls.append(0)
    assert list((x * x).coeffs) == want
    calls.append(0)
    (got,) = PackedRows([(x,)] * 3).combine((x,) * 3)
    assert list(got.coeffs) == [3 * c % q for c in want]
    n = 3
    ch = ArithmeticChannel(p=p, q=q, omega=1, u=u, n=n, big_n=big_n, k0=1)
    ct = _ciphertext(q, u, [[q - 1] * d] * n, [q - 1] * d)
    calls.append(0)
    got = hom_mul(ch, ProductTensor(q, (((1,) * n, ((q - 1,) * n,) * n),)), ct, ct)
    weight = (2 - n * n * (q - 1)) % q
    assert [list(part.coeffs) for part in got.c] == [[weight * c % q for c in want]] * n
    assert list(got.cprime.coeffs) == want
    return calls


def test_six_point_decode_of_a_cyclic_u_never_reduces(monkeypatch, layouts):
    """The six points' residues mod ``x^d - 1`` give the output folded:
    ``Ring.reduce`` is not called by a product, a row combination or either
    pass of ``hom_mul`` (16- and 24-byte slots)."""
    assert _decode_products(monkeypatch, LARGE_Q, _cyclic(64), 64, 3, 8) == [0, 0, 0]
    assert set(layouts) == {(6, 8), (6, 12)}


@pytest.mark.parametrize("u_0", [-1], ids=["cyclic"])
@pytest.mark.parametrize("q, d", [(DESK_Q, 4), (DESK_Q, 5), (LARGE_Q, 65)],
                         ids=["4", "5", "large-65"])
def test_one_point_decode_of_a_binomial_never_reduces(monkeypatch, layouts, q, d, u_0):
    """At desk size, and at an odd degree at any size, a cyclic u is folded
    on the packed low and high parts at one point: ``Ring.reduce`` is not
    called by a product, a row combination or either pass of ``hom_mul``."""
    u = tuple([u_0] + [0] * (d - 1) + [1])
    assert _decode_products(monkeypatch, q, u, d, 2, 2) == [0, 0, 0]
    assert len(layouts) == 4 and {points for points, _ in layouts} == {1}


@pytest.mark.parametrize("u_0", [1, -3], ids=["negacyclic", "X^d-3"])
@pytest.mark.parametrize("q, d", [(DESK_Q, 4), (DESK_Q, 5), (LARGE_Q, 64), (LARGE_Q, 65)],
                         ids=["4", "5", "large-64", "large-65"])
def test_one_point_decode_of_a_non_cyclic_binomial_reduces(monkeypatch, layouts, q, d, u_0):
    """Any u but a cyclic one decodes through ``Ring.reduce`` at one point,
    at every size, once per output: a product, a row combination, and
    ``hom_mul``'s one-layer B then its c_0..c_2 and c'."""
    u = tuple([u_0] + [0] * (d - 1) + [1])
    assert _decode_products(monkeypatch, q, u, d, 2, 2) == [1, 1, 5]
    assert len(layouts) == 4 and {points for points, _ in layouts} == {1}


def test_combine_refuses_a_weight_of_another_ring(desk_bundle):
    rows = desk_bundle.public.rows
    weights = [desk_bundle.channel.ring.poly([1])] * rows.row_count
    weights[-1] = Ring(desk_bundle.channel.q, (-1, 0, 1)).poly([1])
    with pytest.raises(ParameterError, match="different rings"):
        rows.combine(weights)
