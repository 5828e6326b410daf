"""Truncated group algebra R(n, m): ring law, structural maps, unit inversion."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metab import grpring
from metab.grpring import (
    _fold_exponents,
    _mult_matrix,
    augmentation,
    monomial_part,
    ring_make,
    try_invert,
)


def naive_mul(ctx, x, y):
    """Oracle: schoolbook polynomial product with exponent wrap, no convolution code."""
    out = {}
    for i in range(ctx.m):
        for j in range(ctx.m):
            for k in range(ctx.m):
                for l in range(ctx.m):
                    key = ((i + k) % ctx.m, (j + l) % ctx.m)
                    out[key] = (out.get(key, 0) + int(x.coeffs[i, j]) * int(y.coeffs[k, l])) % ctx.n
    arr = np.zeros((ctx.m, ctx.m), dtype=np.int64)
    for (i, j), c in out.items():
        arr[i, j] = c
    return ctx.elem(arr)


def test_ring_make_basics():
    ctx = ring_make(2, 2)
    assert ctx.size == 16
    assert ctx.monomial(0, 0) == ctx.one()
    with pytest.raises(ValueError):
        grpring.RingCtx(1, 2)
    with pytest.raises(ValueError):
        grpring.RingCtx(3, 1)


def test_mul_examples():
    ctx = ring_make(2, 2)
    one, a1 = ctx.one(), ctx.monomial(1, 0)
    x = ctx.elem([[1, 1], [0, 1]])
    assert one * x == x
    # (1 + a1)^2 = 1 + 2 a1 + a1^2 = 2(1 + a1) = 0 mod 2
    s = one + a1
    assert naive_mul(ctx, s, s) == ctx.zero()
    assert s * s == ctx.zero()
    for i, j, k, l in itertools.product(range(2), repeat=4):
        assert ctx.monomial(i, j) * ctx.monomial(k, l) == ctx.monomial(i + k, j + l)


def test_mul_matches_naive_oracle():
    rng = random.Random(7)
    for n, m in [(2, 2), (3, 3), (4, 2), (6, 3)]:
        ctx = ring_make(n, m)
        for _ in range(10):
            x, y = ctx.random_elem(rng), ctx.random_elem(rng)
            assert x * y == naive_mul(ctx, x, y)


def test_ring_axioms_exhaustive_r22():
    ctx = ring_make(2, 2)
    elems = list(ctx.all_elements())
    assert len(elems) == 16
    for x, y in itertools.product(elems, repeat=2):
        assert x * y == y * x
        assert x * (y + y) == x * y + x * y
    rng = random.Random(1)
    triples = [(rng.choice(elems), rng.choice(elems), rng.choice(elems)) for _ in range(200)]
    for x, y, z in triples:
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_augmentation():
    ctx = ring_make(5, 3)
    for i in range(3):
        for j in range(3):
            assert augmentation(ctx.monomial(i, j)) == 1
    assert augmentation(ctx.one() - ctx.monomial(0, 1)) == 0
    rng = random.Random(3)
    for _ in range(25):
        x, y = ctx.random_elem(rng), ctx.random_elem(rng)
        assert augmentation(x * y) == (augmentation(x) * augmentation(y)) % 5
        assert augmentation(x + y) == (augmentation(x) + augmentation(y)) % 5


def brute_is_unit(ctx, x, elems):
    return any(x * y == ctx.one() for y in elems)


def test_try_invert_monomials_and_zero():
    ctx = ring_make(4, 3)
    for i in range(3):
        for j in range(3):
            inv = try_invert(ctx.monomial(i, j))
            assert inv == ctx.monomial(-i, -j)
    assert try_invert(ctx.zero()) is None


def test_try_invert_census_exhaustive():
    for n, m in [(2, 2), (3, 2)]:
        ctx = ring_make(n, m)
        elems = list(ctx.all_elements())
        for x in elems:
            inv = try_invert(x)
            if inv is not None:
                assert x * inv == ctx.one()
            assert (inv is not None) == brute_is_unit(ctx, x, elems)


def test_one_minus_a2_not_unit_in_r22():
    ctx = ring_make(2, 2)
    x = ctx.one() - ctx.monomial(0, 1)
    assert not brute_is_unit(ctx, x, list(ctx.all_elements()))
    assert try_invert(x) is None


def test_monomial_part():
    ctx = ring_make(3, 4)
    assert monomial_part(ctx.monomial(1, 2)) == (1, 2)
    assert monomial_part(ctx.one() + ctx.monomial(1, 0)) is None
    assert monomial_part(2 * ctx.monomial(1, 0)) is None
    assert monomial_part(ctx.zero()) is None


def test_json_round_trip():
    ctx = ring_make(6, 2)
    x = ctx.elem([[1, 5], [2, 3]])
    data = x.to_json()
    assert data == {"n": 6, "m": 2, "coeffs": [1, 5, 2, 3]}
    read = ring_make(data["n"], data["m"]).elem(np.reshape(data["coeffs"], (2, 2)))
    assert read == x


def test_pow():
    ctx = ring_make(5, 3)
    a1 = ctx.monomial(1, 0)
    x = ctx.one() + 2 * a1
    assert x**0 == ctx.one()
    assert x**3 == x * x * x
    assert a1**-1 == ctx.monomial(2, 0)


@st.composite
def ring_elems(draw, count):
    """A context R(n, m) and `count` of its elements."""
    ctx = ring_make(draw(st.sampled_from([2, 4, 6, 8, 9, 12])), draw(st.integers(2, 5)))
    coeffs = st.lists(st.integers(0, ctx.n - 1), min_size=ctx.m**2, max_size=ctx.m**2)
    return ctx, [ctx.elem(np.reshape(draw(coeffs), (ctx.m, ctx.m))) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(ring_elems(2))
def test_gather_mul_matches_naive_and_mult_matrix(case):
    ctx, (x, y) = case
    assert x * y == naive_mul(ctx, x, y)
    assert list(_mult_matrix(x) @ y.vec() % ctx.n) == list((x * y).vec())


@settings(max_examples=60, deadline=None)
@given(ring_elems(3))
def test_ring_axioms_property(case):
    ctx, (x, y, z) = case
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x * ctx.one() == x


def fold_by_loop(coeffs, m_red, n):
    """Oracle: add each coefficient into its exponents mod m_red."""
    out = np.zeros((m_red, m_red), dtype=np.int64)
    for i, j in itertools.product(range(coeffs.shape[0]), repeat=2):
        out[i % m_red, j % m_red] += coeffs[i, j]
    return out % n


def test_fold_exponents_matches_loop():
    rng = random.Random(11)
    for n, m, m_red in [(2, 4, 2), (3, 6, 2), (3, 6, 3), (5, 4, 1), (4, 6, 6)]:
        coeffs = ring_make(n, m).random_elem(rng).coeffs
        assert np.array_equal(_fold_exponents(coeffs, m_red, n), fold_by_loop(coeffs, m_red, n))
