"""Howell-form linear algebra over Z/N, cross-checked against enumeration."""

import itertools
import random

import numpy as np
import pytest

from metab import linalg
from stability import intersect_spans


def brute_span(rows, N):
    rows = np.atleast_2d(np.asarray(rows)) % N
    span = set()
    for coeffs in itertools.product(range(N), repeat=rows.shape[0]):
        v = tuple((np.array(coeffs) @ rows) % N)
        span.add(v)
    return span


def random_matrix(rng, shape, N):
    return np.array([[rng.randrange(N) for _ in range(shape[1])] for _ in range(shape[0])])


def test_ext_gcd():
    for a, b in [(12, 18), (0, 5), (7, 0), (-4, 6), (1, 1), (0, 0)]:
        g, s, t = linalg.ext_gcd(a, b)
        assert g == abs(np.gcd(a, b))
        assert s * a + t * b == g


def test_unit_factor():
    for N in [2, 4, 6, 8, 9, 12, 30]:
        for a in range(1, N):
            u = linalg.unit_factor(a, N)
            assert np.gcd(u, N) == 1
            assert (u * a) % N == np.gcd(a, N)


@pytest.mark.parametrize("N", [2, 3, 4, 6, 8, 9])
def test_howell_span_preserved(N):
    rng = random.Random(20_000 + N)
    for _ in range(15):
        A = random_matrix(rng, (3, 4), N)
        H = linalg.howell(A, N)
        assert brute_span(A, N) == brute_span(H, N) if H.size else {(0, 0, 0, 0)}
        # pivots divide N and sit in strictly increasing columns
        cols = linalg.pivot_columns(H)
        assert cols == sorted(set(cols))
        for i, c in enumerate(cols):
            assert N % int(H[i, c]) == 0


@pytest.mark.parametrize("N", [2, 4, 6, 9])
def test_membership_and_span_size(N):
    rng = random.Random(31 * N)
    for _ in range(10):
        A = random_matrix(rng, (3, 4), N)
        H = linalg.howell(A, N)
        span = brute_span(A, N)
        assert linalg.span_size(H, N) == len(span)
        for v in itertools.product(range(N), repeat=4):
            assert linalg.in_span(H, v, N) == (v in span)


@pytest.mark.parametrize("N", [2, 4, 6, 9])
def test_enumerate_span(N):
    rng = random.Random(77 * N)
    A = random_matrix(rng, (3, 3), N)
    H = linalg.howell(A, N)
    listed = [tuple(v) for v in linalg.enumerate_span(H, N, 3)]
    assert len(listed) == len(set(listed))
    assert set(listed) == brute_span(A, N)


def test_reduce_vector_certificate():
    N = 12
    rng = random.Random(5)
    A = random_matrix(rng, (4, 5), N)
    H = linalg.howell(A, N)
    for v in brute_span(A, N) if len(brute_span(A, N)) < 400 else list(brute_span(A, N))[:100]:
        residue, coeffs = linalg.reduce_vector(H, v, N)
        assert not residue.any()
        assert tuple((coeffs @ H) % N) == v


@pytest.mark.parametrize("N", [2, 4, 6, 9, 12])
def test_solve_matches_brute(N):
    rng = random.Random(900 + N)
    for _ in range(12):
        A = random_matrix(rng, (3, 3), N)
        x_true = np.array([rng.randrange(N) for _ in range(3)])
        b = (A @ x_true) % N
        x = linalg.solve(A, b, N)
        assert x is not None
        assert np.array_equal((A @ x) % N, b)
        # unsolvable systems must be reported as such
        b_bad = b.copy()
        solvable = any(
            np.array_equal((A @ np.array(c)) % N, (b_bad + e) % N)
            for e in [np.array([1, 0, 0])]
            for c in itertools.product(range(N), repeat=3)
        )
        got = linalg.solve(A, (b_bad + np.array([1, 0, 0])) % N, N)
        assert (got is not None) == solvable


@pytest.mark.parametrize("N", [2, 4, 6, 9])
def test_kernel_matches_brute(N):
    rng = random.Random(40 + N)
    for _ in range(8):
        A = random_matrix(rng, (2, 3), N)
        K = linalg.kernel(A, N)
        brute = {
            x
            for x in itertools.product(range(N), repeat=3)
            if not ((A @ np.array(x)) % N).any()
        }
        assert brute_span(K, N) == brute if K.size else brute == {(0, 0, 0)}


@pytest.mark.parametrize("N", [2, 4, 6])
def test_intersect_spans(N):
    rng = random.Random(600 + N)
    for _ in range(8):
        B1 = random_matrix(rng, (2, 3), N)
        B2 = random_matrix(rng, (2, 3), N)
        got = intersect_spans(B1, B2, N)
        expected = brute_span(B1, N) & brute_span(B2, N)
        assert brute_span(got, N) == expected if got.size else expected == {(0, 0, 0)}


def test_span_solver_agrees_with_howell():
    N = 8
    rng = random.Random(123)
    gens = random_matrix(rng, (4, 5), N)
    solver = linalg.SpanSolver(gens, N)
    span = brute_span(gens, N)
    hits = 0
    for v in itertools.product(range(N), repeat=5):
        c = solver.solve(v)
        if v in span:
            hits += 1
            assert c is not None and tuple((c @ gens) % N) == v
        else:
            assert c is None
        if hits > 300:
            break


@pytest.mark.parametrize("N", [6, 8, 9])
def test_span_solver_contains_rows_agrees_with_solve(N):
    rng = random.Random(700 + N)
    gens = random_matrix(rng, (3, 4), N)
    solver = linalg.SpanSolver(gens, N)
    span = np.array(sorted(brute_span(gens, N)), dtype=np.int64)
    others = np.array([[rng.randrange(N) for _ in range(4)] for _ in range(200)], dtype=np.int64)
    rows = np.vstack([span, others])
    mask = solver.contains_rows(rows)
    assert mask[: len(span)].all()
    assert list(mask) == [solver.solve(v) is not None for v in rows]
