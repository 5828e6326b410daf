"""Factorization of x^m - 1 over Z/p^k with gcd(m, p) = 1.

Mod p the polynomial is squarefree, so its factorization into monic
irreducibles (Berlekamp) lifts uniquely to Z/p^k by Hensel's lemma.  The
lifted factors are pairwise comaximal, which yields the orthogonal
idempotents of Z/p^k[x]/(x^m - 1) by inverting cofactors.

Polynomials are tuples of ints, lowest degree first, always reduced mod the
ambient modulus; factor outputs are monic.
"""

from __future__ import annotations

import numpy as np

from . import linalg

Poly = tuple[int, ...]


def trim(f) -> Poly:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def add(f: Poly, g: Poly, q: int) -> Poly:
    n = max(len(f), len(g))
    return trim([((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % q for i in range(n)])


def scale(f: Poly, c: int, q: int) -> Poly:
    return trim([(c * a) % q for a in f])


def mul(f: Poly, g: Poly, q: int) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % q
    return trim(out)


def divmod_monic(f: Poly, g: Poly, q: int) -> tuple[Poly, Poly]:
    """Divide by a monic g; exact over any Z/q."""
    if not g or g[-1] % q != 1:
        raise ValueError("divisor must be monic")
    rem = list(f)
    dq = len(f) - len(g)
    if dq < 0:
        return (), trim(f)
    quo = [0] * (dq + 1)
    for i in range(dq, -1, -1):
        c = rem[i + len(g) - 1] % q
        quo[i] = c
        if c:
            for j, b in enumerate(g):
                rem[i + j] = (rem[i + j] - c * b) % q
    return trim(quo), trim(rem)


def mod_poly(f: Poly, g: Poly, q: int) -> Poly:
    return divmod_monic(f, g, q)[1]


def monic_gcd(f: Poly, g: Poly, p: int) -> Poly:
    """gcd over the field F_p, normalized monic."""
    a, b = trim([x % p for x in f]), trim([x % p for x in g])
    while b:
        lead_inv = linalg.inv_mod(b[-1], p)
        b_monic = scale(b, lead_inv, p)
        a, b = b_monic, mod_poly(a, b_monic, p)
    if not a:
        return ()
    return scale(a, linalg.inv_mod(a[-1], p), p)


def pow_mod(f: Poly, e: int, g: Poly, q: int) -> Poly:
    result: Poly = (1,)
    base = mod_poly(f, g, q)
    while e:
        if e & 1:
            result = mod_poly(mul(result, base, q), g, q)
        base = mod_poly(mul(base, base, q), g, q)
        e >>= 1
    return result


def invert_mod(f: Poly, g: Poly, p: int, k: int = 1) -> Poly:
    """Inverse of f in Z/p^k[x]/(g), g monic, f invertible mod (g, p).

    Computed mod p by the extended Euclidean algorithm, then Newton-lifted.
    """
    # extended Euclid over F_p for f*s = gcd mod g
    a, b = trim([x % p for x in g]), trim([x % p for x in f])
    s0: Poly = ()
    s1: Poly = (1,)
    while b:
        lead_inv = linalg.inv_mod(b[-1], p)
        b_monic = scale(b, lead_inv, p)
        quo, rem = divmod_monic(a, b_monic, p)
        quo = scale(quo, lead_inv, p)
        a, b = b, rem
        s0, s1 = s1, add(s0, scale(mul(quo, s1, p), -1, p), p)
    if len(a) != 1:
        raise ValueError("not invertible modulo (g, p)")
    u = mod_poly(scale(s0, linalg.inv_mod(a[0], p), p), g, p)
    exponent = 1
    while exponent < k:
        exponent = min(2 * exponent, k)
        q = p**exponent
        fu = mod_poly(mul(f, u, q), g, q)
        u = mod_poly(add(scale(u, 2, q), scale(mul(u, fu, q), -1, q), q), g, q)
    return u


def berlekamp(f: Poly, p: int) -> list[Poly]:
    """Monic irreducible factors of a squarefree monic f over F_p."""
    d = len(f) - 1
    if d <= 1:
        return [f]
    Q = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        row = pow_mod((0, 1), p * i, f, p)
        Q[i, : len(row)] = row
    B = Q - np.eye(d, dtype=np.int64)
    basis = linalg.kernel(B.T, p)  # rows v with v @ Q = v
    r = basis.shape[0]
    factors = [f]
    if r == 1:
        return factors
    for v in basis:
        vp = trim(v.tolist())
        if len(vp) <= 1:
            continue
        next_factors = []
        for g in factors:
            if len(g) - 1 == 1:
                next_factors.append(g)
                continue
            pieces = []
            rest = g
            for c in range(p):
                h = monic_gcd(rest, add(vp, (-c % p,), p), p)
                if 0 < len(h) - 1 < len(rest) - 1:
                    pieces.append(h)
                    rest = divmod_monic(rest, h, p)[0]
                if len(rest) - 1 == 0:
                    break
            if len(rest) - 1 > 0:
                pieces.append(rest)
            next_factors.extend(pieces)
        factors = next_factors
        if len(factors) == r:
            break
    if len(factors) != r:
        raise RuntimeError("Berlekamp splitting incomplete")
    return sorted(factors)


def hensel_lift_factors(f: Poly, factors: list[Poly], p: int, k: int) -> list[Poly]:
    """Lift f = prod(factors) mod p to mod p^k, factors monic and coprime mod p."""
    if k == 1:
        return list(factors)
    lifted = [trim([c % p**k for c in g]) for g in factors]
    # partial-fraction data mod p: b_i * prod_{l != i} f_l = 1 mod (f_i, p)
    cof_inv = []
    for i, g in enumerate(factors):
        G: Poly = (1,)
        for l, h in enumerate(factors):
            if l != i:
                G = mul(G, h, p)
        cof_inv.append(invert_mod(mod_poly(G, g, p), g, p, 1))
    for j in range(1, k):
        q = p ** (j + 1)
        prod: Poly = (1,)
        for g in lifted:
            prod = mul(prod, g, q)
        err = add(f, scale(prod, -1, q), q)
        if not err:
            continue
        if any(c % p**j for c in err):
            raise RuntimeError(f"Hensel lift: f - prod(factors) is not 0 mod p^{j}")
        e = trim([(c // p**j) % p for c in err])
        for i, g in enumerate(lifted):
            delta = mod_poly(mul(e, cof_inv[i], p), factors[i], p)
            lifted[i] = add(g, scale(delta, p**j, q), q)
    return lifted


def factor_cyclic(m: int, p: int, k: int) -> list[Poly]:
    """Monic irreducible factors of x^m - 1 over Z/p^k, gcd(m, p) = 1."""
    if m % p == 0:
        raise ValueError(f"x^{m}-1 is not squarefree mod {p}")
    f: Poly = trim([-1 % p] + [0] * (m - 1) + [1])
    factors = berlekamp(f, p)
    f_k: Poly = trim([-1 % p**k] + [0] * (m - 1) + [1])
    lifted = hensel_lift_factors(f_k, factors, p, k)
    return sorted(lifted, key=lambda g: (len(g), g))


def cyclic_idempotents(m: int, p: int, k: int) -> list[tuple[Poly, Poly]]:
    """(factor, idempotent) pairs for Z/p^k[x]/(x^m - 1).

    The idempotent of factor f_i is 1 on the f_i coordinate of the CRT
    splitting and 0 elsewhere.
    """
    q = p**k
    f: Poly = trim([-1 % q] + [0] * (m - 1) + [1])
    out = []
    for g in factor_cyclic(m, p, k):
        F = divmod_monic(f, g, q)[0]
        u = invert_mod(mod_poly(F, g, q), g, p, k)
        e = mod_poly(mul(F, u, q), f, q)
        out.append((g, e))
    return out
