"""Small exact number-theory helpers (unbounded integers throughout)."""

from __future__ import annotations

import math


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorisation as {prime: exponent}; {} for n = 1."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    if n == 0:
        raise ValueError("p-part of 0 is undefined")
    part = 1
    while n % p == 0:
        part *= p
        n //= p
    return part


def is_prime_power(n: int) -> int | None:
    """The prime p when n = p^k with k >= 1; else None, for n = 1 too,
    since 1 determines no prime."""
    if n == 1:
        return None
    factors = prime_factors(n)
    if len(factors) == 1:
        return next(iter(factors))
    return None


def integer_log(n: int, base: int) -> int:
    """Exact logarithm: the k with base**k == n, or ValueError."""
    k = 0
    m = 1
    while m < n:
        m *= base
        k += 1
    if m != n:
        raise ValueError(f"{n} is not a power of {base}")
    return k
