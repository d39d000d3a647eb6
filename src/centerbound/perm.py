"""Exact arithmetic for permutations of {1..n}.

Conventions, fixed once and used everywhere:

* Points are 1-based.  The degree is part of every value and is never
  inferred from the largest moved point.
* Products apply the LEFT factor first: ``(p * q)(i) = q(p(i))``.
* Commutators are ``[x, y] = x^-1 y^-1 x y`` and conjugation is
  ``x ^ h = h^-1 x h``, so ``[x, y] = x^-1 * (x ^ y)``.

Internally images are stored 0-based; every public surface (constructors,
``images``, cycle notation) is 1-based.  Composition has one primitive,
``gather``: on 0-based image tuples, ``gather(p, q)`` is the image tuple of
``p * q``, gathered in one C call.  ``Perm.__mul__``, the Cayley table's
rows, the conjugation actions of the subgroup lattice and the stabilizer
chain, which works on image tuples and wraps in a Perm only what it keeps,
all go through it.  A Perm hashes its images on first use, so a product that
is never hashed costs no hash.  ``commute`` compares images of base
points only, so a test costs the base length, not the degree.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import DegreeMismatch, DegreeViolation, ParseError


class Perm:
    """A permutation of {1..n}."""

    __slots__ = ("_img", "_hash")

    def __init__(self, images: Sequence[int]):
        """Build from the sequence of 1-based images (entry k is the image of k+1)."""
        img = tuple(i - 1 for i in images)
        if sorted(img) != list(range(len(img))):
            raise ValueError(f"not a bijection of 1..{len(img)}: {list(images)!r}")
        self._img = img
        self._hash = None

    @classmethod
    def _raw(cls, img0: tuple[int, ...]) -> "Perm":
        # trusted 0-based tuple, no validation (hot path)
        p = object.__new__(cls)
        p._img = img0
        p._hash = None
        return p

    @property
    def degree(self) -> int:
        return len(self._img)

    @property
    def images(self) -> tuple[int, ...]:
        """1-based image tuple: entry k (0-indexed) is the image of point k+1."""
        return tuple(i + 1 for i in self._img)

    def apply(self, point: int) -> int:
        """Image of a 1-based point."""
        if not 1 <= point <= len(self._img):
            raise ValueError(f"point {point} outside 1..{len(self._img)}")
        return self._img[point - 1] + 1

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self._img) != len(other._img):
            raise DegreeMismatch(
                f"degree {len(self._img)} vs {len(other._img)}")
        return Perm._raw(gather(self._img, other._img))

    def inverse(self) -> "Perm":
        return Perm._raw(invert(self._img))

    def __pow__(self, n: int) -> "Perm":
        """Square and multiply on image tuples, from the lowest set bit of n,
        squaring only while higher bits remain."""
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return identity(len(self._img))
        base = self._img
        while not n & 1:
            base = gather(base, base)
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = gather(base, base)
            if n & 1:
                result = gather(result, base)
            n >>= 1
        return Perm._raw(result)

    def conjugate(self, h: "Perm") -> "Perm":
        """h^-1 * self * h, which maps h(i) to h(self(i)), in one pass."""
        img, himg = self._img, h._img
        if len(img) != len(himg):
            raise DegreeMismatch(f"degree {len(img)} vs {len(himg)}")
        out = [0] * len(img)
        for i, j in enumerate(himg):
            out[j] = himg[img[i]]
        return Perm._raw(tuple(out))

    def is_identity(self) -> bool:
        return self._img == tuple(range(len(self._img)))

    def order(self) -> int:
        cycles = self.cycles()
        return math.lcm(*(len(c) for c in cycles)) if cycles else 1

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, 1-based, each starting at its
        smallest point, sorted by first point."""
        img = self._img
        seen = [False] * len(img)
        out = []
        for start in range(len(img)):
            if seen[start] or img[start] == start:
                continue
            cycle = [start]
            seen[start] = True
            j = img[start]
            while j != start:
                cycle.append(j)
                seen[j] = True
                j = img[j]
            out.append(tuple(point + 1 for point in cycle))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self._img == other._img

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self._img)
        return h

    def __lt__(self, other: "Perm") -> bool:
        return self._img < other._img

    def __str__(self) -> str:
        return format_perm(self)

    def __repr__(self) -> str:
        return f"Perm({format_perm(self)!r}, degree={len(self._img)})"


def gather(img, by) -> tuple:
    """The tuple of by[i] for i in img, in img's iteration order, gathered in
    one C call.  On 0-based image tuples gather(p, q) is the image tuple of
    p * q: apply p, then q."""
    if len(img) > 1:
        return itemgetter(*img)(by)
    # itemgetter returns a bare item for one key and refuses none; img may
    # be a set, so its one key is read by iterating, not by index
    for i in img:
        return (by[i],)
    return ()


def invert(img) -> tuple:
    """The image tuple of the inverse of the 0-based image tuple img."""
    inv = [0] * len(img)
    for i, j in enumerate(img):
        inv[j] = i
    return tuple(inv)


def commute(a: Perm, b: Perm, points) -> bool:
    """a * b == b * a, decided on the 0-based points: b(a(p)) == a(b(p)) for
    each p.  Two elements of a group are equal exactly when they agree on a
    base of it, so points must hold a base of a group containing both a and
    b (``Group.points()``), or be range(degree) when no such group is at
    hand."""
    img, other = a._img, b._img
    if len(img) != len(other):
        raise DegreeMismatch(f"degree {len(img)} vs {len(other)}")
    for p in points:
        if other[img[p]] != img[other[p]]:
            return False
    return True


def identity(degree: int) -> Perm:
    return Perm._raw(tuple(range(degree)))


def compose(p: Perm, q: Perm) -> Perm:
    """Product applying p first: compose(p, q)(i) = q(p(i))."""
    return p * q


def commutator(x: Perm, y: Perm) -> Perm:
    """[x, y] = x^-1 y^-1 x y = x^-1 x^y."""
    return x.inverse() * x.conjugate(y)


def from_cycles(degree: int, cycles: Iterable[Iterable[int]]) -> Perm:
    """Product (left factor first) of the given 1-based cycles."""
    result = identity(degree)
    for cycle in cycles:
        points = list(cycle)
        img = list(range(degree))
        for a, b in zip(points, points[1:] + points[:1]):
            if not 1 <= a <= degree:
                raise DegreeViolation(f"point {a} outside degree {degree}")
            img[a - 1] = b - 1
        result = result * Perm._raw(tuple(img))
    return result


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_POINT_RE = re.compile(r"[0-9]+")  # ASCII only: int() takes any digit


def parse_perm(text: str, degree: int) -> Perm:
    """Parse cycle notation like "(1 2 3)(4 5)"; "()" is the identity.

    Whitespace (and commas) between points are insignificant.  Non-disjoint
    cycles multiply left factor first.  The degree is supplied by the caller,
    never inferred.
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty permutation")
    rebuilt = []
    cycles = []
    for m in _CYCLE_RE.finditer(stripped):
        rebuilt.append(m.group(0))
        body = m.group(1).strip()
        if not body:
            continue
        points = []
        for token in re.split(r"[\s,]+", body):
            if not _POINT_RE.fullmatch(token):
                raise ParseError(f"bad cycle entry {token!r} in {text!r}")
            points.append(int(token))
        if len(set(points)) != len(points):
            raise ParseError(f"repeated point inside one cycle: {text!r}")
        for p in points:
            if p < 1:
                raise ParseError(f"points are 1-based, got {p}")
            if p > degree:
                raise DegreeViolation(
                    f"point {p} exceeds declared degree {degree}")
        cycles.append(points)
    if re.sub(r"\s+", "", "".join(rebuilt)) != re.sub(r"\s+", "", stripped):
        raise ParseError(f"could not parse permutation {text!r}")
    return from_cycles(degree, cycles)


def format_perm(p: Perm) -> str:
    """Canonical cycle notation; identity prints as "()"."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
