"""Permutations of {0..m-1} in image-array ("word") form.

A permutation is stored as the tuple of images ``(p(0), ..., p(m-1))``.
Composition follows the product-cipher reading order: in ``compose(a, b)``
(equivalently ``a * b``) the right factor ``b`` acts first, so a product
cipher ``E = XY`` applies ``Y`` to the plaintext before ``X``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

Point = int
Points = Union[Point, tuple[Point, ...]]


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection on {0..m-1}; ``images[i]`` is where point ``i`` goes.

    Ordering and equality are lexicographic on the image tuple, which is
    also the canonical order used when enumerating groups.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.images)
        if m < 1:
            raise ValueError("permutation degree must be at least 1")
        if sorted(self.images) != list(range(m)):
            raise ValueError(f"not a bijection on 0..{m - 1}: {list(self.images)}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, p: Points) -> Points:
        """Image of a point, or the componentwise image of a tuple of points."""
        if isinstance(p, tuple):
            return tuple(self._apply_point(q) for q in p)
        return self._apply_point(p)

    def _apply_point(self, q: int) -> int:
        if not 0 <= q < self.degree:
            raise ValueError(f"point {q} out of range for degree {self.degree}")
        return self.images[q]

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.images)) + "]"


def compose(a: Permutation, b: Permutation) -> Permutation:
    """The composition ``a after b``: ``b`` acts first, then ``a``."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return Permutation(tuple(a.images[j] for j in b.images))


def identity(m: int) -> Permutation:
    return Permutation(tuple(range(m)))


def transposition(m: int, i: int, j: int) -> Permutation:
    """The permutation of degree ``m`` swapping ``i`` and ``j``."""
    if i == j:
        raise ValueError("transposition needs two distinct points")
    word = list(range(m))
    word[i], word[j] = word[j], word[i]
    return Permutation(tuple(word))


def cycle(m: int, points: Sequence[int]) -> Permutation:
    """The cycle sending ``points[i]`` to ``points[i+1]``, wrapping around."""
    if len(set(points)) != len(points):
        raise ValueError("cycle points must be distinct")
    word = list(range(m))
    for i, p in enumerate(points):
        word[p] = points[(i + 1) % len(points)]
    return Permutation(tuple(word))
