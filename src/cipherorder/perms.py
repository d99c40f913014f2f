"""Permutations of {0..m-1} in image-array ("word") form.

A permutation is stored as the tuple of images ``(p(0), ..., p(m-1))``.
Composition follows the product-cipher reading order: in ``compose(a, b)``
(equivalently ``a * b``) the right factor ``b`` acts first, so a product
cipher ``E = XY`` applies ``Y`` to the plaintext before ``X``.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Sequence, Union

Point = int
Points = Union[Point, tuple[Point, ...]]


class _Frozen:
    """Base of the slotted value types: fields are set once, in the
    constructor, through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Permutation(_Frozen):
    """A bijection on {0..m-1}; ``images[i]`` is where point ``i`` goes.

    Ordering and equality are lexicographic on the image tuple, which is
    also the canonical order used when enumerating groups.  Immutable and
    hashable; any sequence of images is stored as a tuple.
    """

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images: Sequence[int]) -> None:
        images = tuple(images)
        m = len(images)
        if m < 1:
            raise ValueError("permutation degree must be at least 1")
        if any(type(i) is not int for i in images):
            raise TypeError(f"images must be ints, got {list(images)}")
        if sorted(images) != list(range(m)):
            raise ValueError(f"not a bijection on 0..{m - 1}: {list(images)}")
        object.__setattr__(self, "images", images)

    def __reduce__(self):
        return Permutation, (self.images,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.images == other.images
        return NotImplemented

    def __lt__(self, other: Permutation) -> bool:
        if other.__class__ is self.__class__:
            return self.images < other.images
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.images,))

    def __repr__(self) -> str:
        return f"Permutation(images={self.images!r})"

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
