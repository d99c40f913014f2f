"""Permutations of {0..m-1} in image-array ("word") form.

A permutation is stored as the tuple of images ``(p(0), ..., p(m-1))``.
``Permutation`` is the validated value at the API boundary; products,
inverses and point images are taken on ``GroupTable`` indices and words.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Sequence


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

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.images)) + "]"


def transposition(m: int, i: int, j: int) -> Permutation:
    """The permutation of degree ``m`` swapping ``i`` and ``j``."""
    if i == j:
        raise ValueError("transposition needs two distinct points")
    word = list(range(m))
    word[i], word[j] = word[j], word[i]
    return Permutation(tuple(word))
