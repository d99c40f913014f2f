"""Enumerated finite permutation groups: closure, cosets, double cosets, stabilizers.

Groups here are always fully enumerated and stored in canonical order
(lexicographic on image tuples), so two enumerations of the same group are
element-for-element identical.  Everything is desk scale by design: this
module alone decides the element-count cap, ``DEFAULT_CAP``, and refuses a
larger group before enumerating it where its order is known in advance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _words
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .perms import Permutation, compose, identity

DEFAULT_CAP = 50_000


class GroupSizeError(ValueError):
    """Raised when a group would exceed the enumeration cap."""


def over_cap(name: str, cap: int = DEFAULT_CAP) -> GroupSizeError:
    """The refusal of the group called ``name``: it has more than ``cap``
    elements."""
    return GroupSizeError(f"{name} has more than {cap} elements, the group-size cap")


class GroupTable:
    """A finite permutation group with canonically ordered, indexed elements.

    ``elements`` is sorted lexicographically on image tuples and ``words``
    holds those elements' own image tuples.  ``index`` maps a permutation
    back to its position and ``mul`` multiplies two positions; every index
    a table takes or returns refers to this table's ordering, never to a
    subgroup's or a supergroup's.  Instances are immutable and safe to share
    across threads.
    """

    __slots__ = ("degree", "elements", "words", "_index")

    def __init__(self, elements: Iterable[Permutation], *, _trusted: bool = False):
        elems = sorted(set(elements))
        if not elems:
            raise ValueError("a group needs at least the identity element")
        degree = elems[0].degree
        if any(e.degree != degree for e in elems):
            raise ValueError("all elements must share one degree")
        self.degree = degree
        self.elements: tuple[Permutation, ...] = tuple(elems)
        self.words: tuple[tuple[int, ...], ...] = tuple(e.images for e in elems)
        self._index: dict[tuple[int, ...], int] = {w: i for i, w in enumerate(self.words)}
        if not _trusted:
            self._check_group()

    def _check_group(self) -> None:
        if identity(self.degree) not in self:
            raise ValueError("element set does not contain the identity")
        for a in self.elements:
            for b in self.elements:
                if compose(a, b) not in self:
                    raise ValueError(
                        f"element set not closed under composition: {a} * {b}"
                    )

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return self.elements[self.index(identity(self.degree))]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p.images in self._index

    def index(self, p: Permutation) -> int:
        try:
            return self._index[p.images]
        except KeyError:
            raise ValueError(f"{p} is not an element of this group") from None

    def element(self, i: int) -> Permutation:
        return self.elements[i]

    def mul(self, i: int, j: int) -> int:
        """Index of ``element(i) * element(j)``; ``element(j)`` acts first."""
        a = self.words[i]
        return self._index[tuple([a[k] for k in self.words[j]])]

    def right_products(self, js: Sequence[int]) -> Callable[[int], list[int]]:
        """The map i -> ``[mul(i, j) for j in js]``.

        Each ``words[j]`` becomes an ``operator.itemgetter`` once, so every
        product is one C-level composition and one dict lookup; the hot
        loops of ``dist`` call this instead of ``mul``.
        """
        index, words = self._index, self.words
        # itemgetter of a single index returns a scalar, not a 1-tuple
        getters = [
            itemgetter(*w) if len(w) > 1 else (lambda a, k=w[0]: (a[k],))
            for w in (words[j] for j in js)
        ]

        def row(i: int) -> list[int]:
            a = words[i]
            return [index[get(a)] for get in getters]

        return row

    def indices_of(self, elems: Iterable[Permutation]) -> tuple[int, ...]:
        """Sorted positions of the given elements in this group's ordering."""
        return tuple(sorted(self.index(e) for e in elems))

    def is_subgroup_of(self, parent: "GroupTable") -> bool:
        return self.degree == parent.degree and all(e in parent for e in self.elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupTable):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.degree, self.elements))

    def __repr__(self) -> str:
        return f"GroupTable(degree={self.degree}, order={self.order})"


def closure(generators: Iterable[Permutation], cap: int = DEFAULT_CAP) -> GroupTable:
    """The group generated by ``generators``, enumerated breadth-first.

    Raises ``GroupSizeError`` if the group would exceed ``cap`` elements.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators must share one degree")
    seen: set[Permutation] = {identity(degree)}
    frontier: list[Permutation] = list(seen)
    while frontier:
        new: list[Permutation] = []
        for g in gens:
            for b in frontier:
                c = compose(g, b)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
                    if len(seen) > cap:
                        raise over_cap("generated group", cap)
        frontier = new
    return GroupTable(seen, _trusted=True)


def symmetric_group(m: int) -> GroupTable:
    """All permutations of {0..m-1}; m! is checked against the cap by a
    running product that stops as soon as it passes the cap."""
    if m < 0:
        raise ValueError(f"sym({m}): degree must be nonnegative")
    order = 1
    for k in range(2, m + 1):
        order *= k
        if order > DEFAULT_CAP:
            raise over_cap(f"sym({m})")
    return GroupTable((Permutation(w) for w in _words(range(m))), _trusted=True)


def cyclic_group(m: int) -> GroupTable:
    """The cyclic group generated by the +1 (mod m) rotation of {0..m-1}."""
    if m > DEFAULT_CAP:
        raise over_cap(f"cyclic({m})")
    rot = Permutation(tuple((i + 1) % m for i in range(m)))
    return closure([rot])


def check_points(points: tuple[int, ...], degree: int) -> None:
    """Raise ``ValueError`` unless ``points`` are distinct points of
    {0..degree-1}."""
    if len(set(points)) != len(points):
        raise ValueError(f"points must be distinct: {points}")
    for q in points:
        if not 0 <= q < degree:
            raise ValueError(f"point {q} out of range for degree {degree}")


def stabilizer(group: GroupTable, points: tuple[int, ...]) -> GroupTable:
    """Subgroup of elements fixing every point of ``points`` (pointwise)."""
    check_points(points, group.degree)
    fixed = [g for g in group if all(g.images[q] == q for q in points)]
    return GroupTable(fixed, _trusted=True)


def conjugate_subgroup(pi: Permutation, subgroup: GroupTable) -> GroupTable:
    """The conjugate group pi * K * pi^-1."""
    if pi.degree != subgroup.degree:
        raise ValueError(f"degree mismatch: {pi.degree} vs {subgroup.degree}")
    pi_inv = pi.inverse()
    return GroupTable(
        (compose(compose(pi, k), pi_inv) for k in subgroup), _trusted=True
    )


def intersection(a: GroupTable, b: GroupTable) -> GroupTable:
    """Intersection of two groups of equal degree (always a group)."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return GroupTable((g for g in a if g in b), _trusted=True)


@dataclass(frozen=True)
class CosetDecomposition:
    """Left cosets gH of a subgroup, as index blocks into the parent table.

    Blocks are ordered by, and represented by, their lexicographically
    minimal member, which ``transversal`` lists.
    """

    transversal: tuple[Permutation, ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def _require_subgroup(parent: GroupTable, sub: GroupTable, name: str) -> None:
    if not sub.is_subgroup_of(parent):
        raise ValueError(f"{name} is not a subgroup of the parent group")


def left_cosets(parent: GroupTable, subgroup: GroupTable) -> CosetDecomposition:
    """Partition of ``parent`` into left cosets g*subgroup."""
    _require_subgroup(parent, subgroup, "subgroup")
    sub = parent.indices_of(subgroup)
    assigned = [False] * parent.order
    transversal: list[Permutation] = []
    blocks: list[tuple[int, ...]] = []
    for i, g in enumerate(parent.elements):
        if assigned[i]:
            continue
        block = sorted(parent.mul(i, h) for h in sub)
        for j in block:
            assigned[j] = True
        transversal.append(g)
        blocks.append(tuple(block))
    return CosetDecomposition(tuple(transversal), tuple(blocks))


@dataclass(frozen=True)
class DoubleCoset:
    """The set H*pi*K with its decomposition into left cosets of K.

    ``elements`` and ``left_blocks`` are indices into the parent table;
    ``left_reps[i]`` is the minimal member of ``left_blocks[i]``; the block
    count ``m`` equals [H : H n pi*K*pi^-1] by orbit-stabilizer.
    """

    elements: tuple[int, ...]
    left_reps: tuple[Permutation, ...]
    left_blocks: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.left_blocks)


def double_coset(
    parent: GroupTable,
    h: GroupTable,
    pi: Permutation,
    k: GroupTable,
) -> DoubleCoset:
    """Enumerate H*pi*K as the left cosets of K that meet H*pi."""
    _require_subgroup(parent, h, "H")
    _require_subgroup(parent, k, "K")
    if pi not in parent:
        raise ValueError("pi is not an element of the parent group")
    p = parent.index(pi)
    h_pi = {parent.mul(a, p) for a in parent.indices_of(h)}
    dec = left_cosets(parent, k)
    kept = [b for b, block in enumerate(dec.blocks) if not h_pi.isdisjoint(block)]
    blocks = tuple(dec.blocks[b] for b in kept)
    elements = tuple(sorted(i for block in blocks for i in block))
    reps = tuple(dec.transversal[b] for b in kept)
    return DoubleCoset(elements, reps, blocks)
