"""Enumerated finite permutation groups: closure, cosets, double cosets, stabilizers.

Groups here are always fully enumerated and stored in canonical order
(lexicographic on image tuples), so two enumerations of the same group are
element-for-element identical.  A ``GroupTable`` is its sorted image
tuples ("words") and their index: groups are built, compared, closed and
multiplied as words, and a ``Permutation`` is built only when the API asks
for one (``element``, iteration).  Inside a parent table G, an element is an
index of G, and subgroups, cosets and double cosets are sorted tuples of G's
element indices.  A ``Permutation`` becomes an element of G only through ``G.index``, and a
table built on its own becomes a subgroup of G only through
``G.indices_of(table)``: each is the one conversion and the one membership
check.  ``left_cosets`` verifies that its subgroup is one, so
``dist.convolve``, which takes the coset quotient when its right factor is
uniform on a left coset, never trusts a caller's subgroup.  This module
owns the point-image partition: ``_image_blocks`` groups element indices by
their image tuple g(p), the left cosets of the pointwise stabilizer Stab(p)
in the order of their least member, so ``stabilizer`` is its first block,
the identity's, and ``qsecurity.compare_q`` reads every block.  Everything is
desk scale by design: this module alone decides the element-count cap,
``DEFAULT_CAP``, and the cap on stored image entries (order x degree),
``_ENTRY_CAP``, and refuses a larger group before enumerating it where its
order is known in advance, and otherwise as soon as ``_generate``, the one
group-generation routine (Dimino's algorithm), would store a coset past either.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import permutations as _words
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .perms import Permutation

DEFAULT_CAP = 50_000
# stored image entries, order x degree: sym(8) needs 322,560, cyclic(632)
# 399,424; each entry is a pointer in a word tuple
_ENTRY_CAP = 400_000


class GroupSizeError(ValueError):
    """Raised when a group would exceed the enumeration cap."""


def over_cap(name: str) -> GroupSizeError:
    """The refusal of the group called ``name``: it has too many elements."""
    return GroupSizeError(f"{name} has more than {DEFAULT_CAP} elements, the group-size cap")


def _check_size(name: str, order: int, degree: int) -> None:
    """Refuse the group called ``name`` if its ``order`` elements of
    ``degree`` points pass either cap."""
    if order > DEFAULT_CAP:
        raise over_cap(name)
    if order * degree > _ENTRY_CAP:
        raise GroupSizeError(
            f"{name} has more than {_ENTRY_CAP} image entries (order x degree), "
            "the group-size cap"
        )


def _check_element(group: GroupTable, i: int) -> None:
    """Raise unless ``i`` is an element index of ``group``: an ``int`` (a
    ``bool`` or a float is a TypeError) in range."""
    if type(i) is not int:
        raise TypeError(f"element indices must be ints, got {i!r}")
    if not 0 <= i < group.order:
        raise ValueError(f"element index {i} out of range")


def _right_factor(w: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map a -> the word of a * w (``w`` acts first): one C-level
    ``operator.itemgetter`` call."""
    if len(w) > 1:
        return itemgetter(*w)
    # itemgetter of a single index returns a scalar, not a 1-tuple
    return lambda a, k=w[0]: (a[k],)


class GroupTable:
    """A finite permutation group with canonically ordered, indexed elements.

    ``words`` holds the elements' image tuples, sorted lexicographically.
    ``index`` maps a permutation to its position, ``element`` builds the
    permutation at a position, ``right_products`` multiplies positions and
    ``inverse`` inverts one; every index a table takes or returns refers to
    this table's ordering, never to a subgroup's or a supergroup's.  Tables
    come from ``closure`` (the table of an explicit element set is
    ``closure(elements)``), ``symmetric_group``, ``cyclic_group`` and the
    scenario specs.  Instances are immutable in value and safe to share
    across threads: ``left_cosets`` verifies each subgroup and keeps the
    partition it builds in ``_cosets``, keyed by each block and left out of
    equality and hash, and two threads racing on one partition at worst both
    compute it.
    """

    __slots__ = ("degree", "words", "_index", "_cosets")

    @classmethod
    def _from_words(cls, words: Sequence[tuple[int, ...]]) -> GroupTable:
        """The table of a group given as its sorted, distinct words; the
        caller guarantees that they form a group."""
        table = object.__new__(cls)
        table.words = tuple(words)
        table.degree = len(table.words[0])
        table._index = {w: i for i, w in enumerate(table.words)}
        table._cosets = {}
        return table

    @property
    def order(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Permutation]:
        return map(Permutation, self.words)

    def index(self, p: Permutation) -> int:
        try:
            return self._index[p.images]
        except KeyError:
            raise ValueError(f"{p} is not an element of this group") from None

    def element(self, i: int) -> Permutation:
        return Permutation(self.words[i])

    def inverse(self, i: int) -> int:
        """Index of the inverse of ``element(i)``: the points ordered by their
        images under it."""
        w = self.words[i]
        return self._index[tuple(sorted(range(self.degree), key=w.__getitem__))]

    def right_products(self, js: Iterable[int]) -> Callable[[int], list[int]]:
        """The map i -> the indices of ``element(i) * element(j)`` for j in
        ``js`` (``element(j)`` acts first), in the order of ``js``.

        Each ``words[j]`` becomes an ``operator.itemgetter`` once, so every
        product is one C-level composition and one dict lookup.
        """
        index, words = self._index, self.words
        getters = [_right_factor(words[j]) for j in js]

        def row(i: int) -> list[int]:
            a = words[i]
            return [index[get(a)] for get in getters]

        return row

    def indices_of(self, sub: GroupTable) -> tuple[int, ...]:
        """The separately built group ``sub`` as sorted positions in this
        group: the one conversion into a subgroup and the one check that it
        lies inside, a ``ValueError`` naming its first element outside."""
        try:
            return tuple(sorted([self._index[w] for w in sub.words]))
        except KeyError as exc:
            word = exc.args[0]
            raise ValueError(f"{Permutation(word)} is not an element of this group") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupTable):
            return NotImplemented
        return self.words == other.words

    def __hash__(self) -> int:
        return hash(self.words)

    def __repr__(self) -> str:
        return f"GroupTable(degree={self.degree}, order={self.order})"


def _generate(
    identity: tuple[int, ...], gen_words: Iterable[tuple[int, ...]], limit: int
) -> set[tuple[int, ...]] | None:
    """The words of the group generated by ``gen_words``, by Dimino's algorithm:
    a generator already generated is skipped, and each new one extends the group
    H so far one right coset H*c at a time, one C-level map over H's words each.
    ``None`` if a coset would take the group past ``limit`` elements."""
    seen = {identity}
    gens: list[Callable[[tuple[int, ...]], tuple[int, ...]]] = []
    for g in gen_words:
        if g in seen:
            continue
        gens.append(_right_factor(g))
        sub, reps = list(seen), [identity]
        for r in reps:
            for times in gens:
                c = times(r)
                if c not in seen:
                    if len(seen) + len(sub) > limit:
                        return None
                    seen.update(map(_right_factor(c), sub))
                    reps.append(c)
    return seen


def closure(generators: Iterable[Permutation]) -> GroupTable:
    """The group generated by ``generators``, enumerated by ``_generate``;
    ``GroupSizeError`` before a coset would take it past either cap."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators must share one degree")
    limit = min(DEFAULT_CAP, _ENTRY_CAP // degree)
    seen = _generate(tuple(range(degree)), [g.images for g in gens], limit)
    if seen is None:
        # one element past the limit passes the cap that set it
        _check_size("generated group", limit + 1, degree)
    return GroupTable._from_words(sorted(seen))


def symmetric_group(m: int) -> GroupTable:
    """All permutations of {0..m-1}; m! is checked against the element cap
    by a running product that stops as soon as it passes it, then m! * m
    against the entry cap.
    ``itertools.permutations`` yields the words in lexicographic order."""
    if m < 0:
        raise ValueError(f"sym({m}): degree must be nonnegative")
    if m == 0:
        # the refusal of Permutation(()), the one word of degree 0
        raise ValueError("permutation degree must be at least 1")
    order = 1
    for k in range(2, m + 1):
        order *= k
        if order > DEFAULT_CAP:
            raise over_cap(f"sym({m})")
    _check_size(f"sym({m})", order, m)
    return GroupTable._from_words(tuple(_words(range(m))))


def cyclic_group(m: int) -> GroupTable:
    """The cyclic group generated by the +1 (mod m) rotation of {0..m-1}:
    the rotations by k = 0..m-1, already in lexicographic order."""
    _check_size(f"cyclic({m})", m, m)
    if m < 1:
        raise ValueError("permutation degree must be at least 1")
    points = tuple(range(m))
    return GroupTable._from_words([points[k:] + points[:k] for k in range(m)])


def check_points(points: tuple[int, ...], degree: int) -> None:
    """Raise ``ValueError`` unless ``points`` are distinct points of
    {0..degree-1}."""
    if len(set(points)) != len(points):
        raise ValueError(f"points must be distinct: {points}")
    for q in points:
        if not 0 <= q < degree:
            raise ValueError(f"point {q} out of range for degree {degree}")


def _image_columns(group: GroupTable) -> list[tuple[int, ...]]:
    """``columns[a][i]`` is the image of point a under element i."""
    return list(zip(*group.words))


def _image_blocks(
    columns: Sequence[Sequence[int]], order: int, p: tuple[int, ...]
) -> list[list[int]]:
    """Element indices grouped by image tuple g(p): the left cosets of
    Stab(p), each in canonical order, in the order of their lexicographically
    minimal member."""
    if not p:
        return [list(range(order))]
    blocks: defaultdict[tuple[int, ...], list[int]] = defaultdict(list)
    for i, image in enumerate(zip(*[columns[a] for a in p])):
        blocks[image].append(i)
    return list(blocks.values())


def stabilizer(group: GroupTable, points: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted indices of the elements fixing every point of ``points``: the
    block of the identity (index 0, so the first) in the point-image partition."""
    check_points(points, group.degree)
    return tuple(_image_blocks(_image_columns(group), group.order, points)[0])


def conjugate_subgroup(group: GroupTable, pi: int, h: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate pi * H * pi^-1 of the subgroup ``h`` of ``group``, as
    sorted indices."""
    _check_element(group, pi)
    for j in h:
        _check_element(group, j)
    times_pi_inv = group.right_products((group.inverse(pi),))
    return tuple(sorted(times_pi_inv(j)[0] for j in group.right_products(h)(pi)))


def _check_subgroup(parent: GroupTable, k: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless the indices ``k`` are a subgroup, each
    once: ``_generate`` on k's words, taken from the end, must give exactly
    k's words without passing len(k) elements."""
    words = parent.words
    inside = {words[j] for j in k}
    generated = _generate(words[0], [words[j] for j in reversed(k)], len(k))
    if generated != inside or len(inside) != len(k):
        raise ValueError("the indices are not a subgroup: empty, not closed, or a repeat")


def left_cosets(parent: GroupTable, k: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Partition of ``parent`` into the left cosets g*K of the subgroup ``k``
    (``ValueError`` if it is none, and ``_check_element``'s error for an
    index that is no element): sorted blocks of parent indices, ordered
    by their minimal member.  Built once per table and subgroup, on first
    use, and kept under each of its blocks."""
    k = tuple(k)
    # before the lookup: True and 1.0 equal 1, so they would find (0, 1)'s
    for j in k:
        _check_element(parent, j)
    blocks = parent._cosets.get(k)
    if blocks is None or blocks[0] != k:
        _check_subgroup(parent, k)
        row = parent.right_products(k)
        covered: set[int] = set()
        found = []
        for i in range(parent.order):
            if i not in covered:
                block = tuple(sorted(row(i)))
                covered.update(block)
                found.append(block)
        blocks = tuple(found)
        parent._cosets.update(dict.fromkeys(blocks, blocks))
    return blocks


def _partition_with_block(parent: GroupTable, block: tuple[int, ...]) -> tuple:
    """The left-coset partition with the sorted indices ``block`` = s*K as a
    block, s = ``block[0]``, or ``()`` if K = s^-1 * ``block`` is no subgroup."""
    blocks = parent._cosets.get(block)
    if blocks is None:
        if parent.order % len(block):
            # |s*K| = |K| divides |G| (Lagrange): no K, and no closure to fail
            return ()
        try:
            k = sorted(parent.right_products(block)(parent.inverse(block[0])))
            blocks = left_cosets(parent, k)
        except ValueError:
            return ()
    return blocks


def double_coset(
    parent: GroupTable, h: tuple[int, ...], pi: int, k: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """H*pi*K as its left cosets of K: the blocks of ``left_cosets(parent, k)``
    that meet H*pi, ordered by their minimal member.  Their count is
    [H : H n pi*K*pi^-1] by orbit-stabilizer."""
    _check_element(parent, pi)
    for j in h:
        _check_element(parent, j)
    times_pi = parent.right_products((pi,))
    h_pi = {times_pi(a)[0] for a in h}
    return tuple(b for b in left_cosets(parent, k) if not h_pi.isdisjoint(b))
