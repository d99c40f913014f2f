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
uniform on a left coset, never trusts a caller's subgroup.  Everything is
desk scale by design: this module alone decides the element-count cap,
``DEFAULT_CAP``, and the cap on stored image entries (order x degree),
``_ENTRY_CAP``, and refuses a larger group before enumerating it where its
order is known in advance, and during the breadth-first search of
``closure`` otherwise.
"""

from __future__ import annotations

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


def closure(generators: Iterable[Permutation]) -> GroupTable:
    """The group generated by ``generators``, enumerated breadth-first on
    image tuples.

    Raises ``GroupSizeError`` as soon as the elements found pass either cap.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators must share one degree")
    gen_words = [g.images for g in gens]
    limit = min(DEFAULT_CAP, _ENTRY_CAP // degree)
    seen: set[tuple[int, ...]] = {tuple(range(degree))}
    frontier: list[tuple[int, ...]] = list(seen)
    while frontier:
        new: list[tuple[int, ...]] = []
        for b in frontier:
            times_b = _right_factor(b)
            for g in gen_words:
                c = times_b(g)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
                    if len(seen) > limit:
                        _check_size("generated group", len(seen), degree)
        frontier = new
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
    """The cyclic group generated by the +1 (mod m) rotation of {0..m-1}."""
    _check_size(f"cyclic({m})", m, m)
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


def stabilizer(group: GroupTable, points: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted indices of the elements fixing every point of ``points``."""
    check_points(points, group.degree)
    fixed = list(points)
    return tuple(i for i, w in enumerate(group.words) if [w[q] for q in points] == fixed)


def conjugate_subgroup(group: GroupTable, pi: int, h: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate pi * H * pi^-1 of the subgroup ``h`` of ``group``, as
    sorted indices."""
    _check_element(group, pi)
    times_pi_inv = group.right_products((group.inverse(pi),))
    return tuple(sorted(times_pi_inv(j)[0] for j in group.right_products(h)(pi)))


def _check_subgroup(parent: GroupTable, k: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless the indices ``k`` are a subgroup, each
    once: generators taken greedily from the end of ``k`` are closed coset by
    coset (Dimino's algorithm, each right coset H*c one C-level map over the
    words of the group H so far), and every coset must lie in ``k``."""
    words = parent.words
    inside = {words[j] for j in k}
    seen = {words[0]}
    gens: list[Callable[[tuple[int, ...]], tuple[int, ...]]] = []
    for j in reversed(k):
        if len(seen) < len(inside) and words[j] not in seen:
            gens.append(_right_factor(words[j]))
            sub, reps = list(seen), [words[0]]
            for r in reps:
                for times in gens:
                    c = times(r)
                    if c not in seen:
                        coset = set(map(_right_factor(c), sub))
                        if not coset <= inside:
                            raise ValueError("the indices are not a subgroup: not closed")
                        seen |= coset
                        reps.append(c)
    if seen != inside or len(inside) != len(k):
        raise ValueError("the indices are not a subgroup: no identity, or a repeat")


def left_cosets(parent: GroupTable, k: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Partition of ``parent`` into the left cosets g*K of the subgroup ``k``
    (``ValueError`` if it is none): sorted blocks of parent indices, ordered
    by their minimal member.  Built once per table and subgroup, on first
    use, and kept under each of its blocks."""
    k = tuple(k)
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
    times_pi = parent.right_products((pi,))
    h_pi = {times_pi(a)[0] for a in h}
    return tuple(b for b in left_cosets(parent, k) if not h_pi.isdisjoint(b))
