"""Exact probability distributions over a permutation group and their products.

The distribution of a product cipher Z = XY (Y applied to the plaintext
first) is the convolution z(g) = sum over a*b = g of x(a) y(b).  A
distribution is stored as integer numerators over one denominator, in lowest
terms, and every constructor, product, translate and triple decomposition
here adds and multiplies ``int``s only, so support sizes, majorization
verdicts and tie cases are decided exactly.  ``mass`` is the ``Fraction``
view of the masses for the API.  As in ``groups``, an element is an index
of the group (an ``int``; a ``bool`` or a float is a TypeError) and a
subgroup a sorted tuple of them.

``convolve`` alone decides when a product takes the coset quotient: when
its right factor is uniform on a left coset of a subgroup, which
``groups.left_cosets`` verifies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

from .groups import GroupTable, _check_element, _partition_with_block, double_coset
from .majorize import _numerators
from .perms import _Frozen

_ZERO = Fraction(0)


class CipherDist(_Frozen):
    """A cipher as an exact distribution over a group's canonical index.

    Element i has mass ``nums[i] / den``, and ``gcd(den, *nums) == 1``, so
    equal distributions have equal fields (and equal hashes).
    ``CipherDist(group, mass)`` takes exact rational masses (a float is a
    TypeError, as in ``majorize`` and ``metrics``); the library builds
    its distributions from integers through ``from_numerators``.  Both check
    the length, the signs and the total.
    """

    __slots__ = ("group", "nums", "den", "_mass")
    group: GroupTable
    nums: tuple[int, ...]
    den: int

    def __init__(self, group: GroupTable, mass: Sequence) -> None:
        (nums,), den = _numerators(mass)
        self._set(group, nums, den)

    @classmethod
    def from_numerators(
        cls, group: GroupTable, nums: Sequence[int], den: int
    ) -> CipherDist:
        """The distribution with masses ``nums[i] / den``, in lowest terms."""
        dist = object.__new__(cls)
        dist._set(group, nums, den)
        return dist

    def _set(self, group: GroupTable, nums: Sequence[int], den: int) -> None:
        if len(nums) != group.order:
            raise ValueError(f"mass length {len(nums)} != group order {group.order}")
        if min(nums) < 0:
            raise ValueError("masses must be nonnegative")
        total = sum(nums)
        if total != den:
            raise ValueError(f"masses must sum to 1, got {Fraction(total, den)}")
        g = math.gcd(den, *nums)
        if g > 1:
            nums = [n // g for n in nums]
            den //= g
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_mass", None)

    def _fields(self) -> tuple[GroupTable, tuple[int, ...], int]:
        return self.group, self.nums, self.den

    def __reduce__(self):
        return CipherDist.from_numerators, self._fields()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "CipherDist(group={!r}, nums={!r}, den={!r})".format(*self._fields())

    @property
    def mass(self) -> tuple[Fraction, ...]:
        """The masses as ``Fraction``s, in the group's canonical order,
        built on first read."""
        if self._mass is None:
            den = self.den
            mass = tuple(Fraction(n, den) if n else _ZERO for n in self.nums)
            object.__setattr__(self, "_mass", mass)
        return self._mass

    def support(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.nums)), self.nums))

    def support_size(self) -> int:
        return len(self.nums) - self.nums.count(0)


def _common_numerators(
    x: CipherDist, y: CipherDist
) -> tuple[list[int], list[int], int]:
    """The numerators of ``x`` and of ``y`` over their common denominator
    ``lcm(x.den, y.den)``, and that denominator."""
    den = math.lcm(x.den, y.den)
    sx, sy = den // x.den, den // y.den
    return [n * sx for n in x.nums], [n * sy for n in y.nums], den


def uniform_on(group: GroupTable, subset: Iterable[int]) -> CipherDist:
    """Uniform distribution on a set of element indices: ``int``s, so a
    ``bool`` or a float index is a TypeError."""
    subset = tuple(subset)
    for i in subset:
        _check_element(group, i)
    indices = set(subset)
    if not indices:
        raise ValueError("cannot be uniform on an empty subset")
    nums = [1 if i in indices else 0 for i in range(group.order)]
    return CipherDist.from_numerators(group, nums, len(indices))


def deterministic(group: GroupTable, g: int) -> CipherDist:
    """Point mass at the element of index ``g``."""
    return uniform_on(group, (g,))


def _require_same_group(x: CipherDist, y: CipherDist) -> GroupTable:
    if x.group is not y.group and x.group != y.group:
        raise ValueError("distributions live on different groups")
    return x.group


def convolve(x: CipherDist, y: CipherDist) -> CipherDist:
    """Distribution of the product cipher XY: z(g) = sum_{a*b=g} x(a) y(b).

    Sparse double loop over supp(x) and the right factor's representatives,
    adding the numerator product at the index of a*b over the denominator
    product; no inverses are needed.  The representatives are supp(y).

    If y is uniform on its support and that support is a left coset s*K of
    a subgroup, and |supp x| * |supp y| > |G|, the one representative is s:
    a*s lies in the coset a*s*K, which gains x(a) y(s), so one last pass
    gives every element of a coset the coset's sum, and the numerators equal
    the general loop's.  That is |supp x| products and an O(|G|) pass.  A
    support that only tiles G is no coset, as ``left_cosets`` checks.
    """
    group = _require_same_group(x, y)
    reps = y.support()
    blocks = ()
    if y.den == len(reps) and x.support_size() * len(reps) > group.order:
        blocks = _partition_with_block(group, reps)
        if blocks:
            reps = reps[:1]
    right = [y.nums[j] for j in reps]
    row = group.right_products(reps)
    out = [0] * group.order
    for i, xi in enumerate(x.nums):
        if xi:
            for k, yj in zip(row(i), right):
                out[k] += xi * yj
    for block in blocks:
        total = sum([out[i] for i in block])
        for i in block:
            out[i] = total
    return CipherDist.from_numerators(group, out, x.den * y.den)


def convolve_all(dists: Sequence[CipherDist]) -> CipherDist:
    """Convolution of a product expression, rightmost factor applied first."""
    if not dists:
        raise ValueError("empty product expression")
    acc = dists[-1]
    for x in reversed(dists[:-1]):
        acc = convolve(x, acc)
    return acc


def translate(g: int, x: CipherDist) -> CipherDist:
    """Left translation g . x: the mass of f becomes the prior mass of g^-1 f."""
    return convolve(deterministic(x.group, g), x)


class TripleDecomposition(NamedTuple):
    """Convex direct-sum decomposition of x * delta_pi * z along left cosets.

    ``weight_nums[i] / weight_den`` is the mass x places on the elements a
    with a*pi in the left coset ``blocks[i]`` (the blocks of the double
    coset H*pi*K, as ``double_coset`` returns them);
    ``parts[i]`` is a probability distribution confined to that coset.
    Blocks with zero weight receive a canonical uniform part so the part
    count always equals the orbit size m.
    """

    weight_nums: tuple[int, ...]
    weight_den: int
    parts: tuple[CipherDist, ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.weight_nums)

    def mixture(self) -> CipherDist:
        """The reconstructed convolution sum_i weight_i * parts[i], over
        ``weight_den`` times the lcm of the weighted parts' denominators."""
        group = self.parts[0].group
        live = [(w, part) for w, part in zip(self.weight_nums, self.parts) if w]
        scale = math.lcm(*(part.den for _, part in live))
        out = [0] * group.order
        for w, part in live:
            factor = w * (scale // part.den)
            for i in part.support():
                out[i] += factor * part.nums[i]
        return CipherDist.from_numerators(group, out, self.weight_den * scale)


def _check_confined(x: CipherDist, sub: tuple[int, ...], name: str) -> None:
    if not set(sub).issuperset(x.support()):
        raise ValueError(f"support of {name} leaves its declared subgroup")


def triple_decompose(
    x: CipherDist,
    pi: int,
    z: CipherDist,
    h: tuple[int, ...],
    k: tuple[int, ...],
) -> TripleDecomposition:
    """Decompose t = x * delta_pi * z into weighted parts on left cosets of K.

    ``x`` must be supported inside the subgroup ``h``, ``z`` inside ``k``.
    The mixture of the result equals the full convolution exactly, and each
    part is majorized by ``z``.
    """
    group = _require_same_group(x, z)
    _check_confined(x, h, "x")
    _check_confined(z, k, "z")

    blocks = double_coset(group, h, pi, k)
    block_of = {i: b for b, block in enumerate(blocks) for i in block}

    # part b is x restricted to the a with a*pi in block b, renormalized,
    # times z translated by pi
    times_pi = group.right_products((pi,))
    x_parts = [[0] * group.order for _ in blocks]
    for a in x.support():
        x_parts[block_of[times_pi(a)[0]]][a] = x.nums[a]
    weights = tuple(map(sum, x_parts))
    z_shift = translate(pi, z)
    parts = tuple(
        convolve(CipherDist.from_numerators(group, nums, w), z_shift)
        if w
        else uniform_on(group, block)
        for w, nums, block in zip(weights, x_parts, blocks)
    )
    return TripleDecomposition(weights, x.den, parts, blocks)
