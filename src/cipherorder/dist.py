"""Exact probability distributions over a permutation group and their products.

The distribution of a product cipher Z = XY (Y applied to the plaintext
first) is the convolution z(g) = sum over a*b = g of x(a) y(b).  A
distribution is stored as integer numerators over one denominator, in lowest
terms, and every constructor, product, translate and triple decomposition
here adds and multiplies ``int``s only, so support sizes, majorization
verdicts and tie cases are decided exactly.  ``mass`` is the ``Fraction``
view of the masses for the API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .groups import DoubleCoset, GroupTable, double_coset
from .majorize import _numerators
from .perms import Permutation

_ZERO = Fraction(0)


@dataclass(frozen=True, init=False)
class CipherDist:
    """A cipher as an exact distribution over a group's canonical index.

    Element i has mass ``nums[i] / den``, and ``gcd(den, *nums) == 1``, so
    equal distributions have equal fields (and equal hashes).
    ``CipherDist(group, mass)`` takes rational masses; the library builds
    its distributions from integers through ``from_numerators``.  Both check
    the length, the signs and the total.
    """

    group: GroupTable
    nums: tuple[int, ...]
    den: int

    def __init__(self, group: GroupTable, mass: Sequence) -> None:
        fracs = [m if isinstance(m, Fraction) else Fraction(m) for m in mass]
        self._set(group, *_numerators(fracs))

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

    @cached_property
    def mass(self) -> tuple[Fraction, ...]:
        """The masses as ``Fraction``s, in the group's canonical order."""
        den = self.den
        return tuple(Fraction(n, den) if n else _ZERO for n in self.nums)

    def mass_of(self, g: Permutation) -> Fraction:
        return Fraction(self.nums[self.group.index(g)], self.den)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, n in enumerate(self.nums) if n)

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
    """Uniform distribution on a set of element indices."""
    indices = set(subset)
    if not indices:
        raise ValueError("cannot be uniform on an empty subset")
    for i in indices:
        if not 0 <= i < group.order:
            raise ValueError(f"element index {i} out of range")
    nums = [1 if i in indices else 0 for i in range(group.order)]
    return CipherDist.from_numerators(group, nums, len(indices))


def uniform_on_elements(group: GroupTable, elems: Iterable[Permutation]) -> CipherDist:
    return uniform_on(group, group.indices_of(elems))


def deterministic(group: GroupTable, g: Permutation) -> CipherDist:
    """Point mass at a single permutation."""
    nums = [0] * group.order
    nums[group.index(g)] = 1
    return CipherDist.from_numerators(group, nums, 1)


def _require_same_group(x: CipherDist, y: CipherDist) -> GroupTable:
    if x.group is not y.group and x.group != y.group:
        raise ValueError("distributions live on different groups")
    return x.group


def convolve(x: CipherDist, y: CipherDist) -> CipherDist:
    """Distribution of the product cipher XY: z(g) = sum_{a*b=g} x(a) y(b).

    Sparse double loop over the support pairs supp(x) x supp(y), adding the
    numerator product at the index of a*b over the denominator product; no
    inverses are needed.
    """
    group = _require_same_group(x, y)
    supp_y = y.support()
    right = [y.nums[j] for j in supp_y]
    row = group.right_products(supp_y)
    out = [0] * group.order
    for i, xi in enumerate(x.nums):
        if xi:
            for k, yj in zip(row(i), right):
                out[k] += xi * yj
    return CipherDist.from_numerators(group, out, x.den * y.den)


def convolve_all(dists: Sequence[CipherDist]) -> CipherDist:
    """Convolution of a product expression, rightmost factor applied first."""
    if not dists:
        raise ValueError("empty product expression")
    acc = dists[-1]
    for x in reversed(dists[:-1]):
        acc = convolve(x, acc)
    return acc


def translate(g: Permutation, x: CipherDist) -> CipherDist:
    """Left translation g . x: the mass of f becomes the prior mass of g^-1 f."""
    return convolve(deterministic(x.group, g), x)


@dataclass(frozen=True)
class TripleDecomposition:
    """Convex direct-sum decomposition of x * delta_pi * z along left cosets.

    ``weights[i] = weight_nums[i] / weight_den`` is the mass x places on the
    transversal block sending pi*K to ``double_coset.left_reps[i]*K``;
    ``parts[i]`` is a probability distribution confined to that coset.
    Blocks with zero weight receive a canonical uniform part so the part
    count always equals the orbit size m.
    """

    weight_nums: tuple[int, ...]
    weight_den: int
    parts: tuple[CipherDist, ...]
    double_coset: DoubleCoset

    @property
    def m(self) -> int:
        return len(self.weight_nums)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.weight_den) for w in self.weight_nums)

    def mixture(self) -> CipherDist:
        """The reconstructed convolution sum_i weights[i] * parts[i], over
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


def _check_confined(x: CipherDist, sub: GroupTable, name: str) -> None:
    allowed = set(x.group.indices_of(sub))
    bad = [i for i in x.support() if i not in allowed]
    if bad:
        raise ValueError(f"support of {name} leaves its declared subgroup")


def triple_decompose(
    x: CipherDist,
    pi: Permutation,
    z: CipherDist,
    h: GroupTable,
    k: GroupTable,
) -> TripleDecomposition:
    """Decompose t = x * delta_pi * z into weighted parts on left cosets of K.

    ``x`` must be supported inside the subgroup ``h``, ``z`` inside ``k``.
    The mixture of the result equals the full convolution exactly, and each
    part is majorized by ``z``.
    """
    group = _require_same_group(x, z)
    if pi not in group:
        raise ValueError("pi is not an element of the group")
    _check_confined(x, h, "x")
    _check_confined(z, k, "z")

    dc = double_coset(group, h, pi, k)
    block_of: dict[int, int] = {}
    for b, block in enumerate(dc.left_blocks):
        for i in block:
            block_of[i] = b

    # part b is sum_a x(a) delta_a * z_shift over the a in supp(x) with
    # a*pi in block b, divided by the block's weight
    z_shift = translate(pi, z)
    shift_support = z_shift.support()
    shift = [z_shift.nums[f] for f in shift_support]
    row = group.right_products(shift_support)

    p = group.index(pi)
    weights = [0] * dc.m
    part_nums = [[0] * group.order for _ in range(dc.m)]
    for a in x.support():
        w = x.nums[a]
        b = block_of[group.mul(a, p)]
        weights[b] += w
        part = part_nums[b]
        for g, mass in zip(row(a), shift):
            part[g] += w * mass

    parts = tuple(
        CipherDist.from_numerators(group, part_nums[b], weights[b] * z_shift.den)
        if weights[b]
        else uniform_on(group, dc.left_blocks[b])
        for b in range(dc.m)
    )
    return TripleDecomposition(tuple(weights), x.den, parts, dc)
