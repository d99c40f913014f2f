"""Exact probability distributions over a permutation group and their products.

The distribution of a product cipher Z = XY (Y applied to the plaintext
first) is the convolution z(g) = sum over a*b = g of x(a) y(b).  All masses
are ``fractions.Fraction``, so support sizes, majorization verdicts and tie
cases are decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .groups import DoubleCoset, GroupTable, double_coset
from .perms import Permutation

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CipherDist:
    """A cipher as an exact distribution over a group's canonical index."""

    group: GroupTable
    mass: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.mass) != self.group.order:
            raise ValueError(
                f"mass length {len(self.mass)} != group order {self.group.order}"
            )
        if any(m < 0 for m in self.mass):
            raise ValueError("masses must be nonnegative")
        if sum(self.mass) != 1:
            raise ValueError(f"masses must sum to 1, got {sum(self.mass)}")

    def mass_of(self, g: Permutation) -> Fraction:
        return self.mass[self.group.index(g)]

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.mass) if m > 0)

    def support_size(self) -> int:
        return sum(1 for m in self.mass if m > 0)


def uniform_on(group: GroupTable, subset: Iterable[int]) -> CipherDist:
    """Uniform distribution on a set of element indices."""
    indices = set(subset)
    if not indices:
        raise ValueError("cannot be uniform on an empty subset")
    for i in indices:
        if not 0 <= i < group.order:
            raise ValueError(f"element index {i} out of range")
    share = Fraction(1, len(indices))
    return CipherDist(
        group, tuple(share if i in indices else _ZERO for i in range(group.order))
    )


def uniform_on_elements(group: GroupTable, elems: Iterable[Permutation]) -> CipherDist:
    return uniform_on(group, group.indices_of(elems))


def deterministic(group: GroupTable, g: Permutation) -> CipherDist:
    """Point mass at a single permutation."""
    idx = group.index(g)
    return CipherDist(
        group, tuple(_ONE if i == idx else _ZERO for i in range(group.order))
    )


def _require_same_group(x: CipherDist, y: CipherDist) -> GroupTable:
    if x.group is not y.group and x.group != y.group:
        raise ValueError("distributions live on different groups")
    return x.group


def convolve(x: CipherDist, y: CipherDist) -> CipherDist:
    """Distribution of the product cipher XY: z(g) = sum_{a*b=g} x(a) y(b).

    Sparse double loop over the support pairs supp(x) x supp(y), adding
    x(a) y(b) at the index of a*b; no inverses are needed.
    """
    group = _require_same_group(x, y)
    supp_y = [(j, y.mass[j]) for j in y.support()]
    out = [_ZERO] * group.order
    for i in x.support():
        xi = x.mass[i]
        for j, yj in supp_y:
            out[group.mul(i, j)] += xi * yj
    return CipherDist(group, tuple(out))


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

    ``weights[i]`` is the mass x places on the transversal block sending
    pi*K to ``double_coset.left_reps[i]*K``; ``parts[i]`` is a probability
    distribution confined to that coset.  Blocks with zero weight receive a canonical
    uniform part so the part count always equals the orbit size m.
    """

    weights: tuple[Fraction, ...]
    parts: tuple[CipherDist, ...]
    double_coset: DoubleCoset

    @property
    def m(self) -> int:
        return len(self.weights)

    def mixture(self) -> CipherDist:
        """The reconstructed convolution sum_i weights[i] * parts[i]."""
        group = self.parts[0].group
        out = [_ZERO] * group.order
        for w, part in zip(self.weights, self.parts):
            if w == 0:
                continue
            for i in part.support():
                out[i] += w * part.mass[i]
        return CipherDist(group, tuple(out))


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

    z_shift = translate(pi, z)
    shift_support = [(f, z_shift.mass[f]) for f in z_shift.support()]

    p = group.index(pi)
    weights = [_ZERO] * dc.m
    part_mass = [[_ZERO] * group.order for _ in range(dc.m)]
    for a in group.indices_of(h):
        w = x.mass[a]
        b = block_of[group.mul(a, p)]
        weights[b] += w
        if w == 0:
            continue
        for f, mass in shift_support:
            part_mass[b][group.mul(a, f)] += w * mass

    parts: list[CipherDist] = []
    for b in range(dc.m):
        if weights[b] == 0:
            parts.append(uniform_on(group, dc.left_blocks[b]))
        else:
            parts.append(
                CipherDist(group, tuple(m / weights[b] for m in part_mass[b]))
            )
    return TripleDecomposition(tuple(weights), tuple(parts), dc)
