"""Type-level view: permutations, minimal coset representatives, specialization.

A binary word nu with c ones and d zeros (h = c + d) corresponds to the
permutation w sending 1-positions to 1..c and 0-positions to c+1..h, each in
left-to-right order.  These w are exactly the minimal length representatives
of the cosets W_J\\W for the block subgroup W_J = S_c x S_d; nu(j) = 0 iff
w(j) > c, and the sequence length of the canonical sequence of nu equals the
Coxeter length of w.

Specialization order on representatives: w' specializes to (lies under) w
when some u in W_J satisfies u^{-1} w' theta(u) <= w in Bruhat order, where
theta is conjugation by the fixed shuffle x(i) = i + d (i <= c), i - c (else).

>>> ctx = JWContext(h=3, c=1)
>>> x_element(ctx).images
(3, 1, 2)
>>> [w.images for w in jw_elements(ctx)]
[(1, 2, 3), (2, 1, 3), (2, 3, 1)]
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ContextTooLarge, DimensionMismatch
from .newton import NewtonPolygon

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class Permutation:
    """One-line notation: images[i-1] = w(i), a bijection on 1..h."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # composition of functions: (self * other)(i) = self(other(i))
        if self.degree != other.degree:
            raise DimensionMismatch(f"degrees {self.degree} and {other.degree} differ")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    @staticmethod
    def identity(h: int) -> "Permutation":
        return Permutation(tuple(range(1, h + 1)))

    @staticmethod
    def transposition(h: int, i: int, j: int) -> "Permutation":
        images = list(range(1, h + 1))
        images[i - 1], images[j - 1] = j, i
        return Permutation(tuple(images))

    def __str__(self):
        return "[" + ", ".join(map(str, self.images)) + "]"


@dataclass(frozen=True)
class JWContext:
    """Ambient degree h and the block split c + d used for cosets."""

    h: int
    c: int

    def __post_init__(self):
        if self.h < 1 or not 0 <= self.c <= self.h:
            raise DimensionMismatch(f"need 0 <= c <= h with h >= 1, got h={self.h}, c={self.c}")

    @property
    def d(self) -> int:
        return self.h - self.c

    @staticmethod
    def for_polygon(p: NewtonPolygon) -> "JWContext":
        return JWContext(h=p.height, c=p.codimension)


def coxeter_length(w: Permutation) -> int:
    """Number of inversions.

    >>> coxeter_length(Permutation((3, 1, 2)))
    2
    """
    img = w.images
    return sum(1 for i in range(len(img)) for j in range(i + 1, len(img)) if img[i] > img[j])


def _dominance_leq(v: tuple[int, ...], w: tuple[int, ...]) -> bool:
    # v <= w iff for all i, j: #{a <= i : v(a) >= j} <= #{a <= i : w(a) >= j}
    h = len(v)
    av = [0] * (h + 1)
    aw = [0] * (h + 1)
    for i in range(h):
        for j in range(1, v[i] + 1):
            av[j] += 1
        for j in range(1, w[i] + 1):
            aw[j] += 1
        for j in range(1, h + 1):
            if av[j] > aw[j]:
                return False
    return True


def bruhat_leq(v: Permutation, w: Permutation) -> bool:
    """Bruhat order via the prefix-count (dominance) criterion.

    >>> bruhat_leq(Permutation.identity(3), Permutation((3, 2, 1)))
    True
    >>> bruhat_leq(Permutation((2, 1, 3)), Permutation((1, 3, 2)))
    False
    """
    if v.degree != w.degree:
        raise DimensionMismatch(f"degrees {v.degree} and {w.degree} differ")
    return _dominance_leq(v.images, w.images)


def bruhat_leq_by_covers(v: Permutation, w: Permutation) -> bool:
    """Reference implementation: walk cover relations w -> w(i j) downward.

    Exponential in degree; kept for cross-checking the dominance criterion.
    """
    if v.degree != w.degree:
        raise DimensionMismatch(f"degrees {v.degree} and {w.degree} differ")
    h = w.degree
    target = v.images
    frontier = {w.images}
    seen = set(frontier)
    while frontier:
        if target in frontier:
            return True
        step = set()
        for images in frontier:
            lw = sum(1 for a in range(h) for b in range(a + 1, h) if images[a] > images[b])
            for i in range(h):
                for j in range(i + 1, h):
                    if images[i] <= images[j]:
                        continue
                    down = list(images)
                    down[i], down[j] = down[j], down[i]
                    ld = sum(1 for a in range(h) for b in range(a + 1, h) if down[a] > down[b])
                    if ld == lw - 1 and tuple(down) not in seen:
                        step.add(tuple(down))
        seen.update(step)
        frontier = step
    return False


def binary_to_jw(nu, ctx: JWContext) -> Permutation:
    """Word to representative: 1-positions get 1..c, 0-positions get c+1..h.

    >>> binary_to_jw((1, 0), JWContext(h=2, c=1)).images
    (1, 2)
    """
    nu = tuple(int(b) for b in nu)
    if len(nu) != ctx.h or any(b not in (0, 1) for b in nu):
        raise DimensionMismatch(f"need a 0/1 word of length {ctx.h}, got {nu}")
    if nu.count(0) != ctx.d:
        raise DimensionMismatch(f"word has {nu.count(0)} zeros, context wants {ctx.d}")
    images = []
    ones = 0
    zeros = 0
    for b in nu:
        if b == 1:
            ones += 1
            images.append(ones)
        else:
            zeros += 1
            images.append(ctx.c + zeros)
    return Permutation(tuple(images))


def jw_to_binary(w: Permutation, ctx: JWContext) -> tuple[int, ...]:
    """Inverse of binary_to_jw; requires w to be a minimal representative."""
    if not is_jw(w, ctx):
        raise DimensionMismatch(f"{w} is not a minimal coset representative for {ctx}")
    return tuple(0 if v > ctx.c else 1 for v in w.images)


def is_jw(w: Permutation, ctx: JWContext) -> bool:
    """True when w^{-1} is increasing on 1..c and on c+1..h."""
    if w.degree != ctx.h:
        return False
    inv = w.inverse().images
    lower = inv[: ctx.c]
    upper = inv[ctx.c :]
    return all(a < b for a, b in zip(lower, lower[1:])) and all(
        a < b for a, b in zip(upper, upper[1:])
    )


@lru_cache(maxsize=None)
def _jw_elements(h: int, c: int) -> tuple[Permutation, ...]:
    d = h - c
    out = []
    for zero_positions in itertools.combinations(range(h), d):
        nu = [1] * h
        for z in zero_positions:
            nu[z] = 0
        out.append(binary_to_jw(nu, JWContext(h, c)))
    out.sort(key=lambda w: w.images)
    return tuple(out)


def jw_elements(ctx: JWContext) -> tuple[Permutation, ...]:
    """All C(h, d) minimal representatives, lexicographic on images."""
    return _jw_elements(ctx.h, ctx.c)


def x_element(ctx: JWContext) -> Permutation:
    """The fixed block shuffle: i -> i + d for i <= c, i -> i - c above."""
    return Permutation(tuple(i + ctx.d if i <= ctx.c else i - ctx.c for i in range(1, ctx.h + 1)))


def theta(u: Permutation, ctx: JWContext) -> Permutation:
    """Conjugation by the block shuffle: theta(u) = x u x^{-1}."""
    x = x_element(ctx)
    return x * u * x.inverse()


def resolve_budget(budget: int | None) -> int:
    return DEFAULT_BUDGET if budget is None else int(budget)


def _check_budget(ctx: JWContext, budget: int | None) -> None:
    """Refuse a brute-force scan of W_J = S_c x S_d larger than the budget."""
    limit = resolve_budget(budget)
    size = math.factorial(ctx.c) * math.factorial(ctx.d)
    if size > limit:
        raise ContextTooLarge(f"|W_J| = {size} exceeds the budget {limit} for {ctx}")


@lru_cache(maxsize=None)
def _parabolic_images(h: int, c: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        p + q
        for p in itertools.permutations(range(1, c + 1))
        for q in itertools.permutations(range(c + 1, h + 1))
    )


def parabolic_elements(ctx: JWContext, budget: int | None = None) -> tuple[Permutation, ...]:
    """The block subgroup W_J = S_c x S_d; guarded by the enumeration budget."""
    _check_budget(ctx, budget)
    return tuple(Permutation(imgs) for imgs in _parabolic_images(ctx.h, ctx.c))


@lru_cache(maxsize=None)
def _conjugation_data(h: int, c: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    # pairs (u^{-1} images, theta(u) images) for u in W_J
    ctx = JWContext(h, c)
    out = []
    for images in _parabolic_images(h, c):
        u = Permutation(images)
        out.append((u.inverse().images, theta(u, ctx).images))
    return tuple(out)


def specializes(w_target: Permutation, w: Permutation, ctx: JWContext, budget: int | None = None) -> bool:
    """True when u^{-1} w_target theta(u) <= w for some u in the block subgroup.

    >>> ctx = JWContext(h=2, c=1)
    >>> specializes(Permutation((1, 2)), Permutation((2, 1)), ctx)
    True
    """
    if w_target.degree != ctx.h or w.degree != ctx.h:
        raise DimensionMismatch(f"degrees must equal h={ctx.h}")
    _check_budget(ctx, budget)
    wt = w_target.images
    for u_inv, th in _conjugation_data(ctx.h, ctx.c):
        # (u^{-1} w_target theta(u))(i), composed right to left
        candidate = tuple(u_inv[wt[th[i] - 1] - 1] for i in range(ctx.h))
        if _dominance_leq(candidate, w.images):
            return True
    return False


def generic_specializations_oracle(
    w: Permutation, ctx: JWContext, budget: int | None = None, method: str = "filter"
) -> tuple[Permutation, ...]:
    """Representatives one length below w that specialize to w.

    method="filter" scans all representatives of length l(w) - 1 with
    ``specializes``; method="transpositions" builds candidates u (w s)
    theta(u^{-1}) from length-lowering transpositions s and block elements u.
    The two agree; tests assert it.
    """
    target_length = coxeter_length(w) - 1
    if method == "filter":
        return tuple(
            wp
            for wp in jw_elements(ctx)
            if coxeter_length(wp) == target_length and specializes(wp, w, ctx, budget)
        )
    if method == "transpositions":
        found = set()
        lw = coxeter_length(w)
        us = parabolic_elements(ctx, budget)
        for i in range(1, ctx.h + 1):
            for j in range(i + 1, ctx.h + 1):
                v = w * Permutation.transposition(ctx.h, i, j)
                if coxeter_length(v) != lw - 1:
                    continue
                for u in us:
                    wp = u * v * theta(u.inverse(), ctx)
                    if coxeter_length(wp) == target_length and is_jw(wp, ctx):
                        found.add(wp)
        return tuple(sorted(found, key=lambda p: p.images))
    raise ValueError(f"unknown method {method!r}")
