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
``specializes`` decides this without enumerating W_J: a depth-first search
builds u one row of u^{-1} w' theta(u) at a time and abandons a branch as
soon as a lower bound on some prefix count breaks the dominance criterion
for Bruhat order.  ``generic_specializations_oracle`` runs that search on
every representative one length below w, bucketed by length through the
O(h) sequence length of each representative's word.  The budget
(``--budget``, ``STRATABOUND_BUDGET``) caps the nodes one search visits, not
|W_J| = c! d!, so a large block subgroup costs nothing the search does not
actually try.

The search's tables depend on (h, c) alone and are built once per process:
the packed label counts, and for each row the columns it may read and the
prefix sums of the labels still free once it and the rows before it have
fixed theirs (rows 1..d fix c+1..c+d, rows d+1..h fix 1..c, each in order).
Within one search, the prefix counts of the rows a choice leaves untouched
are kept from the node above, so a node re-counts only the rows from the
first one whose entry it determined.

>>> ctx = JWContext(h=3, c=1)
>>> x_element(ctx).images
(3, 1, 2)
>>> [w.images for w in jw_elements(ctx)]
[(1, 2, 3), (2, 1, 3), (2, 3, 1)]
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import ContextTooLarge, DimensionMismatch
from .newton import NewtonPolygon
from .sequences import word_length

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
    return Permutation(_jw_images(nu, ctx.c))


def _jw_images(nu, c: int) -> tuple[int, ...]:
    # the images of binary_to_jw for a checked word with c ones
    images = []
    ones = 0
    zeros = 0
    for b in nu:
        if b == 1:
            ones += 1
            images.append(ones)
        else:
            zeros += 1
            images.append(c + zeros)
    return tuple(images)


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
    # One context checks (h, c); each word below has c ones by construction.
    d = JWContext(h, c).d
    out = []
    for zero_positions in itertools.combinations(range(h), d):
        nu = [1] * h
        for z in zero_positions:
            nu[z] = 0
        out.append(Permutation(_jw_images(nu, c)))
    out.sort(key=lambda w: w.images)
    return tuple(out)


def jw_elements(ctx: JWContext) -> tuple[Permutation, ...]:
    """All C(h, d) minimal representatives, lexicographic on images."""
    return _jw_elements(ctx.h, ctx.c)


@lru_cache(maxsize=None)
def _jw_by_length(h: int, c: int) -> dict[int, tuple[Permutation, ...]]:
    # Coxeter length -> the representatives of that length, in jw_elements order.
    # A representative's length is the sequence length of its word, O(h).
    buckets: dict[int, list[Permutation]] = {}
    for w in _jw_elements(h, c):
        buckets.setdefault(word_length(0 if v > c else 1 for v in w.images), []).append(w)
    return {length: tuple(ws) for length, ws in buckets.items()}


def x_element(ctx: JWContext) -> Permutation:
    """The fixed block shuffle: i -> i + d for i <= c, i -> i - c above."""
    return Permutation(tuple(i + ctx.d if i <= ctx.c else i - ctx.c for i in range(1, ctx.h + 1)))


def theta(u: Permutation, ctx: JWContext) -> Permutation:
    """Conjugation by the block shuffle: theta(u) = x u x^{-1}."""
    x = x_element(ctx)
    return x * u * x.inverse()


def resolve_budget(budget: int | None) -> int:
    """The node budget to search with: the default, or a given one of at least 1."""
    if budget is None:
        return DEFAULT_BUDGET
    budget = int(budget)
    if budget < 1:
        raise ValueError(f"the search budget must be at least 1 node, got {budget}")
    return budget


@lru_cache(maxsize=None)
def _search_tables(h: int, c: int) -> tuple[tuple[int, ...], int, tuple[tuple, ...]]:
    """The packed label counts ``T``, the guard bits and the per-row tables of the search.

    Field j (width ``width``, j = 1..h) of a packed integer holds a count of
    entries >= j, so label s contributes ``T[s]``, a 1 in fields 1..s.  Row
    a's table is ``(cols, shift, lab, low, high)``: the columns it may read,
    the offset from column to value, the label it fixes, and the prefix sums
    of ``T`` over the labels still free in the low (1..c) and high (c+1..h)
    value blocks once rows 1..a have fixed theirs.  Rows 1..d fix c+1..c+d
    and rows d+1..h fix 1..c, each in order, so the free labels at row a
    depend on a alone.
    """
    d = h - c
    width = h.bit_length() + 1
    T = [0] * (h + 1)
    for s in range(1, h + 1):
        T[s] = T[s - 1] | 1 << (width * (s - 1))
    guard = T[h] << (width - 1)

    def sums(labels) -> tuple[int, ...]:
        # sums[k] = the T values of the k smallest labels given
        out = [0]
        for lab in labels:
            out.append(out[-1] + T[lab])
        return tuple(out)

    rows = [None]
    for a in range(1, h + 1):
        if a <= d:
            rows.append((range(1, d + 1), c, a + c, sums(range(1, c + 1)), sums(range(a + c + 1, h + 1))))
        else:
            rows.append((range(d + 1, h + 1), -d, a - d, sums(range(a - d + 1, c + 1)), (0,)))
    return tuple(T), guard, tuple(rows)


def _witness_exists(wt: tuple[int, ...], w: tuple[int, ...], c: int, limit: int) -> bool:
    # Depth-first search for u in W_J with v = u^{-1} wt theta(u) <= w, built
    # one row of v at a time.  Row a of v reads wt at column b = theta(u)(a);
    # rows a <= d take b in 1..d and fix u^{-1}(b + c) = a + c, rows a > d take
    # b in d+1..h and fix u^{-1}(b - d) = a - d.  v(a) = u^{-1}(wt(b)) is known
    # once wt(b) has a label.  An undetermined entry of a value block is
    # counted as the smallest label still free in that block, which bounds
    # every count #{a <= i : v(a) >= j} from below; a prefix whose bound
    # exceeds w's count for some j (the dominance criterion) cannot complete.
    # Sources are tried in increasing order, so u = id is the first leaf.
    #
    # Counts are packed (see ``_search_tables``): a prefix's count vector is
    # the sum of its entries' T values.  Each field holds a count up to h
    # below its top (guard) bit, so (w's counts + guard bits) - (the bound's
    # counts) borrows across no field, and leaves every guard bit set exactly
    # when w's count is at least the bound's in every field.
    h = len(wt)
    T, guard, rows = _search_tables(h, c)
    w_counts = [guard] * (h + 1)  # w_counts[i] = guard bits + w's counts over rows 1..i
    for i in range(1, h + 1):
        w_counts[i] = w_counts[i - 1] + T[w[i - 1]]
    col_of = [0] * (h + 1)  # col_of[x] = the column b with wt(b) = x
    for b, x in enumerate(wt, start=1):
        col_of[x] = b
    label = [0] * (h + 1)  # label[x] = u^{-1}(x), 0 while free
    row_of = [0] * (h + 1)  # row_of[b] = the row reading column b, 0 while unread
    reads = [0] * (h + 1)  # reads[a] = wt(b) for the column b that row a reads
    # Sums over rows 1..i: the T values of the labelled entries, and the
    # numbers of unlabelled entries in the low and in the high value block.
    # Entries 0..valid hold for the current labels.
    known = [0] * (h + 1)
    free_low = [0] * (h + 1)
    free_high = [0] * (h + 1)
    valid = 0
    nodes = 0

    def place(a: int) -> bool:
        nonlocal nodes, valid
        if a > h:
            return True
        cols, shift, lab, low, high = rows[a]
        for b in cols:
            if row_of[b]:
                continue
            nodes += 1
            if nodes > limit:
                raise ContextTooLarge(
                    f"the search visited more than {limit} nodes for JWContext(h={h}, c={c})"
                )
            x = b + shift
            reads[a], row_of[b], label[x] = wt[b - 1], a, lab
            # re-check every prefix holding an entry this choice determined,
            # from row lo on; rows 1..lo-1 count as they did before it, so
            # their sums are kept wherever they are still valid
            lo = row_of[col_of[x]] or a
            start = valid if valid < lo else lo - 1
            k, fl, fh = known[start], free_low[start], free_high[start]
            valid = lo - 1
            for i in range(start + 1, a + 1):
                y = reads[i]
                if label[y]:
                    k += T[label[y]]
                elif y <= c:
                    fl += 1
                else:
                    fh += 1
                known[i], free_low[i], free_high[i] = k, fl, fh
                if i >= lo and (w_counts[i] - k - low[fl] - high[fh]) & guard != guard:
                    break
            else:
                valid = a
                if place(a + 1):
                    return True
                if valid >= lo:  # undoing the choice changes rows lo..a again
                    valid = lo - 1
            row_of[b], label[x] = 0, 0
        return False

    return place(1)


def specializes(w_target: Permutation, w: Permutation, ctx: JWContext, budget: int | None = None) -> bool:
    """True when u^{-1} w_target theta(u) <= w for some u in the block subgroup.

    Decided by a pruned search over u, not by scanning W_J.  The budget caps
    the nodes the search visits (one node per row choice tried); a search
    that needs more raises ``ContextTooLarge``.

    >>> ctx = JWContext(h=2, c=1)
    >>> specializes(Permutation((1, 2)), Permutation((2, 1)), ctx)
    True
    """
    if w_target.degree != ctx.h or w.degree != ctx.h:
        raise DimensionMismatch(f"degrees must equal h={ctx.h}")
    return _witness_exists(w_target.images, w.images, ctx.c, resolve_budget(budget))


def generic_specializations_oracle(
    w: Permutation, ctx: JWContext, budget: int | None = None
) -> tuple[Permutation, ...]:
    """Representatives one length below w that specialize to w, by ``specializes``."""
    candidates = _jw_by_length(ctx.h, ctx.c).get(coxeter_length(w) - 1, ())
    return tuple(wp for wp in candidates if specializes(wp, w, ctx, budget))
