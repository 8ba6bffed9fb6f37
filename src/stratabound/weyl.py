"""Type-level view: permutations, minimal coset representatives, specialization.

A binary word nu with c ones and d zeros (h = c + d) corresponds to the
permutation w sending 1-positions to 1..c and 0-positions to c+1..h, each in
left-to-right order.  These w are exactly the minimal length representatives
of the cosets W_J\\W for the block subgroup W_J = S_c x S_d; nu(j) = 0 iff
w(j) > c, and the sequence length of the canonical sequence of nu equals the
Coxeter length of w.

Specialization order on representatives (Pink-Wedhorn-Ziegler, Algebraic
zip data, 2011): w' specializes to (lies under) w when some u in W_J
satisfies u^{-1} w' theta(u) <= w in Bruhat order, where theta is
conjugation by the fixed shuffle x(i) = i + d (i <= c), i - c (else).

``generic_specializations_oracle`` decides this for every representative w'
with l(w') = l(w) - 1 by an orbit invariant, not by a search:

* Rule.  w' specializes to w exactly when type(w' x) = type(v x) for some
  v in {w} u cocovers(w).  The type of a permutation is its coloured cycle
  type: the sorted multiset of its cycles, each read as a cyclic word of
  colours (a value <= c is low, a value > c high) and kept as its least
  rotation, an (n, bits) integer pair.
* Why.  v = u^{-1} w' theta(u) is the same as v x = u^{-1} (w' x) u, so
  twisted conjugation by W_J is ordinary conjugation of w' x by a u that
  keeps both colours, and such conjugacy classes are exactly the coloured
  cycle types.  A "yes" therefore needs no lemma; a "no" rests on this one.
* Lemma.  For w' in ^JW and u in W_J, l(u^{-1} w' theta(u)) >= l(w').
  Proof for S_h: l(u^{-1} w') = l(u) + l(w'), because w' is the minimal
  element of its coset W_J w' (Bjorner-Brenti, Combinatorics of Coxeter
  Groups, Prop. 2.4.4).  x is increasing on 1..c and on c+1..h, so theta
  sends each simple reflection (i i+1) of W_J to the simple reflection
  (x(i) x(i)+1), hence l(theta(u)) = l(u).  So l(u^{-1} w' theta(u)) >=
  l(u^{-1} w') - l(theta(u)) = l(w').  (This is the minimal length property
  of ^JW under W_J-twisted conjugation; He, Minimal length elements in some
  double cosets of Coxeter groups, 2007.)  Hence an element v <= w of the
  orbit of w' has l(w) - 1 <= l(v) <= l(w): it is w or a Bruhat cocover of
  w.  The term w never matches, since by the lemma for w nothing in its
  orbit is shorter than w.
* Cocovers.  For w in ^JW every inversion is a cocover: w(i) > c >= w(j)
  for a 0 at word position i before a 1 at j, and any k between them has
  w(k) < w(j) (a 1) or w(k) > w(i) (a 0).  So cocovers(w) are the l(w)
  swaps w (i j) of small modifications, and (w (i j)) x is w x with two
  entries exchanged: the cycle holding both splits, or the two cycles
  holding them join, and the other cycles keep their keys.

A call types w x and its l(w) cocovers; by the lemma, no w' below w has
the type of w x.  A type has at most one representative, whose word the
inverse extended Burrows-Wheeler transform reads off it (``_word_of_type``),
so each distinct cocover type gives one candidate w', kept when it is one
length below w and has that type.  Every "yes" certifies itself in O(h):
matching the cycles of w' x and v x builds u, which is checked to lie in
W_J and to give u^{-1} w' theta(u) == v exactly; a failure raises
``InternalCheckError``.  The budget (``--budget``, ``STRATABOUND_BUDGET``)
caps the nodes one call uses, checked before any work: the l(w) + 1
permutations it types plus at most l(w) types it inverts, 2 l(w) + 1.

``specializes`` is the pairwise reference predicate, kept for the checks: a
depth-first search builds u one row of u^{-1} w' theta(u) at a time and
abandons a branch as soon as the sorted lower bound of some prefix of rows
exceeds w's sorted prefix entrywise (the tableau form of the dominance
criterion for Bruhat order).  Its budget caps the nodes one search visits.

>>> ctx = JWContext(h=3, c=1)
>>> x_element(ctx).images
(3, 1, 2)
>>> [w.images for w in jw_elements(ctx)]
[(1, 2, 3), (2, 1, 3), (2, 3, 1)]
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import ContextTooLarge, DimensionMismatch, InternalCheckError
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
    """True when w^{-1} is increasing on 1..c and on c+1..h.

    That is, w lists 1..c in order and c+1..h in order, so w is the
    representative ``binary_to_jw`` builds from its own word.
    """
    c = ctx.c
    return w.degree == ctx.h and _jw_images([1 if v <= c else 0 for v in w.images], c) == w.images


def jw_elements(ctx: JWContext) -> tuple[Permutation, ...]:
    """All C(h, d) minimal representatives, lexicographic on images."""
    out = []
    for zero_positions in itertools.combinations(range(ctx.h), ctx.d):
        nu = [1] * ctx.h
        for z in zero_positions:
            nu[z] = 0
        out.append(_jw_images(nu, ctx.c))
    return tuple(Permutation(images) for images in sorted(out))


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


def _witness_exists(wt: tuple[int, ...], w: tuple[int, ...], c: int, limit: int) -> tuple[bool, int]:
    """Whether some u in W_J gives u^{-1} wt theta(u) <= w, and the nodes the search visited.

    A node is one row choice tried; a search that would visit more than
    ``limit`` nodes raises ``ContextTooLarge``.
    """
    # Depth-first search for u in W_J with v = u^{-1} wt theta(u) <= w, built
    # one row of v at a time.  Row a of v reads wt at column b = theta(u)(a);
    # rows a <= d take b in 1..d and fix u^{-1}(b + c) = a + c, rows a > d take
    # b in d+1..h and fix u^{-1}(b - d) = a - d.  v(a) = u^{-1}(wt(b)) is known
    # once wt(b) has a label.  An undetermined entry of a value block is
    # counted as the smallest label still free in that block, which bounds
    # every count #{a <= i : v(a) >= j} from below; a prefix whose sorted
    # bound exceeds w's sorted prefix entrywise (the tableau form of the
    # dominance criterion) cannot complete.  Sources are tried in increasing
    # order, so u = id is the first leaf.
    h = len(wt)
    d = h - c
    w_prefix = [sorted(w[: i + 1], reverse=True) for i in range(h)]
    col_of = [0] * (h + 1)  # col_of[x] = the column b with wt(b) = x
    for b, x in enumerate(wt, start=1):
        col_of[x] = b
    label = [0] * (h + 1)  # label[x] = u^{-1}(x), 0 while free
    row_of = [0] * (h + 1)  # row_of[b] = the row reading column b, 0 while unread
    reads = [0] * (h + 1)  # reads[a] = wt(b) for the column b that row a reads
    nodes = 0

    def fits(lo: int, a: int) -> bool:
        # Whether the bound of rows 1..i fits w's for every i in lo..a.  Rows
        # 1..a have fixed their labels, so the labels still free are
        # first_low..c and first_high..h.
        first_low = max(a - d, 0) + 1
        first_high = c + min(a, d) + 1
        values = []
        free_low = free_high = 0
        for i in range(1, a + 1):
            x = reads[i]
            if label[x]:
                values.append(label[x])
            elif x <= c:
                free_low += 1
            else:
                free_high += 1
            if i >= lo:
                bound = [*values, *range(first_low, first_low + free_low), *range(first_high, first_high + free_high)]
                bound.sort(reverse=True)
                if any(map(operator.gt, bound, w_prefix[i - 1])):
                    return False
        return True

    def place(a: int) -> bool:
        nonlocal nodes
        if a > h:
            return True
        cols, shift, lab = (range(1, d + 1), c, a + c) if a <= d else (range(d + 1, h + 1), -d, a - d)
        for b in cols:
            if row_of[b]:
                continue
            nodes += 1
            if nodes > limit:
                raise ContextTooLarge(f"the search visited more than {limit} nodes for JWContext(h={h}, c={c})")
            x = b + shift
            reads[a], row_of[b], label[x] = wt[b - 1], a, lab
            # re-check every prefix holding an entry this choice determined
            if fits(row_of[col_of[x]] or a, a) and place(a + 1):
                return True
            row_of[b], label[x] = 0, 0
        return False

    return place(1), nodes


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
    return _witness_exists(w_target.images, w.images, ctx.c, resolve_budget(budget))[0]


def _times_x(w: tuple[int, ...], c: int) -> list[int]:
    # w x as a list P with P[a] = w(x(a)) and entry 0 unused: x sends 1..c to
    # d+1..h and c+1..h to 1..d, so w x reads w's last c entries, then its first d
    d = len(w) - c
    return [0, *w[d:], *w[:d]]


def _shuffle(h: int, c: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # x and x^{-1} as tuples with entry 0 unused
    d = h - c
    return (0, *range(d + 1, h + 1), *range(1, d + 1)), (0, *range(c + 1, h + 1), *range(1, c + 1))


def _cycles(P: list[int], c: int) -> tuple[list[int], list[int], list[tuple[int, int, int]]]:
    # One walk over P's cycles: (cycle, index, cycles).  cycles[i] is
    # (n, bits, a): the length of cycle i, its colour word read along a, P(a),
    # P(P(a)), ... from its least element a (a 1 for each element <= c, the
    # first element in the top bit), and a; element e is index[e] steps
    # after a on cycle cycle[e].
    h = len(P) - 1
    cycle, index = [-1] * (h + 1), [0] * (h + 1)
    out = []
    for a in range(1, h + 1):
        if cycle[a] >= 0:
            continue
        i = len(out)
        bits = n = 0
        b = a
        while cycle[b] < 0:
            cycle[b], index[b] = i, n
            bits = bits << 1 | (b <= c)
            n += 1
            b = P[b]
        out.append((n, bits, a))
    return cycle, index, out


@lru_cache(maxsize=1 << 12)
def _necklace(n: int, bits: int) -> tuple[tuple[int, int], int]:
    # The key (n, least rotation) of an n-bit colour word, one tuple per word,
    # and how far left the least rotation turns the word; read r steps
    # further along its cycle, a cycle's word turns left by r.
    mask = (1 << n) - 1
    double = bits << n | bits
    best, shift = bits, 0
    for r in range(1, n):
        rot = double >> (n - r) & mask
        if rot < best:
            best, shift = rot, r
    return (n, best), shift


def _keyed_cycles(P: list[int], c: int) -> list[tuple[tuple[int, int], int]]:
    """Each cycle of P as ``((length, least rotation), start)``, sorted.

    The key is the cycle's colour word (a 1 for each element <= c) kept as
    its least rotation, an n-bit integer; read from ``start`` along P, the
    cycle spells exactly that rotation.
    """
    out = []
    for n, bits, a in _cycles(P, c)[2]:
        key, shift = _necklace(n, bits)
        for _ in range(shift):
            a = P[a]
        out.append((key, a))
    out.sort()
    return out


def _cocover_types(P: list[int], c: int, swaps) -> list[tuple[tuple[int, int], ...]]:
    """The coloured cycle type of P, then of P with entries p and q exchanged for each (p, q) in swaps.

    Exchanging P(p) and P(q) splits the cycle holding both, or joins the two
    cycles holding them; every other cycle keeps its key.  Let R(e) be the
    colour word of e's cycle read from P(e) round to e.  If p and q share a
    cycle of length n, q lying k steps after p, the split cycles read the top
    k bits and the low n - k bits of R(p); otherwise the joined cycle reads
    R(q) then R(p).  So P's cycles are walked once, and each exchange costs
    O(h) list and bit operations.
    """
    cycle, index, cycles = _cycles(P, c)
    keys = [_necklace(n, bits)[0] for n, bits, _ in cycles]
    out = [tuple(sorted(keys))]
    for p, q in swaps:
        i, j = cycle[p], cycle[q]
        n, bits, _ = cycles[i]
        word = (bits << n | bits) >> (n - 1 - index[p]) & ((1 << n) - 1)  # R(p)
        rest = keys.copy()
        if i == j:
            k = (index[q] - index[p]) % n
            del rest[i]
            rest.append(_necklace(k, word >> (n - k))[0])
            rest.append(_necklace(n - k, word & ((1 << (n - k)) - 1))[0])
        else:
            m, bits, _ = cycles[j]
            word_q = (bits << m | bits) >> (m - 1 - index[q]) & ((1 << m) - 1)  # R(q)
            del rest[max(i, j)]
            del rest[min(i, j)]
            rest.append(_necklace(n + m, word_q << n | word)[0])
        rest.sort()
        out.append(tuple(rest))
    return out


def _cycle_type(P: list[int], c: int) -> tuple[tuple[int, int], ...]:
    """The coloured cycle type of P: the sorted keys of its cycles.

    Two permutations are conjugate by a u that keeps 1..c and c+1..h exactly
    when their coloured cycle types are equal.

    >>> _cycle_type([0, 2, 1, 3], 1)  # (1 2) and (3): words 10 and 0
    ((1, 0), (2, 1))
    """
    return _cocover_types(P, c, ())[0]


def _word_of_type(t: tuple[tuple[int, int], ...]) -> list[int]:
    """The word nu of the one w = binary_to_jw(nu) with type(w x) == t, if some w has type t.

    The inverse extended Burrows-Wheeler transform (Gessel-Reutenauer, JCTA
    1993; Mantaci-Restivo-Rosone-Sciortino, TCS 2007): the rotations of every
    reversed cycle word, sorted in omega-order, end in the letters of nu.  A
    rotation r of period n is keyed by the first K bits of r^omega, K the sum
    of the distinct periods (exact by Fine and Wilf), last letter in the low bit.
    """
    width = sum({n for n, _ in t})
    keys = []
    for n, bits in t:
        mask = (1 << n) - 1
        r = int(f"{bits:0{n}b}"[::-1], 2)
        double = r << n | r
        for i in range(n):
            rot = double >> i & mask
            keys.append((rot << width) // mask << 1 | rot & 1)
    keys.sort()
    return [key & 1 for key in keys]


def _certificate(
    wp: tuple[int, ...], cycles: list[tuple[tuple[int, int], int]], v: tuple[int, ...], c: int
) -> tuple[int, ...]:
    """A u in W_J with u^{-1} wp theta(u) == v, found by matching the cycles of wp x and v x.

    ``cycles`` is ``_keyed_cycles`` of wp x, which the caller has already
    walked.  v x = u^{-1} (wp x) u means u carries each cycle of v x onto a
    cycle of wp x with the same colour word.  u is built so from the two
    sorted ``_keyed_cycles`` lists, then checked to lie in W_J and to
    satisfy wp theta(u) == u v exactly.  Raises ``InternalCheckError``
    otherwise, for example when the two coloured cycle types differ.
    """
    h = len(wp)
    P, Q = _times_x(wp, c), _times_x(v, c)
    u = [0] * (h + 1)
    # both lists cover 1..h, so if the keys agree pair by pair, every cycle is matched
    for (key, b), (v_key, a) in zip(cycles, _keyed_cycles(Q, c)):
        if key != v_key:
            raise InternalCheckError(f"{v} is not W_J-twisted conjugate to {wp} (c={c})")
        for _ in range(key[0]):
            u[a] = b
            a, b = Q[a], P[b]
    x, x_inv = _shuffle(h, c)
    if max(u[1 : c + 1], default=0) > c or any(wp[x[u[x_inv[a]]] - 1] != u[v[a - 1]] for a in range(1, h + 1)):
        raise InternalCheckError(f"the conjugator {tuple(u[1:])} does not carry {wp} to {v} within W_J (c={c})")
    return tuple(u[1:])


def _certified_specializations(
    w: Permutation, ctx: JWContext, budget: int | None = None
) -> tuple[tuple[Permutation, tuple[int, ...], tuple[int, ...]], ...]:
    """``(w', v, u)`` for each representative w' one length below w that specializes to w.

    v is a cocover of w with v x of w' x's coloured cycle type, and u
    is the certificate: u^{-1} w' theta(u) == v <= w.  Sorted by w''s images.
    """
    h, c = ctx.h, ctx.c
    img = w.images
    if not is_jw(w, ctx):
        raise DimensionMismatch(f"{w} is not a minimal coset representative for {ctx}")
    # w's inversions, all of them cocovers: a 0 at position i before a 1 at j
    inversions = [(i, j) for j in range(1, h + 1) if img[j - 1] <= c for i in range(1, j) if img[i - 1] > c]
    limit = resolve_budget(budget)
    if 2 * len(inversions) + 1 > limit:
        raise ContextTooLarge(f"the search visited more than {limit} nodes for JWContext(h={h}, c={c})")
    below = len(inversions) - 1
    P = _times_x(img, c)
    # (w (i j)) x is w x with the entries at x^{-1}(i) and x^{-1}(j) exchanged
    x_inv = _shuffle(h, c)[1]
    types = _cocover_types(P, c, [(x_inv[i], x_inv[j]) for i, j in inversions])
    # types[0] is w x's own, which by the lemma no representative below w has;
    # each other type is inverted once, for the first cocover that has it
    first = {}
    for inversion, t in zip(inversions, types[1:]):
        first.setdefault(t, inversion)
    found = []
    for t, (i, j) in first.items():
        nu = _word_of_type(t)
        if word_length(nu) != below:
            continue
        wp = _jw_images(nu, c)
        # w' x's cycles, walked once: they re-type w' and then match v x's
        cycles = _keyed_cycles(_times_x(wp, c), c)
        if tuple([key for key, _ in cycles]) != t:
            continue
        v = list(img)
        v[i - 1], v[j - 1] = v[j - 1], v[i - 1]
        v = tuple(v)
        found.append((wp, v, _certificate(wp, cycles, v, c)))
    return tuple((Permutation(wp), v, u) for wp, v, u in sorted(found))


def generic_specializations_oracle(
    w: Permutation, ctx: JWContext, budget: int | None = None
) -> tuple[Permutation, ...]:
    """Representatives one length below w that specialize to w, in ``jw_elements`` order.

    Decided by coloured cycle types (see the module docstring), each "yes"
    certified.  The budget caps the nodes the call uses: the l(w) + 1
    permutations it types plus at most l(w) types it inverts, 2 l(w) + 1 in
    all; a call that needs more raises ``ContextTooLarge`` before any work.

    >>> ctx = JWContext(h=3, c=1)
    >>> [wp.images for wp in generic_specializations_oracle(Permutation((2, 3, 1)), ctx)]
    [(2, 1, 3)]
    """
    return tuple(wp for wp, _, _ in _certified_specializations(w, ctx, budget))
