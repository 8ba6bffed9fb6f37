"""Boundary type sets of a polygon's central stream, and their cross-checks.

B(xi) collects the types of all generic full modifications of the minimal
sequence of xi.  Only pairs whose segments are adjacent (q = r + 1) can be
generic, so that is what the combinatorial enumeration runs; an independent
oracle (``boundary_set_oracle``) recomputes the same set through the
specialization order on coset representatives.  It shares no cascade code:
``weyl.generic_specializations_oracle`` compares coloured cycle types of
w' x against those of w x and its cocovers, and certifies every element it
returns by an explicit u in W_J.

``boundary_set`` is memoized per polygon, bounded at ``BOUNDARY_CACHE_SIZE``
(1024) polygons.  The verifications below compare sets of recurring
sub-polygons: one pass of all of them calls it 1506 times on 447 distinct
polygons, so 70% of the calls are answered from the cache.  A sweep visits
each polygon once and would only fill an unbounded cache (1.65 KB per entry),
hence the bound.

Three structural identities are verified against explicitly computed sets:

* direct-sum:   B(xi) is the disjoint union over adjacent segment pairs i of
                B((m_i,n_i)+(m_{i+1},n_{i+1})), embedded by direct-summing
                each element with the minimal sequences of the remaining
                segments (slot i holds the element's sequence).  The minimal
                sequence of a segment (m, n) is the canonical sequence of its
                word 1^m 0^n, as is each element's sequence of its type, so
                ``direct_sum_type(types)`` reads the image type off the
                summands' plain 0/1 words: no summand or image sequence is
                built.
* curtailment:  for two segments with slope_1 >= slope_2 >= 1/2, dropping the
                symbols {pi(t) : delta(t) = 1} identifies the minimal
                sequence of xi^C inside that of xi, carries pairs and
                verdicts across, and restriction gives a type bijection.
* duality:      for two segments, i -> l - w(l - i) with l = h + 1 maps
                B(xi) onto B(xi^D); on types that map reverses the word and
                flips every bit.

``boundary_set`` and the curtailment check read each trace's type through
``ModificationTrace.result_type``, without building the result sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionMismatch, PreconditionViolated, VerificationFailure
from .modification import GENERIC, SmallModPair, eligible_pairs, full_modification
from .newton import NewtonPolygon, curtail, dual, polygon_to_json
from .sequences import ABS, direct_sum_type, minimal_abs, to_binary_sequence
from .weyl import JWContext, binary_to_jw, generic_specializations_oracle, jw_to_binary

COMBINATORIAL = "Combinatorial"
WEYL_ORACLE = "WeylOracle"


@dataclass(frozen=True)
class BoundaryElement:
    type: tuple[int, ...]
    pairs: tuple[SmallModPair, ...]


@dataclass(frozen=True)
class BoundarySet:
    polygon: NewtonPolygon
    elements: tuple[BoundaryElement, ...]
    method: str

    def types(self) -> frozenset[tuple[int, ...]]:
        return frozenset(e.type for e in self.elements)

    def pair_set(self) -> frozenset[SmallModPair]:
        return frozenset(p for e in self.elements for p in e.pairs)

    def to_json(self) -> dict:
        return {
            "polygon": polygon_to_json(self.polygon),
            "method": self.method,
            "elements": [
                {"type": list(e.type), "pairs": [p.spec for p in e.pairs]} for e in self.elements
            ],
        }


# Bound on the polygons whose boundary_set is kept.  Measured traffic per pass
# (one process, cold cache): verify_suite calls boundary_set 1506 times on 447
# distinct polygons (70% repeats: every verification recomputes the sets it
# compares); oracle_sweep 338 calls on 338 polygons and cli_traces 40 calls on
# 40 polygons (no repeats); census never calls it.  An unbounded cache would
# keep every polygon a sweep visits and never hit: 1.65 KB per entry by
# tracemalloc, 4.4 MB for the 2679 polygons at h <= 12.  This bound caps that
# at 1.6 MB and still holds all of verify_suite's polygons.
BOUNDARY_CACHE_SIZE = 1024


@lru_cache(maxsize=BOUNDARY_CACHE_SIZE)
def boundary_set(polygon: NewtonPolygon) -> BoundarySet:
    """Generic full-modification types of the minimal sequence, with provenance.

    Memoized per polygon (at most ``BOUNDARY_CACHE_SIZE`` of them, least
    recently used dropped first); the result is frozen and holds only tuples,
    so every caller may share it.

    >>> from .newton import parse_polygon
    >>> len(boundary_set(parse_polygon("2,5+3,2")).elements)
    6
    """
    S = minimal_abs(polygon)
    collected: dict[tuple[int, ...], list[SmallModPair]] = {}
    for pair in eligible_pairs(S, adjacent_only=True):
        trace = full_modification(S, pair)
        if trace.verdict == GENERIC:
            collected.setdefault(trace.result_type, []).append(pair)
    elements = tuple(
        BoundaryElement(t, tuple(collected[t])) for t in sorted(collected)
    )
    return BoundarySet(polygon, elements, COMBINATORIAL)


def boundary_set_oracle(polygon: NewtonPolygon, budget: int | None = None) -> BoundarySet:
    """The same set through the specialization order on coset representatives.

    The budget caps the oracle's nodes for this polygon, 2 l(w) + 1 for the
    minimal sequence's length l(w) (see ``weyl.generic_specializations_oracle``).
    """
    ctx = JWContext.for_polygon(polygon)
    w = binary_to_jw(to_binary_sequence(minimal_abs(polygon)), ctx)
    types = sorted(
        jw_to_binary(wp, ctx)
        for wp in generic_specializations_oracle(w, ctx, budget=budget)
    )
    return BoundarySet(polygon, tuple(BoundaryElement(t, ()) for t in types), WEYL_ORACLE)


@dataclass(frozen=True)
class Report:
    polygon: NewtonPolygon
    kind: str
    lhs: tuple
    rhs: tuple
    bijection: tuple[tuple[str, str], ...]
    status: str
    witness: object = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict:
        return {
            "polygon": str(self.polygon),
            "kind": self.kind,
            "lhs": list(self.lhs),
            "rhs": list(self.rhs),
            "bijection": [list(row) for row in self.bijection],
            "status": self.status,
            "witness": self.witness,
        }

    def raise_if_failed(self) -> "Report":
        if not self.ok:
            raise VerificationFailure(f"{self.kind} verification failed for {self.polygon}", self.witness)
        return self


def _fmt(bits: tuple[int, ...]) -> str:
    return "".join(map(str, bits))


def verify_direct_sum(polygon: NewtonPolygon) -> Report:
    """Check the adjacent-pair decomposition of B(polygon).

    Every element of B of an adjacent segment pair, direct-summed with the
    minimal sequences of the other segments (keeping its slot), must land in
    B(polygon); the images must be pairwise distinct and exhaust it.
    """
    if polygon.z < 2:
        raise PreconditionViolated("direct-sum verification needs at least two segments")
    segs = polygon.segments
    whole = boundary_set(polygon)
    whole_types = whole.types()
    words = [(1,) * s.m + (0,) * s.n for s in segs]
    lhs = []
    bijection = []
    images: dict[tuple[int, ...], str] = {}
    witness = None
    for i in range(1, polygon.z):
        part = NewtonPolygon((segs[i - 1], segs[i]))
        part_set = boundary_set(part)
        lhs.append(f"i={i} {part}: {sorted(_fmt(t) for t in part_set.types())}")
        for element in part_set.elements:
            tag = f"i={i}:{_fmt(element.type)}"
            image = direct_sum_type(words[: i - 1] + [element.type] + words[i + 1 :])
            bijection.append((tag, _fmt(image)))
            if image in images and witness is None:
                witness = {"check": "injective", "image": _fmt(image), "sources": [images[image], tag]}
            images[image] = tag
            if image not in whole_types and witness is None:
                witness = {"check": "image_in_boundary", "source": tag, "image": _fmt(image)}
    if witness is None and set(images) != whole_types:
        missing = sorted(_fmt(t) for t in whole_types - set(images))
        witness = {"check": "exhausts_boundary", "unmatched": missing}
    return Report(
        polygon=polygon,
        kind="direct-sum",
        lhs=tuple(lhs),
        rhs=tuple(sorted(_fmt(t) for t in whole_types)),
        bijection=tuple(bijection),
        status="ok" if witness is None else "fail",
        witness=witness,
    )


def _curtail_removed(S: ABS) -> frozenset:
    return frozenset(S.pi(t) for t in S.order if t.label == 1)


def verify_curtailment(polygon: NewtonPolygon) -> Report:
    """Check the curtailment identification for two segments with slopes >= 1/2.

    The symbols of the curtailed minimal sequence are literally the symbols of
    the original minus {pi(t) : delta(t) = 1} (coordinates and labels agree),
    so the embedding, pair transport, verdict agreement, and type restriction
    are all checked by plain comparisons.
    """
    if polygon.z != 2:
        raise PreconditionViolated("curtailment verification needs exactly two segments")
    if 2 * polygon.segments[1].n < polygon.segments[1].height:
        raise PreconditionViolated(f"curtailment verification needs slope_2 >= 1/2, got {polygon}")
    curtailed = curtail(polygon)
    S = minimal_abs(polygon)
    R = minimal_abs(curtailed)
    removed = _curtail_removed(S)
    witness = None

    kept = tuple(t for t in S.order if t not in removed)
    if kept != R.order:
        witness = {
            "check": "embedding_order",
            "kept": [t.token for t in kept],
            "curtailed": [t.token for t in R.order],
        }
    if witness is None:
        for t in R.order:
            expected = S.pi(t) if t.label == 0 else S.pi(S.pi(t))
            if R.pi(t) != expected:
                witness = {"check": "embedding_pi", "symbol": t.token, "expected": expected.token, "got": R.pi(t).token}
                break

    pairs_S = eligible_pairs(S, adjacent_only=True)
    pairs_R = eligible_pairs(R, adjacent_only=True)
    if witness is None and set(pairs_S) != set(pairs_R):
        witness = {
            "check": "pair_sets",
            "only_original": [p.spec for p in set(pairs_S) - set(pairs_R)],
            "only_curtailed": [p.spec for p in set(pairs_R) - set(pairs_S)],
        }

    restricted_types: dict[tuple[int, ...], tuple[int, ...]] = {}
    if witness is None:
        for pair in pairs_S:
            trace_S = full_modification(S, pair)
            trace_R = full_modification(R, pair)
            if trace_S.verdict != trace_R.verdict:
                witness = {
                    "check": "verdict_agreement",
                    "pair": pair.spec,
                    "original": trace_S.verdict,
                    "curtailed": trace_R.verdict,
                }
                break
            if trace_S.verdict != GENERIC:
                continue
            t_full = trace_S.result_type
            t_restricted = tuple(t.label for t in trace_S.result.order if t not in removed)
            t_curtailed = trace_R.result_type
            if t_restricted != t_curtailed:
                witness = {
                    "check": "restriction_matches",
                    "pair": pair.spec,
                    "restricted": _fmt(t_restricted),
                    "curtailed": _fmt(t_curtailed),
                }
                break
            if restricted_types.get(t_full, t_restricted) != t_restricted:
                witness = {"check": "well_defined", "type": _fmt(t_full)}
                break
            restricted_types[t_full] = t_restricted

    lhs_set = boundary_set(polygon)
    rhs_set = boundary_set(curtailed)
    if witness is None and set(restricted_types) != lhs_set.types():
        missing = sorted(_fmt(t) for t in lhs_set.types() - set(restricted_types))
        witness = {"check": "covers_boundary", "missing": missing}
    return _type_map_report(
        polygon, "curtailment", restricted_types, lhs_set, rhs_set, "onto_curtailed_boundary", witness
    )


def _type_map_report(polygon, kind, mapped, lhs_set, rhs_set, onto_check, witness) -> Report:
    """Report on ``mapped``, from the types of ``lhs_set``, as a bijection onto those of ``rhs_set``.

    A ``witness`` found before is kept, and then the bijection stays empty;
    otherwise the map must be injective (``injective``) and onto
    (``onto_check``, listing the ``extra`` and ``missing`` types).
    """
    bijection = ()
    if witness is None:
        bijection = tuple(sorted((_fmt(t), _fmt(m)) for t, m in mapped.items()))
        image = set(mapped.values())
        if len(image) != len(mapped):
            witness = {"check": "injective"}
        elif image != rhs_set.types():
            witness = {
                "check": onto_check,
                "extra": sorted(_fmt(t) for t in image - rhs_set.types()),
                "missing": sorted(_fmt(t) for t in rhs_set.types() - image),
            }
    return Report(
        polygon=polygon,
        kind=kind,
        lhs=tuple(sorted(_fmt(t) for t in lhs_set.types())),
        rhs=tuple(sorted(_fmt(t) for t in rhs_set.types())),
        bijection=bijection,
        status="ok" if witness is None else "fail",
        witness=witness,
    )


def duality_map_type(bits: tuple[int, ...], c: int) -> tuple[int, ...]:
    """Type of the dual: conjugate the representative by i -> l - i, l = h + 1.

    Concretely w*(i) = l - w(l - i); on types this reverses the word and
    flips every bit, and that is how it is computed.  ``c`` is the word's
    codimension, its number of ones; any other value raises
    ``DimensionMismatch``.
    """
    if bits.count(1) != c:
        raise DimensionMismatch(f"word has {bits.count(1)} ones, context wants {c}")
    return tuple([1 - b for b in reversed(bits)])


def verify_duality(polygon: NewtonPolygon) -> Report:
    """Check that the dual map carries B(polygon) onto B(dual(polygon))."""
    if polygon.z != 2:
        raise PreconditionViolated("duality verification needs exactly two segments")
    dual_polygon = dual(polygon)
    lhs_set = boundary_set(polygon)
    rhs_set = boundary_set(dual_polygon)
    c = polygon.codimension
    mapped = {t: duality_map_type(t, c) for t in lhs_set.types()}
    return _type_map_report(polygon, "duality", mapped, lhs_set, rhs_set, "onto_dual_boundary", None)
