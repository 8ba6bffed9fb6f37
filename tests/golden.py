"""Hand-frozen reference data for the worked 17-, 20- and 12-symbol cases.

Every constant here was transcribed by hand from independently worked
diagrams (token rows plus curved-arrow offsets converted into absolute
1-based target positions) and is deliberately independent of the library:
tests compare computed objects against these frozen values, never the other
way around.

Transcription conventions:

* a diagram row reads left to right as the sequence order; tokens are
  ``label^segment_position``;
* an arrow offset of +k / -k on the symbol at 1-based position z lands at
  absolute position z + k / z - k; tuple entry z - 1 records that target;
* in stage diagrams the circle-marked symbol is the stage marker and the
  cross-marked symbols are the stage set members (the member set of a stage
  can never contain its own marker: members must sit strictly past it).
"""


def tokens(row: str) -> tuple[str, ...]:
    return tuple(row.split())


def phase_sets(trace, kind: str) -> dict:
    """A trace's stage sets of one phase ("A" or "B"): each stage index mapped to its members."""
    return {s.index: frozenset(s.members) for s in trace.stages if s.kind == kind}


# --------------------------------------------------------------------------
# 17-symbol case: polygon 2,7+3,5, modification pair (0^1_4, 1^2_2)
# --------------------------------------------------------------------------

POLYGON_17 = "2,7+3,5"
PAIR_17 = "0:1:4,1:2:2"

S_17 = (
    "1^1_1 1^1_2 0^1_3 0^1_4 0^1_5 1^2_1 1^2_2 0^1_6 0^1_7 "
    "1^2_3 0^2_4 0^2_5 0^1_8 0^1_9 0^2_6 0^2_7 0^2_8"
)
S_17_ARROWS = (13, 14, 1, 2, 3, 15, 16, 4, 5, 17, 6, 7, 8, 9, 10, 11, 12)

SPRIME_17 = (
    "1^1_1 0^1_3 1^1_2 1^2_2 0^1_5 1^2_1 0^1_4 0^1_6 0^1_7 "
    "0^2_4 1^2_3 0^2_5 0^1_8 0^1_9 0^2_7 0^2_6 0^2_8"
)
SPRIME_17_ARROWS = (13, 1, 14, 15, 2, 16, 3, 4, 5, 6, 17, 7, 8, 9, 10, 11, 12)

# Stage diagrams of the cascade, keyed by global stage number:
# 0 = the small modification, 1 = after the first A-move, 2 = after the
# first B-move, 3 = after the second B-move (= the full modification).
TRACE_17 = {
    "polygon": POLYGON_17,
    "pair": PAIR_17,
    "stage_orders": {
        0: (
            "1^1_1 1^1_2 0^1_3 1^2_2 0^1_5 1^2_1 0^1_4 0^1_6 0^1_7 "
            "1^2_3 0^2_4 0^2_5 0^1_8 0^1_9 0^2_6 0^2_7 0^2_8"
        ),
        1: (
            "1^1_1 0^1_3 1^1_2 1^2_2 0^1_5 1^2_1 0^1_4 0^1_6 0^1_7 "
            "1^2_3 0^2_4 0^2_5 0^1_8 0^1_9 0^2_6 0^2_7 0^2_8"
        ),
        2: (
            "1^1_1 0^1_3 1^1_2 1^2_2 0^1_5 1^2_1 0^1_4 0^1_6 0^1_7 "
            "1^2_3 0^2_4 0^2_5 0^1_8 0^1_9 0^2_7 0^2_6 0^2_8"
        ),
        3: SPRIME_17,
    },
    "stage_arrows": {
        0: (13, 14, 1, 16, 3, 15, 2, 4, 5, 17, 6, 7, 8, 9, 10, 11, 12),
        1: (13, 1, 14, 16, 2, 15, 3, 4, 5, 17, 6, 7, 8, 9, 10, 11, 12),
        2: (13, 1, 14, 15, 2, 16, 3, 4, 5, 17, 6, 7, 8, 9, 11, 10, 12),
        3: SPRIME_17_ARROWS,
    },
    "a_sets": {0: frozenset({"0^1_5"}), 1: frozenset()},
    # Stage-1 member set per the stage diagram's cross mark (0^2_6); the
    # circle-marked 0^2_7 is that stage's marker, recorded below.
    "b_sets": {0: frozenset({"1^2_1"}), 1: frozenset({"0^2_6"}), 2: frozenset()},
    "b_markers": {0: "1^2_2", 1: "0^2_7", 2: "0^2_4"},
    "a": 1,
    "b": 2,
    "verdict": "Generic",
    "lengths": (11, 10),
}


# --------------------------------------------------------------------------
# 20-symbol case: polygon 2,7+1,2+3,5, modification pair (0^1_4, 1^3_2)
# --------------------------------------------------------------------------

POLYGON_20 = "2,7+1,2+3,5"
PAIR_20 = "0:1:4,1:3:2"

S_20 = (
    "1^1_1 1^1_2 0^1_3 0^1_4 0^1_5 1^2_1 1^3_1 1^3_2 0^1_6 0^1_7 "
    "0^2_2 1^3_3 0^3_4 0^3_5 0^1_8 0^1_9 0^2_3 0^3_6 0^3_7 0^3_8"
)
S_20_ARROWS = (15, 16, 1, 2, 3, 17, 18, 19, 4, 5, 6, 20, 7, 8, 9, 10, 11, 12, 13, 14)

SPRIME_20 = (
    "1^1_1 0^1_3 1^1_2 1^3_2 0^1_5 1^3_1 1^2_1 0^1_4 0^1_6 0^1_7 "
    "0^3_4 1^3_3 0^2_2 0^3_5 0^1_8 0^1_9 0^3_7 0^3_6 0^2_3 0^3_8"
)
SPRIME_20_ARROWS = (15, 1, 16, 17, 2, 18, 19, 3, 4, 5, 6, 20, 7, 8, 9, 10, 11, 12, 13, 14)

# Diagrams exist for global stages 0, 2 and 3; the final stage 6 equals
# SPRIME_20.  Stage sets are known for the whole cascade.
TRACE_20 = {
    "polygon": POLYGON_20,
    "pair": PAIR_20,
    "stage_orders": {
        0: (
            "1^1_1 1^1_2 0^1_3 1^3_2 0^1_5 1^2_1 1^3_1 0^1_4 0^1_6 0^1_7 "
            "0^2_2 1^3_3 0^3_4 0^3_5 0^1_8 0^1_9 0^2_3 0^3_6 0^3_7 0^3_8"
        ),
        2: (
            "1^1_1 0^1_3 1^1_2 1^3_2 0^1_5 1^2_1 1^3_1 0^1_4 0^1_6 0^1_7 "
            "0^2_2 1^3_3 0^3_4 0^3_5 0^1_8 0^1_9 0^3_7 0^2_3 0^3_6 0^3_8"
        ),
        3: (
            "1^1_1 0^1_3 1^1_2 1^3_2 0^1_5 1^2_1 1^3_1 0^1_4 0^1_6 0^1_7 "
            "0^3_4 0^2_2 1^3_3 0^3_5 0^1_8 0^1_9 0^3_7 0^2_3 0^3_6 0^3_8"
        ),
        6: SPRIME_20,
    },
    "stage_arrows": {
        0: (15, 16, 1, 19, 3, 17, 18, 2, 4, 5, 6, 20, 7, 8, 9, 10, 11, 12, 13, 14),
        2: (15, 1, 16, 17, 2, 18, 19, 3, 4, 5, 6, 20, 7, 8, 9, 10, 13, 11, 12, 14),
        3: (15, 1, 16, 17, 2, 18, 19, 3, 4, 5, 7, 6, 20, 8, 9, 10, 11, 12, 13, 14),
        6: SPRIME_20_ARROWS,
    },
    "a_sets": {0: frozenset({"0^1_5"}), 1: frozenset()},
    "b_sets": {
        0: frozenset({"1^2_1", "1^3_1"}),
        1: frozenset({"0^2_3", "0^3_6"}),
        2: frozenset({"0^2_2"}),
        3: frozenset({"1^2_1"}),
        4: frozenset({"0^2_3"}),
        5: frozenset(),
    },
    "b_markers": {1: "0^3_7", 2: "0^3_4"},
    "a": 1,
    "b": 5,
    "verdict": "NonGenericLengthDrop",
    "lengths": (15, 12),
}


# --------------------------------------------------------------------------
# 12-symbol separated case: polygon 2,5+3,2, modification pair (0^1_4, 1^2_2)
# --------------------------------------------------------------------------

POLYGON_12 = "2,5+3,2"
PAIR_12 = "0:1:4,1:2:2"

S_12 = "1^1_1 1^1_2 0^1_3 0^1_4 0^1_5 1^2_1 1^2_2 0^1_6 0^1_7 1^2_3 0^2_4 0^2_5"
S_12_ARROWS = (8, 9, 1, 2, 3, 10, 11, 4, 5, 12, 6, 7)

SPRIME_12 = "1^1_1 0^1_3 1^1_2 1^2_2 0^1_5 1^2_1 0^1_4 0^1_6 0^1_7 0^2_4 1^2_3 0^2_5"
SPRIME_12_ARROWS = (8, 1, 9, 10, 2, 11, 3, 4, 5, 6, 12, 7)

TRACE_12 = {
    "polygon": POLYGON_12,
    "pair": PAIR_12,
    "stage_orders": {2: SPRIME_12},
    "stage_arrows": {2: SPRIME_12_ARROWS},
    "a_sets": {0: frozenset({"0^1_5"}), 1: frozenset()},
    "b_sets": {0: frozenset({"1^2_1"}), 1: frozenset()},
    "b_markers": {},
    "a": 1,
    "b": 1,
    "verdict": "Generic",
    "lengths": (11, 10),
}

# The six pairs producing generic specializations — identical for both the
# 17-symbol polygon 2,7+3,5 and its reduction 2,5+3,2.
SIX_PAIRS = (
    "0:1:4,1:2:1",
    "0:1:4,1:2:2",
    "0:1:5,1:2:1",
    "0:1:5,1:2:2",
    "0:1:6,1:2:3",
    "0:1:7,1:2:3",
)

# Reduction of 2,7+3,5 to its separated form: one curtailment.
PHI_REDUCTION = ("2,7+3,5", "2,5+3,2", ("C",))
