"""Transcribed ground-truth tables shared by the unit and acceptance tests.

Everything here was entered by hand from the reference bracket/product
tables, independent of the construction code it is used to check.
Basis orders: (e, f, h) for sl2; (e1, f1, h1, e2, f2, h2) for the double;
(e1..e8) for sl3.
"""

from fractions import Fraction

from postlie.linalg import Matrix, Subspace

# three-dimensional bracket tables with antisymmetry defects, and the
# violations (i, j, k) that validation reported for them when the tensor was
# stored densely
ANTISYMMETRY_CASES = {
    "nonzero diagonal entry": (
        {(0, 0): {1: 1}, (0, 1): {1: 1}},
        [(0, 0, 1)],
    ),
    "both orientations, one of several coordinates differs": (
        {(0, 1): {0: 1, 1: 2, 2: 3}, (1, 0): {0: -1, 1: -2, 2: 4}, (1, 2): {0: 5}},
        [(0, 1, 2)],
    ),
    "rational entries": (
        {(0, 1): {2: Fraction(1, 2)}, (1, 0): {2: Fraction(1, 3)}, (0, 2): {1: Fraction(-2, 3)}},
        [(0, 1, 2)],
    ),
    "rational diagonal and a differing pair": (
        {
            (2, 2): {0: Fraction(3, 4), 2: -1},
            (0, 1): {0: 1, 2: Fraction(1, 2)},
            (1, 0): {0: -1, 2: Fraction(1, 2)},
        },
        [(0, 1, 2), (2, 2, 0), (2, 2, 2)],
    ),
}

# the distinguished factor-mixing structure on sl2+sl2: its nine products ...
CROSS_BLOCK_PRODUCTS = {
    (0, 3): {3: -4, 5: 1},   # e1.e2
    (1, 3): {3: 2, 5: -1},   # f1.e2
    (2, 3): {3: 6, 5: -2},   # h1.e2
    (0, 4): {4: 4, 5: 4},    # e1.f2
    (1, 4): {4: -2, 5: -1},  # f1.f2
    (2, 4): {4: -6, 5: -4},  # h1.f2
    (0, 5): {3: -8, 4: -2},  # e1.h2
    (1, 5): {3: 2, 4: 2},    # f1.h2
    (2, 5): {3: 8, 4: 4},    # h1.h2
}

# ... and the fifteen brackets of the induced algebra
CROSS_BLOCK_BRACKETS = {
    (0, 1): {2: 1},           # [e1,f1]
    (0, 2): {0: -2},          # [e1,h1]
    (1, 2): {1: 2},           # [f1,h1]
    (0, 3): {3: -4, 5: 1},    # [e1,e2]
    (0, 4): {4: 4, 5: 4},     # [e1,f2]
    (0, 5): {3: -8, 4: -2},   # [e1,h2]
    (1, 3): {3: 2, 5: -1},    # [f1,e2]
    (1, 4): {4: -2, 5: -1},   # [f1,f2]
    (1, 5): {3: 2, 4: 2},     # [f1,h2]
    (2, 3): {3: 6, 5: -2},    # [h1,e2]
    (2, 4): {4: -6, 5: -4},   # [h1,f2]
    (2, 5): {3: 8, 4: 4},     # [h1,h2]
    (3, 4): {5: 1},           # [e2,f2]
    (3, 5): {3: -2},          # [e2,h2]
    (4, 5): {4: 2},           # [f2,h2]
}

# split structure on sl3 along (upper Borel, strictly lower): the eight
# brackets of the induced solvable algebra ...
SL3_SPLIT_BRACKETS = {
    (0, 3): {1: 1},    # [e1,e4] = e2
    (0, 6): {0: -2},   # [e1,e7] = -2e1
    (0, 7): {0: 1},    # [e1,e8] = e1
    (1, 6): {1: -1},   # [e2,e7] = -e2
    (1, 7): {1: -1},   # [e2,e8] = -e2
    (2, 5): {4: 1},    # [e3,e6] = e5
    (3, 6): {3: 1},    # [e4,e7] = e4
    (3, 7): {3: -2},   # [e4,e8] = -2e4
}

# ... and its fifteen nonzero products
SL3_SPLIT_PRODUCTS = {
    (2, 0): {6: 1},          # e3.e1 = e7
    (2, 1): {3: -1},         # e3.e2 = -e4
    (2, 5): {4: 1},          # e3.e6 = e5
    (2, 6): {2: -2},         # e3.e7 = -2e3
    (2, 7): {2: 1},          # e3.e8 = e3
    (4, 0): {5: -1},         # e5.e1 = -e6
    (4, 1): {6: 1, 7: 1},    # e5.e2 = e7+e8
    (4, 3): {2: 1},          # e5.e4 = e3
    (4, 6): {4: -1},         # e5.e7 = -e5
    (4, 7): {4: -1},         # e5.e8 = -e5
    (5, 1): {0: 1},          # e6.e2 = e1
    (5, 2): {4: -1},         # e6.e3 = -e5
    (5, 3): {7: 1},          # e6.e4 = e8
    (5, 6): {5: 1},          # e6.e7 = e6
    (5, 7): {5: -2},         # e6.e8 = -2e6
}

# basis of the weight (-1,1,1) space on sl2.  The fourth element must carry
# the f->h part next to its h->f part (swapping e and f mirrors the fifth
# element); with the h->f part alone the defining identity already fails on
# the pair (e, f) by direct substitution.
D_MINUS_ONE_BASIS = [
    [[1, 0, 0], [0, 1, 0], [0, 0, -2]],
    [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
    [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 2], [1, 0, 0]],
    [[0, 0, 2], [0, 0, 0], [0, 1, 0]],
]


def tau_witness_sl2(phi: Matrix) -> Matrix:
    """The closing map that pairs with any endomorphism of sl2.

    Entrywise recipe (x_ij = phi entries, 1-based):
      [[x11+x33, -x12,     -2 x32 ],
       [-x21,    x22+x33,  -2 x31 ],
       [-x23/2,  -x13/2,   x11+x22]]
    """
    x = phi.at
    half = Fraction(1, 2)
    return Matrix.from_rows(
        [
            [x(0, 0) + x(2, 2), -x(0, 1), -2 * x(2, 1)],
            [-x(1, 0), x(1, 1) + x(2, 2), -2 * x(2, 0)],
            [-half * x(1, 2), -half * x(0, 2), x(0, 0) + x(1, 1)],
        ]
    )


def unit_subspace(indices, dim) -> Subspace:
    vectors = []
    for i in indices:
        v = [Fraction(0)] * dim
        v[i] = Fraction(1)
        vectors.append(v)
    return Subspace.span(vectors, dim)
