"""Inputs and measures that only the tests use: seeded random words, the
abelianization, an arc of the real oval and the commutator-determinant
defect."""

import random
from typing import Sequence

from orbitdepth import integrals
from orbitdepth.curves import LIFT_Y, Cycle, CycleFactory, Line, Segment, nearest_root
from orbitdepth.integrals import eta, iterated_integral, period_determinant
from orbitdepth.words import Gen, Word, commutator


def random_word(rng: random.Random, max_len: int = 40, gens: Sequence[int] | None = None) -> Word:
    """Uniform random letters, reduced; used by the seeded property checks."""
    n = rng.randint(0, max_len)
    gens = list(gens) if gens is not None else list(Gen)
    letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(n)]
    return Word(letters)


def abelianize(w: Word):
    """Signed letter counts per generator (image in H_1 of the fiber)."""
    counts = [0] * 5
    for g, e in w.letters:
        counts[g] += e
    return tuple(counts)


def oval_connector(t: float, y_from: float) -> Cycle:
    """Arc of the real oval from (x(y_from), y_from) to p0, over-y on the
    x < 0 branch; used to move the base point for robustness checks."""
    if not -LIFT_Y * 2 <= y_from <= LIFT_Y * 2:
        raise ValueError("connector expects a small real y offset")
    x_from = complex(nearest_root(y_from ** 2 - 1.0, t, -1.0))
    seg = Segment("y", Line(y_from, 0.0), t, x_from)
    start = seg.start_point()
    return Cycle([seg], t, start, label=f"connector({y_from})")


def determinant_defect(factory: CycleFactory, w1: Word, w2: Word, i: int, j: int) -> float:
    """|int_{[w1,w2]} eta_i eta_j - period_determinant|."""
    comm_cycle = factory.cycle_of_word(commutator(w1, w2))
    lhs = iterated_integral(comm_cycle, [eta(i), eta(j)], tol=integrals._WORD_TOL)
    return abs(lhs - period_determinant(factory, w1, w2, i, j))
