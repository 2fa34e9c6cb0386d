"""Numerical reproduction on the curve (x^2-1)(y^2-1) = t at t0 = 0.36.

Builds the oval and the saddle loops, reproduces the period table, the
4 pi^2 double integral, the vanishing suite, and the eps-jet of the
flagship deformation's return map: orders 1 and 2 vanish, order 3 survives
and matches the symbolic hierarchy after restoring (2 pi i)^3.  Direct
transport of the leaves witnesses each jet: the remainder past c1..c3 is
of order 4 in eps.
"""

import numpy as np

from orbitdepth.curves import CycleFactory, vanishing_loop
from orbitdepth.integrals import (
    PAIRING_EXPECTED,
    cauchy_suite,
    eta,
    iterated_integral,
    oval_orientation_certificate,
    v2_double_integral,
)
from orbitdepth.holonomy import WITNESS_EPS, jet_along, remainder_orders, resolved_sign
from orbitdepth.melnikov import FLAGSHIP, mv
from orbitdepth.words import Gen, Word, v_k

T0 = 0.36
fac = CycleFactory(T0)  # every based cycle at t0, the oval among them
oval = fac.cycle_of_word(Word.gen(Gen.G))

print(f"Base level t0 = {T0}; oval orientation certificate "
      f"(area integral): {oval_orientation_certificate(oval):.6f} > 0")

print("\nSaddle-loop period table (entries / 2 pi i):")
for i in (1, 2, 3):
    loop = vanishing_loop(i, T0)
    row = [iterated_integral(loop, [eta(j)]) / (2j * np.pi) for j in (1, 2, 3)]
    want = [PAIRING_EXPECTED[(i, j)] / (2j * np.pi) for j in (1, 2, 3)]
    print(f"  loop {i}: computed {[f'{v.real:+.3f}' for v in row]}"
          f"  expected {[f'{v.real:+.3f}' for v in want]}")

val = v2_double_integral(fac)
print(f"\nDouble integral over the commutator cycle of [x, z]: {val.real:.9f}"
      f"  (4 pi^2 = {4 * np.pi ** 2:.9f})")

print("\nVanishing suite (all should be ~0):")
for name, v in cauchy_suite(oval).items():
    print(f"  {name}: {abs(v):.2e}")

print("\nReturn-map jet for the flagship deformation along the oval:")
c1, c2, c3 = jet = jet_along(oval, FLAGSHIP)
print(f"  |c1| = {abs(c1):.2e}, |c2| = {abs(c2):.2e}, c3 = {c3.real:+.10f}")
orders = remainder_orders(oval, FLAGSHIP, jet)
print(f"  remainder order at eps = +-{WITNESS_EPS:g}: {orders[0]:.3f}, {orders[1]:.3f} (4 expected)")

print("\nCross-check along the cycle of v_3:")
cycle3 = fac.cycle_of_word(v_k(3))
jet3 = jet_along(cycle3, FLAGSHIP)
sym = mv(3, FLAGSHIP).evaluate(T0)
pred = resolved_sign(3) * (2j * np.pi) ** 3 * sym
print(f"  jet      c3 = {jet3[2]:.10f}  (relative error {abs(jet3[2] - pred) / abs(pred):.2e})")
print(f"  predicted    {pred:.10f}  (sign-calibrated (2 pi i)^3 t0^2)")
orders3 = remainder_orders(cycle3, FLAGSHIP, jet3)
print(f"  remainder order at eps = +-{WITNESS_EPS:g}: {orders3[0]:.3f}, {orders3[1]:.3f} (4 expected)")
