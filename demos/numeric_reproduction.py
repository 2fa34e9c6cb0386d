"""Numerical reproduction on the curve (x^2-1)(y^2-1) = t at t0 = 0.36.

Builds the oval and the saddle loops, reproduces the period table, the
4 pi^2 double integral, the vanishing suite, and fits the return map of
the flagship deformation: orders 1 and 2 vanish at fit resolution, order 3
survives and matches the symbolic hierarchy after restoring (2 pi i)^3.
The eps-jet of the leaf gives the same coefficient without a fit.
"""

import numpy as np

from orbitdepth.curves import CycleFactory, vanishing_loop
from orbitdepth.integrals import (
    PAIRING_EXPECTED,
    cauchy_suite,
    eta,
    integrate_form,
    oval_orientation_certificate,
    v2_double_integral,
)
from orbitdepth.holonomy import melnikov_fit, melnikov_jet, resolved_sign
from orbitdepth.melnikov import FLAGSHIP, mv
from orbitdepth.words import Gen, Word, v_k

T0 = 0.36

print(f"Base level t0 = {T0}; oval orientation certificate "
      f"(area integral): {oval_orientation_certificate(T0):.6f} > 0")

print("\nSaddle-loop period table (entries / 2 pi i):")
for i in (1, 2, 3):
    loop = vanishing_loop(i, T0)
    row = [integrate_form(loop, eta(j)) / (2j * np.pi) for j in (1, 2, 3)]
    want = [PAIRING_EXPECTED[(i, j)] / (2j * np.pi) for j in (1, 2, 3)]
    print(f"  loop {i}: computed {[f'{v.real:+.3f}' for v in row]}"
          f"  expected {[f'{v.real:+.3f}' for v in want]}")

val = v2_double_integral(T0)
print(f"\nDouble integral over the commutator cycle of [x, z]: {val.real:.9f}"
      f"  (4 pi^2 = {4 * np.pi ** 2:.9f})")

print("\nVanishing suite (all should be ~0):")
for name, v in cauchy_suite(T0).items():
    print(f"  {name}: {abs(v):.2e}")

print("\nReturn-map fit for the flagship deformation along the oval:")
fac = CycleFactory(T0)
fit = melnikov_fit(Word.gen(Gen.G), T0, FLAGSHIP, factory=fac)
print(f"  c1 = {abs(fit.c1):.2e} (zero: {fit.is_zero(1)})")
print(f"  c2 = {abs(fit.c2):.2e} (zero: {fit.is_zero(2)})")
print(f"  c3 = {fit.c3.real:+.6f} (nonzero, half-grid spread {fit.stability[3]:.1e})")

print("\nCross-check along the cycle of v_3:")
fit3 = melnikov_fit(v_k(3), T0, FLAGSHIP, factory=fac)
jet3 = melnikov_jet(v_k(3), T0, FLAGSHIP, factory=fac)[2]
sym = mv(3, FLAGSHIP).evaluate(T0)
pred = resolved_sign(3) * (2j * np.pi) ** 3 * sym
print(f"  fitted   c3 = {fit3.c3:.6f}  (relative error {abs(fit3.c3 - pred) / abs(pred):.2e})")
print(f"  jet      c3 = {jet3:.10f}  (relative error {abs(jet3 - pred) / abs(pred):.2e})")
print(f"  predicted    {pred:.10f}  (sign-calibrated (2 pi i)^3 t0^2)")
