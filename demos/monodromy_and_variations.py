"""Walk through the free-group layer: monodromies, variations, depth.

The fiber {F = t} of F = (x^2-1)(y^2-1) is a 4-punctured torus whose
fundamental group is free on the oval g and the saddle loops d0..d3.
The script prints the two monodromy operators, iterates the variation,
and certifies the lower-central depth of the orbit elements v_i.
"""

from orbitdepth.words import (
    Gen, Word, format_rho_word, format_word, m_endo, mon0, mon1,
    rewrite_to_rho_alphabet, v_k, var_iterate, variation_mod_k_identities,
)
from orbitdepth.magnus import depth_lower_bound

print("Monodromy around the saddle value 0 and the center value 1:")
for name, endo in (("Mon0", mon0), ("Mon1", mon1)):
    images = ", ".join(
        f"{format_word(Word.gen(g))} -> {format_word(endo.images[g])}" for g in Gen
    )
    print(f"  {name}: {images}")

print("\nThe conjugated operator M = (d0 d1)^-1 Mon0(.) (d0 d1):")
for g in Gen:
    print(f"  {format_word(Word.gen(g))} -> {format_word(m_endo.images[g])}")

print("\nIterating the variation var(w) = M(w) w^-1 from the oval:")
for i in range(1, 5):
    w = var_iterate(i)
    print(f"  var^{i}(g) = {format_word(w)}")

print("\nEach iterate equals v_i times explicit orbit-commutator factors:")
for ident in variation_mod_k_identities(3):
    print(f"  {ident.name}: exact = {ident.holds()}  (K-factors: {', '.join(ident.k_factors) or 'none'})")

print("\nv_2 in the basis (g, D, x, d2, z):",
      format_rho_word(rewrite_to_rho_alphabet(v_k(2))))

print("\nLower-central depth certificates (lowest series degree):")
for i in range(1, 7):
    print(f"  v_{i}: {depth_lower_bound(v_k(i), i + 1).describe()}")
for i in range(1, 6):
    print(f"  var^{i}(g): {depth_lower_bound(var_iterate(i), i).describe()}")
