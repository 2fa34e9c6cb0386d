"""Building perturbations whose first nonzero return-map term has length 3.

The form a1(F) dx/(x+1) + a2(F) dy/(y-1) + a3(F) dx/(x-1) has saddle
periods (beta1, beta2, beta3) = (a2, a2-a3, a1-a3) (times 2 pi i), and the
leading return-map coefficient over the orbit element v_i is the nested
Wronskian hierarchy mv(i).  The script builds the flagship example, shows
where it sits in the classification, and contrasts it with the center
families where the whole hierarchy collapses.
"""

from orbitdepth.melnikov import (
    beta_periods,
    center_family,
    classify,
    hierarchy_collapse_check,
    make_length3,
    mv,
)

print("Flagship deformation from (alpha1, alpha2, c0, lambda) = (t, t^2, 1, 1):")
d = make_length3("t", "t^2", 1, 1)
print(f"  a1 = {d.a1},  a2 = {d.a2},  a3 = {d.a3}")
print("  saddle periods:", ", ".join(str(b) for b in beta_periods(d)))
for i in range(2, 7):
    print(f"  mv({i}) = {mv(i, d)}")
print("  classification:", classify(d).kind.value)
print("  (order 2 vanishes identically, order 3 survives: length three)")

print("\nA second admissible input (t, t^3, 0, 1):")
d2 = make_length3("t", "t^3", 0, 1)
print(f"  a1 = {d2.a1},  a2 = {d2.a2},  a3 = {d2.a3};  mv(3) = {mv(3, d2)}")

print("\nCenter family A = t, c1 = 0, lambda1 = 1, lambda = 1:")
cf = center_family("t", 0, 1, 1)
print(f"  a1 = {cf.a1},  a2 = {cf.a2},  a3 = {cf.a3}")
cls = classify(cf)
print(f"  classification: {cls.kind.value} with witnesses "
      f"lambda1 = {cls.lambda1}, lambda2 = {cls.lambda2}")
print("  hierarchy collapses at every order:", hierarchy_collapse_check(cf))

print("\nSymmetric degenerations classify separately:")
from orbitdepth.melnikov import deformation

print("  (1, 0, 1):", classify(deformation(1, 0, 1)).kind.value)
