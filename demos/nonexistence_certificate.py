"""
Certifying that a candidate quotient matrix is unrealizable
===========================================================

A 3x3 matrix for the 22-cube passes every screen `feasibility_conditions`
runs - integral cell sizes, spectrum inside the cube spectrum - and its
per-distance count matrices are all nonnegative and integral.  Its full
triangle table still contains a negative entry, which no actual
partition could produce, so no partition with this matrix exists.
"""

from eqcube.quotient import cell_sizes, feasibility_conditions, validate_quotient
from eqcube.recursion import weight_distribution
from eqcube.screen import certify

S = [[0, 22, 0], [5, 6, 11], [0, 10, 12]]
Q = validate_quotient(S, 22)
print(f"candidate matrix {S} for the 22-cube")
print(f"cell sizes: {[str(s) for s in cell_sizes(Q)]}")

report = feasibility_conditions(Q)
print(f"arithmetic screens: {report.verdict} "
      f"(spectrum {report.spectrum.eigenvalues})")

# the coarser per-distance counts show nothing wrong at all
W = weight_distribution(Q)
flat = [x for mat in W for row in mat for x in row]
print(f"distance matrices: {len(W)} levels, "
      f"min entry {min(flat)}, all integral: "
      f"{all(x == int(x) for x in flat)}")

# the triangle table is where the contradiction appears
cert = certify(S, 22)
v = cert.first_violation
print(f"\nverdict: {cert.verdict}")
print(f"first violating entry: T^{v.triple} at cell index {v.index} "
      f"= {v.value} ({v.reason})")
print(f"violations in total: {cert.violations_found} "
      f"(scanned to level {cert.levels_scanned})")
