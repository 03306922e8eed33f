"""
Sweeping all two-cell candidates past the correlation bound
===========================================================

Two-cell matrices [[a, b], [c, d]] with integral cell sizes that
violate the bound 3(c - a) <= n are all expected to be unrealizable.
The sweep proves it constructively: for each candidate it climbs the
triangle table and reports the first negative entry in the r1 = 0
plane at cell index (1,1,1).
"""

from eqcube.screen import enumerate_ci_candidates, hunt_witness, sweep_ci

# candidates up to n = 12, one line each; the sweep yields each record
# as its hunt finishes, and the counts are read off the records
records = list(sweep_ci(12))
witnessed = sum(rec.witness is not None for rec in records)
print(f"n <= 12: {len(records)} candidates, "
      f"{witnessed} with a negative witness, "
      f"{len(records) - witnessed} without\n")
for rec in records:
    print(f"  n={rec.n:2d}  [[{rec.a},{rec.b}],[{rec.c},{rec.d}]]  "
          f"first negative at (0,{rec.witness[0]},{rec.witness[1]}): "
          f"{rec.witness_value}")

# the hunt is per-candidate and deterministic; rerunning one candidate
# reproduces its record exactly
first = records[0]
again = hunt_witness((first.n, first.a, first.b, first.c, first.d))
assert again == first

# the enumeration alone is cheap at any range
for n_max in (20, 40, 100):
    print(f"\ncandidates with n <= {n_max}: {len(enumerate_ci_candidates(n_max))}")
print("(the full hunt at n_max=40 runs in the acceptance suite; "
      "n_max=100 is supported but takes far longer)")
