"""
Triangle and anchored tables from the three-term recursion
==========================================================

For a partition of the 3-cube into an antipodal pair and the six other
vertices, climb the distribution tables level by level and audit every
entry against the identities the tables must satisfy.
"""

from eqcube.oracle import PartitionInstance, brute_triangle, verify_equitable
from eqcube.recursion import (INTERWEIGHT, TRIANGLE, build_table, cross_check,
                              weight_distribution)

P = PartitionInstance.from_cells(3, [[0, 7], [1, 2, 3, 4, 5, 6]])
Q = verify_equitable(P)
print(f"partition cells {P.cells()} realize the matrix {Q.rows}")

# distance matrices first: row i counts vertices of each cell at each
# distance from an anchor in cell i
print("\nper-distance count matrices W^0..W^3:")
for w, mat in enumerate(weight_distribution(Q)):
    print(f"  distance {w}: {mat}")

# the full triangle table: T^{r1,r2,r3}_{ijk} counts ordered vertex
# triples at prescribed pairwise distances, cell-wise
table = build_table(Q, TRIANGLE)
print("\ntriangle table levels 0 and 1 (vectors in flat i-major order):")
for triple, vec in table.entries.items():
    if sum(triple) <= 1:
        print(f"  T^{triple} = {list(vec.entries)}")

# every entry agrees with the brute-force count over all 8^3 triples
assert brute_triangle(P).entries == table.entries
print("\nbrute-force count over all 512 vertex triples: identical")

# the anchored table uses a transposed first lift and unit initial
anchored = build_table(Q, INTERWEIGHT)
print(f"anchored table at (0,0,1): "
      f"{list(anchored.entries[(0, 0, 1)].entries)}")

# cross_check replays alternative derivation routes, index symmetries,
# the size-pairing between the two kinds and multinomial marginals
rep_t = cross_check(table, Q, companion=anchored)
rep_w = cross_check(anchored, Q, companion=table)
print(f"\ntriangle audit: ok={rep_t.ok}, checks={rep_t.checks_run}")
print(f"anchored audit: ok={rep_w.ok}, checks={rep_w.checks_run}")
