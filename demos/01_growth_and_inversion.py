"""Growth tables and the clique-polynomial inversion, step by step.

A trace monoid is presented by a commutation graph: vertices generate, and
two generators commute exactly when joined by an edge.  The number of
elements at each total weight is encoded by the growth series, and its
reciprocal is a polynomial supported on the cliques of the graph.  This
script counts elements two independent ways and watches the identity hold.
"""

from fractions import Fraction

from qlo import (
    build_graph,
    clique_polynomial,
    enumerate_up_to,
    growth_table,
    invert_series,
    verify_inversion,
)

# the path graph a - b - c: a and c do not commute, b commutes with both
graph = build_graph("abc", 1, [("a", "b"), ("b", "c")])

print("elements of weight <= 2, in canonical order:")
for t in enumerate_up_to(graph, 2):
    print("   ", t.serialize() or "(the identity, the empty word)")

table = growth_table(graph, 10)
print("\ncounts per weight level (transfer dynamic program):")
for weight, count in table.rows:
    print(f"    weight {weight}: {count}")

poly = clique_polynomial(graph)
print("\nclique polynomial:", poly)
print("its reciprocal series:", invert_series(poly, 6))

report = verify_inversion(graph, 10)
print("\nreciprocal matches the counts exactly up to weight 10:", report.match)

# rational weights simply move the counts onto a finer exponent lattice
weighted = build_graph("ab", {"a": 1, "b": Fraction(3, 2)}, [("a", "b")])
print("\nweighted free-abelian monoid, weight levels up to 4:")
for weight, count in growth_table(weighted, 4).rows:
    print(f"    weight {weight}: {count}")
print("inversion still exact:", verify_inversion(weighted, 10).match)
