"""Expected values the benchmark checks salient's results against.

They are stored here rather than imported from salient (salient.acceptance
keeps its own copies) so that no check compares the library with itself.
Tests replace entries in these tables to show that a wrong value is counted
as a failure.
"""

# A000112: posets on n unlabelled points, n = 0..7.
A000112 = [1, 1, 2, 5, 16, 63, 318, 2045]

# Multiplicity-free bounded graded posets (the paper's tables): by rank
# 1..8, and by number of elements 2..10.
MF_BY_RANK = [1, 2, 6, 21, 78, 297, 1143, 4419]
MF_BY_ELEMENTS = [1, 1, 2, 3, 7, 12, 28, 51, 117]

# Fibonacci numbers F(0..20) with F(1) = F(2) = 1.
FIBONACCI = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610,
             987, 1597, 2584, 4181, 6765]
