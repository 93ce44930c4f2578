"""Resource caps.

The caps guard enumerations whose cost is exponential in the capped
quantity, and the matrices of Ryser's procedure, whose cells grow as
rank times width (rank times width squared for a printed fixing chain),
and lists whose length a user sets (extremal rays, the LR family).
Each cap is read from this module by the function it guards, and by no
other, when that function is called (a caller catches the refusal), and
no keyword, CLI flag or environment variable sets it.  A run beyond a cap assigns the constant here first (say
``config.RANK_CAP = 9`` before ``hilbert_basis(9)``).
"""

from __future__ import annotations

# Largest partition size for which kostka_count counts Kostka numbers
# tableau by tableau: the reach of decompose (SPLIT_CAP), so `kostka
# check`, which prints "skipped (cap)" when kostka_count refuses,
# counts every pair that `kostka reduce` answers.  The slowest 40-box
# count found, (8,7,6,5,4,4,3,2,1 | 2^20), takes about 0.06 s (2 vCPUs,
# Python 3.11.7).
BOX_CAP = 40

# Largest |lambda| for which decompose enumerates splittings.  Its
# prefix-sum rows are packed in one-byte lanes up to 127 boxes, and in
# wider lanes past that.  The slowest search found at the cap, over the
# shipped basis elements of ranks 5-8 and a seeded sample of 500 40-box
# pairs, (25,7,3,2,2,1 | 14,11,7,5,2,1), takes about 1.2 ms in a fresh
# process (2026-10-20, 2 vCPUs, Python 3.11.7).  The
# bitset subset-sum oracle takes the same cap on the 2A + 1 boxes
# of an instance's reduction pair (values of total A), so it and the
# search it is compared against refuse the same instances: A <= 19.
SPLIT_CAP = 40

# Most cells a column-subset sweep of a matrix may visit, (2^w - 2) * rank,
# checked before the sweep; it bounds the sweep's time.  It refuses every
# width >= 26, and width 25 above rank 1.  A full miss near the cap, the
# primitive point of RaySpec(20, 19, 11, 31) (width 20, rank 31,
# 32,505,794 cells), takes 0.1-0.2 ms, as the walk tests 210 of its
# 2^20 - 2 subsets, in a fresh process of 33 MB max RSS (2 vCPUs, Python
# 3.11.7).  A walk of that pair that skipped none took 0.39 s.
SWEEP_CAP = 2**25

# Most cells in a canonical matrix, rank * lambda_1, checked before the
# fixing procedure runs (so before the star matrix and the graph), and in
# a fixing chain built to be printed, (lambda_1 + 1) * rank * lambda_1.
CELL_CAP = 1_000_000

# Largest rank for which the Hilbert basis is computed (rank 8 has
# 1,611,188 candidates in its 8 x 8 box; rank 9 would have 17,826,201).
RANK_CAP = 8

# Largest rank whose extremal rays are listed: C(r,3) + C(r,2) + r of
# them, 4,525 at rank 30, where ``kostka rays --format json`` takes
# about a second; checked before any ray is built.  Also the largest rank
# at which is_extremal runs its exact elimination, which is cubic in the
# rank: about 0.03 s a call at rank 30 (2 vCPUs, Python 3.11.7).
RAY_RANK_CAP = 30

# Most states the sublist search of a generalized Catalan sequence
# (sequences.catalan_reducible, and so the cost-vs-width check) may
# store, on its bound 2 * sum_j min(P_j + 1, 2^(t - j)), checked before
# any table is built.  It admits every sequence of length <= 18.  The
# largest admitted inputs measured, (1, -1) * 87000 and 60 random entries
# up to 650 rising then falling, take 0.37 s and 0.16 s and 42 MB above
# the interpreter's own (2 vCPUs, Python 3.11.7).
STATE_CAP = 2**19

# Largest |nu| for which Littlewood-Richardson coefficients are counted.
LR_BOX_CAP = 30

# Largest k of the wide LR family (rank 3k - 1) that is built, and the
# largest k its growth table lists; checked before either builds a row.
# Cost is linear in k: `kostka lr-family --k 10000 --growth-to 10000` takes
# 0.2 s at 44 MB max RSS (34 MB of it the interpreter and imports) and
# prints 1.06 MB; --k 20000 took 0.37 s and 56 MB and printed 2.3 MB
# (2 vCPUs, Python 3.11.7, each in a fresh process).
FAMILY_CAP = 10_000

# Entries of user-supplied partitions/sequences must fit in a signed
# 64-bit integer so numpy paths never overflow.
INT_CAP = 2**63 - 1

# The Hilbert-basis slack scan (cone._covered) is chunked to keep peak
# memory flat: its chunks of slack rows and its uint64 word temporaries
# hold at most 2^CHUNK_BITS bytes each, or one word-padded row when that
# is wider.
CHUNK_BITS = 20
