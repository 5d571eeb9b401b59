"""Exact enumeration of adjacent-interchange equivalence classes on
permutations and multisets, the associated commutation-monoid generating
functions, and the classification of graded posets with multiplicity-free
flag h-vectors.

All arithmetic is exact (ints and Fractions). The hot enumeration kernels
run through a small compiled extension when it was built, with a
pure-Python fallback selected automatically at import; see
salient._kernels.BACKEND for the active one.
"""

from salient._kernels import BACKEND as KERNEL_BACKEND
from salient.classes import (EquivalenceClass, class_of, class_partition,
                             class_size, count_classes_brute,
                             count_singletons, f_inclusion_exclusion,
                             f_j_count, f_series, multiset_class_partition,
                             salient_representative, segment_decomposition,
                             singleton_series)
from salient.errors import (DomainError, GuardExceeded,
                            InternalConsistencyError, OrbitOverflowError,
                            SalientError)
from salient.posets import (GradedPoset, NaturalPoset, are_isomorphic,
                            lattice_from_gamma, q_from_commuting_word,
                            q_from_gamma)
from salient.series import (TruncatedSeries, cf_series, expand_rational,
                            f4_coefficient, f4_t_coefficient, g_umbral_series,
                            multiset_count_cf, phi)
from salient.words import (MultisetSpec, Word, descent_set, fibonacci,
                           is_salient, sparse_subsets)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND", "Word", "MultisetSpec", "EquivalenceClass",
    "GradedPoset", "NaturalPoset", "TruncatedSeries",
    "SalientError", "DomainError", "GuardExceeded", "OrbitOverflowError",
    "InternalConsistencyError",
    "descent_set", "is_salient", "sparse_subsets", "fibonacci",
    "class_of", "class_partition", "class_size", "salient_representative",
    "segment_decomposition", "count_classes_brute", "f_inclusion_exclusion",
    "f_series", "count_singletons", "singleton_series", "f_j_count",
    "multiset_class_partition",
    "cf_series", "multiset_count_cf", "f4_coefficient", "f4_t_coefficient",
    "phi", "g_umbral_series", "expand_rational",
    "are_isomorphic", "lattice_from_gamma", "q_from_gamma",
    "q_from_commuting_word",
]
