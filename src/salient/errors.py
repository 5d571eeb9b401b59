"""Shared exception types.

Exceeding a guard raises GuardExceeded (CLI exit code 2); nothing is ever
silently truncated. Each computation has one guard, checked in the function
that pays the cost it bounds. The exceptions: the domino sum of
series.multiset_count_cf keeps series.DOMINO_CAP (its transitions) and
series.DOMINO_LETTER_CAP (its letters), as its cost also follows the digits
of its integers; NaturalPoset.ideals_lattice keeps posets.ISO_SIZE
(elements) and posets.IDEAL_CAP (ideals), as its labels make it cost ideals
times elements; and the keyword of NaturalPoset.descent_vector counts
elements, not the extensions its kernel walks, and stays as perfbench passes
it as max_size. A guard is a keyword argument only where a caller sets it;
its DEFAULT_* constant is the keyword default and, for the two guards behind
the CLI's --limit, the value used without that flag. These keyword guards
are the orbit member cap posets.DEFAULT_ORBIT_CAP of classes.class_of,
classes.class_size, classes.class_partition and
classes.multiset_class_partition (class_of checks the class size against it,
and a partition its arrangement count before its normal-form search;
SALIENT_LIMIT_MB lowers it), the brute-force n cap
classes.DEFAULT_SINGLETON_BRUTE_N of classes.count_singletons, the size cap
posets.DEFAULT_DESCENT_SIZE of NaturalPoset.descent_vector, and the ideal
cap posets.DEFAULT_IDEAL_WALK of NaturalPoset.extension_count, which
class_size sets to the member cap. NaturalPoset.ideal_size_profile walks the
ideals under the same default, and NaturalPoset.linear_extensions checks the
extension count against the member cap. Every other guard is a fixed module
constant: posets.ISO_SIZE (the canonical form,
posets.canonical_relation_key), posets.FLAG_TABLE_BITS (the chain-count
table of the flag vectors, which bounds their rank), posets.NATURAL_SWEEP
(the labelled sweep) and posets.ISO_SWEEP (the isomorphism-class sweep
behind posets.all_posets_up_to_iso and posets.all_bounded_graded_posets);
series.CF_BOX_CAP (the exponent box of series.cf_series) and
series.PROFILE_CAP (the profile sums of series.c_poly and so of
series.g_umbral_series); mfenum.MAX_RANK and mfenum.MAX_ELEMENTS (the level
words, the distributive family included); and classes.DEFAULT_BRUTE_N
(classes.count_classes_brute). Malformed input, a negative size or bound
included, raises DomainError (CLI exit code 1).
"""


class SalientError(Exception):
    """Base class for all package errors."""


class DomainError(SalientError, ValueError):
    """Invalid input value: bad word, malformed gamma word, and so on."""


class GuardExceeded(SalientError):
    """A size or limit guard was exceeded."""


class OrbitOverflowError(GuardExceeded):
    """An orbit, or the heap ideals or arrangements that bound it, exceeds
    the member cap."""


class InternalConsistencyError(SalientError):
    """A cross-checkable identity failed inside the library itself."""
