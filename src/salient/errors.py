"""Shared exception types.

Exceeding a guard raises GuardExceeded (CLI exit code 2); nothing is ever
silently truncated. Each computation has one guard, checked in the function
that pays the cost it bounds. A guard is a keyword argument only where a
caller sets it. Its DEFAULT_* constant is the keyword default and, for the
three guards behind the CLI's --limit, the value used without that flag.
These keyword guards are the orbit member cap of classes.class_of,
classes.class_size, classes.class_partition and
classes.multiset_class_partition (class_size checks the order ideals of the
word's heap against it, class_of the class size, and a partition its
arrangement count before its normal-form search, which bounds the classes it
lists; SALIENT_LIMIT_MB lowers it), the
brute-force n cap of classes.count_singletons, and the size caps of
NaturalPoset.extension_count (on the CLI) and NaturalPoset.descent_vector.
Every other guard is a fixed module constant: posets.ISO_SIZE (the canonical
form, posets.canonical_relation_key, and the ideal lattice),
posets.IDEAL_CAP, posets.EXTENSION_LIST_SIZE, posets.FLAG_RANK,
posets.NATURAL_SWEEP (the labelled sweep) and posets.ISO_SWEEP (the
isomorphism-class sweep behind posets.all_posets_up_to_iso and
posets.all_bounded_graded_posets); series.CF_BOX_CAP (the exponent box of
series.cf_series), series.DOMINO_CAP and series.DOMINO_LETTER_CAP (the
transitions and the letters of the domino sum of series.multiset_count_cf)
and series.PROFILE_CAP (the profile sums of series.c_poly and so of
series.g_umbral_series);
mfenum.MAX_RANK and mfenum.MAX_ELEMENTS (the level words, the distributive
family included). classes.count_classes_brute keeps to
classes.DEFAULT_BRUTE_N. Malformed input, a negative size or bound included,
raises DomainError (CLI exit code 1).
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
