"""The verdicts of the 59,049 symmetric forms over F_3^4.

Too slow for tier-1, so pytest does not collect it; it runs the count of
``test_census.one_form_counts`` on one form with the trivial involution
at sign +1, and exits 0 when the counts hold: no form is stable, since a
quadratic form in four variables over F_3 has an isotropic line; the
37,908 = N(4) nonsingular forms (``oracles.nondegenerate_symmetric_count``)
are strictly semistable; and the other 21,141 are unstable.

Run it from the repository root, with the package importable:

    PYTHONPATH=src python tests/census_f3_forms.py
"""

import sys

from oracles import anisotropic_symmetric_count, nondegenerate_symmetric_count
from test_census import one_form_counts


def main() -> int:
    found = one_form_counts(3, 4)
    print(f"F_3^4 one-form counts: {found[0]} stable, {found[1]} strictly semistable, {found[2]} unstable")
    nonsingular = nondegenerate_symmetric_count(3, 4)
    expected = (anisotropic_symmetric_count(3, 4), nonsingular, 3**10 - nonsingular)
    return 0 if found == expected == (0, 37_908, 21_141) else 1


if __name__ == "__main__":
    sys.exit(main())
