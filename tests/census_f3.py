"""The orbit census of the 19,683 swap modules over F_3^3 at sign +1.

Too slow for tier-1, so pytest does not collect it; it runs the check of
``test_census.check_census`` and exits 0 when the census holds: 25 GL_3
orbits, as many as Burnside's lemma counts (``check_census`` asserts
it), whose class equation sums |GL_3(F_3)| = 11,232 over |Aut| to the
19,683 modules, and 8 S-classes among the 14 semistable orbits.  On
each orbit ``check_census`` also compares the sweep with the flag sweep
at weight bounds 0 to 3.

Run it from the repository root, with the package importable:

    PYTHONPATH=src python tests/census_f3.py
"""

import sys

from oracles import general_linear_order
from test_census import Census, check_census


def main() -> int:
    found = check_census(3, 3, True, 1)
    print(f"F_3^3 swap census: {found}")
    expected = Census(modules=19_683, orbits=25, semistable=14, s_classes=8)
    return 0 if found == expected and general_linear_order(3, 3) == 11_232 else 1


if __name__ == "__main__":
    sys.exit(main())
