"""Shared test settings.

Hypothesis draws its examples from a fixed seed and keeps no example
database, and no example has a deadline, so the property tests run the
same examples on every machine and every run.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("repeatable", derandomize=True, deadline=None, database=None)
    settings.load_profile("repeatable")
