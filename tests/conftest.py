"""Hypothesis profiles for the test suite.

The suite loads "fixed": every run draws the same examples
(derandomize=True) and no example database carries failures from one
run into the next, so a pass or a failure depends only on the code.
"randomized" draws fresh examples each run and keeps failing ones in
.hypothesis/; run it by hand to look for inputs the fixed draws miss:

    pytest tests --hypothesis-profile=randomized

A per-test @settings(max_examples=...) holds under either profile.
"""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("fixed")
