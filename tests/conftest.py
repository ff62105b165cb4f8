"""Hypothesis settings for the whole suite.

The `tier1` profile derives each property test's examples from the test
itself (`derandomize=True`, which also keeps no example database), so
every run of the suite tries the same inputs and a failure shows again on
the next run.  Each test's own `max_examples` stays as written.  To draw
fresh examples instead, run pytest with `--hypothesis-profile=default`.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
