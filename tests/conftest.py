"""Hypothesis profiles.

`tier1`, loaded by default, draws the same examples on every run, so
Tier-1 passes or fails with the code, not with the draw.  `explore` draws
fresh random examples, more of them where a test sets no count of its own;
run it with `pytest --hypothesis-profile=explore`, and pin each failure it
finds as an `@example`.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", max_examples=500)
settings.load_profile("tier1")
