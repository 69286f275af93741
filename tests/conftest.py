"""Test configuration: a fixed hypothesis profile.

The profile derandomizes the property tests, keeps no example database and
drops the per-example deadline, which a loaded machine can miss.
Hypothesis also caches the constants it finds in local source files; that
cache goes to the temporary directory, so no `.hypothesis/` directory is
written into the tree.
"""

import tempfile
from pathlib import Path

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # tests/test_properties.py skips itself without hypothesis
    pass
else:
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "trtc-hypothesis")
    settings.register_profile("trtc", derandomize=True, database=None, deadline=None)
    settings.load_profile("trtc")
