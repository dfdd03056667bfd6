"""Shared pytest setup.

``helpers.py`` holds the oracle checks that many test modules call, such
as ``check_built_group`` and ``check_group_table``.  pytest rewrites the
asserts of test modules only, and ``python -O`` strips any assert that is
not rewritten, so the helpers are registered for rewriting here, before
any test module imports them: their checks then hold under ``-O`` too.
"""

import pytest

pytest.register_assert_rewrite("helpers")
