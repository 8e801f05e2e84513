"""Properties over the point sets of tests/strategies.py."""

import numpy as np
from hypothesis import given, settings

from neardelaunay.aggregate import best_triangulation, optimize
from neardelaunay.metrics import METRICS, Evaluator, ScoreOrientation
from neardelaunay.triangulation import triangulation_table

from strategies import point_sets, search_queries

# Deterministic: the same examples on every run, no example database and
# no deadline, since a first call may build a table.
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@DETERMINISTIC
@given(point_sets())
def test_fill_equals_element_value(ps):
    # Evaluator.fill screens in one batch where element_value scans one
    # element at a time: every value must agree to the bit, and every
    # bound in place of a value must be no worse than it.
    table = triangulation_table(ps)
    for m in METRICS:
        ids, element = table.element_ids(m.decomposition)
        keys = [element(e) for e in np.unique(ids).tolist()]
        scalar = Evaluator(ps)
        want = [scalar.element_value(m.name, key) for key in keys]
        values, exact = Evaluator(ps).fill(m.name, keys)
        assert exact.all() and values.tolist() == want, m.name
        values, exact = Evaluator(ps).fill(m.name, keys, bound=True)
        higher = m.orientation is ScoreOrientation.HIGHER_BETTER
        for key, got, ok, value in zip(keys, values.tolist(), exact.tolist(), want):
            if ok:
                assert got == value, (m.name, key)
            else:
                assert (got >= value) if higher else (got <= value), (m.name, key)


@DETERMINISTIC
@given(search_queries())
def test_warm_evaluator_matches_fresh(case):
    # optimize keeps one evaluator per point set, so each query's sum search
    # starts from the values and bounds the earlier queries left in its
    # caches; it must pick the row a fresh evaluator picks.
    ps, queries = case
    for constraint, metric, mode in queries:
        got = optimize(ps, constraint, metric, mode)
        want = best_triangulation(Evaluator(ps), constraint, metric, mode)
        assert (got and got.triangles) == (want and want.triangles), (constraint, metric, mode)
