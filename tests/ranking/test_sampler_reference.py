"""``WorkloadModel.sample`` against a reference written with ``max``/``min``,
``lognormvariate``, ``gauss`` and a keyword constructor.

The queue differential cannot see a change to the sampler, because both
of its sides draw work through the same ``sample()``.  Here every draw
must give equal :class:`QueryWork` fields and leave the generator in an
equal state, across seeds and across models that hit each clamp: at
least 10 documents, at least 30 terms per document, and 2 to 8 query
terms.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ranking.ffu import QueryWork, WorkloadModel


def reference_sample(model: WorkloadModel, rng: random.Random) -> QueryWork:
    num_docs = max(10, int(rng.lognormvariate(
        math.log(model.mean_docs), model.docs_sigma)))
    terms_per_doc = max(30, rng.lognormvariate(
        math.log(model.mean_terms_per_doc), model.terms_sigma))
    query_terms = max(2, min(8, int(rng.gauss(
        model.mean_query_terms, 0.9))))
    return QueryWork(num_docs=num_docs,
                     total_terms=int(num_docs * terms_per_doc),
                     query_terms=query_terms)


def assert_same_draws(model, seed, draws):
    """``draws`` samples from one seed agree field for field, and the
    generators agree after each."""
    new, old = random.Random(seed), random.Random(seed)
    works = []
    for _ in range(draws):
        got, want = model.sample(new), reference_sample(model, old)
        assert (got.num_docs, got.total_terms, got.query_terms,
                got.trace) == (want.num_docs, want.total_terms,
                               want.query_terms, want.trace)
        assert new.getstate() == old.getstate()
        works.append(got)
    return works


models = st.builds(
    WorkloadModel,
    # Means and spreads down to where most draws clamp.
    mean_docs=st.floats(1.0, 400.0),
    docs_sigma=st.floats(0.0, 1.5),
    mean_terms_per_doc=st.floats(2.0, 400.0),
    terms_sigma=st.floats(0.0, 1.5),
    mean_query_terms=st.floats(-1.0, 11.0),
)


@settings(max_examples=200, deadline=None)
@given(models, st.integers(0, 2 ** 32 - 1))
def test_sample_matches_reference(model, seed):
    assert_same_draws(model, seed, draws=20)


#: A model per clamp, with a test that its draws hit it.
CLAMPS = {
    "docs": (WorkloadModel(mean_docs=11.0, docs_sigma=0.5),
             lambda w: w.num_docs == 10),
    "terms": (WorkloadModel(mean_terms_per_doc=31.0, terms_sigma=0.4),
              lambda w: w.total_terms == 30 * w.num_docs),
    "few query terms": (WorkloadModel(mean_query_terms=2.2),
                        lambda w: w.query_terms == 2),
    "many query terms": (WorkloadModel(mean_query_terms=8.5),
                         lambda w: w.query_terms == 8),
}


@pytest.mark.parametrize("clamp", sorted(CLAMPS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_clamp_matches_reference(clamp, seed):
    model, clamped = CLAMPS[clamp]
    works = assert_same_draws(model, seed, draws=300)
    assert any(clamped(w) for w in works)


def test_default_model_matches_reference():
    assert_same_draws(WorkloadModel(), seed=1, draws=2000)
