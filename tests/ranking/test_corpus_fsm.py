"""Tests for the synthetic corpus and the FSM (Aho-Corasick) features."""

import pytest

from repro.ranking.corpus import SyntheticCorpus, ZipfSampler
from repro.ranking.fsm import AhoCorasick, query_patterns


class TestZipfSampler:
    def test_range(self):
        sampler = ZipfSampler(vocabulary_size=100)
        assert all(0 <= sampler.sample() < 100 for _ in range(500))

    def test_skew_toward_low_ranks(self):
        sampler = ZipfSampler(vocabulary_size=1000)
        draws = [sampler.sample() for _ in range(5000)]
        low = sum(1 for d in draws if d < 10)
        high = sum(1 for d in draws if d >= 500)
        assert low > high

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)


class TestSyntheticCorpus:
    def test_deterministic_given_seed(self):
        a = SyntheticCorpus(seed=5).make_document()
        b = SyntheticCorpus(seed=5).make_document()
        assert a.terms == b.terms and a.quality == b.quality

    def test_different_seeds_differ(self):
        a = SyntheticCorpus(seed=1).make_document()
        b = SyntheticCorpus(seed=2).make_document()
        assert a.terms != b.terms

    def test_document_ids_unique(self):
        corpus = SyntheticCorpus(seed=0)
        ids = {corpus.make_document().doc_id for _ in range(20)}
        assert len(ids) == 20

    def test_query_shape(self):
        corpus = SyntheticCorpus(seed=0)
        for _ in range(20):
            query = corpus.make_query()
            assert 2 <= len(query.terms) <= 5
            assert all(0 <= t < corpus.vocabulary_size
                       for t in query.terms)

    def test_on_topic_documents_contain_query_terms_more(self):
        corpus = SyntheticCorpus(seed=3)
        query = corpus.make_query(topic=5)
        on_topic = [corpus.make_document(topic=5) for _ in range(20)]
        off_topic = [corpus.make_document(topic=40) for _ in range(20)]
        qset = set(query.terms)

        def hits(docs):
            return sum(sum(1 for t in d.terms if t in qset) for d in docs)

        assert hits(on_topic) > hits(off_topic)

    def test_result_set_size(self):
        corpus = SyntheticCorpus(seed=0)
        query = corpus.make_query()
        docs = corpus.make_result_set(query, 15)
        assert len(docs) == 15


class TestAhoCorasick:
    def test_single_pattern_count(self):
        """'Count the number of occurrences of query term two.'"""
        automaton = AhoCorasick([(7,)])
        stats = automaton.scan([1, 7, 3, 7, 7, 2])
        assert stats.counts[0] == 3

    def test_multi_pattern(self):
        automaton = AhoCorasick([(1,), (2,), (1, 2)])
        stats = automaton.scan([1, 2, 1, 2, 3, 1])
        assert stats.counts[0] == 3   # term 1
        assert stats.counts[1] == 2   # term 2
        assert stats.counts[2] == 2   # bigram (1,2)

    def test_overlapping_matches(self):
        automaton = AhoCorasick([(1, 1)])
        stats = automaton.scan([1, 1, 1, 1])
        assert stats.counts[0] == 3

    def test_first_positions(self):
        automaton = AhoCorasick([(5,), (9,)])
        stats = automaton.scan([9, 1, 5, 9])
        assert stats.first_positions[0] == 2
        assert stats.first_positions[1] == 0

    def test_no_matches(self):
        automaton = AhoCorasick([(42,)])
        stats = automaton.scan([1, 2, 3])
        assert stats.counts == {}
        assert stats.scanned == 3

    def test_suffix_pattern_found_via_failure_links(self):
        # (2,3) is a suffix of a failed (1,2,3)-prefix walk.
        automaton = AhoCorasick([(1, 2, 4), (2, 3)])
        stats = automaton.scan([1, 2, 3])
        assert stats.counts.get(1, 0) == 1

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasick([()])

    def test_no_patterns_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasick([])

    def test_matches_against_naive_count(self):
        import random
        rng = random.Random(0)
        text = [rng.randrange(4) for _ in range(300)]
        patterns = [(0,), (1, 2), (2, 2), (0, 1, 2)]
        automaton = AhoCorasick(patterns)
        stats = automaton.scan(text)
        for index, pattern in enumerate(patterns):
            naive = sum(
                1 for i in range(len(text) - len(pattern) + 1)
                if tuple(text[i:i + len(pattern)]) == pattern)
            assert stats.counts.get(index, 0) == naive, pattern


class TestQueryPatterns:
    def test_unigrams_then_bigrams(self):
        patterns = query_patterns([1, 2, 3])
        assert patterns == [(1,), (2,), (3,), (1, 2), (2, 3)]

    def test_duplicates_removed(self):
        patterns = query_patterns([1, 1, 2])
        assert patterns == [(1,), (2,), (1, 1), (1, 2)]
