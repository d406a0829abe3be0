"""Synthetic corpus and query workload.

Substitute for the proprietary Bing index/queries (see DESIGN.md): a
Zipfian vocabulary, documents as term-id sequences with a few "topics",
and queries drawn to overlap document topics so that relevance actually
varies.  Everything is deterministic given a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional


@dataclass
class Document:
    """A document: term ids plus static quality metadata."""

    doc_id: int
    terms: List[int]
    quality: float  # static rank signal in [0, 1]

    @property
    def length(self) -> int:
        return len(self.terms)


@dataclass
class Query:
    """A query: a short sequence of term ids."""

    query_id: int
    terms: List[int]


class ZipfSampler:
    """Draw term ids 0..vocab-1 with Zipf(s) frequencies."""

    def __init__(self, vocabulary_size: int, exponent: float = 1.07,
                 rng: Optional[random.Random] = None):
        if vocabulary_size < 1:
            raise ValueError("vocabulary must be non-empty")
        self.vocabulary_size = vocabulary_size
        self.exponent = exponent
        self.rng = rng or random.Random(0)
        weights = [1.0 / (rank + 1) ** exponent
                   for rank in range(vocabulary_size)]
        total = sum(weights)
        self._cumulative: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cumulative.append(acc)

    def sample(self) -> int:
        u = self.rng.random()
        lo, hi = 0, self.vocabulary_size - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo


class SyntheticCorpus:
    """Generator for documents and queries sharing topic structure.

    Topics are disjoint term ranges; a document mixes background Zipf
    terms with terms from its topic, and a query picks a topic plus a
    couple of focus terms, so documents on the query's topic score higher.
    """

    def __init__(self, vocabulary_size: int = 50_000, num_topics: int = 64,
                 seed: int = 0):
        self.vocabulary_size = vocabulary_size
        self.num_topics = num_topics
        self.seed = seed
        self._rng = random.Random(seed)
        self._zipf = ZipfSampler(vocabulary_size,
                                 rng=random.Random(seed ^ 0x5A17))
        self._doc_counter = 0
        self._query_counter = 0
        self._topic_span = vocabulary_size // num_topics

    def _topic_terms(self, topic: int) -> range:
        start = topic * self._topic_span
        return range(start, start + self._topic_span)

    def make_document(self, topic: Optional[int] = None,
                      mean_length: int = 300) -> Document:
        """One document; ~30% of terms come from its topic."""
        rng = self._rng
        if topic is None:
            topic = rng.randrange(self.num_topics)
        length = max(20, int(rng.lognormvariate(
            math.log(mean_length), 0.5)))
        topic_range = self._topic_terms(topic)
        terms = []
        for _ in range(length):
            if rng.random() < 0.3:
                terms.append(rng.choice(topic_range))
            else:
                terms.append(self._zipf.sample())
        doc = Document(doc_id=self._doc_counter, terms=terms,
                       quality=rng.betavariate(4, 4))
        self._doc_counter += 1
        return doc

    def make_query(self, topic: Optional[int] = None,
                   num_terms: Optional[int] = None) -> Query:
        rng = self._rng
        if topic is None:
            topic = rng.randrange(self.num_topics)
        if num_terms is None:
            num_terms = rng.choice((2, 2, 3, 3, 3, 4, 5))
        topic_range = self._topic_terms(topic)
        terms = [rng.choice(topic_range) for _ in range(num_terms)]
        query = Query(query_id=self._query_counter, terms=terms)
        self._query_counter += 1
        return query

    def make_result_set(self, query: Query, num_docs: int,
                        on_topic_fraction: float = 0.4) -> List[Document]:
        """Candidate documents for a query: a mix of on/off topic."""
        topic = query.terms[0] // self._topic_span
        docs = []
        for _ in range(num_docs):
            if self._rng.random() < on_topic_fraction:
                docs.append(self.make_document(topic=topic))
            else:
                docs.append(self.make_document())
        return docs
