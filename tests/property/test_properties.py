"""Property-based tests (hypothesis) on core data structures/invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.gf128 import gf_mult
from repro.ltl import DirectTransport, FaultModel, LtlEngine, connect_pair
from repro.ranking.dpf import (
    lcs_length,
    local_alignment_score,
    min_covering_window,
)
from repro.ranking.fsm import AhoCorasick
from repro.sim import Environment
from repro.sim.randomness import percentile
from tests.crypto.oneshot import ctr_crypt, gcm_decrypt, gcm_encrypt


# ---------------------------------------------------------------------------
# Crypto round-trips
# ---------------------------------------------------------------------------
@given(key=st.binary(min_size=16, max_size=16),
       block=st.binary(min_size=16, max_size=16))
@settings(max_examples=30, deadline=None)
def test_aes_decrypt_inverts_encrypt(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(key=st.binary(min_size=16, max_size=16),
       iv=st.binary(min_size=16, max_size=16),
       plaintext=st.binary(min_size=0, max_size=200))
@settings(max_examples=20, deadline=None)
def test_cbc_roundtrip(key, iv, plaintext):
    assert cbc_decrypt(key, iv, cbc_encrypt(key, iv, plaintext)) \
        == plaintext


@given(key=st.binary(min_size=16, max_size=16),
       nonce=st.binary(min_size=12, max_size=12),
       plaintext=st.binary(min_size=0, max_size=200),
       aad=st.binary(min_size=0, max_size=40))
@settings(max_examples=15, deadline=None)
def test_gcm_roundtrip(key, nonce, plaintext, aad):
    ct, tag = gcm_encrypt(key, nonce, plaintext, aad)
    assert gcm_decrypt(key, nonce, ct, tag, aad) == plaintext


@given(key=st.binary(min_size=16, max_size=16),
       counter=st.binary(min_size=16, max_size=16),
       data=st.binary(min_size=0, max_size=300))
@settings(max_examples=20, deadline=None)
def test_ctr_involution(key, counter, data):
    assert ctr_crypt(key, counter, ctr_crypt(key, counter, data)) == data


@given(data=st.binary(min_size=0, max_size=100))
@settings(max_examples=50, deadline=None)
def test_pkcs7_roundtrip(data):
    assert pkcs7_unpad(pkcs7_pad(data)) == data


@given(a=st.integers(min_value=0, max_value=(1 << 128) - 1),
       b=st.integers(min_value=0, max_value=(1 << 128) - 1),
       c=st.integers(min_value=0, max_value=(1 << 128) - 1))
@settings(max_examples=20, deadline=None)
def test_gf128_mult_properties(a, b, c):
    # Commutativity and distributivity over XOR (field addition).
    assert gf_mult(a, b) == gf_mult(b, a)
    assert gf_mult(a, b ^ c) == gf_mult(a, b) ^ gf_mult(a, c)


# ---------------------------------------------------------------------------
# Ranking DPs against brute force
# ---------------------------------------------------------------------------
@given(query=st.lists(st.integers(0, 4), min_size=1, max_size=4),
       doc=st.lists(st.integers(0, 4), min_size=0, max_size=12))
@settings(max_examples=50, deadline=None)
def test_min_window_against_bruteforce(query, doc):
    expected = None
    needed = set(query)
    for i in range(len(doc)):
        for j in range(i, len(doc)):
            if needed <= set(doc[i:j + 1]):
                window = j - i + 1
                if expected is None or window < expected:
                    expected = window
                break
    assert min_covering_window(query, doc) == expected


@given(query=st.lists(st.integers(0, 3), min_size=0, max_size=5),
       doc=st.lists(st.integers(0, 3), min_size=0, max_size=8))
@settings(max_examples=50, deadline=None)
def test_lcs_bounds(query, doc):
    length = lcs_length(query, doc)
    assert 0 <= length <= min(len(query), len(doc))


@given(query=st.lists(st.integers(0, 3), min_size=1, max_size=4),
       doc=st.lists(st.integers(0, 3), min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_alignment_non_negative_and_bounded(query, doc):
    score = local_alignment_score(query, doc, match=2.0)
    assert 0.0 <= score <= 2.0 * min(len(query), len(doc))


@given(patterns=st.lists(
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    min_size=1, max_size=4, unique_by=tuple),
    text=st.lists(st.integers(0, 3), min_size=0, max_size=30))
@settings(max_examples=50, deadline=None)
def test_aho_corasick_matches_naive(patterns, text):
    automaton = AhoCorasick(patterns)
    stats = automaton.scan(text)
    for index, pattern in enumerate(patterns):
        pattern = tuple(pattern)
        naive = sum(1 for i in range(len(text) - len(pattern) + 1)
                    if tuple(text[i:i + len(pattern)]) == pattern)
        assert stats.counts.get(index, 0) == naive


# ---------------------------------------------------------------------------
# Credit pools: conservation invariant
# ---------------------------------------------------------------------------
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 3)),
                    max_size=60),
       policy=st.sampled_from(["static", "elastic"]))
@settings(max_examples=50, deadline=None)
def test_credit_conservation(ops, policy):
    from repro.router.credits import make_credit_pool
    pool = make_credit_pool(policy, total_credits=12, num_vcs=4)
    held = {vc: 0 for vc in range(4)}
    for is_acquire, vc in ops:
        if is_acquire:
            if pool.try_acquire(vc):
                held[vc] += 1
        elif held[vc] > 0:
            pool.release(vc)
            held[vc] -= 1
    assert pool.in_use == sum(held.values())
    assert pool.in_use <= 12


# ---------------------------------------------------------------------------
# LTL: exactly-once in-order delivery under arbitrary fault rates
# ---------------------------------------------------------------------------
@given(drop=st.floats(0.0, 0.4), reorder=st.floats(0.0, 0.3),
       duplicate=st.floats(0.0, 0.3),
       num_messages=st.integers(1, 25),
       seed=st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_ltl_exactly_once_in_order(drop, reorder, duplicate,
                                   num_messages, seed):
    env = Environment()
    transport = DirectTransport(
        env, delay=1e-6, rng=random.Random(seed),
        faults=FaultModel(drop_probability=drop,
                          reorder_probability=reorder,
                          duplicate_probability=duplicate))
    a = LtlEngine(env, 0)
    b = LtlEngine(env, 1)
    transport.register(a)
    transport.register(b)
    conn_ab, _ = connect_pair(a, b)
    got = []
    b.on_message = lambda c, p, n: got.append(p)
    for i in range(num_messages):
        a.send_message(conn_ab, i, 64)
    env.run(until=1.0)
    assert got == list(range(num_messages))


# ---------------------------------------------------------------------------
# Elastic Router: no loss, per-VC order, for arbitrary traffic matrices
# ---------------------------------------------------------------------------
@given(traffic=st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1),
              st.integers(16, 200)),
    min_size=1, max_size=30))
@settings(max_examples=20, deadline=None)
def test_er_no_loss_and_per_flow_order(traffic):
    from repro.router import ElasticRouter
    env = Environment()
    router = ElasticRouter(env, num_ports=4, num_vcs=2,
                           credits_per_port=8)
    received = {}
    for port in range(4):
        router.set_endpoint(
            port, lambda m, p=port: received.setdefault(
                (m.payload[0], p, m.vc), []).append(m.payload[1]))
    sequence = {}
    for src, dst, vc, size in traffic:
        key = (src, dst, vc)
        sequence[key] = sequence.get(key, 0)
        router.send(src, dst, (src, sequence[key]), size, vc=vc)
        sequence[key] += 1
    env.run()
    delivered = sum(len(v) for v in received.values())
    assert delivered == len(traffic)
    # Per-(src, dst, vc) FIFO order. received is keyed (src, dst, vc)
    # because delivery happens at dst.
    for (src, dst, vc), seqs in received.items():
        expected = [i for i in range(len(seqs))]
        assert sorted(seqs) == seqs == expected or sorted(seqs) == seqs


# ---------------------------------------------------------------------------
# Percentile: order statistics sanity
# ---------------------------------------------------------------------------
@given(values=st.lists(st.floats(0, 1e6), min_size=1, max_size=100),
       q=st.floats(0, 100))
@settings(max_examples=50, deadline=None)
def test_percentile_within_range(values, q):
    data = sorted(values)
    p = percentile(data, q)
    assert data[0] <= p <= data[-1]


@given(values=st.lists(st.floats(0, 1e6), min_size=2, max_size=50))
@settings(max_examples=30, deadline=None)
def test_percentile_monotone_in_q(values):
    data = sorted(values)
    quantiles = [percentile(data, q) for q in (0, 25, 50, 75, 100)]
    assert quantiles == sorted(quantiles)
