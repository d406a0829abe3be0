"""E11 — §V-A: LTL reliability mechanics under injected faults.

Exercises the protocol text directly: "LTL provides a strong reliability
guarantee via an ACK/NACK based retransmission scheme ... Timeouts
trigger retransmission of unACKed packets ... NACKs are used to request
timely retransmission ... Timeouts can also be used to identify failing
nodes quickly.  The exact timeout value is configurable, and is
currently set to 50 usec."
"""

import random

from ..ltl import (
    DirectTransport,
    FaultModel,
    LtlConfig,
    LtlEngine,
    connect_pair,
)
from ..sim import Environment
from .harness import Table, claim

TITLE = "§V-A — LTL reliability under injected faults"

MESSAGES = 150
FAULT_GRID = [
    ("clean", FaultModel()),
    ("5% drop", FaultModel(drop_probability=0.05)),
    ("20% drop", FaultModel(drop_probability=0.20)),
    ("15% reorder", FaultModel(reorder_probability=0.15)),
    ("drop+reorder+dup", FaultModel(drop_probability=0.10,
                                    reorder_probability=0.10,
                                    duplicate_probability=0.10)),
]


def run_fault_grid():
    results = []
    for name, faults in FAULT_GRID:
        env = Environment()
        transport = DirectTransport(env, delay=1.5e-6, faults=faults,
                                    rng=random.Random(99))
        a, b = LtlEngine(env, 0), LtlEngine(env, 1)
        transport.register(a)
        transport.register(b)
        conn, _ = connect_pair(a, b)
        got = []
        b.on_message = lambda c, p, n: got.append(p)
        for i in range(MESSAGES):
            a.send_message(conn, i, 256)
        env.run(until=0.5)
        results.append({
            "name": name,
            "delivered": len(got),
            "in_order": got == list(range(MESSAGES)),
            "retransmissions": a.stats.retransmissions,
            "timeouts": a.stats.timeouts,
            "nacks": b.stats.nacks_sent,
            "duplicates_dropped": b.stats.duplicates_dropped,
        })
    return results


def run_failure_detection():
    """Times at which a sender declares its dead peer failed."""
    env = Environment()
    transport = DirectTransport(env, delay=1.5e-6, faults=FaultModel(
        drop_probability=1.0))
    config = LtlConfig(max_consecutive_timeouts=4)
    a = LtlEngine(env, 0, config=config)
    b = LtlEngine(env, 1, config=config)
    transport.register(a)
    transport.register(b)
    conn, _ = connect_pair(a, b)
    detected = []
    a.on_connection_failed = lambda cid, host: detected.append(env.now)
    a.send_message(conn, b"ping", 4)
    env.run(until=10e-3)
    return detected


def run():
    return run_fault_grid(), run_failure_detection()


def rows(result):
    grid, detected = result
    return [Table("§V-A — LTL under injected faults "
                  f"({MESSAGES} messages, 50 us timeout)",
                  ("fault model", "delivered", "in order", "retx",
                   "timeouts", "NACKs", "dups dropped"),
                  [(r["name"], r["delivered"], r["in_order"],
                    r["retransmissions"], r["timeouts"], r["nacks"],
                    r["duplicates_dropped"]) for r in grid]),
            f"dead peer detected after {detected[0] * 1e6:.0f} us (at the "
            f"5th consecutive timeout; the 50 us timeout backs off to "
            f"100 and 200 us)"]


def check(result) -> None:
    grid, detected = result
    for r in grid:
        claim('r["delivered"] == MESSAGES',
              'r["in_order"]')
    clean = grid[0]
    claim('clean["retransmissions"] == 0')
    drops = grid[2]
    claim('drops["retransmissions"] > 0')
    reorder = grid[3]
    claim('reorder["nacks"] > 0')
    # Failure detection within ~max_timeouts * (timeout + timer slack).
    claim("detected and detected[0] < 1e-3")
