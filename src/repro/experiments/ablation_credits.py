"""A1 — ablation: elastic vs static credit allocation in the ER (§V-B).

"Unlike a conventional router that allocates a static number of flits
per VC, the ER supports an elastic policy that allows a pool of credits
to be shared among multiple VCs, which is effective in reducing the
aggregate flit buffering requirements."

One hot VC bursts through a contended output while the other VCs idle,
at several total-buffering budgets.  The elastic policy needs a smaller
buffer budget to reach the same injection performance.
"""

from ..router import ElasticRouter
from ..sim import Environment
from .harness import Table, claim, fmt

TITLE = "elastic vs static ER credits (§V-B)"

BUDGETS = (8, 12, 16, 24)
MESSAGES = 40


def run_one(policy: str, credits_per_port: int):
    env = Environment()
    router = ElasticRouter(env, num_ports=4, num_vcs=4,
                           credit_policy=policy,
                           credits_per_port=credits_per_port)
    router.set_endpoint(3, lambda m: None)
    # Background flows keep output 3 contended.
    for _ in range(MESSAGES):
        router.send(1, 3, "bg", 128, vc=1)
        router.send(2, 3, "bg", 128, vc=2)
    hot_done = []

    def hot():
        """Send one hot message; the next goes once it is buffered."""
        router.send(0, 3, "hot", 128, vc=0, on_sent=sent)

    def sent():
        hot_done.append(env.now)
        if len(hot_done) < MESSAGES:
            hot()

    env.call_later(0.0, hot)
    env.run()
    return {
        "policy": policy,
        "credits": credits_per_port,
        "stall_cycles": router.stats.injection_stall_cycles,
        "hot_handoff_mean_us": 1e6 * sum(hot_done) / len(hot_done),
        "total_time_us": 1e6 * env.now,
    }


def run():
    return [run_one(policy, budget)
            for budget in BUDGETS
            for policy in ("static", "elastic")]


def rows(result):
    return [Table(
        "A1 — elastic vs static credits (hot VC on contended output)",
        ("policy", "credits/port", "inject stalls", "hot handoff us",
         "total us"),
        [(r["policy"], r["credits"], r["stall_cycles"],
          fmt(r["hot_handoff_mean_us"]), fmt(r["total_time_us"]))
         for r in result])]


def check(result) -> None:
    by_key = {(r["policy"], r["credits"]): r for r in result}
    # At every budget, elastic stalls less and hands the burst off
    # sooner.
    for budget in BUDGETS:
        static = by_key[("static", budget)]
        elastic = by_key[("elastic", budget)]
        claim('elastic["stall_cycles"] <= static["stall_cycles"]',
              'elastic["hot_handoff_mean_us"] < '
              'static["hot_handoff_mean_us"]')
    # The buffering-reduction claim: elastic at the smallest budget
    # performs at least as well as static at twice the budget.
    claim('by_key[("elastic", 8)]["hot_handoff_mean_us"] <= '
          'by_key[("static", 16)]["hot_handoff_mean_us"] * 1.05')
