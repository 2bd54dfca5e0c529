"""Check the simulator against the closed-form loss-system steady state.

Under a fixed (h, m) the backlog is a two-class Erlang loss system in both
hold modes, and its steady state depends on each class's mean holding time
only.  So Ploss = erlang_b(m, a1 + a2), Pr = a1 (1 - B) / m and
Pa = a2 (1 - B) / m are exact, whether holds are exponential or fixed.
These are the sim checks of `synsim validate`, each case at its full length.
"""

from synsim.harness import sim_checks
from synsim.oracle import ORACLE_CASES


def main():
    for case, check in zip(ORACLE_CASES, sim_checks()):
        config = case.config
        t, p = config.traffic, config.initial_params
        print(f"=== {case.name} ===")
        print(f"{config.hold_mode} hold, lambda1={t.lambda1:g}, k={t.k:g}, "
              f"mu={t.mu:g}, h={p.h:g}, m={p.m}, "
              f"{config.total_requests} arrivals")
        print(f"  simulated {check.observed}")
        print(f"  exact     {check.expected}")
        print(f"  {'PASS' if check.passed else 'FAIL'}")
        print()


if __name__ == "__main__":
    main()
