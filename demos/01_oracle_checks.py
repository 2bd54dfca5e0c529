"""Check the simulator against the closed-form loss-system steady state.

Under a fixed (h, m) the backlog is a two-class Erlang loss system in both
hold modes, and its steady state depends on each class's mean holding time
only.  So Ploss = erlang_b(m, a1 + a2), Pr = a1 (1 - B) / m and
Pa = a2 (1 - B) / m are exact, whether holds are exponential or fixed.
Each oracle case runs at its full length, as in `synsim validate`.
"""

from synsim.engine import run_simulation
from synsim.oracle import ORACLE_CASES, steady_state


def main():
    for case in ORACLE_CASES:
        config = case.config
        t, p = config.traffic, config.initial_params
        print(f"=== {case.name} ===")
        print(f"{config.hold_mode} hold, lambda1={t.lambda1:g}, k={t.k:g}, "
              f"mu={t.mu:g}, h={p.h:g}, m={p.m}, "
              f"{config.total_requests} arrivals")
        got = run_simulation(config).cumulative
        want = steady_state(config)
        for name in ("Ploss", "Pr", "Pa"):
            g, w = getattr(got, name), getattr(want, name)
            print(f"  {name:5s} simulated {g:.5f}  exact {w:.5f}"
                  f"  (|diff| = {abs(g - w):.5f}, tolerance {case.tol:g})")
        print()


if __name__ == "__main__":
    main()
