"""Static defaults vs the adaptive controller under a 1:1 SYN flood.

The static backlog (h=75s, m=128) was tuned for benign traffic: with an
attack stream matching the regular rate, entries that never complete pile up
for 75 seconds each and the backlog saturates almost immediately.  The
adaptive controller discovers that short hold times keep the backlog usable.
"""

from synsim.domain import SimConfig, TrafficModel
from synsim.engine import run_simulation


def describe(tag, report):
    c = report.cumulative
    print(f"--- {tag} ---")
    print(f"  blocked fraction   Ploss = {c.Ploss:.4f}")
    print(f"  regular share      Pr    = {c.Pr:.4f}")
    print(f"  attack share       Pa    = {c.Pa:.4f}")
    print(f"  objective          J     = {c.J:.3g}")
    final = report.param_trajectory[-1]
    print(f"  final params       h = {final.h}, m = {final.m}")
    print()


def main():
    traffic = TrafficModel(lambda1=10, k=1.0, mu=100)
    print(f"traffic: lambda1={traffic.lambda1}/s, attack ratio k={traffic.k}, "
          f"mu={traffic.mu}/s, 50000 arrivals\n")
    for kind in ("static", "la"):
        config = SimConfig(master_seed=3, controller_kind=kind,
                           traffic=traffic, total_requests=50000,
                           window_size=500)
        describe(kind, run_simulation(config))

    print("The static run blocks most arrivals because dead entries occupy")
    print("the backlog for 75 s each; the controller instead settles on a")
    print("hold time an order of magnitude shorter and blocks about one")
    print("arrival in twenty.")


if __name__ == "__main__":
    main()
