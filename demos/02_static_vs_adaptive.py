"""Static defaults vs the adaptive controller under a 1:1 SYN flood.

The static backlog (h=75s, m=128) was tuned for benign traffic: with an
attack stream matching the regular rate, entries that never complete pile up
for 75 seconds each and the backlog saturates almost immediately.  The
adaptive controller discovers that short hold times keep the backlog usable.
"""

from synsim.domain import SimConfig, TrafficModel
from synsim.engine import run_simulation


def describe(tag, report):
    """Print a run's report; returns its blocked fraction and mean hold time."""
    c = report.cumulative
    trajectory = report.param_trajectory
    mean_h = sum(p.h for p in trajectory) / len(trajectory)
    print(f"--- {tag} ---")
    print(f"  blocked fraction   Ploss = {c.Ploss:.4f}")
    print(f"  regular share      Pr    = {c.Pr:.4f}")
    print(f"  attack share       Pa    = {c.Pa:.4f}")
    print(f"  objective          J     = {c.J:.3g}")
    print(f"  mean hold time     h = {mean_h:.1f}")
    final = trajectory[-1]
    print(f"  final params       h = {final.h}, m = {final.m}")
    print()
    return c.Ploss, mean_h


def main():
    traffic = TrafficModel(lambda1=10, k=1.0, mu=100)
    print(f"traffic: lambda1={traffic.lambda1}/s, attack ratio k={traffic.k}, "
          f"mu={traffic.mu}/s, 50000 arrivals\n")
    (static_ploss, static_h), (la_ploss, la_h) = (
        describe(kind, run_simulation(SimConfig(master_seed=3, controller_kind=kind,
                                                traffic=traffic, total_requests=50000,
                                                window_size=500)))
        for kind in ("static", "la"))

    print(f"The static run blocks {static_ploss:.1%} of arrivals because dead entries")
    print(f"occupy the backlog for {static_h:g} s each; the controller holds entries")
    print(f"for {la_h:.1f} s on average, {static_h / la_h:.0f} times shorter, and blocks")
    print(f"{la_ploss:.1%} of arrivals.")


if __name__ == "__main__":
    main()
