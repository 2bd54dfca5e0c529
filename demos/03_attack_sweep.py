"""Sweep the attack ratio and compare controllers on per-k medians.

Runs the static baseline and the adaptive controller across k in
{0.5, 1, 1.5, 2} with several seeds each, then prints median Ploss / Pr / Pa
and the controller's arrival-weighted mean parameters per cell.  This is the
same grid the acceptance suite uses (with fewer seeds so it runs quickly).
"""

import csv
import io
import statistics

from synsim.domain import SimConfig, TrafficModel
from synsim.harness import SweepSpec, run_sweep

K_VALUES = (0.5, 1.0, 1.5, 2.0)
SEEDS = tuple(range(5))


def main():
    spec = SweepSpec(
        base_config=SimConfig(master_seed=0, total_requests=50000,
                              window_size=500,
                              traffic=TrafficModel(lambda1=10, k=1, mu=100)),
        k_values=K_VALUES, seeds=SEEDS, controllers=("static", "la"))
    print(f"running {len(K_VALUES) * len(SEEDS) * 2} simulations ...")
    rows = list(csv.DictReader(io.StringIO(run_sweep(spec))))

    header = f"{'k':>4} {'controller':>10} {'Ploss':>8} {'Pr':>8} {'Pa':>8} {'mean_h':>8} {'mean_m':>8}"
    print(header)
    print("-" * len(header))
    med = {}
    for k in K_VALUES:
        for ctrl in ("static", "la"):
            sel = [r for r in rows
                   if float(r["k"]) == k and r["controller"] == ctrl]
            m = med[k, ctrl] = {f: statistics.median(float(r[f]) for r in sel)
                                for f in ("Ploss", "Pr", "Pa", "mean_h", "mean_m")}
            print(f"{k:>4} {ctrl:>10} {m['Ploss']:8.4f} {m['Pr']:8.4f} "
                  f"{m['Pa']:8.4f} {m['mean_h']:8.2f} {m['mean_m']:8.1f}")

    wins = [k for k in K_VALUES
            if med[k, "la"]["Ploss"] < med[k, "static"]["Ploss"]
            and med[k, "la"]["Pa"] < med[k, "static"]["Pa"]
            and med[k, "la"]["Pr"] > med[k, "static"]["Pr"]]
    print()
    print("The adaptive medians beat the static ones on all three metrics (lower")
    print(f"Ploss and Pa, higher Pr) at {len(wins)} of {len(K_VALUES)} attack ratios"
          f"{': k = ' + ', '.join(map(str, wins)) if wins else ''}.")
    print("The la rows' mean_h and mean_m show where the tuner settles.  A window")
    print("is favorable when it blocks fewer arrivals than the previous one or,")
    print("blocking as many, has a larger regular share; the heavier the attack,")
    print("the fewer (h, m) pairs block nothing, and those have short holds and")
    print("large capacities.  With five seeds per k the steps between neighbouring")
    print("k are within seed noise; acceptance criterion 7 checks the trend on ten.")


if __name__ == "__main__":
    main()
