"""Time-relaxed MST — the first of the paper's future-work directions.

Scenario: vehicle 1 drives a fixed commute route A -> B every day
between 1:00 h and 2:00 h into the archive window.  Today the same
drive happened **40 minutes late**.  A strict (time-aligned) DISSIM
query comparing today's GPS log against the archive fails to rank
vehicle 1 first — at the delayed clock time the archived vehicle was
already parked at B.  The *time-relaxed* query slides the window,
recovers the match and reads off the delay.

Run:  python examples/time_relaxed_search.py
"""

import random

from repro import (
    Trajectory,
    TrajectoryDataset,
    dissim_exact,
    time_relaxed_kmst,
)

HOUR = 3600.0
WINDOW = 3.0 * HOUR  # archive covers 3 hours


def commute(object_id, depart, a=(1.0, 1.0), b=(9.0, 8.0), n=40):
    """Parked at A, drive A->B during [depart, depart+1h], parked at B.
    Sampled ``n`` times over the drive plus a few parked samples."""
    pts = [(a[0], a[1], 0.0)]
    for i in range(n):
        f = i / (n - 1)
        pts.append(
            (
                a[0] + f * (b[0] - a[0]),
                a[1] + f * (b[1] - a[1]),
                depart + f * HOUR,
            )
        )
    pts.append((b[0], b[1], WINDOW))
    return Trajectory(object_id, pts)


def wanderer(object_id, rng):
    pts = []
    x, y = rng.uniform(0, 10), rng.uniform(0, 10)
    for i in range(60):
        t = i / 59 * WINDOW
        x = min(max(x + rng.uniform(-0.4, 0.4), 0.0), 10.0)
        y = min(max(y + rng.uniform(-0.4, 0.4), 0.0), 10.0)
        pts.append((x, y, t))
    return Trajectory(object_id, pts)


def main() -> None:
    rng = random.Random(8)
    archive = TrajectoryDataset()
    archive.add(commute(1, depart=1.0 * HOUR))  # the scheduled run
    for oid in range(2, 11):
        archive.add(wanderer(oid, rng))

    # Today's log: the same drive, delayed 40 minutes, coarsely sampled.
    delay = 40.0 * 60.0
    today_full = commute(-1, depart=1.0 * HOUR + delay, n=12)
    today = today_full.sliced(1.0 * HOUR + delay, 2.0 * HOUR + delay)

    print("=== strict (time-aligned) DISSIM at today's clock time ===")
    strict = sorted(
        (dissim_exact(today, tr, (today.t_start, today.t_end)), tr.object_id)
        for tr in archive
    )
    for d, oid in strict[:3]:
        print(f"  object {oid:2d}  DISSIM = {d:9.1f}")
    rank_of_1 = [oid for _d, oid in strict].index(1) + 1
    print(
        f"vehicle 1 (the true match) ranks #{rank_of_1} — during today's "
        f"drive window the archived run was already parked at B."
    )

    print("\n=== time-relaxed k-MST ===")
    relaxed = time_relaxed_kmst(None, archive, today, k=3)
    results = [(m, relaxed.extras["shifts"][m.trajectory_id]) for m in relaxed.matches]
    for rank, (m, shift) in enumerate(results, start=1):
        print(
            f"  {rank}. object {m.trajectory_id:2d}  "
            f"min DISSIM = {m.dissim:9.2f}  at shift {shift:+7.0f} s"
        )
    best, best_shift = results[0]
    print(
        f"\nvehicle {best.trajectory_id} wins with a recovered shift of "
        f"{-best_shift:.0f} s ~ the {delay:.0f} s delay."
    )


if __name__ == "__main__":
    main()
