"""The benchmark's own arithmetic: medians, tails, spreads, ratios.

Kept free of any ``repro`` import so ``perfbench/selftest.py`` can pin
every rule here without building a browser.
"""

#: A tail percentile needs at least this many samples strictly beyond it.
TAIL_MIN_BEYOND = 10


def median(values):
    """The middle value (mean of the two middle values for even n)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def tail_percentile(count):
    """The highest nearest-rank percentile with at least
    TAIL_MIN_BEYOND of ``count`` samples beyond it: rank
    ``count - TAIL_MIN_BEYOND``. None when there are too few samples
    for that rank to reach the median."""
    rank = count - TAIL_MIN_BEYOND
    if rank < 1 or rank * 2 < count:
        return None
    return 100.0 * rank / count


def tail(values):
    """``(value, percentile, sample_count)`` for the tail rule: the
    value with exactly TAIL_MIN_BEYOND samples above it in rank.

    Raises ValueError when the samples are too few for even the median
    to have ten beyond it: a tail from a handful of samples is not a
    tail.
    """
    pct = tail_percentile(len(values))
    if pct is None:
        raise ValueError("%d samples: too few for a tail with %d beyond"
                         % (len(values), TAIL_MIN_BEYOND))
    ordered = sorted(values)
    return ordered[len(ordered) - TAIL_MIN_BEYOND - 1], pct, len(ordered)


def block_tail(values, block):
    """The tail rule applied to each run of ``block`` consecutive
    samples, then the median over those blocks.

    Returns ``(value, percentile, block, blocks)``. Every block has the
    same size, so the percentile is fixed by the workload rather than by
    how many samples a run happened to collect, and one rare stall (a
    preempted process, one long collection) moves one block's tail, not
    the run's. A partial block at the end is left out.
    """
    blocks = [values[start:start + block]
              for start in range(0, len(values) - block + 1, block)]
    if not blocks:
        raise ValueError("%d samples: fewer than one block of %d"
                         % (len(values), block))
    tails = [tail(chunk) for chunk in blocks]
    return median([t[0] for t in tails]), tails[0][1], block, len(blocks)


def best_of(repetitions, keys=None):
    """Position by position, the least value over repetitions of the
    same work: ``best_of([[3, 5], [4, 2]]) == [3, 2]``.

    Every repetition must measure the same positions (the same traces or
    commands, in the same order). A slow spell of the host stretches the
    samples it overlaps; the least value over the repetitions is the one
    the host disturbed least, as ``timeit`` reports its best repeat.
    With ``keys`` (one per position), positions that share a key do the
    same work, and each gets the least value over all of them.
    """
    if not repetitions:
        raise ValueError("best of no repetitions")
    width = len(repetitions[0])
    if any(len(row) != width for row in repetitions):
        raise ValueError("repetitions measure different numbers of "
                         "positions: %s" % sorted({len(r) for r in repetitions}))
    best = [min(column) for column in zip(*repetitions)]
    if keys is None:
        return best
    least = {}
    for key, value in zip(keys, best):
        least[key] = min(value, least.get(key, value))
    return [least[key] for key in keys]


def failure_ratio(failed, attempted):
    """Share of attempted operations that failed (0 with none attempted
    would hide a broken run, so that raises)."""
    if attempted <= 0:
        raise ValueError("no operations attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed=%d outside 0..attempted=%d"
                         % (failed, attempted))
    return failed / attempted
