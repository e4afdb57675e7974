"""The machine's momentary speed, read from a fixed reference loop.

On a shared host the CPU runs at anywhere from about 1x to 2x its slowest
speed, in states that last from under a second to minutes (see README).
Wall times read straight off such a host move with those states more than
with the code.  So the benchmark times this fixed loop right before and
right after every command, and rescales the command's wall time to the
speed at which the loop takes ``REFERENCE_S``:

    rescaled = wall * REFERENCE_S / mean(loop times around the command)

(``rescale`` says which loop times count as around it.)

The loop touches nothing of repeaterlab.  A change to the library moves
the command's time and leaves the loop's, so it shows in full; a change in
the host's speed moves both, and largely cancels (the README says how far).
The loop mixes the kinds of work the commands do: small numpy linear
algebra, a pass over a 1 MiB array, float arithmetic in the interpreter and
JSON serialization of [re, im] pairs.
"""

from __future__ import annotations

import bisect
import json
import time

import numpy as np

# The loop's median time on the reference machine (see README); rescaled
# times read as wall times on that machine at its median speed.
REFERENCE_S = 0.6e-3
# The loop is timed this many times in a row and the fastest is kept: within
# a millisecond the host's speed holds, and the fastest leaves out a cold
# cache or an interrupt.
REPEATS = 3
# Least reach of the window of samples that rescales a command (see rescale):
# long enough to average many samples, short next to the swings of speed
# that last around a second.
REACH_S = 0.25

_SYM = np.random.default_rng(0).standard_normal((8, 8))
_SYM = _SYM + _SYM.T
_ARRAY = np.random.default_rng(1).standard_normal(1 << 17)  # 1 MiB
_PAIRS = np.random.default_rng(2).standard_normal((200, 2)).tolist()


def _loop() -> float:
    acc = 0.0
    for _ in range(4):
        acc += float(np.linalg.eigvalsh(_SYM)[-1])
        acc += float((_SYM @ _SYM)[0, 0])
    acc += float(_ARRAY.sum())
    for i in range(400):
        acc += i * 0.5
    acc += len(json.dumps(_PAIRS))
    return acc


def loop_seconds() -> float:
    """Time of one pass of the reference loop, now."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def rescale_one(wall_s: float, loops_s: list[float]) -> float:
    """`wall_s` rescaled by the loop times `loops_s` taken around it."""
    return wall_s * REFERENCE_S * len(loops_s) / sum(loops_s)


def rescale(commands: list[tuple[float, float, int]],
            samples: list[tuple[float, float]]) -> list[float]:
    """Wall times of commands, rescaled to the reference speed.

    `samples` are (time, loop seconds) in time order; a command is (start,
    wall, i), with samples i and i + 1 taken right before and right after
    it.  The host's speed swings within a second, so a command lasting a
    second or more runs at the speed averaged over its span, not at the
    speed of its two ends; and a single 2 ms sample is itself noisy.  Each
    command is therefore rescaled by the mean loop time over a window
    reaching as far before its start and after its end as it lasts itself,
    but at least REACH_S, and always holding its own two samples.
    """
    times = [t for t, _ in samples]
    loops = [loop for _, loop in samples]
    out = []
    for start, wall, i in commands:
        reach = max(wall, REACH_S)
        lo = min(i, bisect.bisect_left(times, start - reach))
        hi = max(i + 2, bisect.bisect_right(times, start + wall + reach))
        out.append(rescale_one(wall, loops[lo:hi]))
    return out
