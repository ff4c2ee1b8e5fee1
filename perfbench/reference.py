"""How fast the machine is right now, from a fixed pure-Python workload.

A shared host drifts: on a 2-vCPU virtual machine the same run of the
same code took 48 ms per action at one time and 85 ms a few minutes
later, and pure-Python code of every kind slowed by about the same
share.  Timings are therefore reported at a reference speed: while a
run measures its load, it also times a reference loop that belongs to
the benchmark, not the program (an x-only Montgomery ladder on plain
Python integers, the same kind of interpreter work the simulator does),
and scales its own timings by how much slower or faster than
``REFERENCE_UNIT_S`` that loop ran.  The raw timings are printed beside
the scaled ones.

A change to the program cannot move the reference loop, so it moves the
scaled timings exactly as it moves the raw ones.
"""

from __future__ import annotations

import threading
import time

#: Nominal time of one reference unit; a scaled timing is what the run
#: would have taken on a machine that runs one unit in this long.
REFERENCE_UNIT_S = 1e-3

_P = 19399379  # the CSIDH-mini prime; the loop only needs a field
_A24 = 5
_X = 7
_K = (1 << 600) - 12345


class _Field:
    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        self.p = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def sqr(self, a: int) -> int:
        return a * a % self.p


def _unit() -> tuple[int, int]:
    """One reference unit: a 600-bit x-only Montgomery ladder."""
    field = _Field(_P)
    x2, z2, x3, z3 = 1, 0, _X, 1
    for i in range(_K.bit_length() - 1, -1, -1):
        bit = (_K >> i) & 1
        if bit:
            x2, x3, z2, z3 = x3, x2, z3, z2
        t1 = field.add(x2, z2)
        t2 = field.sub(x2, z2)
        t5 = field.mul(t1, field.sub(x3, z3))
        t6 = field.mul(t2, field.add(x3, z3))
        x3 = field.sqr(field.add(t5, t6))
        z3 = field.mul(_X, field.sqr(field.sub(t5, t6)))
        t7 = field.sqr(t1)
        t8 = field.sqr(t2)
        t9 = field.sub(t7, t8)
        x2 = field.mul(t7, t8)
        z2 = field.mul(t9, field.add(t8, field.mul(_A24, t9)))
        if bit:
            x2, x3, z2, z3 = x3, x2, z3, z2
    return x2, z2


def factor(units: int, seconds: float) -> float:
    """Reference unit time over the measured one (*units* took
    *seconds*): a measured time times this is the time at the
    reference speed."""
    if not units:
        raise ValueError("no reference unit ran beside the load")
    return REFERENCE_UNIT_S * units / seconds


def unit_seconds() -> float:
    """Run one reference unit inline; its wall-clock seconds."""
    start = time.perf_counter()
    _unit()
    return time.perf_counter() - start


class Speed:
    """Reference units run on a background thread while a load runs.

    One unit every ``PERIOD_S`` (a few per cent of one CPU), each timed
    on the thread's own CPU clock, so waiting for the interpreter lock
    or for a CPU does not count: the units measure how fast the machine
    executes Python over the whole load, not how busy the load keeps it.
    """

    PERIOD_S = 0.05

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Speed":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            start = time.thread_time()
            _unit()
            self.seconds += time.thread_time() - start
            self.units += 1

    def factor(self) -> float:
        return factor(self.units, self.seconds)
