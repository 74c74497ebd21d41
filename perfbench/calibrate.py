"""Times a fixed pure-Python workload and prints the seconds it took.

The benchmark runs this in a fresh process before every command and divides
the machine's momentary speed out of its timings.  The work resembles the
library's hot path (frozen-dataclass 2x2 complex products, cmath, float
formatting) but shares no code with it, so a change to ucpscatter never moves
this number.
"""

import cmath
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class _Matrix:
    a: complex
    b: complex
    c: complex
    d: complex

    def __matmul__(self, o: "_Matrix") -> "_Matrix":
        return _Matrix(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )


def _cell(k: float, width: float) -> _Matrix:
    q = cmath.sqrt(complex(k * k - 25.0, 0.0))
    z = q * width
    c, s = cmath.cos(z), cmath.sin(z)
    return _Matrix(c, s / q, -q * s, c)


def main() -> None:
    start = time.perf_counter()
    rows = []
    for _ in range(12):
        acc = _Matrix(1, 0, 0, 1)
        for i in range(1500):
            acc = acc @ _cell(1.0 + i * 1e-3, 0.01)
        rows.append(format(abs(acc.a), ".17g"))
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
