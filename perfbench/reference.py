"""Fixed reference kernel: prints its own run time in seconds.

    python3 perfbench/reference.py

The host this benchmark was defined on changes speed by up to 1.5x over
minutes, as other tenants load it.  ``run.py`` runs this kernel in a fresh
process before and after every request and scales the request's times by
REF_S over the kernel's time next to it.  The kernel imitates the engine at
the seed commit (``Fraction`` arithmetic, and a sparse product of
polynomials with Q(zeta_8)-like coefficients), so it slows down with the
engine.  Keep it frozen: any change to it changes every scaled number.
"""

import random
import time
from fractions import Fraction


def _fraction_loop():
    acc = Fraction(0)
    for i in range(1, 6000):
        acc += Fraction(i, i + 7) * Fraction(3 * i + 1, 2 * i + 5)
    return acc


def _cyclo_mul(a, b):
    prod = [Fraction(0)] * 8
    for i in range(4):
        for j in range(4):
            prod[i + j] += a[i] * b[j]
    return tuple(prod[k] - prod[k + 4] for k in range(4))


def _poly_square():
    rng = random.Random(1)
    poly = {}
    for _ in range(40):
        e = (rng.randrange(5), rng.randrange(5), rng.randrange(3))
        poly[e] = tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in range(4))
    for _ in range(2):
        out = {}
        for e1, c1 in poly.items():
            for e2, c2 in poly.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = _cyclo_mul(c1, c2)
                out[e] = tuple(x + y for x, y in zip(out[e], c)) if e in out else c
    return out


def main():
    started = time.perf_counter()
    _fraction_loop()
    _poly_square()
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
