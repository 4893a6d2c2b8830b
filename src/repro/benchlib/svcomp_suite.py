"""The SV-COMP ``recursive`` assertion benchmarks used in Figure 3.

The paper selects the 17 benchmarks of the SV-COMP *ReachSafety-Recursive*
``recursive`` sub-directory that contain true assertions and runs CHORA,
ICRA, Ultimate Automizer, UTaipan and VIAP on them (Fig. 3 is the cactus
plot of proved-count vs. time; CHORA proves 8/17 about an order of magnitude
faster than the others).

The benchmarks are re-written here in the mini-language, preserving their
recursion structure and assertions.  The counts the paper reports per tool
are recorded as reference data so that the Fig. 3 harness can print the same
series even though the external tools cannot be run offline (see
"Deviations from the paper's implementation" in ``docs/architecture.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SvcompBenchmark", "SVCOMP_RECURSIVE_BENCHMARKS", "PAPER_FIG3_PROVED_COUNTS"]


@dataclass(frozen=True)
class SvcompBenchmark:
    """One SV-COMP-style recursive benchmark with a true assertion."""

    name: str
    source: str
    #: whether the reproduction's CHORA is expected to prove it (used by tests
    #: as a regression marker, not as a claim about the original tool)
    expected_chora: bool
    #: whether plain bounded unrolling suffices (the paper notes many of the
    #: SV-COMP recursive tasks need no invariant generation at all)
    provable_by_unrolling: bool


#: Number of benchmarks proved by each tool in the paper's Fig. 3 run.
PAPER_FIG3_PROVED_COUNTS = {
    "CHORA": 8,
    "ICRA": 11,
    "UA": 12,
    "UTaipan": 10,
    "VIAP": 10,
}


SVCOMP_RECURSIVE_BENCHMARKS: tuple[SvcompBenchmark, ...] = (
    SvcompBenchmark(
        "Ackermann01",
        """
int ackermann(int m, int n) {
    if (m == 0) { return n + 1; }
    if (n == 0) { return ackermann(m - 1, 1); }
    return ackermann(m - 1, ackermann(m, n - 1));
}
int main(int m, int n) {
    assume(m >= 0);
    assume(n >= 0);
    int result = ackermann(m, n);
    assert(result >= 0);
    return result;
}
""",
        True,
        False,
    ),
    SvcompBenchmark(
        "Addition01",
        """
int addition(int m, int n) {
    if (n == 0) { return m; }
    if (n > 0) { return addition(m + 1, n - 1); }
    return addition(m - 1, n + 1);
}
int main(int m, int n) {
    assume(m >= 0);
    assume(n >= 0);
    int result = addition(m, n);
    assert(result == m + n);
    return result;
}
""",
        False,
        False,
    ),
    SvcompBenchmark(
        "Fibonacci01",
        """
int fibonacci(int n) {
    if (n < 1) { return 0; }
    if (n == 1) { return 1; }
    return fibonacci(n - 1) + fibonacci(n - 2);
}
int main(int n) {
    assume(n >= 0);
    int result = fibonacci(n);
    assert(result >= 0);
    return result;
}
""",
        True,
        False,
    ),
    SvcompBenchmark(
        "Fibonacci02",
        """
int fibonacci(int n) {
    if (n < 1) { return 0; }
    if (n == 1) { return 1; }
    return fibonacci(n - 1) + fibonacci(n - 2);
}
int main() {
    int result = fibonacci(9);
    assert(result == 34);
    return result;
}
""",
        False,
        True,
    ),
    SvcompBenchmark(
        "Fibonacci04",
        """
int fibonacci(int n) {
    if (n < 1) { return 0; }
    if (n == 1) { return 1; }
    return fibonacci(n - 1) + fibonacci(n - 2);
}
int main(int n) {
    assume(n >= 8);
    int result = fibonacci(n);
    assert(result >= n);
    return result;
}
""",
        False,
        False,
    ),
    SvcompBenchmark(
        "McCarthy91",
        """
int f91(int x) {
    if (x > 100) { return x - 10; }
    return f91(f91(x + 11));
}
int main(int x) {
    int result = f91(x);
    assert(result == 91 || (x > 101 && result == x - 10));
    return result;
}
""",
        False,
        False,
    ),
    SvcompBenchmark(
        "MultCommutative",
        """
int mult(int n, int m) {
    if (m < 0) { return mult(n, m + 1) - n; }
    if (m == 0) { return 0; }
    return mult(n, m - 1) + n;
}
int main(int n, int m) {
    assume(n >= 0);
    assume(m >= 0);
    int a = mult(n, m);
    assert(a >= 0);
    return a;
}
""",
        True,
        False,
    ),
    SvcompBenchmark(
        "EvenOdd01",
        """
int isOdd(int n) {
    if (n == 0) { return 0; }
    if (n == 1) { return 1; }
    return isEven(n - 1);
}
int isEven(int n) {
    if (n == 0) { return 1; }
    if (n == 1) { return 0; }
    return isOdd(n - 1);
}
int main(int n) {
    assume(n >= 0);
    int result = isOdd(n);
    assert(result >= 0);
    return result;
}
""",
        True,
        False,
    ),
    SvcompBenchmark(
        "Primes01",
        """
int mult(int n, int m) {
    if (m < 0) { return mult(n, m + 1) - n; }
    if (m == 0) { return 0; }
    if (n < 0) { return -mult(-n, m); }
    return mult(n, m - 1) + n;
}
int main(int n, int m) {
    assume(n > 0);
    assume(m > 0);
    int result = mult(n, m);
    assert(result >= 0);
    return result;
}
""",
        True,
        False,
    ),
    SvcompBenchmark(
        "RecHanoi01",
        """
int counter;
int hanoi(int n) {
    if (n == 1) { return 1; }
    return 2 * hanoi(n - 1) + 1;
}
void applyHanoi(int n, int from, int to, int via) {
    if (n == 0) { return; }
    counter++;
    applyHanoi(n - 1, from, via, to);
    applyHanoi(n - 1, via, to, from);
}
int main(int n) {
    assume(n >= 1);
    counter = 0;
    applyHanoi(n, 1, 3, 2);
    int result = hanoi(n);
    assert(result == counter);
    return result;
}
""",
        True,
        False,
    ),
    SvcompBenchmark(
        "RecHanoi02",
        """
int counter;
void applyHanoi(int n, int from, int to, int via) {
    if (n == 0) { return; }
    counter++;
    applyHanoi(n - 1, from, via, to);
    applyHanoi(n - 1, via, to, from);
}
int main(int n) {
    assume(n >= 1);
    counter = 0;
    applyHanoi(n, 1, 3, 2);
    assert(counter >= 1);
    return counter;
}
""",
        True,
        False,
    ),
    SvcompBenchmark(
        "RecHanoi03",
        """
int hanoi(int n) {
    if (n == 1) { return 1; }
    return 2 * hanoi(n - 1) + 1;
}
int main(int n) {
    assume(n >= 1);
    int result = hanoi(n);
    assert(result >= n);
    return result;
}
""",
        True,
        False,
    ),
    SvcompBenchmark(
        "Sum01",
        """
int sum(int n, int m) {
    if (n <= 0) { return m; }
    return sum(n - 1, m + 1);
}
int main(int n) {
    assume(n >= 0);
    int result = sum(n, 0);
    assert(result == n);
    return result;
}
""",
        False,
        False,
    ),
    SvcompBenchmark(
        "Sum02",
        """
int sum(int n, int m) {
    if (n <= 0) { return m; }
    return sum(n - 1, m + n);
}
int main(int n) {
    assume(n >= 0);
    int result = sum(n, 0);
    assert(result >= 0);
    return result;
}
""",
        True,
        False,
    ),
    SvcompBenchmark(
        "Sum03",
        """
int sum(int n) {
    if (n <= 0) { return 0; }
    return sum(n - 1) + n;
}
int main() {
    int result = sum(10);
    assert(result == 55);
    return result;
}
""",
        False,
        True,
    ),
    SvcompBenchmark(
        "gcd01",
        """
int gcd(int y1, int y2) {
    if (y1 <= 0 || y2 <= 0) { return 0; }
    if (y1 == y2) { return y1; }
    if (y1 > y2) { return gcd(y1 - y2, y2); }
    return gcd(y1, y2 - y1);
}
int main(int m, int n) {
    assume(m > 0);
    assume(n > 0);
    int z = gcd(m, n);
    assert(z >= 0);
    return z;
}
""",
        True,
        False,
    ),
    SvcompBenchmark(
        "recursive_loop",
        """
int rec(int d) {
    if (d > 5) { return d; }
    int x = rec(d + 1);
    return x;
}
int main() {
    int result = rec(1);
    assert(result == 6);
    return result;
}
""",
        False,
        True,
    ),
)
