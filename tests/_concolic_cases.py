"""Handcrafted MiniC programs shared by the execution-core tests.

``CRASH_CASES`` are program errors (division by zero, array misuse,
failed asserts, arity errors) whose messages and lines must be exact.
``FAST_PATH_CASES`` are the shapes the concolic VM runs on plain ints
without the engine's helpers (concrete division, unary ops, array
indices, asserts, callee returns), each next to a symbolic operand so
both paths meet in one run.  Every program has one entry ``main(int x)``.

``tests/test_exec_backends.py`` runs them on both concrete executors;
``tests/test_concolic_golden.py`` pins the concolic VM's answers on them.
"""

CRASH_CASES = {
    "div_by_zero": """
        int main(int x) {
            return 10 / x;
        }
    """,
    "mod_by_zero": """
        int main(int x) {
            return 10 % x;
        }
    """,
    "array_oob_high": """
        int main(int x) {
            int a[3];
            a[0] = 1;
            return a[x];
        }
    """,
    "array_oob_low": """
        int main(int x) {
            int a[3];
            a[x] = 7;
            return a[0];
        }
    """,
    "error_stmt": """
        int main(int x) {
            if (x == 0) { error("boom"); }
            return x;
        }
    """,
    "assert_failure": """
        int main(int x) {
            assert(x != 0);
            return x;
        }
    """,
    "arity_mismatch": """
        int helper(int a, int b) { return a + b; }
        int main(int x) {
            return helper(x);
        }
    """,
}


#: shapes the concolic VM runs on plain ints without the engine, each
#: next to a symbolic operand so both paths meet in one run
FAST_PATH_CASES = {
    "concrete_div_by_zero": """
        int main(int x) {
            int z = 0;
            int k = 7;
            int q = x + 9;
            if (x > 3) { return q; }
            if (x == 0) { return (k + 1) / (z * 1); }
            return 7 / z;
        }
    """,
    "concrete_mod_by_zero": """
        int main(int x) {
            int z = 0;
            int k = 7;
            if (x > 3) { return x % 4; }
            if (x == 0) { return (k + 1) % (z * 1); }
            return 7 % z + x;
        }
    """,
    "concrete_c_division": """
        int main(int x) {
            int a = -7;
            int b = 2;
            return a / b * 100 + a % b * 10 + (7 / -b) + x / 3;
        }
    """,
    "concrete_unary": """
        int main(int x) {
            int a = 5;
            int b = -a;
            int c = !a;
            int d = !0;
            int e = !b;
            if (b) { d = d + e + 1; }
            if (-x < b && !c) { return b + c + d; }
            return -b + !x;
        }
    """,
    "concrete_logic_and_mixed_operands": """
        int main(int x) {
            int k = 3;
            int z = 0;
            int r = (k && z) + (k || z) * 2 + (x && k) + (z || x);
            if (k < x) { r = r + k * x; }
            if (k == 3) { r = r + 1; }
            return r;
        }
    """,
    "logic_on_fresh_ints": """
        int main(int x) {
            int k = 3;
            int m = 44;
            int n = 45;
            int r = (k && 41) + ((k + 1) && 42) + ((k + 1) || m);
            r = r + (m && n) + ((k + 2) && (m + 1));
            if (x < r) { return r; }
            return x;
        }
    """,
    "concrete_array_index": """
        int main(int x) {
            int a[3];
            int i = 1;
            a[i] = 5;
            a[2] = x;
            if (a[i] + a[2] > 6) { return a[i]; }
            return a[3 - i] + a[i - 1];
        }
    """,
    "concrete_array_oob": """
        int main(int x) {
            int a[2];
            int i = 2;
            if (x > 0) { return a[i]; }
            a[i] = x;
            return 0;
        }
    """,
    "concrete_assert": """
        int main(int x) {
            int k = 1;
            int z = 0;
            assert(k);
            if (x < 1) { assert(z); }
            return x;
        }
    """,
    "fresh_constants_both_sides": """
        int main(int x) {
            int a = 101;
            int b = 202;
            int c = 303;
            int r = 0;
            if (a < b) { r = r + 1; }
            if (c > 404) { r = r + 2; }
            int d = a * 505;
            int e = c - b;
            int f = (d + 606) % (e + 707);
            int g = (f + 808) / e;
            int h = (d + 1111) * 1212;
            if ((a + 909) == (g - 1001)) { r = r + 4; }
            if (x < r + d + f + g + h) { return r; }
            return x;
        }
    """,
    "int_from_callee": """
        int seven(int a) { return 7; }
        int nothing(int a) { return; }
        int main(int x) {
            int r = seven(x) + nothing(x);
            if (r == 7) { r = r * x; }
            return r;
        }
    """,
}

HANDCRAFTED_CASES = {**CRASH_CASES, **FAST_PATH_CASES}
