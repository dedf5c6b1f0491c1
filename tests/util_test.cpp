/**
 * @file
 * Unit and property tests for the util substrate: fractions, integer and
 * rational matrices, RNG, stats, and string helpers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>

#include "util/failure.hpp"
#include "util/fraction.hpp"
#include "util/int_matrix.hpp"
#include "util/saturate.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace stellar
{
namespace
{

TEST(Fraction, NormalizesOnConstruction)
{
    Fraction f(4, 8);
    EXPECT_EQ(f.num(), 1);
    EXPECT_EQ(f.den(), 2);
}

TEST(Fraction, NegativeDenominatorMovesSign)
{
    Fraction f(3, -6);
    EXPECT_EQ(f.num(), -1);
    EXPECT_EQ(f.den(), 2);
}

TEST(Fraction, ZeroHasCanonicalForm)
{
    Fraction f(0, 17);
    EXPECT_EQ(f.num(), 0);
    EXPECT_EQ(f.den(), 1);
    EXPECT_TRUE(f.isZero());
}

TEST(Fraction, Arithmetic)
{
    Fraction half(1, 2), third(1, 3);
    EXPECT_EQ(half + third, Fraction(5, 6));
    EXPECT_EQ(half - third, Fraction(1, 6));
    EXPECT_EQ(half * third, Fraction(1, 6));
    EXPECT_EQ(half / third, Fraction(3, 2));
    EXPECT_EQ(-half, Fraction(-1, 2));
}

TEST(Fraction, Ordering)
{
    EXPECT_LT(Fraction(1, 3), Fraction(1, 2));
    EXPECT_GT(Fraction(-1, 3), Fraction(-1, 2));
    EXPECT_EQ(Fraction(2, 4), Fraction(1, 2));
}

TEST(Fraction, IntegerConversion)
{
    EXPECT_TRUE(Fraction(6, 3).isInteger());
    EXPECT_EQ(Fraction(6, 3).toInteger(), 2);
    EXPECT_FALSE(Fraction(1, 3).isInteger());
    EXPECT_THROW(Fraction(1, 3).toInteger(), PanicError);
}

TEST(Fraction, DivisionByZeroThrows)
{
    EXPECT_THROW(Fraction(1, 0), FatalError);
    EXPECT_THROW(Fraction(1) / Fraction(0), FatalError);
}

TEST(Fraction, DivisionByZeroClassifiesAsUserSpec)
{
    // Downstream failure accounting depends on a zero denominator
    // surfacing as a user-spec failure, not an internal panic.
    try {
        Fraction(1) / Fraction(0);
        FAIL() << "division by zero did not throw";
    } catch (...) {
        auto failure = util::classifyException(std::current_exception(),
                                               "transform.algebra", "c0");
        EXPECT_EQ(failure.kind, util::FailureKind::UserSpec);
        EXPECT_EQ(failure.stage, "transform.algebra");
    }
}

TEST(Fraction, Int64MinNormalizesWithoutOverflow)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

    // -2^63 / -2^63 reduces to 1 — the naive |gcd| path would negate
    // INT64_MIN (UB) before ever dividing.
    Fraction whole(kMin, kMin);
    EXPECT_EQ(whole.num(), 1);
    EXPECT_EQ(whole.den(), 1);

    // -2^63 / 2 reduces to -2^62 / 1.
    Fraction halved(kMin, 2);
    EXPECT_EQ(halved.num(), kMin / 2);
    EXPECT_EQ(halved.den(), 1);

    // An even denominator shares a factor of 2 with -2^63.
    Fraction shared(kMin, 6);
    EXPECT_EQ(shared.num(), kMin / 2);
    EXPECT_EQ(shared.den(), 3);

    // -2^63 / -1 canonicalizes to 2^63 / 1, which is unrepresentable:
    // a FatalError, not a silent wrap.
    EXPECT_THROW(Fraction(kMin, -1), FatalError);

    // 1 / -2^63 needs denominator 2^63 after the sign move — likewise
    // unrepresentable.
    EXPECT_THROW(Fraction(1, kMin), FatalError);

    // An odd numerator over -2^63 shares no factor: same overflow.
    EXPECT_THROW(Fraction(3, kMin), FatalError);

    // But an even one reduces below the limit first.
    Fraction reduced(2, kMin);
    EXPECT_EQ(reduced.num(), -1);
    EXPECT_EQ(reduced.den(), kMin / -2);
}

TEST(Fraction, NegatingInt64MinThrows)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    Fraction f(kMin, 1);
    EXPECT_EQ(f.num(), kMin);
    EXPECT_THROW(-f, FatalError);
    // The nearest representable value negates fine: -(kMin+1) == kMax.
    EXPECT_EQ(-Fraction(kMin + 1, 1),
              Fraction(std::numeric_limits<std::int64_t>::max(), 1));
}

TEST(Fraction, Gcd64SaturatesAtTheInt64Edge)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    // gcd(-2^63, -2^63) is 2^63, unrepresentable: saturates to INT64_MAX
    // rather than wrapping negative.
    EXPECT_EQ(gcd64(kMin, kMin), kMax);
    EXPECT_EQ(gcd64(kMin, 0), kMax);
    // Mixed-magnitude calls stay exact.
    EXPECT_EQ(gcd64(kMin, 2), 2);
    EXPECT_EQ(gcd64(kMin, 3), 1);
    EXPECT_EQ(gcd64(-12, 18), 6);
    EXPECT_EQ(gcd64(0, -7), 7);
}

TEST(Saturate, AddClampsAtBothBoundaries)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

    bool saturated = false;
    EXPECT_EQ(util::satAdd(kMax, 1, &saturated), kMax);
    EXPECT_TRUE(saturated);

    saturated = false;
    EXPECT_EQ(util::satAdd(kMin, -1, &saturated), kMin);
    EXPECT_TRUE(saturated);

    // Exact boundary arithmetic does not clamp.
    saturated = false;
    EXPECT_EQ(util::satAdd(kMin, kMax, &saturated), -1);
    EXPECT_EQ(util::satAdd(kMax, kMin, &saturated), -1);
    EXPECT_EQ(util::satAdd(kMin + 1, -1, &saturated), kMin);
    EXPECT_FALSE(saturated);
}

TEST(Saturate, MulClampsWithTheRightSign)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

    bool saturated = false;
    // -2^63 * -1 is the classic wrap-to-itself case: must clamp to max.
    EXPECT_EQ(util::satMul(kMin, -1, &saturated), kMax);
    EXPECT_TRUE(saturated);

    saturated = false;
    EXPECT_EQ(util::satMul(kMin, 2, &saturated), kMin);
    EXPECT_TRUE(saturated);

    saturated = false;
    EXPECT_EQ(util::satMul(kMax, kMax, &saturated), kMax);
    EXPECT_TRUE(saturated);

    saturated = false;
    EXPECT_EQ(util::satMul(kMax, -2, &saturated), kMin);
    EXPECT_TRUE(saturated);

    // In-range products pass through untouched.
    saturated = false;
    EXPECT_EQ(util::satMul(kMin, 1, &saturated), kMin);
    EXPECT_EQ(util::satMul(kMin / 2, 2, &saturated), kMin);
    EXPECT_EQ(util::satMul(-3, 7, &saturated), -21);
    EXPECT_FALSE(saturated);
}

TEST(IntMatrix, IdentityAndMultiply)
{
    IntMatrix id = IntMatrix::identity(3);
    IntMatrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}};
    EXPECT_EQ(id * m, m);
    EXPECT_EQ(m * id, m);
}

TEST(IntMatrix, DeterminantKnownValues)
{
    EXPECT_EQ((IntMatrix{{2}}).determinant(), 2);
    EXPECT_EQ((IntMatrix{{1, 2}, {3, 4}}).determinant(), -2);
    EXPECT_EQ((IntMatrix{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}).determinant(), 0);
    EXPECT_EQ((IntMatrix{{1, 0, -1}, {0, 1, -1}, {1, 1, 1}}).determinant(),
              3);
}

TEST(IntMatrix, SingularMatrixHasNoInverse)
{
    IntMatrix m{{1, 2}, {2, 4}};
    EXPECT_FALSE(m.isInvertible());
    EXPECT_THROW(m.inverse(), FatalError);
}

TEST(IntMatrix, VectorMultiply)
{
    IntMatrix m{{1, 0, 0}, {0, 1, 0}, {1, 1, 1}};
    IntVec v = m * IntVec{2, 3, 4};
    EXPECT_EQ(v, (IntVec{2, 3, 9}));
}

TEST(IntMatrix, TransposeInvolution)
{
    IntMatrix m{{1, 2, 3}, {4, 5, 6}};
    EXPECT_EQ(m.transpose().transpose(), m);
    EXPECT_EQ(m.transpose().rows(), 3);
}

/** Property: A * A^-1 == I for a sweep of invertible matrices. */
class MatrixInverseProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MatrixInverseProperty, InverseRoundTrip)
{
    Rng rng(std::uint64_t(GetParam()) * 7919 + 13);
    for (int trial = 0; trial < 20; trial++) {
        int n = int(rng.nextRange(1, 4));
        IntMatrix m(n, n);
        do {
            for (int r = 0; r < n; r++)
                for (int c = 0; c < n; c++)
                    m.at(r, c) = rng.nextRange(-3, 3);
        } while (!m.isInvertible());
        FracMatrix inv = m.inverse();
        // Check M * M^-1 == I exactly.
        FracMatrix mf(n, n);
        for (int r = 0; r < n; r++)
            for (int c = 0; c < n; c++)
                mf.at(r, c) = Fraction(m.at(r, c));
        FracMatrix prod = mf * inv;
        for (int r = 0; r < n; r++)
            for (int c = 0; c < n; c++)
                EXPECT_EQ(prod.at(r, c), Fraction(r == c ? 1 : 0))
                        << "n=" << n << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixInverseProperty,
                         ::testing::Range(0, 8));

TEST(VecOps, SubAddL1Zero)
{
    IntVec a{3, -1, 2}, b{1, 1, 2};
    EXPECT_EQ(vecSub(a, b), (IntVec{2, -2, 0}));
    EXPECT_EQ(vecAdd(a, b), (IntVec{4, 0, 4}));
    EXPECT_EQ(vecL1(a), 6);
    EXPECT_FALSE(vecIsZero(a));
    EXPECT_TRUE(vecIsZero(IntVec{0, 0}));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; i++) {
        auto v = rng.nextBounded(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; i++) {
        auto v = rng.nextRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; i++) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ZipfIsSkewed)
{
    Rng rng(5);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 20000; i++)
        counts[rng.nextZipf(100, 1.2)]++;
    // The head of a Zipf distribution dominates the tail.
    EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(Rng, PermutationIsBijective)
{
    Rng rng(9);
    auto perm = rng.permutation(257);
    std::vector<bool> seen(257, false);
    for (auto p : perm) {
        EXPECT_LT(p, 257u);
        EXPECT_FALSE(seen[p]);
        seen[p] = true;
    }
}

TEST(SampleStats, BasicMoments)
{
    SampleStats s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.stddev(), 1.1180, 1e-3);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-1.0);
    h.add(0.0);
    h.add(9.99);
    h.add(10.0);
    h.add(5.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(4), 1u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Strings, JoinIndentSanitize)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(indent("x\ny", 2), "  x\n  y");
    EXPECT_EQ(sanitizeIdentifier("foo-bar.baz"), "foo_bar_baz");
    EXPECT_EQ(sanitizeIdentifier("1abc"), "id_1abc");
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(padLeft("7", 3), "  7");
    EXPECT_EQ(padRight("7", 3), "7  ");
    EXPECT_TRUE(startsWith("stellar", "ste"));
    EXPECT_FALSE(startsWith("st", "ste"));
    EXPECT_EQ(toLower("AbC"), "abc");
}

TEST(Strings, ParseIntAcceptsWholeDecimalsInRange)
{
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    EXPECT_EQ(parseInt("0", 0, 10), 0);
    EXPECT_EQ(parseInt("10", 0, 10), 10);
    EXPECT_EQ(parseInt("-3", -5, 5), -3);
    EXPECT_EQ(parseInt("007", 0, 10), 7);
    EXPECT_EQ(parseInt("3000000000", 1, kMax), 3000000000ll);
    EXPECT_EQ(parseInt("9223372036854775807", kMin, kMax), kMax);
    EXPECT_EQ(parseInt("-9223372036854775808", kMin, kMax), kMin);
}

TEST(Strings, ParseIntRejectsMalformedText)
{
    // What atoi would have read as 0 or as a prefix.
    for (const char *text : {"", "abc", "-", "+4", " 4", "4 ", "4abc",
                             "1/4", "0x10", "1e3", "2.5", "--1"})
        EXPECT_EQ(parseInt(text, -100, 100), std::nullopt) << text;
}

TEST(Strings, ParseIntRejectsOutOfRangeValues)
{
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(parseInt("0", 1, 10), std::nullopt);
    EXPECT_EQ(parseInt("11", 1, 10), std::nullopt);
    EXPECT_EQ(parseInt("-1", 0, kMax), std::nullopt);
    EXPECT_EQ(parseInt("3000000000", 1,
                       std::numeric_limits<int>::max()),
              std::nullopt);
    // Past int64 itself: an overflow, not a wrapped value.
    EXPECT_EQ(parseInt("9223372036854775808", 0, kMax), std::nullopt);
    EXPECT_EQ(parseInt("99999999999999999999999", 0, kMax), std::nullopt);
}

} // namespace
} // namespace stellar
