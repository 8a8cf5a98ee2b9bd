// Unit and property tests for the number <-> ASCII conversion layer — the
// code path the paper identifies as the SOAP bottleneck, so correctness here
// underwrites every other experiment.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "buffer/sinks.hpp"
#include "common/poly_hash.hpp"
#include "common/rng.hpp"
#include "soap/envelope_writer.hpp"
#include "textconv/dtoa.hpp"
#include "textconv/itoa.hpp"
#include "textconv/parse.hpp"
#include "textconv/pow10cache.hpp"
#include "textconv/swar.hpp"
#include "textconv/widths.hpp"
#include "xml/writer.hpp"

namespace bsoap::textconv {
namespace {

std::string itoa32(std::int32_t v) {
  char buf[kMaxInt32Chars];
  return std::string(buf, static_cast<std::size_t>(write_i32(buf, v)));
}

std::string itoa64(std::int64_t v) {
  char buf[kMaxInt64Chars];
  return std::string(buf, static_cast<std::size_t>(write_i64(buf, v)));
}

std::string dtoa(double v) {
  char buf[kMaxDoubleChars];
  return std::string(buf, static_cast<std::size_t>(write_double(buf, v)));
}

TEST(Itoa, SpotValues) {
  EXPECT_EQ(itoa32(0), "0");
  EXPECT_EQ(itoa32(7), "7");
  EXPECT_EQ(itoa32(-1), "-1");
  EXPECT_EQ(itoa32(42), "42");
  EXPECT_EQ(itoa32(100), "100");
  EXPECT_EQ(itoa32(13902), "13902");  // the paper's example (Binghamton ZIP)
  EXPECT_EQ(itoa32(2147483647), "2147483647");
  EXPECT_EQ(itoa32(std::numeric_limits<std::int32_t>::min()), "-2147483648");
}

TEST(Itoa, Int64SpotValues) {
  EXPECT_EQ(itoa64(0), "0");
  EXPECT_EQ(itoa64(std::numeric_limits<std::int64_t>::max()),
            "9223372036854775807");
  EXPECT_EQ(itoa64(std::numeric_limits<std::int64_t>::min()),
            "-9223372036854775808");
}

TEST(Itoa, MaxWidthRespected) {
  EXPECT_LE(itoa32(std::numeric_limits<std::int32_t>::min()).size(),
            static_cast<std::size_t>(kMaxInt32Chars));
  EXPECT_LE(itoa64(std::numeric_limits<std::int64_t>::min()).size(),
            static_cast<std::size_t>(kMaxInt64Chars));
}

TEST(Itoa, SerializedLengthMatchesWrite) {
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const std::int32_t v = rng.next_i32();
    EXPECT_EQ(serialized_length_i32(v), static_cast<int>(itoa32(v).size()));
  }
}

TEST(Itoa, DigitBoundaries) {
  // Every power-of-ten boundary for the digit counters.
  std::uint32_t p = 1;
  for (int digits = 1; digits <= 10; ++digits) {
    EXPECT_EQ(value_width_u32(p), digits) << p;
    if (p > 1) {
      EXPECT_EQ(value_width_u32(p - 1), digits - 1) << p - 1;
    }
    if (digits < 10) p *= 10;
  }
  EXPECT_EQ(value_width_u32(4294967295u), 10);
  EXPECT_EQ(value_width_u64(18446744073709551615ull), 20);
}

TEST(Itoa, RoundTripRandom) {
  Rng rng(11);
  for (int i = 0; i < 200000; ++i) {
    const std::int32_t v = rng.next_i32();
    EXPECT_EQ(parse_i32(itoa32(v)).value(), v);
  }
  for (int i = 0; i < 50000; ++i) {
    const std::int64_t v = static_cast<std::int64_t>(rng.next_u64());
    EXPECT_EQ(parse_i64(itoa64(v)).value(), v);
  }
}

TEST(Dtoa, SpotValues) {
  EXPECT_EQ(dtoa(0.0), "0");
  EXPECT_EQ(dtoa(-0.0), "-0");
  EXPECT_EQ(dtoa(1.0), "1");
  EXPECT_EQ(dtoa(0.1), "0.1");
  EXPECT_EQ(dtoa(3.14), "3.14");
  EXPECT_EQ(dtoa(-2.5), "-2.5");
  EXPECT_EQ(dtoa(1e22), "1e22");
  EXPECT_EQ(dtoa(100.0), "100");
  EXPECT_EQ(dtoa(1e-7), "1e-7");
  EXPECT_EQ(dtoa(0.001), "0.001");
  EXPECT_EQ(dtoa(5e-324), "5e-324");  // smallest subnormal
}

TEST(Dtoa, SpecialValues) {
  EXPECT_EQ(dtoa(std::numeric_limits<double>::infinity()), "INF");
  EXPECT_EQ(dtoa(-std::numeric_limits<double>::infinity()), "-INF");
  EXPECT_EQ(dtoa(std::numeric_limits<double>::quiet_NaN()), "NaN");
}

TEST(Dtoa, PaperMaximumWidth) {
  // The paper's stuffing analysis relies on 24 characters being the maximum
  // double encoding.
  EXPECT_EQ(dtoa(-2.2250738585072014e-308).size(), 24u);
  EXPECT_LE(dtoa(std::numeric_limits<double>::max()).size(), 24u);
  EXPECT_LE(dtoa(-std::numeric_limits<double>::denorm_min()).size(), 24u);
}

TEST(Dtoa, RoundTripAgainstStrtod) {
  Rng rng(42);
  for (int i = 0; i < 500000; ++i) {
    const double v = rng.next_finite_double();
    const std::string s = dtoa(v);
    ASSERT_LE(s.size(), static_cast<std::size_t>(kMaxDoubleChars));
    const double back = std::strtod(s.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0)
        << s << " vs " << v;
  }
}

TEST(Dtoa, RoundTripThroughOwnParser) {
  Rng rng(43);
  for (int i = 0; i < 200000; ++i) {
    const double v = rng.next_finite_double();
    const std::string s = dtoa(v);
    Result<double> back = parse_double(s);
    ASSERT_TRUE(back.ok()) << s;
    const double b = back.value();
    EXPECT_EQ(std::memcmp(&b, &v, sizeof(v)), 0) << s;
  }
}

TEST(Dtoa, SubnormalsRoundTrip) {
  Rng rng(44);
  for (int i = 0; i < 20000; ++i) {
    // Construct subnormals directly: exponent field zero.
    const std::uint64_t bits = rng.next_u64() & 0x800fffffffffffffull;
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (v == 0.0) continue;
    const std::string s = dtoa(v);
    const double back = std::strtod(s.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0) << s;
  }
}

TEST(Dtoa, GrisuDigitsAreShortEnough) {
  // Grisu2 is not guaranteed shortest, but must stay within 17 significant
  // digits (otherwise the 24-char width bound would break).
  Rng rng(45);
  for (int i = 0; i < 100000; ++i) {
    double v = rng.next_finite_double();
    if (v <= 0) v = -v;
    if (v == 0) continue;
    DecimalDigits dec;
    grisu2(v, &dec);
    EXPECT_LE(dec.length, 17);
    EXPECT_GE(dec.length, 1);
    // No trailing zero digits (they would waste width).
    EXPECT_NE(dec.digits[dec.length - 1], '0');
  }
}

TEST(Pow10Cache, AgainstLibm) {
  // The exactly computed cached powers must agree with ldexp/pow to within
  // a relative error of ~2^-63.
  for (int q = -300; q <= 300; q += 7) {
    const DiyFp c = cached_pow10(q);
    const double approx = std::ldexp(static_cast<double>(c.f), c.e);
    const double expected = std::pow(10.0, q);
    EXPECT_NEAR(approx / expected, 1.0, 1e-14) << "q=" << q;
  }
}

TEST(Pow10Cache, NormalizedSignificands) {
  for (int q = kPow10CacheMin; q <= kPow10CacheMax; ++q) {
    const DiyFp c = cached_pow10(q);
    EXPECT_NE(c.f & (1ull << 63), 0u) << "q=" << q;
  }
}

TEST(FormatDecimal, PointPlacement) {
  char buf[32];
  const char digits[] = "1234";
  // value = 1234 * 10^k
  EXPECT_EQ(std::string(buf, format_decimal(buf, digits, 4, 0)), "1234");
  EXPECT_EQ(std::string(buf, format_decimal(buf, digits, 4, 2)), "123400");
  EXPECT_EQ(std::string(buf, format_decimal(buf, digits, 4, -2)), "12.34");
  EXPECT_EQ(std::string(buf, format_decimal(buf, digits, 4, -4)), "0.1234");
  EXPECT_EQ(std::string(buf, format_decimal(buf, digits, 4, -6)), "0.001234");
  EXPECT_EQ(std::string(buf, format_decimal(buf, digits, 4, -8)),
            "1.234e-5");
  EXPECT_EQ(std::string(buf, format_decimal(buf, digits, 4, 20)),
            "1.234e23");
}

TEST(ParseInt, Errors) {
  EXPECT_FALSE(parse_i32("").ok());
  EXPECT_FALSE(parse_i32("12a").ok());
  EXPECT_FALSE(parse_i32("2147483648").ok());   // overflow
  EXPECT_TRUE(parse_i32("-2147483648").ok());   // min fits
  EXPECT_FALSE(parse_i32("-2147483649").ok());
  EXPECT_FALSE(parse_i32("-").ok());
  EXPECT_TRUE(parse_i32("+42").ok());
  EXPECT_FALSE(parse_u64("-1").ok());
  EXPECT_EQ(parse_u64("18446744073709551615").value(),
            18446744073709551615ull);
  EXPECT_FALSE(parse_u64("18446744073709551616").ok());
}

TEST(ParseDouble, Lexicals) {
  EXPECT_EQ(parse_double("0").value(), 0.0);
  EXPECT_EQ(parse_double("-4.5").value(), -4.5);
  EXPECT_EQ(parse_double("1e3").value(), 1000.0);
  EXPECT_EQ(parse_double("1E3").value(), 1000.0);
  EXPECT_EQ(parse_double(".5").value(), 0.5);
  EXPECT_EQ(parse_double("5.").value(), 5.0);
  EXPECT_EQ(parse_double("INF").value(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse_double("-INF").value(),
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(parse_double("NaN").value()));
  EXPECT_FALSE(parse_double("").ok());
  EXPECT_FALSE(parse_double("abc").ok());
  EXPECT_FALSE(parse_double("1.2.3").ok());
  EXPECT_FALSE(parse_double("1e").ok());
  EXPECT_FALSE(parse_double("1 2").ok());
}

TEST(ParseDouble, AgreesWithStrtodOnDecimalStrings) {
  Rng rng(77);
  for (int i = 0; i < 50000; ++i) {
    std::string s;
    if (rng.chance(1, 2)) s += '-';
    const int int_digits = static_cast<int>(rng.next_in(1, 18));
    for (int d = 0; d < int_digits; ++d) {
      s += static_cast<char>('0' + rng.next_below(10));
    }
    if (rng.chance(1, 2)) {
      s += '.';
      const int frac = static_cast<int>(rng.next_in(1, 18));
      for (int d = 0; d < frac; ++d) {
        s += static_cast<char>('0' + rng.next_below(10));
      }
    }
    if (rng.chance(1, 3)) {
      s += 'e';
      if (rng.chance(1, 2)) s += '-';
      s += static_cast<char>('1' + rng.next_below(9));
      s += static_cast<char>('0' + rng.next_below(10));
    }
    Result<double> mine = parse_double(s);
    ASSERT_TRUE(mine.ok()) << s;
    const double reference = std::strtod(s.c_str(), nullptr);
    const double m = mine.value();
    EXPECT_EQ(std::memcmp(&m, &reference, sizeof(m)), 0) << s;
  }
}

/// strtod's reading of `s` (the oracle for every double parse_double reads).
double strtod_bits(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  EXPECT_EQ(end, s.c_str() + s.size()) << s;
  return v;
}

TEST(ParseDouble, BitEqualToStrtodOnHardCases) {
  // Long mantissas (past the 19 digits a uint64 holds and the 17 a double
  // needs), exponents to ±330, subnormals, and values that overflow to ±inf
  // or underflow to ±0 — the inputs that left the old fast path.
  Rng rng(2004);
  for (int i = 0; i < 100000; ++i) {
    std::string s;
    switch (rng.next_below(3)) {
      case 0: s += '-'; break;
      case 1: s += '+'; break;
      default: break;
    }
    const int digits = static_cast<int>(rng.next_in(17, 40));
    const int point = static_cast<int>(rng.next_in(0, digits));
    for (int d = 0; d < digits; ++d) {
      if (d == point) s += '.';
      s += static_cast<char>((d == 0 ? '1' : '0') +
                             rng.next_below(d == 0 ? 9 : 10));
    }
    s += rng.chance(1, 2) ? 'e' : 'E';
    s += std::to_string(rng.next_in(-330, 330));
    const Result<double> mine = parse_double(s);
    ASSERT_TRUE(mine.ok()) << s;
    const double m = mine.value();
    const double reference = strtod_bits(s);
    ASSERT_EQ(std::memcmp(&m, &reference, sizeof(m)), 0) << s;
  }
}

TEST(ParseDouble, RangeEdgesMatchStrtod) {
  for (const char* s :
       {"1e400", "-1e400", "+1e400", "1.7976931348623159e308",
        "-1.7976931348623159e308", "1.7976931348623157e308", "1e-400",
        "-1e-400", "+1e-400", "0.0000000001e-320", "4.9e-324", "-4.9e-324",
        "2.4703282292062327e-324", "2.4703282292062328e-324",
        "2.2250738585072011e-308", "2.2250738585072014e-308", "0e999999",
        "-0e-999999", "123456789012345678901234567890e-340",
        "100000000000000000000000000000000000000000e300", "-0", "-0.0",
        "1e-99999999999", "1e99999999999"}) {
    const Result<double> mine = parse_double(s);
    ASSERT_TRUE(mine.ok()) << s;
    const double m = mine.value();
    const double reference = strtod_bits(s);
    EXPECT_EQ(std::memcmp(&m, &reference, sizeof(m)), 0) << s;
  }
}

TEST(ParseDouble, RejectsWhatXsdDoubleDoes) {
  // from_chars would read some of these; xsd:double (and the old scanner)
  // does not.
  for (const char* s : {"inf", "-inf", "nan", "infinity", "Infinity", "+NaN",
                        "-NaN", "+-5", "-+5", "--5", "+", "-", ".", "-.",
                        "e5", ".e5", " 1", "1 ", "0x10", "1e+", "1.2e3.4",
                        "1e5x", "INFx", "+"}) {
    EXPECT_FALSE(parse_double(s).ok()) << s;
  }
  EXPECT_EQ(parse_double("+INF").value(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse_double("+.5").value(), 0.5);
  EXPECT_EQ(parse_double("-.5e-3").value(), -0.0005);
}

TEST(FormatDecimal, BoundaryPointPositions) {
  char buf[32];
  const char digits[] = "5";
  // P = point position: plain up to 17, exponent beyond; 0.000x down to
  // P = -3, exponent below.
  EXPECT_EQ(std::string(buf, format_decimal(buf, digits, 1, 16)),
            "50000000000000000");  // P = 17: still plain
  EXPECT_EQ(std::string(buf, format_decimal(buf, digits, 1, 17)), "5e17");
  EXPECT_EQ(std::string(buf, format_decimal(buf, digits, 1, -4)), "0.0005");
  EXPECT_EQ(std::string(buf, format_decimal(buf, digits, 1, -5)), "5e-5");
}

TEST(Dtoa, WriterFastPathMatchesWriteDouble) {
  // The serializers' double fast paths — XmlWriter::double_text and the
  // dense-array item loop — write through a sink's reserved span; their
  // bytes must equal write_double's over the seeded sweep.
  Rng rng(321);
  std::vector<double> values(20000);
  for (double& v : values) v = rng.next_finite_double();
  values.insert(values.end(), {0.0, -0.0, 1e17, 1e-5, 5e-324,
                               std::numeric_limits<double>::max(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()});
  std::string expected_items;
  buffer::StringSink items;
  soap::detail::write_double_array_items(items, values);
  for (const double v : values) {
    char text[kMaxDoubleChars];
    const std::string_view lexical(
        text, static_cast<std::size_t>(write_double(text, v)));
    expected_items.append("<item>").append(lexical).append("</item>");

    buffer::StringSink sink;
    xml::XmlWriter<buffer::StringSink> writer(sink);
    writer.start_element("d");
    writer.double_text(v);
    writer.end_element();
    writer.finish();
    ASSERT_EQ(sink.take(), "<d>" + std::string(lexical) + "</d>") << v;
  }
  EXPECT_EQ(items.take(), expected_items);
}

TEST(Dtoa, PowersOfTenExact) {
  // 10^k for small k are exactly representable; their shortest form must be
  // the bare power, plain or exponent per the format rules.
  char buf[kMaxDoubleChars];
  EXPECT_EQ(std::string(buf, write_double(buf, 1e0)), "1");
  EXPECT_EQ(std::string(buf, write_double(buf, 1e5)), "100000");
  EXPECT_EQ(std::string(buf, write_double(buf, 1e16)), "10000000000000000");
  EXPECT_EQ(std::string(buf, write_double(buf, 1e17)), "1e17");
  EXPECT_EQ(std::string(buf, write_double(buf, 1e-3)), "0.001");
  EXPECT_EQ(std::string(buf, write_double(buf, 1e-4)), "0.0001");  // P = -3
  EXPECT_EQ(std::string(buf, write_double(buf, 1e-5)), "1e-5");    // P = -4
}

class DtoaWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(DtoaWidthSweep, ConstructibleAtEveryWidth) {
  // The workload generator must be able to hit every width the benchmarks
  // use; verify the width arithmetic from first principles here.
  const int chars = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(chars));
  // (The generator itself is tested in test_workload; here we confirm at
  // least one double of each width exists by searching.)
  bool found = false;
  for (int attempt = 0; attempt < 200000 && !found; ++attempt) {
    const double v = rng.next_finite_double();
    if (serialized_length_double(v) == chars) found = true;
  }
  if (chars >= 17) {
    EXPECT_TRUE(found) << "random search found no " << chars
                       << "-char double";
  }
  // Small widths are rare among random bit patterns; no assertion there.
}

INSTANTIATE_TEST_SUITE_P(Widths, DtoaWidthSweep,
                         ::testing::Values(17, 18, 20, 22, 23, 24));

// --- standard-library oracles ----------------------------------------------
//
// The differential-serialization invariants (serialized_len, content
// matches, patch checksums) all assume one value has exactly one lexical
// form. Integers are held byte-equal to std::to_chars. Doubles must
// round-trip bit-exactly through parse_double (std::from_chars), stay within
// kMaxDoubleChars and match the xsd:double grammar; a digest over a seeded
// sweep pins the bytes themselves, so no change of shortest-digit choice or
// notation can slip through.

/// Asserts write(out, v) produces exactly std::to_chars's bytes.
template <typename T, typename Write>
void expect_to_chars(Write write, T v) {
  char got[kMaxInt64Chars + 8];
  char want[kMaxInt64Chars + 8];
  const int len = write(got, v);
  const std::to_chars_result ref = std::to_chars(want, want + sizeof(want), v);
  ASSERT_EQ(ref.ec, std::errc{});
  ASSERT_EQ(std::string_view(got, static_cast<std::size_t>(len)),
            std::string_view(want, static_cast<std::size_t>(ref.ptr - want)))
      << v;
}

void expect_all_integer_writers(std::uint64_t v) {
  expect_to_chars<std::uint64_t>(write_u64, v);
  expect_to_chars<std::int64_t>(write_i64, static_cast<std::int64_t>(v));
  expect_to_chars<std::uint32_t>(write_u32, static_cast<std::uint32_t>(v));
  expect_to_chars<std::int32_t>(write_i32, static_cast<std::int32_t>(v));
}

TEST(TextconvOracle, IntegerBoundariesMatchToChars) {
  // 10^k - 1, 10^k, 10^k + 1 for every k: the digit-width estimate's only
  // interesting inputs, and the head/group splits in write_u64. The
  // narrowing casts in expect_all_integer_writers also visit the negative
  // and 32-bit wrap-around forms of each.
  std::uint64_t p = 1;
  for (int k = 0; k <= 19; ++k) {
    for (const std::uint64_t v : {p - 1, p, p + 1}) {
      expect_all_integer_writers(v);
      expect_all_integer_writers(0 - v);
    }
    if (k < 19) p *= 10;
  }
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max(),
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::min()),
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()),
        std::uint64_t{std::numeric_limits<std::uint32_t>::max()},
        static_cast<std::uint64_t>(
            std::int64_t{std::numeric_limits<std::int32_t>::min()})}) {
    expect_all_integer_writers(v);
  }
}

TEST(TextconvOracle, IntegerRandomSweepMatchesToChars) {
  Rng rng(2024);
  for (int i = 0; i < 200000; ++i) {
    // Stratify across digit counts: raw next_u64 almost never produces
    // short numbers.
    const std::uint64_t raw = rng.next_u64();
    const std::uint64_t v =
        i % 20 == 19 ? raw : raw % swar::kPow10U64[1 + i % 19];
    expect_to_chars<std::uint64_t>(write_u64, v);
    expect_to_chars<std::int64_t>(write_i64, static_cast<std::int64_t>(raw));
    expect_to_chars<std::uint32_t>(write_u32, static_cast<std::uint32_t>(v));
    expect_to_chars<std::int32_t>(write_i32, rng.next_i32());
  }
}

/// xsd:double lexical space: (+|-)? (digits (. digits?)? | . digits)
/// ((e|E) (+|-)? digits)?, or INF / -INF / NaN.
bool is_xsd_double(std::string_view s) {
  if (s == "INF" || s == "-INF" || s == "NaN") return true;
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t start = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i - start;
  };
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
  std::size_t mantissa = digits();
  if (i < s.size() && s[i] == '.') {
    ++i;
    mantissa += digits();
  }
  if (mantissa == 0) return false;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (digits() == 0) return false;
  }
  return i == s.size();
}

/// write_double(v): within the width bound, in the xsd:double grammar, and
/// read back by parse_double as exactly v. Returns the text.
std::string checked_dtoa(double v) {
  const std::string s = dtoa(v);
  EXPECT_LE(s.size(), static_cast<std::size_t>(kMaxDoubleChars)) << s;
  EXPECT_TRUE(is_xsd_double(s)) << s;
  const Result<double> back = parse_double(s);
  EXPECT_TRUE(back.ok()) << s;
  if (back.ok()) {
    const double b = back.value();
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(b)) << s;
    } else {
      EXPECT_EQ(std::memcmp(&b, &v, sizeof(v)), 0) << s;
    }
  }
  return s;
}

TEST(TextconvOracle, DoubleSpotValuesRoundTrip) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          0.1,
                          3.14,
                          -2.5,
                          1e22,
                          1e-7,
                          5e-324,  // smallest subnormal
                          -2.2250738585072014e-308,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (const double v : cases) (void)checked_dtoa(v);
}

// Length and poly::hash of the concatenated sweep output below, recorded
// from the digit-pair/Grisu2 scalar implementation and the SWAR one while
// both existed (they agreed byte for byte).
constexpr std::size_t kSweepBytes = 6602571;
constexpr std::uint64_t kSweepDigest = 0x062f8c27181a7908ull;

TEST(TextconvOracle, DoubleRandomSweepRoundTripsAndDigestIsPinned) {
  Rng rng(2025);
  std::string all;
  for (int i = 0; i < 300000; ++i) {
    double v;
    if (i % 10 == 9) {
      // Subnormals and near-boundary exponents.
      const std::uint64_t bits = rng.next_u64() & 0x800fffffffffffffull;
      std::memcpy(&v, &bits, sizeof(v));
    } else {
      v = rng.next_finite_double();
    }
    all += checked_dtoa(v);
  }
  EXPECT_EQ(all.size(), kSweepBytes);
  EXPECT_EQ(poly::hash(all), kSweepDigest);
}

TEST(SwarKernels, ExactStoresNeverWritePastLength) {
  // store_exact / fill_* promise to write exactly n bytes; a wide store
  // that strayed past the end would corrupt the closing tag of a stuffed
  // field. Sentinel bytes around the target region catch any stray write.
  char buf[48];
  for (unsigned n = 0; n <= 8; ++n) {
    std::memset(buf, '#', sizeof(buf));
    swar::store_exact(buf + 8, 0x3132333435363738ull, n);
    for (unsigned i = 0; i < n; ++i) EXPECT_EQ(buf[8 + i], '8' - static_cast<char>(i));
    EXPECT_EQ(buf[8 + n], '#') << n;
    EXPECT_EQ(buf[7], '#');
  }
  for (unsigned n = 0; n <= 24; ++n) {
    std::memset(buf, '#', sizeof(buf));
    swar::fill_spaces(buf + 8, n);
    for (unsigned i = 0; i < n; ++i) EXPECT_EQ(buf[8 + i], ' ');
    EXPECT_EQ(buf[8 + n], '#') << n;
    std::memset(buf, '#', sizeof(buf));
    swar::fill_zeros(buf + 8, n);
    for (unsigned i = 0; i < n; ++i) EXPECT_EQ(buf[8 + i], '0');
    EXPECT_EQ(buf[8 + n], '#') << n;
  }
  // copy_digits: dst written for exactly n (src readable 8 past, which the
  // 48-byte buffer provides).
  const char src[32] = "abcdefghijklmnopqrstu";
  for (unsigned n = 0; n <= 20; ++n) {
    std::memset(buf, '#', sizeof(buf));
    swar::copy_digits(buf + 8, src, n);
    for (unsigned i = 0; i < n; ++i) EXPECT_EQ(buf[8 + i], src[i]);
    EXPECT_EQ(buf[8 + n], '#') << n;
  }
}

TEST(SwarKernels, Ascii8AllDigitPairs) {
  // ascii8's lane algebra against the obvious reference, at every 2-digit
  // pair in every lane position plus random values.
  Rng rng(99);
  for (int i = 0; i < 200000; ++i) {
    const std::uint32_t v = static_cast<std::uint32_t>(rng.next_below(100000000));
    const std::uint64_t packed = swar::ascii8(v);
    char expect[9];
    std::snprintf(expect, sizeof(expect), "%08u", v);
    char got[8];
    swar::store8(got, packed);
    ASSERT_EQ(std::memcmp(got, expect, 8), 0) << v;
  }
}

}  // namespace
}  // namespace bsoap::textconv
