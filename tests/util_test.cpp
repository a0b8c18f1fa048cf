#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace oneport {
namespace {

// ------------------------------------------------------------ Matrix

TEST(Matrix, StoresAndRetrieves) {
  Matrix<double> m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, BoundsChecked) {
  Matrix<int> m(2, 2);
  EXPECT_THROW((void)m(2, 0), std::invalid_argument);
  EXPECT_THROW((void)m(0, 2), std::invalid_argument);
}

TEST(Matrix, EqualityIsElementwise) {
  Matrix<int> a(2, 2, 1);
  Matrix<int> b(2, 2, 1);
  EXPECT_EQ(a, b);
  b(1, 1) = 2;
  EXPECT_NE(a, b);
}

TEST(Matrix, DefaultIsEmpty) {
  Matrix<double> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

// ------------------------------------------------------------ csv::Table

TEST(CsvTable, RejectsEmptyHeaderAndWrongArity) {
  EXPECT_THROW(csv::Table({}), std::invalid_argument);
  csv::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(CsvTable, WritesCsv) {
  csv::Table t({"n", "ratio"});
  t.add_row({"100", "4.5"});
  t.add_row({"200", "4.8"});
  std::ostringstream oss;
  t.write_csv(oss);
  EXPECT_EQ(oss.str(), "n,ratio\n100,4.5\n200,4.8\n");
}

TEST(CsvTable, PrettyAlignsColumns) {
  csv::Table t({"name", "x"});
  t.add_row({"long-name-here", "1"});
  std::ostringstream oss;
  t.write_pretty(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("long-name-here"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(FormatNumber, TrimsTrailingZeros) {
  EXPECT_EQ(csv::format_number(4.0), "4");
  EXPECT_EQ(csv::format_number(4.5), "4.5");
  EXPECT_EQ(csv::format_number(4.126, 2), "4.13");
  EXPECT_EQ(csv::format_number(-0.5), "-0.5");
}

// ------------------------------------------------------------ SplitMix64

TEST(SplitMix64, DeterministicPerSeed) {
  SplitMix64 a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  SplitMix64 a2(42);
  EXPECT_NE(a2(), c());
}

TEST(SplitMix64, Uniform01InRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(SplitMix64, BelowRespectsBound) {
  SplitMix64 rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(SplitMix64, BelowCoversRange) {
  SplitMix64 rng(1);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 500; ++i) ++seen[rng.below(5)];
  for (const int count : seen) EXPECT_GT(count, 0);
}

// ------------------------------------------------------------ Args

TEST(Args, ParsesOptionsAndPositionals) {
  const char* argv[] = {"prog", "--n=42", "--flag", "pos1", "--x=1.5"};
  const Args args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 1.5);
  EXPECT_EQ(args.get("absent", "dflt"), "dflt");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

// ------------------------------------------------------------ error helpers

TEST(Error, RequireAndEnsureThrow) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad"), std::invalid_argument);
  EXPECT_NO_THROW(ensure(true, "ok"));
  EXPECT_THROW(ensure(false, "bad"), std::logic_error);
}

TEST(Error, MacrosCarryContext) {
  const auto misuse = [] { OP_REQUIRE(false, "value " << 7 << " rejected"); };
  try {
    misuse();
    FAIL() << "OP_REQUIRE did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("value 7 rejected"),
              std::string::npos);
  }
  const auto broken = [] { OP_ASSERT(1 + 1 == 3, "arithmetic drifted"); };
  try {
    broken();
    FAIL() << "OP_ASSERT did not throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invariant failed"), std::string::npos);
    EXPECT_NE(what.find("arithmetic drifted"), std::string::npos);
  }
}

// --------------------------------------------- previously uncovered corners

TEST(Args, LastDuplicateWinsAndEmptyValues) {
  const char* argv[] = {"prog", "--n=1", "--n=2", "--empty=", "--flag"};
  const Args args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 2);
  EXPECT_TRUE(args.has("empty"));
  EXPECT_EQ(args.get("empty", "fallback"), "");
  EXPECT_EQ(args.get("flag", "fallback"), "");
}

TEST(Args, NonNumericValuesThrow) {
  const char* argv[] = {"prog", "--n=abc", "--x=xyz", "--m=12x", "--y=1.5s",
                        "--e=", "--big=99999999999"};
  const Args args(7, argv);
  // The whole value must parse: garbage, trailing characters, an empty
  // value and an out-of-range integer are errors, not 0 or a prefix.
  EXPECT_THROW((void)args.get_int("n", 5), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("x", 5.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("m", 5), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("y", 5.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("e", 5), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("big", 5), std::invalid_argument);
  try {
    (void)args.get_int("n", 5);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos)
        << e.what();
  }
}

TEST(Args, NumbersParseInFull) {
  const char* argv[] = {"prog", "--n=-7", "--x=2.5e-1"};
  const Args args(3, argv);
  EXPECT_EQ(args.get_int("n", 0), -7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 0.25);
  EXPECT_EQ(parse_number<unsigned>("42", "--shards"), 42u);
  EXPECT_THROW((void)parse_number<unsigned>("-1", "--shards"),
               std::invalid_argument);
}

TEST(Args, SplitListDropsEmptyItems) {
  EXPECT_EQ(split_list("LU,,STENCIL,"),
            (std::vector<std::string>{"LU", "STENCIL"}));
  EXPECT_EQ(split_list(",LU"), (std::vector<std::string>{"LU"}));
  EXPECT_TRUE(split_list("").empty());
  EXPECT_TRUE(split_list(",,").empty());
}

TEST(Args, SplitIntsTakesPositiveIntegersOnly) {
  EXPECT_EQ(split_ints("100,,200", "--sizes"), (std::vector<int>{100, 200}));
  EXPECT_THROW((void)split_ints("10,0", "--sizes"), std::invalid_argument);
  EXPECT_THROW((void)split_ints("-5", "--sizes"), std::invalid_argument);
  EXPECT_THROW((void)split_ints("10,2x", "--sizes"), std::invalid_argument);
  EXPECT_THROW((void)split_ints("ten", "--sizes"), std::invalid_argument);
  try {
    (void)split_ints("40,0", "--sizes");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--sizes: '0'"), std::string::npos)
        << e.what();
  }
}

TEST(Args, RequireKnownRejectsMisspelledFlags) {
  const char* argv[] = {"prog", "--schedulers=heft-oneport", "--quiet",
                        "positional"};
  const Args args(4, argv);
  EXPECT_NO_THROW(args.require_known({"schedulers", "quiet", "sizes"}));
  try {
    args.require_known({"scheduler", "quiet"});
    FAIL() << "require_known accepted an unknown flag";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'--schedulers'"), std::string::npos) << what;
    EXPECT_NE(what.find("--scheduler,"), std::string::npos) << what;
  }
  // Positionals are not flags.
  const char* plain[] = {"prog", "file.dot"};
  EXPECT_NO_THROW(Args(2, plain).require_known({}));
}

TEST(Args, NoArgumentsIsEmpty) {
  const char* argv[] = {"prog"};
  const Args args(1, argv);
  EXPECT_TRUE(args.positional().empty());
  EXPECT_FALSE(args.has("anything"));
}

TEST(CsvTable, ExposesHeaderAndRows) {
  csv::Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.num_rows(), 1u);
  ASSERT_EQ(t.header().size(), 2u);
  EXPECT_EQ(t.header()[1], "b");
  ASSERT_EQ(t.rows().size(), 1u);
  EXPECT_EQ(t.rows()[0][0], "1");
}

TEST(CsvTable, CsvRoundTripPreservesCells) {
  csv::Table t({"name", "value"});
  t.add_row({"alpha", "1.25"});
  t.add_row({"beta", "-3"});
  std::ostringstream oss;
  t.write_csv(oss);
  // Re-parse the emitted CSV line by line and compare against the source
  // table (cells in this codebase never contain commas or quotes).
  std::istringstream iss(oss.str());
  std::string line;
  std::vector<std::vector<std::string>> parsed;
  while (std::getline(iss, line)) {
    std::vector<std::string> cells;
    std::istringstream ls(line);
    std::string cell;
    while (std::getline(ls, cell, ',')) cells.push_back(cell);
    parsed.push_back(cells);
  }
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0], t.header());
  EXPECT_EQ(parsed[1], t.rows()[0]);
  EXPECT_EQ(parsed[2], t.rows()[1]);
}

TEST(FormatNumber, HandlesExtremes) {
  EXPECT_EQ(csv::format_number(0.0), "0");
  EXPECT_EQ(csv::format_number(-4.0), "-4");
  EXPECT_EQ(csv::format_number(0.001, 3), "0.001");
}

TEST(Matrix, SingleCellAndAsymmetricShapes) {
  Matrix<int> m(1, 1, 9);
  EXPECT_EQ(m(0, 0), 9);
  Matrix<int> wide(1, 4, 0);
  wide(0, 3) = 7;
  EXPECT_EQ(wide(0, 3), 7);
  EXPECT_NE(Matrix<int>(1, 4), Matrix<int>(4, 1));  // shape matters
}

TEST(Matrix, CopyIsDeep) {
  Matrix<int> a(2, 2, 1);
  Matrix<int> b = a;
  b(0, 0) = 5;
  EXPECT_EQ(a(0, 0), 1);
  EXPECT_EQ(b(0, 0), 5);
}

TEST(SplitMix64, GoldenValuesMatchReference) {
  // First three outputs of SplitMix64 seeded with 1234567, as published
  // in Steele et al.'s reference implementation -- guards against silent
  // constant or shift edits.
  SplitMix64 rng(1234567);
  EXPECT_EQ(rng(), 6457827717110365317ULL);
  EXPECT_EQ(rng(), 3203168211198807973ULL);
  EXPECT_EQ(rng(), 9817491932198370423ULL);
}

TEST(SplitMix64, UniformRespectsBoundsAndSeed) {
  SplitMix64 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 4.0);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 4.0);
  }
  // Identical seeds replay the identical stream through every helper.
  SplitMix64 a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 10.0), b.uniform(0.0, 10.0));
  }
}

}  // namespace
}  // namespace oneport
