#include "core/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/error.hpp"

namespace xts {
namespace {

TEST(Table, PrintsHeaderAndRows) {
  Table t("demo", {"name", "value"});
  t.add_row({"alpha", Table::num(1.5, 2)});
  t.add_row({"beta", Table::num(20LL)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("20"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t("csvdemo", {"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("a,b\n1,2\n"), std::string::npos);
}

TEST(Table, RowArityIsChecked) {
  Table t("x", {"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), UsageError);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table("x", {}), UsageError);
}

TEST(Table, NumFormatsSignificantDigits) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(0.5, 0), "0");  // rounds to even per printf
  EXPECT_EQ(Table::num(1234LL), "1234");
}

TEST(BenchOptions, ParsesFlags) {
  const char* argv[] = {"prog", "--csv", "--quick"};
  auto opt = BenchOptions::parse(3, const_cast<char**>(argv), "blurb");
  EXPECT_TRUE(opt.csv);
  EXPECT_TRUE(opt.quick);
  EXPECT_FALSE(opt.full);
}

TEST(BenchOptions, RejectsUnknownAndConflicting) {
  const char* bad[] = {"prog", "--wat"};
  EXPECT_THROW(BenchOptions::parse(2, const_cast<char**>(bad), ""),
               UsageError);
  const char* conflict[] = {"prog", "--quick", "--full"};
  EXPECT_THROW(BenchOptions::parse(3, const_cast<char**>(conflict), ""),
               UsageError);
  // --jobs is the only concurrency flag; the retired intra-World ones
  // must fail loudly rather than parse.
  for (const char* stale :
       {"--world-threads=4", "--world-lanes=2", "--par-grain=1"}) {
    const char* args[] = {"prog", stale};
    EXPECT_THROW(BenchOptions::parse(2, const_cast<char**>(args), ""),
                 UsageError)
        << stale;
  }
}

}  // namespace
}  // namespace xts
