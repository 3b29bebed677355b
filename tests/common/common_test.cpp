#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/random.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace mri {
namespace {

// ---- random ---------------------------------------------------------------

TEST(Random, Deterministic) {
  Xoshiro256 a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Random, DoubleInUnitInterval) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Random, UniformRange) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Random, NextBelowIsBoundedAndCoversAll) {
  Xoshiro256 rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Random, RoughlyUniformMean) {
  Xoshiro256 rng(4);
  double sum = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / trials, 0.5, 0.01);
}

// ---- thread pool ------------------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t i) {
                          if (i == 5) throw std::runtime_error("task 5");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, SingleThreadWorks) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ZeroThreadsRejected) { EXPECT_THROW(ThreadPool(0), InvalidArgument); }

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A parallel_for issued from inside a worker used to deadlock: every
  // worker blocks on futures only workers could run. More outer tasks than
  // threads guarantees the old deadlock; now inner loops run inline.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(pool.in_worker_thread());
    pool.parallel_for(4, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 32);
  EXPECT_FALSE(pool.in_worker_thread());
}

// Runs 6 iterations through `run` where iterations 2 and 4 throw: every
// iteration must still run, and iteration 2's error must be the one that
// surfaces.
template <typename Run>
void expect_all_run_lowest_error_surfaces(Run run) {
  std::vector<std::atomic<int>> ran(6);
  std::string message;
  try {
    run(6, [&](std::size_t i) {
      ran[i].fetch_add(1);
      if (i == 2 || i == 4) {
        std::string what = "iteration ";
        what += std::to_string(i);
        throw std::runtime_error(what);
      }
    });
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_EQ(message, "iteration 2");
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "iteration " << i;
  }
}

TEST(ThreadPool, FailingIterationsRunAllAndRethrowTheLowest) {
  ThreadPool pool(3);
  SCOPED_TRACE("top-level");
  expect_all_run_lowest_error_surfaces(
      [&](std::size_t count, const std::function<void(std::size_t)>& fn) {
        pool.parallel_for(count, fn);
      });
}

TEST(ThreadPool, NestedFailingIterationsRunAllAndRethrowTheLowest) {
  // The nested branch runs inline on the worker; it must behave like the
  // pooled branch, not stop at the first throw.
  ThreadPool pool(2);
  pool.submit([&] {
        SCOPED_TRACE("nested");
        ASSERT_TRUE(pool.in_worker_thread());
        expect_all_run_lowest_error_surfaces(
            [&](std::size_t count,
                const std::function<void(std::size_t)>& fn) {
              pool.parallel_for(count, fn);
            });
      })
      .get();
}

TEST(SerialFor, RunsInOrderOnTheCallerAndRethrowsTheLowest) {
  expect_all_run_lowest_error_surfaces(
      [](std::size_t count, const std::function<void(std::size_t)>& fn) {
        serial_for(count, fn);
      });
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  serial_for(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// ---- cli --------------------------------------------------------------------

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog",      "pos1",    "--nodes", "8",
                        "--name=fig6", "--ratio", "2.5",     "--verbose"};
  CliOptions cli(8, argv);
  EXPECT_EQ(cli.get_int("nodes", 0), 8);
  EXPECT_EQ(cli.get_string("name", ""), "fig6");
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 2.5);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, Fallbacks) {
  const char* argv[] = {"prog"};
  CliOptions cli(1, argv);
  EXPECT_EQ(cli.get_int("missing", -3), -3);
  EXPECT_EQ(cli.get_string("missing", "d"), "d");
  EXPECT_FALSE(cli.get_bool("missing", false));
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, IntList) {
  const char* argv[] = {"prog", "--nodes", "1,2,4,8"};
  CliOptions cli(3, argv);
  EXPECT_EQ(cli.get_int_list("nodes", {}),
            (std::vector<std::int64_t>{1, 2, 4, 8}));
}

TEST(Cli, BadValuesThrow) {
  const char* argv[] = {"prog", "--n", "abc"};
  CliOptions cli(3, argv);
  EXPECT_THROW(cli.get_int("n", 0), InvalidArgument);
  EXPECT_THROW(cli.get_bool("n", false), InvalidArgument);
}

TEST(Cli, RejectUnknownNamesTheFlag) {
  // A near-miss spelling must not run as if the option were absent.
  const char* argv[] = {"prog", "--nodes", "4", "--verify-checksum", "on"};
  CliOptions cli(5, argv);
  EXPECT_NO_THROW(cli.reject_unknown({"nodes", "verify-checksum"}));
  try {
    cli.reject_unknown({"nodes", "verify-checksums"});
    FAIL() << "--verify-checksum was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--verify-checksum"),
              std::string::npos)
        << e.what();
  }
}

// ---- units ------------------------------------------------------------------

TEST(Units, FormatGb) {
  EXPECT_EQ(format_gb(8ull * 1000 * 1000 * 1000), "8.00 GB");
  EXPECT_EQ(format_gb(200ull * 1000 * 1000 * 1000), "200 GB");
}

TEST(Units, FormatBytesScales) {
  EXPECT_EQ(format_bytes(500), "500 B");
  EXPECT_EQ(format_bytes(1500), "1.50 KB");
  EXPECT_EQ(format_bytes(20ull * 1000 * 1000 * 1000 * 1000), "20.0 TB");
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(format_duration(42.0), "42.0 s");
  EXPECT_EQ(format_duration(300.0), "5.00 min");
  EXPECT_EQ(format_duration(5.0 * 3600), "5.00 h");
}

TEST(Units, FormatBillions) {
  EXPECT_EQ(format_billions(1070000000ull), "1.07 billion");
}

// ---- table ------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(cell(3.14159, 2), "3.14");
  EXPECT_EQ(cell_int(-42), "-42");
}

// ---- json -------------------------------------------------------------------

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  JsonWriter w;
  w.value("q\"b\\n\nt\tc\x01" "e\x1f");
  EXPECT_EQ(w.str(), R"("q\"b\\n\nt\tc\u0001e\u001f")");
  JsonWriter plain;
  plain.value("caf\xc3\xa9 /x");  // UTF-8 and '/' pass through untouched
  EXPECT_EQ(plain.str(), "\"caf\xc3\xa9 /x\"");
}

TEST(JsonWriter, PlacesCommasBetweenSiblingsOnly) {
  JsonWriter w;
  w.begin_object()
      .field("a", 1)
      .begin_array("b")
      .value(1)
      .value(2)
      .begin_object()
      .end_object()
      .begin_array()
      .end_array()
      .end_array()
      .begin_object("c")
      .field("d", true)
      .field("e", "x")
      .begin_object("f")
      .field("g", false)
      .end_object()
      .end_object()
      .begin_array("empty")
      .end_array()
      .end_object();
  EXPECT_EQ(w.str(),
            R"({"a":1,"b":[1,2,{},[]],"c":{"d":true,"e":"x","f":{"g":false}},)"
            R"("empty":[]})");
}

TEST(JsonWriter, IntegersVerbatimDoublesAtTheWritersPrecision) {
  JsonWriter report(12);
  JsonWriter bench(17);
  report.value(1.0 / 3.0);
  bench.value(1.0 / 3.0);
  EXPECT_EQ(report.str(), "0.333333333333");
  EXPECT_EQ(bench.str(), "0.33333333333333331");

  JsonWriter ints;
  ints.begin_array()
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(-3)
      .value(std::int64_t{-9007199254740993})
      .end_array();
  EXPECT_EQ(ints.str(), "[18446744073709551615,-3,-9007199254740993]");

  // Doubles match the stream's default format at the same precision: no
  // trailing zeros, exponent form outside the fixed range.
  for (const int precision : {12, 17}) {
    for (const double v : {15e6, 2.5, 1e-5, 1e20, -0.0, 143.56052969,
                           6.02214076e23, 1e-300, 0.1}) {
      std::ostringstream expected;
      expected.precision(precision);
      expected << v;
      JsonWriter w(precision);
      w.value(v);
      EXPECT_EQ(w.str(), expected.str()) << v << " at " << precision;
    }
  }
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_object()
      .field("nan", std::nan(""))
      .field("inf", std::numeric_limits<double>::infinity())
      .field("neg_inf", -std::numeric_limits<double>::infinity())
      .end_object();
  EXPECT_EQ(w.str(), R"({"nan":null,"inf":null,"neg_inf":null})");
}

TEST(JsonWriter, WritesTheDocumentPlusNewline) {
  const std::string path = ::testing::TempDir() + "json_writer_test.json";
  write_json_file(path, "{\"a\":1}");
  std::ifstream in(path);
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), "{\"a\":1}\n");
  EXPECT_THROW(write_json_file(path + ".missing/x.json", "{}"),
               InvalidArgument);
}

// ---- stopwatch ----------------------------------------------------------------

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  const double t0 = sw.seconds();
  EXPECT_GE(t0, 0.0);
  sw.reset();
  EXPECT_GE(sw.seconds(), 0.0);
}

}  // namespace
}  // namespace mri
