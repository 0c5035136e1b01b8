// Tests for the util layer: option parsing, table formatting, timers.
#include <sstream>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/options.h"
#include "util/table.h"
#include "util/timer.h"

namespace mpcgs {
namespace {

Options parse(std::initializer_list<const char*> args) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return Options::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(OptionsTest, KeyValueForms) {
    // NB: a bare option followed by a non-option token consumes it as a
    // value (documented contract), so flags belong after positionals or
    // before other options.
    const Options o = parse({"pos1", "pos2", "--alpha", "1.5", "--name=foo", "--flag"});
    EXPECT_TRUE(o.has("alpha"));
    EXPECT_DOUBLE_EQ(o.getDouble("alpha", 0.0), 1.5);
    EXPECT_EQ(o.get("name", ""), "foo");
    EXPECT_TRUE(o.has("flag"));
    EXPECT_TRUE(o.getBool("flag", false));
    ASSERT_EQ(o.positional().size(), 2u);
    EXPECT_EQ(o.positional()[0], "pos1");
    EXPECT_EQ(o.programName(), "prog");
}

TEST(OptionsTest, BareOptionConsumesFollowingToken) {
    const Options o = parse({"--flag", "pos1", "pos2"});
    EXPECT_EQ(o.get("flag", ""), "pos1");
    ASSERT_EQ(o.positional().size(), 1u);
    EXPECT_EQ(o.positional()[0], "pos2");
}

TEST(OptionsTest, DefaultsWhenMissing) {
    const Options o = parse({});
    EXPECT_FALSE(o.has("x"));
    EXPECT_EQ(o.getInt("x", 42), 42);
    EXPECT_DOUBLE_EQ(o.getDouble("x", 2.5), 2.5);
    EXPECT_EQ(o.get("x", "d"), "d");
    EXPECT_FALSE(o.getBool("x", false));
    EXPECT_TRUE(o.getBool("x", true));
}

TEST(OptionsTest, BoolSpellings) {
    EXPECT_TRUE(parse({"--a", "true"}).getBool("a", false));
    EXPECT_TRUE(parse({"--a", "1"}).getBool("a", false));
    EXPECT_TRUE(parse({"--a", "yes"}).getBool("a", false));
    EXPECT_FALSE(parse({"--a", "no"}).getBool("a", true));
    EXPECT_FALSE(parse({"--a", "0"}).getBool("a", true));
}

TEST(OptionsTest, FlagFollowedByOption) {
    // A bare flag directly before another option must not eat it.
    const Options o = parse({"--verbose", "--count", "3"});
    EXPECT_TRUE(o.getBool("verbose", false));
    EXPECT_EQ(o.getInt("count", 0), 3);
}

TEST(OptionsTest, NegativeNumberAsValue) {
    const Options o = parse({"--offset", "-2.5"});
    EXPECT_DOUBLE_EQ(o.getDouble("offset", 0.0), -2.5);
}

/// True when `read` throws a ConfigError whose message names `flag`.
template <class Read>
bool rejectsNaming(Read&& read, const std::string& flag) {
    try {
        read();
    } catch (const ConfigError& e) {
        return std::string(e.what()).find(flag) != std::string::npos;
    }
    return false;
}

TEST(OptionsTest, NumbersMustBeWholeTokens) {
    const Options o = parse({"--samples", "1e3", "--threads", "4x", "--ess-threshold",
                             "0.5.1", "--seed", "99999999999999999999", "--theta", "one"});
    EXPECT_TRUE(rejectsNaming([&] { o.getInt("samples", 0); }, "--samples"));
    EXPECT_TRUE(rejectsNaming([&] { o.getCount("threads", 0); }, "--threads"));
    EXPECT_TRUE(
        rejectsNaming([&] { o.getDouble("ess-threshold", 0.0); }, "--ess-threshold"));
    EXPECT_TRUE(rejectsNaming([&] { o.getInt("seed", 0); }, "--seed"));  // out of range
    EXPECT_TRUE(rejectsNaming([&] { o.getDouble("theta", 0.0); }, "--theta"));
}

TEST(OptionsTest, DoublesMustBeFinite) {
    // strtod reads "nan" and "inf" whole; a non-finite theta or threshold
    // would pass every `x <= 0` check downstream.
    const Options o = parse({"--stop-rhat", "nan", "--pmmh-sigma", "inf", "--theta", "-inf",
                             "--stop-ess", "INFINITY", "--mig-init", "nan(1)", "--path-refresh",
                             "0x1p-2"});
    EXPECT_TRUE(rejectsNaming([&] { o.getDouble("stop-rhat", 0.0); }, "--stop-rhat"));
    EXPECT_TRUE(rejectsNaming([&] { o.getDouble("pmmh-sigma", 0.4); }, "--pmmh-sigma"));
    EXPECT_TRUE(rejectsNaming([&] { o.getDouble("theta", 1.0); }, "--theta"));
    EXPECT_TRUE(rejectsNaming([&] { o.getDouble("stop-ess", 0.0); }, "--stop-ess"));
    EXPECT_TRUE(rejectsNaming([&] { o.getDouble("mig-init", 1.0); }, "--mig-init"));
    EXPECT_DOUBLE_EQ(o.getDouble("path-refresh", 0.0), 0.25);  // finite hex float
}

TEST(OptionsTest, PositionalNumbersParseWholeAndFinite) {
    // The tools' positional theta and tip count go through the same parser
    // as the flags, named by their usage placeholder.
    EXPECT_DOUBLE_EQ(parseDouble("<init_theta>", "1.0"), 1.0);
    EXPECT_DOUBLE_EQ(parseDouble("<init_theta>", "2e-3"), 2e-3);
    for (const char* bad : {"1.0x", "abc", "", "nan", "inf", "-inf", "1e999"})
        EXPECT_TRUE(rejectsNaming([&] { parseDouble("<init_theta>", bad); }, "<init_theta>"))
            << bad;
    EXPECT_EQ(parseInt("<nTips>", "12"), 12);
    for (const char* bad : {"5x", "5.0", "1e3", "", "twelve"})
        EXPECT_TRUE(rejectsNaming([&] { parseInt("<nTips>", bad); }, "<nTips>")) << bad;
}

TEST(OptionsTest, CountsRejectNegativeValues) {
    const Options o =
        parse({"--particles", "-5", "--threads", "-1", "--em", "0", "--samples", "12"});
    EXPECT_EQ(o.getInt("particles", 0), -5);  // a plain integer may be negative
    EXPECT_TRUE(rejectsNaming([&] { o.getCount("particles", 1); }, "--particles"));
    EXPECT_TRUE(rejectsNaming([&] { o.getCount("threads", 1); }, "--threads"));
    EXPECT_EQ(o.getCount("em", 4), 0u);
    EXPECT_EQ(o.getCount("samples", 4), 12u);
    EXPECT_EQ(o.getCount("chains", 4), 4u);
}

TEST(OptionsTest, CountsRejectValuesAboveTheirCap) {
    // --threads 5000000000 would truncate to 705032704 as an unsigned;
    // the cap rejects it while it is still a parsed number.
    const Options o = parse({"--threads", "5000000000", "--chains", "1024", "--em", "1025"});
    EXPECT_TRUE(rejectsNaming([&] { o.getCount("threads", 1, 1024); }, "--threads"));
    EXPECT_EQ(o.getCount("chains", 1, 1024), 1024u);
    EXPECT_TRUE(rejectsNaming([&] { o.getCount("em", 1, 1024); }, "--em"));
    EXPECT_EQ(o.getCount("samples", 2048, 1024), 2048u);  // a default is not a value
    EXPECT_EQ(o.getCount("threads", 1), 5000000000u);     // uncapped by default
}

TEST(OptionsTest, RequireKnownNamesTheUnknownFlag) {
    constexpr const char* kKnown[] = {"particles", "threads", "resume"};
    EXPECT_NO_THROW(parse({"d.phy", "--particles", "512", "--threads=2", "--resume"})
                        .requireKnown(kKnown));
    EXPECT_NO_THROW(parse({"d.phy", "1.0"}).requireKnown(kKnown));
    EXPECT_TRUE(rejectsNaming(
        [&] { parse({"d.phy", "--threads", "2", "--partcles", "512"}).requireKnown(kKnown); },
        "--partcles"));
    EXPECT_TRUE(rejectsNaming(
        [&] { parse({"--resume", "--cached-baseline"}).requireKnown(kKnown); },
        "--cached-baseline"));
    EXPECT_TRUE(rejectsNaming([&] { parse({"--lik-backend=arena"}).requireKnown(kKnown); },
                              "--lik-backend"));
    // A scoped check names the flag and the scope it does not apply to.
    EXPECT_TRUE(rejectsNaming(
        [&] { parse({"serve", "--resume", "--model", "HKY85"}).requireKnown(kKnown, "serve"); },
        "--model does not apply to serve"));
}

TEST(TableTest, AlignedOutput) {
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"a-very-long-name", "2.75"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("a-very-long-name"), std::string::npos);
    // All lines equal width.
    std::istringstream lines(out);
    std::string line, first;
    std::getline(lines, first);
    while (std::getline(lines, line)) EXPECT_EQ(line.size(), first.size());
}

TEST(TableTest, CsvOutput) {
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableTest, Validation) {
    EXPECT_THROW(Table({}), std::invalid_argument);
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
    EXPECT_EQ(t.rows(), 0u);
    EXPECT_EQ(t.cols(), 2u);
}

TEST(TableTest, NumberFormatting) {
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(1.0, 0), "1");
    EXPECT_EQ(Table::integer(-42), "-42");
}

TEST(TimerTest, MeasuresElapsedTime) {
    Timer t;
    // Trivial busy loop; just verify monotonicity and reset.
    volatile double x = 0.0;
    for (int i = 0; i < 100000; ++i) x = x + i;
    const double a = t.seconds();
    EXPECT_GE(a, 0.0);
    t.reset();
    EXPECT_LE(t.seconds(), a + 1.0);
}

TEST(TimerTest, PhaseTimerAccumulates) {
    PhaseTimer pt;
    pt.start();
    pt.stop();
    pt.start();
    pt.stop();
    EXPECT_GE(pt.totalSeconds(), 0.0);
    pt.reset();
    EXPECT_DOUBLE_EQ(pt.totalSeconds(), 0.0);
}

TEST(TimerTest, ElapsedTimeNeverRunsBackwards) {
    // The static_assert in util/timer.h pins the clock to steady_clock;
    // this is the runtime half of that contract: successive readings of
    // one Timer are non-decreasing, so no phase duration or speedup table
    // can ever report a negative interval.
    Timer t;
    double prev = t.seconds();
    EXPECT_GE(prev, 0.0);
    for (int i = 0; i < 1000; ++i) {
        const double now = t.seconds();
        ASSERT_GE(now, prev) << "timer ran backwards at reading " << i;
        prev = now;
    }
}

TEST(TimerTest, PhaseTimerNeverAccumulatesNegativeIntervals) {
    PhaseTimer pt;
    double prevTotal = 0.0;
    for (int i = 0; i < 200; ++i) {
        pt.start();
        pt.stop();
        const double total = pt.totalSeconds();
        ASSERT_GE(total, prevTotal) << "phase total shrank at interval " << i;
        prevTotal = total;
    }
    // stop() without start() must not add a phantom interval.
    pt.stop();
    EXPECT_DOUBLE_EQ(pt.totalSeconds(), prevTotal);
}

TEST(FormatDurationTest, PicksUnits) {
    EXPECT_EQ(formatDuration(90.0), "1.5 min");
    EXPECT_EQ(formatDuration(2.5), "2.50 s");
    EXPECT_EQ(formatDuration(0.25), "250 ms");
    EXPECT_EQ(formatDuration(2e-5), "20 us");
}

}  // namespace
}  // namespace mpcgs
