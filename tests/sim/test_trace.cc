/**
 * @file
 * Tests for the trace parser and replayer.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "sim/trace.hh"

namespace ccache::sim {
namespace {

TEST(TraceParser, ParsesAllRecordKinds)
{
    auto parsed = parseTrace(std::string(R"(
# comment and blank lines ignored

R 0 0x1000
W 3 4096
CC 1 cc_copy 0x2000 0x3000 512
CC 0 cc_cmp 0x2000 0x3000 128
CC 2 cc_and 0x1000 0x2000 0x3000 256
CC 0 cc_clmul128 0x1000 0x2000 0x3000 64
CC 1 cc_search 0x4000 0x5000 512   # trailing comment
)"));
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(parsed.records.size(), 7u);
    EXPECT_EQ(parsed.records[0].kind, TraceRecord::Kind::Read);
    EXPECT_EQ(parsed.records[0].addr, 0x1000u);
    EXPECT_EQ(parsed.records[1].kind, TraceRecord::Kind::Write);
    EXPECT_EQ(parsed.records[1].core, 3u);
    EXPECT_EQ(parsed.records[2].instr.op, cc::CcOpcode::Copy);
    EXPECT_EQ(parsed.records[3].instr.op, cc::CcOpcode::Cmp);
    EXPECT_EQ(parsed.records[4].instr.op, cc::CcOpcode::And);
    EXPECT_EQ(parsed.records[5].instr.clmulWordBits, 128u);
    EXPECT_EQ(parsed.records[6].instr.op, cc::CcOpcode::Search);
}

TEST(TraceParser, ReportsMalformedLinesWithoutAborting)
{
    auto parsed = parseTrace(std::string(R"(
R 0 0x1000
X 0 0x1000
R zero 0x1000
CC 0 cc_frobnicate 0x0 64
CC 0 cc_copy 0x1 0x2000 64
W 1 0x2000
)"));
    // Two good records survive; four problems reported.
    EXPECT_EQ(parsed.records.size(), 2u);
    ASSERT_EQ(parsed.errors.size(), 4u);
    EXPECT_NE(parsed.errors[0].message.find("unknown record"),
              std::string::npos);
    EXPECT_NE(parsed.errors[2].message.find("unknown mnemonic"),
              std::string::npos);
    // The cc_copy with a misaligned operand fails ISA validation.
    EXPECT_NE(parsed.errors[3].message.find("aligned"),
              std::string::npos);
}

TEST(TraceParser, OperandCountChecked)
{
    auto parsed =
        parseTrace(std::string("CC 0 cc_and 0x1000 0x2000 256\n"));
    ASSERT_EQ(parsed.errors.size(), 1u);
    EXPECT_NE(parsed.errors[0].message.find("expects"),
              std::string::npos);
}

TEST(TraceParser, BadHexOperandReported)
{
    auto parsed = parseTrace(std::string(R"(
R 0 0xZZ12
CC 0 cc_copy 0x10g0 0x2000 64
W 0 0x--
)"));
    EXPECT_TRUE(parsed.records.empty());
    ASSERT_EQ(parsed.errors.size(), 3u);
    // The offending line and its number come back for diagnostics.
    EXPECT_EQ(parsed.errors[0].lineNumber, 2u);
    EXPECT_NE(parsed.errors[0].line.find("0xZZ12"), std::string::npos);
    EXPECT_NE(parsed.errors[0].message.find("bad"), std::string::npos);

    // Numbers are 0x/0X plus hex digits, or decimal digits (a leading
    // zero stays decimal), that fit 64 bits. There is no octal, and a
    // sign is not negated into a huge address: each is an error.
    parsed = parseTrace(std::string("R 0 010\n"
                                    "W 07 0XaB40\n"
                                    "R 0 18446744073709551615\n"
                                    "CC 0 cc_copy 0x1000 0x2000 064\n"
                                    "R 0 -64\n"
                                    "R +1 0x1000\n"
                                    "W 0 0x\n"
                                    "R 0 0X\n"
                                    "R 0 18446744073709551616\n"
                                    "W 0 0x10000000000000000\n"
                                    "R 0 0x-40\n"
                                    "CC 0 cc_copy -4096 0x2000 64\n"
                                    "CC 0 cc_copy 0x1000 +0x2000 64\n"
                                    "CC -0 cc_buz 0x1000 64\n"));
    ASSERT_EQ(parsed.records.size(), 4u);
    EXPECT_EQ(parsed.records[0].addr, 10u);
    EXPECT_EQ(parsed.records[1].core, 7u);
    EXPECT_EQ(parsed.records[1].addr, 0xab40u);
    EXPECT_EQ(parsed.records[2].addr, ~Addr{0});
    EXPECT_EQ(parsed.records[3].instr.size, 64u);
    const char *messages[] = {"bad core or address", "bad core or address",
                              "bad core or address", "bad core or address",
                              "bad core or address", "bad core or address",
                              "bad core or address", "bad numeric operand",
                              "bad numeric operand", "bad core"};
    ASSERT_EQ(parsed.errors.size(), std::size(messages));
    for (std::size_t i = 0; i < std::size(messages); ++i) {
        EXPECT_EQ(parsed.errors[i].lineNumber, i + 5);
        EXPECT_EQ(parsed.errors[i].message, messages[i])
            << parsed.errors[i].line;
    }
}

TEST(TraceParser, TruncatedCcRecordReported)
{
    // CC records cut short at every possible point: no mnemonic, no
    // operands, missing size.
    auto parsed = parseTrace(std::string(R"(
CC 0
CC 0 cc_copy
CC 0 cc_copy 0x1000
CC 0 cc_xor 0x1000 0x2000 0x3000
)"));
    EXPECT_TRUE(parsed.records.empty());
    ASSERT_EQ(parsed.errors.size(), 4u);
    for (const auto &err : parsed.errors)
        EXPECT_FALSE(err.message.empty());
}

TEST(TraceParser, CoreOutsideTheMachineReported)
{
    // The default machine has cores 0-7. Core 8 and 99 would index past
    // the hierarchy's private caches; 4294967296 used to narrow to core
    // 0. Each is a per-line error naming the core and the core count.
    auto parsed = parseTrace(std::string(R"(R 7 0x1000
R 8 0x1000
W 99 0x2000
R 4294967296 0x1000
CC 4294967295 cc_copy 0x1000 0x2000 64
CC 7 cc_copy 0x1000 0x2000 64
)"));
    ASSERT_EQ(parsed.records.size(), 2u);
    EXPECT_EQ(parsed.records[0].core, 7u);
    EXPECT_EQ(parsed.records[1].core, 7u);
    ASSERT_EQ(parsed.errors.size(), 4u);
    const char *cores[] = {"8", "99", "4294967296", "4294967295"};
    for (std::size_t i = 0; i < 4; ++i) {
        const TraceParseError &err = parsed.errors[i];
        EXPECT_EQ(err.lineNumber, i + 2);
        EXPECT_NE(err.message.find(std::string("core ") + cores[i] +
                                   " out of range"),
                  std::string::npos) << err.message;
        EXPECT_NE(err.message.find("has 8 cores"), std::string::npos)
            << err.message;
    }
}

TEST(TraceParser, OperandAtAddressZeroReported)
{
    // The controller reads address 0 as "no operand": a record whose
    // operands are all 0 used to crash it, and one with only some at 0
    // dropped its write. Each is a per-line error now.
    auto parsed = parseTrace(std::string(R"(CC 0 cc_buz 0x0 64
CC 0 cc_copy 0x0 0x0 64
CC 0 cc_cmp 0x0 0x0 64
CC 0 cc_and 0x0 0x0 0x0 64
CC 0 cc_or 0x0 0x0 0x0 64
CC 0 cc_xor 0x0 0x0 0x0 64
CC 0 cc_not 0x0 0x0 64
CC 0 cc_clmul64 0x0 0x0 0x0 64
CC 0 cc_copy 0x1000 0x0 64
CC 0 cc_search 0x0 0x1000 64
CC 0 cc_copy 0x2000 0x1000 64
)"));
    ASSERT_EQ(parsed.records.size(), 1u);
    EXPECT_EQ(parsed.records[0].instr.src1, 0x2000u);
    EXPECT_EQ(parsed.records[0].instr.dest, 0x1000u);
    ASSERT_EQ(parsed.errors.size(), 10u);
    for (std::size_t i = 0; i < parsed.errors.size(); ++i) {
        const TraceParseError &err = parsed.errors[i];
        EXPECT_EQ(err.lineNumber, i + 1);
        EXPECT_NE(err.message.find("operand address 0 is reserved"),
                  std::string::npos) << err.message;
    }
}

TEST(TraceParser, OversizedLineSkippedAndReported)
{
    // A line longer than kMaxTraceLineBytes is skipped (without ever
    // buffering it whole) and reported; surrounding records survive.
    std::string text = "R 0 0x1000\n";
    text += "W 0 0x2000" + std::string(2 * kMaxTraceLineBytes, ' ') +
        "junk\n";
    text += "W 0 0x3000\n";
    auto parsed = parseTrace(text);

    ASSERT_EQ(parsed.records.size(), 2u);
    EXPECT_EQ(parsed.records[0].addr, 0x1000u);
    EXPECT_EQ(parsed.records[1].addr, 0x3000u);
    ASSERT_EQ(parsed.errors.size(), 1u);
    EXPECT_EQ(parsed.errors[0].lineNumber, 2u);
    EXPECT_NE(parsed.errors[0].message.find("oversized"),
              std::string::npos);
    // The diagnostic keeps only an excerpt, never the whole line.
    EXPECT_LT(parsed.errors[0].line.size(), 128u);
}

TEST(TraceParser, LineExactlyAtLimitParses)
{
    // Pad a valid record with trailing spaces to exactly the limit
    // (content chars, newline excluded): still parsed, no error.
    std::string record = "R 0 0x4000";
    std::string text = record +
        std::string(kMaxTraceLineBytes - record.size(), ' ') + "\n";
    ASSERT_EQ(text.size(), kMaxTraceLineBytes + 1);
    auto parsed = parseTrace(text);
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(parsed.records.size(), 1u);
    EXPECT_EQ(parsed.records[0].addr, 0x4000u);
}

TEST(TraceParser, ConsecutiveOversizedLinesEachReported)
{
    std::string big(kMaxTraceLineBytes + 10, 'x');
    std::string text = big + "\n" + big + "\nR 0 0x1000\n";
    auto parsed = parseTrace(text);
    ASSERT_EQ(parsed.records.size(), 1u);
    ASSERT_EQ(parsed.errors.size(), 2u);
    EXPECT_EQ(parsed.errors[0].lineNumber, 1u);
    EXPECT_EQ(parsed.errors[1].lineNumber, 2u);
}

TEST(TraceParser, FileRoundTripAndMissingFile)
{
    namespace fs = std::filesystem;
    fs::path path =
        fs::temp_directory_path() / "ccache_trace_parse_test.trace";
    {
        std::ofstream out(path);
        out << "# file round trip\nR 0 0x1000\nCC 1 cc_buz 0x2000 "
               "128\n";
    }
    auto parsed = parseTraceFile(path.string());
    EXPECT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.records.size(), 2u);
    fs::remove(path);

    auto missing = parseTraceFile(path.string());
    EXPECT_TRUE(missing.records.empty());
    ASSERT_EQ(missing.errors.size(), 1u);
    EXPECT_EQ(missing.errors[0].lineNumber, 0u);
    EXPECT_NE(missing.errors[0].message.find("cannot open"),
              std::string::npos);
}

TEST(TraceReplay, FunctionalAndCounted)
{
    System sys;
    std::vector<std::uint8_t> data(4096);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    sys.load(0x10000, data.data(), data.size());

    auto parsed = parseTrace(std::string(R"(
R 0 0x10000
CC 0 cc_copy 0x10000 0x20000 4096
CC 0 cc_cmp 0x10000 0x20000 512
W 1 0x30000
)"));
    ASSERT_TRUE(parsed.ok());

    auto result = replayTrace(sys, parsed);
    EXPECT_EQ(result.reads, 1u);
    EXPECT_EQ(result.writes, 1u);
    EXPECT_EQ(result.ccInstructions, 2u);
    EXPECT_GT(result.cycles, 0u);
    // The cmp compared identical data: all 64 word bits set.
    EXPECT_EQ(result.resultChecksum, ~std::uint64_t{0});
    // And the copy actually happened.
    EXPECT_EQ(sys.dump(0x20000, 4096), data);
}

TEST(TraceReplay, PerCoreClocksMakeMakespan)
{
    System sys;
    auto parsed = parseTrace(std::string(R"(
CC 0 cc_buz 0x10000 16384
R 5 0x90000
)"));
    ASSERT_TRUE(parsed.ok());
    auto result = replayTrace(sys, parsed);
    // Core 0's big CC op dominates core 5's single read.
    EXPECT_EQ(result.cycles, sys.coreCycles(0));
    EXPECT_GT(sys.coreCycles(0), sys.coreCycles(5));
}

TEST(TraceReplay, ReportContainsKeyLines)
{
    System sys;
    auto parsed = parseTrace(std::string("R 0 0x1000\n"));
    auto result = replayTrace(sys, parsed);
    std::string report = formatReport(sys, result);
    EXPECT_NE(report.find("reads            1"), std::string::npos);
    EXPECT_NE(report.find("dynamic-total"), std::string::npos);
    EXPECT_NE(report.find("hier.l1_misses"), std::string::npos);
}

} // namespace
} // namespace ccache::sim
