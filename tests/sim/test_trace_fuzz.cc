/**
 * @file
 * Seeded fuzz of the trace parser: tests/data/mini.trace is mutated
 * under fixed seeds (byte flips, insertions and deletions, truncations,
 * over-long lines, core-field edits). Every mutant must parse without
 * throwing; every record that comes back must name a core of the
 * machine and, for a CC record, pass CcInstruction::validate(); every
 * error's line number must lie within the input.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/trace.hh"

namespace ccache::sim {
namespace {

std::string
miniTrace()
{
    std::ifstream in(CCACHE_TEST_DATA_DIR "/mini.trace", std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Lines the parser sees in @p text (a last line may lack its '\n'). */
std::size_t
lineCount(const std::string &text)
{
    std::size_t lines = 0;
    for (char c : text)
        lines += c == '\n';
    return lines + (!text.empty() && text.back() != '\n');
}

void
expectGraceful(const std::string &text)
{
    ParsedTrace parsed;
    ASSERT_NO_THROW(parsed = parseTrace(text)) << text;
    for (const TraceRecord &rec : parsed.records) {
        EXPECT_LT(rec.core, cache::Hierarchy::kCores);
        if (rec.kind == TraceRecord::Kind::CcOp) {
            EXPECT_NO_THROW(rec.instr.validate());
        }
    }
    const std::size_t lines = lineCount(text);
    for (const TraceParseError &e : parsed.errors) {
        EXPECT_GE(e.lineNumber, 1u) << e.message;
        EXPECT_LE(e.lineNumber, lines) << e.message;
    }
}

TEST(TraceFuzz, CorpusParsesClean)
{
    std::string text = miniTrace();
    ASSERT_FALSE(text.empty()) << "tests/data/mini.trace not found";
    ParsedTrace parsed = parseTrace(text);
    EXPECT_TRUE(parsed.ok());
    EXPECT_GT(parsed.records.size(), 100u);
    expectGraceful(text);
}

TEST(TraceFuzz, SeededByteFlipsAreGraceful)
{
    const std::string text = miniTrace();
    ASSERT_FALSE(text.empty());
    Rng rng(0x7ace);
    for (int round = 0; round < 300; ++round) {
        std::string mutated = text;
        unsigned flips = 1 + static_cast<unsigned>(rng.below(4));
        for (unsigned f = 0; f < flips; ++f)
            mutated[rng.below(mutated.size())] =
                static_cast<char>(rng.below(256));
        expectGraceful(mutated);
    }
}

TEST(TraceFuzz, SeededInsertionsAndDeletionsAreGraceful)
{
    const std::string text = miniTrace();
    ASSERT_FALSE(text.empty());
    Rng rng(0x1de1);
    for (int round = 0; round < 300; ++round) {
        std::string mutated = text;
        for (int edit = 0; edit < 3; ++edit) {
            if (rng.below(2) == 0)
                mutated.insert(mutated.begin() +
                                   rng.below(mutated.size() + 1),
                               static_cast<char>(rng.below(256)));
            else if (!mutated.empty())
                mutated.erase(mutated.begin() + rng.below(mutated.size()));
        }
        expectGraceful(mutated);
    }
}

TEST(TraceFuzz, SeededTruncationsAreGraceful)
{
    const std::string text = miniTrace();
    ASSERT_FALSE(text.empty());
    Rng rng(0x7c47);
    for (int round = 0; round < 300; ++round)
        expectGraceful(text.substr(0, rng.below(text.size() + 1)));
}

TEST(TraceFuzz, OverLongLinesAreGraceful)
{
    const std::string text = miniTrace();
    ASSERT_FALSE(text.empty());
    Rng rng(0x10c6);
    for (int round = 0; round < 40; ++round) {
        // Lengths straddle the limit: exactly at it, one past, far past.
        const std::size_t lengths[] = {kMaxTraceLineBytes - 1,
                                       kMaxTraceLineBytes,
                                       kMaxTraceLineBytes + 1,
                                       3 * kMaxTraceLineBytes + 7};
        std::string run(lengths[rng.below(4)], 'x');
        for (char &c : run)
            c = "R W0x1 #"[rng.below(8)];
        std::string mutated = text;
        std::size_t at = mutated.find('\n', rng.below(mutated.size()));
        if (rng.below(4) == 0 || at == std::string::npos)
            mutated += run;                  // last line, no newline
        else
            mutated.insert(at + 1, run + "\n");
        expectGraceful(mutated);
    }
}

TEST(TraceFuzz, CoreFieldEditsAreGraceful)
{
    const std::string text = miniTrace();
    ASSERT_FALSE(text.empty());
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);

    const char *cores[] = {"0", "7", "8", "99", "0x7", "0x8", "07",
                           "-1", "1e3", "4294967295", "4294967296",
                           "18446744073709551615", "18446744073709551616"};
    Rng rng(0xc02e);
    for (int round = 0; round < 300; ++round) {
        std::vector<std::string> edited = lines;
        for (int edit = 0; edit < 4; ++edit) {
            std::string &line = edited[rng.below(edited.size())];
            std::size_t first = line.find(' ');
            if (line.empty() || line[0] == '#' || first == std::string::npos)
                continue;
            std::size_t second = line.find(' ', first + 1);
            line.replace(first + 1, second - first - 1,
                         cores[rng.below(std::size(cores))]);
        }
        std::string mutated;
        for (const std::string &line : edited)
            mutated += line + "\n";
        expectGraceful(mutated);
    }
}

} // namespace
} // namespace ccache::sim
