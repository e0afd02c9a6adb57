/**
 * @file
 * Seeded fuzz of the trace parser: tests/data/mini.trace is mutated
 * under fixed seeds (byte flips, insertions and deletions, truncations,
 * over-long lines, core-field edits). Every mutant must parse without
 * throwing; every record that comes back must name a core of the
 * machine and, for a CC record, pass CcInstruction::validate(); every
 * error's line number must lie within the input.
 *
 * Every mutant, and an edge corpus of separators, grammar corners,
 * operand counts and line lengths, must also parse the same through
 * both parseTrace overloads and a reference parser kept here as an
 * oracle: getline, cut at '#', `istringstream >> token`, and a
 * digit-by-digit reader of the documented number grammar. Records must
 * agree field for field and errors by line number, line text and
 * message.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
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

/** The documented number grammar, digit by digit: 0x/0X plus hex
 *  digits, or decimal digits, fitting 64 bits. */
bool
referenceNumber(const std::string &token, std::uint64_t &out)
{
    std::size_t i = 0;
    std::uint64_t base = 10;
    if (token.size() > 2 && token[0] == '0' &&
        (token[1] == 'x' || token[1] == 'X')) {
        i = 2;
        base = 16;
    }
    if (i == token.size())
        return false;
    std::uint64_t v = 0;
    for (; i < token.size(); ++i) {
        const char c = token[i];
        std::uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a' + 10);
        else if (base == 16 && c >= 'A' && c <= 'F')
            digit = static_cast<std::uint64_t>(c - 'A' + 10);
        else
            return false;
        if (v > (~std::uint64_t{0} - digit) / base)
            return false;
        v = v * base + digit;
    }
    out = v;
    return true;
}

/** The CC instruction a mnemonic and its operands name, as the trace
 *  grammar defines it; false with the parser's message otherwise. */
bool
referenceInstruction(const std::string &mnemonic,
                     const std::vector<std::uint64_t> &a,
                     cc::CcInstruction &out, std::string &error)
{
    using cc::CcInstruction;
    static const std::map<std::string, std::size_t> kOperands = {
        {"cc_copy", 3}, {"cc_buz", 2}, {"cc_cmp", 3},
        {"cc_search", 3}, {"cc_and", 4}, {"cc_or", 4},
        {"cc_xor", 4}, {"cc_not", 3}, {"cc_clmul64", 4},
        {"cc_clmul128", 4}, {"cc_clmul256", 4}};
    auto it = kOperands.find(mnemonic);
    if (it == kOperands.end()) {
        error = "unknown mnemonic '" + mnemonic + "'";
        return false;
    }
    if (a.size() != it->second) {
        error = mnemonic + " expects " + std::to_string(it->second - 1) +
            " operands plus a size";
        return false;
    }
    if (mnemonic == "cc_copy")
        out = CcInstruction::copy(a[0], a[1], a[2]);
    else if (mnemonic == "cc_buz")
        out = CcInstruction::buz(a[0], a[1]);
    else if (mnemonic == "cc_cmp")
        out = CcInstruction::cmp(a[0], a[1], a[2]);
    else if (mnemonic == "cc_search")
        out = CcInstruction::search(a[0], a[1], a[2]);
    else if (mnemonic == "cc_and")
        out = CcInstruction::logicalAnd(a[0], a[1], a[2], a[3]);
    else if (mnemonic == "cc_or")
        out = CcInstruction::logicalOr(a[0], a[1], a[2], a[3]);
    else if (mnemonic == "cc_xor")
        out = CcInstruction::logicalXor(a[0], a[1], a[2], a[3]);
    else if (mnemonic == "cc_not")
        out = CcInstruction::logicalNot(a[0], a[1], a[2]);
    else
        out = CcInstruction::clmul(a[0], a[1], a[2], a[3],
                                   std::stoul(mnemonic.substr(8)));
    try {
        out.validate();
    } catch (const FatalError &e) {
        error = e.what();
        return false;
    }
    return true;
}

/** Reference parser: what parseTrace must return for @p text. */
ParsedTrace
referenceParse(const std::string &text)
{
    const std::string oversized = "oversized line (> " +
        std::to_string(kMaxTraceLineBytes) + " bytes) skipped";
    ParsedTrace parsed;
    std::istringstream in(text);
    std::size_t lineno = 0;
    for (std::string line; std::getline(in, line);) {
        ++lineno;
        auto fail = [&](const std::string &msg) {
            parsed.errors.push_back({lineno, line, msg});
        };
        if (line.size() > kMaxTraceLineBytes) {
            line.resize(64);
            line += "...";
            fail(oversized);
            continue;
        }
        std::vector<std::string> tokens;
        std::istringstream is(line.substr(0, line.find('#')));
        for (std::string tok; is >> tok;)
            tokens.push_back(tok);
        if (tokens.empty())
            continue;

        std::uint64_t core = 0;
        auto coreOk = [&] {
            if (core < cache::Hierarchy::kCores)
                return true;
            fail("core " + std::to_string(core) +
                 " out of range: the machine has " +
                 std::to_string(cache::Hierarchy::kCores) + " cores");
            return false;
        };
        TraceRecord rec;
        if (tokens[0] == "R" || tokens[0] == "W") {
            if (tokens.size() != 3) {
                fail("R/W records need <core> <addr>");
                continue;
            }
            if (!referenceNumber(tokens[1], core) ||
                !referenceNumber(tokens[2], rec.addr)) {
                fail("bad core or address");
                continue;
            }
            if (!coreOk())
                continue;
            rec.kind = tokens[0] == "R" ? TraceRecord::Kind::Read
                                        : TraceRecord::Kind::Write;
        } else if (tokens[0] == "CC") {
            if (tokens.size() < 4) {
                fail("CC records need <core> <mnemonic> <args...>");
                continue;
            }
            if (!referenceNumber(tokens[1], core)) {
                fail("bad core");
                continue;
            }
            if (!coreOk())
                continue;
            std::vector<std::uint64_t> args(tokens.size() - 3);
            bool ok = true;
            for (std::size_t t = 3; t < tokens.size(); ++t)
                ok &= referenceNumber(tokens[t], args[t - 3]);
            if (!ok) {
                fail("bad numeric operand");
                continue;
            }
            std::string error;
            if (!referenceInstruction(tokens[2], args, rec.instr, error)) {
                fail(error);
                continue;
            }
            rec.kind = TraceRecord::Kind::CcOp;
        } else {
            fail("unknown record kind '" + tokens[0] + "'");
            continue;
        }
        rec.core = static_cast<CoreId>(core);
        parsed.records.push_back(rec);
    }
    return parsed;
}

/** Every field of every record, then every error, one string each. */
std::vector<std::string>
fields(const ParsedTrace &parsed)
{
    std::vector<std::string> out;
    for (const TraceRecord &r : parsed.records) {
        const cc::CcInstruction &in = r.instr;
        std::ostringstream os;
        os << "record " << static_cast<int>(r.kind) << ' ' << r.core << ' '
           << r.addr << ' ' << static_cast<int>(in.op) << ' ' << in.src1
           << ' ' << in.src2 << ' ' << in.dest << ' ' << in.size << ' '
           << in.clmulWordBits << ' ' << in.laneBits << ' '
           << in.isSigned << ' ' << in.src2Replicated;
        out.push_back(os.str());
    }
    for (const TraceParseError &e : parsed.errors)
        out.push_back("error " + std::to_string(e.lineNumber) + " [" +
                      e.line + "] " + e.message);
    return out;
}

/** Both parseTrace overloads return exactly the reference parse. */
void
expectMatchesReference(const std::string &text)
{
    const std::vector<std::string> want = fields(referenceParse(text));
    EXPECT_EQ(fields(parseTrace(text)), want) << "string overload";
    std::istringstream in(text);
    EXPECT_EQ(fields(parseTrace(in)), want) << "stream overload";
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
    expectMatchesReference(text);
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

/** Lines that sit on the parser's edges: number grammar, separators,
 *  comments, operand counts, mnemonics. */
std::vector<std::string>
edgeLines()
{
    std::vector<std::string> lines = {
        // Number grammar.
        "R 0 010", "R 0 0x10", "R 0 0X1f", "W 0 0XaBcDeF0", "R 0 0",
        "R 0 00", "R 0 0x0", "R 0 -64", "R 0 +64", "R 0 -0", "R 0 0x",
        "R 0 0X", "R 0 0x-40", "R 0 0x+40", "R 0 0x0x40", "R 0 00x40",
        "R 0 08", "R 0 1e3", "R 0 0b101", "R 0 12abc", "R 0 0x1g",
        "R 0 18446744073709551615", "R 0 18446744073709551616",
        "R 0 99999999999999999999999", "R 0 0xffffffffffffffff",
        "R 0 0x10000000000000000", "R 0 0x00000000000000000000001",
        "R 0 000000000000000000000064", "R 07 0x40", "R 0x7 0x40",
        "R 08 0x40", "R 0x8 0x40", "R -1 0x40", "R 4294967296 0x40",
        "CC 0 cc_copy -4096 0x2000 64", "CC 0 cc_copy 0x1000 +0x2000 64",
        "CC 0 cc_copy 0x1000 0x2000 064", "CC -0 cc_buz 0x1000 64",
        "CC 0x cc_buz 0x1000 64", "CC 9 cc_buz 0x1000 64",
        // Separators: every byte istream >> skips, and one it does not.
        "R\t0\t0x1000", "W\v1\v0x2000", "R\f2\f0x3000", "R 3 0x4000\r",
        "\t\v\f\r R 4 0x5000 \t\v\f\r",
        "CC\t0\vcc_copy\f0x1000\r0x2000 64", "R\x01 0 0x1000",
        std::string("R 0 0x1000\0", 11), std::string("R 0\0 0x1000", 11),
        // Comments and blank lines.
        "", " ", "\t\r", "# comment only", "   # indented comment",
        "#R 0 0x1000", "R 0 0x1000# glued comment", "R 0 # 0x1000",
        "CC 0 cc_buz 0x1000 # 64", "CC # 0 cc_buz 0x1000 64",
        // Record shapes and mnemonics.
        "R", "R 0", "R 0 0x40 0x80", "W 0 0x40 junk", "r 0 0x40",
        "RW 0 0x40", "CC", "CC 0", "CC 0 cc_copy", "cc 0 cc_buz 0x1000 64",
        "CC 0 cc_clmul64 0x1000 0x2000 0x3000 64",
        "CC 0 cc_clmul128 0x1000 0x2000 0x3000 64",
        "CC 0 cc_clmul256 0x1000 0x2000 0x3000 64",
        "CC 0 cc_clmul512 0x1000 0x2000 0x3000 64",
        "CC 0 cc_clmul 0x1000 0x2000 0x3000 64",
        "CC 0 cc_clmul64x 0x1000 0x2000 0x3000 64",
        "CC 0 cc_search 0x1000 0x2000 512", "CC 0 cc_cmp 0x1000 0x2000 1024",
        "CC 0 cc_not 0x1000 0x2000 64", "CC 0 cc_or 0x1000 0x2000 0x3000 8",
        "CC 0 cc_xor 0x1000 0x2000 0x3000 12",
        "CC 0 cc_and 0x1000 0x2000 0x3040 64",
        "CC 0 cc_buz 0x1000 0", "CC 0 cc_copy 0x1001 0x2000 64",
        "CC 0 cc_frob 0x1000 zz",
    };
    // CC records of 4 to 14 tokens, all operands good, then with only
    // the last one bad: an operand past any fixed count is still read.
    for (std::size_t operands = 1; operands <= 11; ++operands) {
        std::string good = "CC 1 cc_copy", bad = "CC 1 cc_copy";
        for (std::size_t i = 0; i < operands; ++i) {
            const std::string op = i + 1 < operands
                ? "0x" + std::to_string(i + 1) + "000" : "64";
            good += " " + op;
            bad += " " + (i + 1 < operands ? op : std::string("6x4"));
        }
        lines.push_back(good);
        lines.push_back(bad);
    }
    return lines;
}

TEST(TraceFuzz, EdgeLinesMatchReference)
{
    const std::vector<std::string> lines = edgeLines();
    std::string all;
    for (const std::string &line : lines) {
        // Alone, with and without a final newline, then all together
        // so the line numbers count up.
        expectGraceful(line);
        expectGraceful(line + "\n");
        all += line + "\n";
    }
    expectGraceful(all);
    all.pop_back();
    expectGraceful(all);
}

TEST(TraceFuzz, LinesAroundTheLengthLimitMatchReference)
{
    // Lengths straddle one and two buffers' worth of the bounded read;
    // the long line is padding after a record, after a comment, or
    // all token bytes, and is last with and without its newline.
    const std::size_t lengths[] = {4094, 4095, 4096, 4097,
                                   8191, 8192, 8193};
    for (std::size_t length : lengths) {
        const std::string record = "W 1 0x4000";
        const std::string fills[] = {
            record + std::string(length - record.size(), ' '),
            "# " + std::string(length - 2, 'c'),
            std::string(length, 'x')};
        for (const std::string &line : fills) {
            ASSERT_EQ(line.size(), length);
            expectGraceful(line);
            expectGraceful(line + "\n");
            expectGraceful("R 0 0x1000\n" + line + "\nR 2 0x2000\n");
            expectGraceful("R 0 0x1000\n" + line);
            expectGraceful(line + "\n" + line + "\n" + line);
        }
    }
}

} // namespace
} // namespace ccache::sim
