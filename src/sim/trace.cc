#include "sim/trace.hh"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include "common/logging.hh"

namespace ccache::sim {

namespace {

/** The bytes `std::istream >> std::string` skips in the C locale:
 *  space, \t, \n, \v, \f and \r. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** Cursor over a line's whitespace-separated tokens; a '#' ends the
 *  line. Views into the line, so reading a token allocates nothing. */
class Tokens
{
  public:
    explicit Tokens(std::string_view line)
        : rest_(line.substr(0, line.find('#')))
    {}

    /** The next token, or an empty view once the line is used up. */
    std::string_view
    next()
    {
        std::size_t begin = 0;
        while (begin < rest_.size() && isSpace(rest_[begin]))
            ++begin;
        std::size_t end = begin;
        while (end < rest_.size() && !isSpace(rest_[end]))
            ++end;
        std::string_view token = rest_.substr(begin, end - begin);
        rest_.remove_prefix(end);
        return token;
    }

  private:
    std::string_view rest_;
};

/** Parse a whole token as 0x/0X plus hex digits, or as decimal digits
 *  (a leading zero stays decimal), into 64 bits. False on anything
 *  else: a sign, a bare "0x", trailing text or overflow. */
bool
parseNumber(std::string_view token, std::uint64_t &out)
{
    int base = 10;
    if (token.size() > 2 && token[0] == '0' &&
        (token[1] == 'x' || token[1] == 'X')) {
        token.remove_prefix(2);
        base = 16;
    }
    const char *end = token.data() + token.size();
    auto [stop, ec] = std::from_chars(token.data(), end, out, base);
    return ec == std::errc() && stop == end;
}

/** Most numeric operands a CC record takes: three addresses plus the
 *  size. Operands past these are still read and checked, not kept. */
constexpr std::size_t kMaxCcArgs = 4;

/** Build a CC instruction from mnemonic + @p count numeric operands,
 *  the first min(count, kMaxCcArgs) of them in @p args. */
bool
buildCcInstruction(std::string_view mnemonic, const std::uint64_t *args,
                   std::size_t count, cc::CcInstruction &out,
                   std::string &error)
{
    using cc::CcInstruction;

    auto need = [&](std::size_t n) {
        if (count != n) {
            error = std::string(mnemonic) + " expects " +
                std::to_string(n - 1) + " operands plus a size";
            return false;
        }
        return true;
    };

    if (mnemonic == "cc_copy") {
        if (!need(3))
            return false;
        out = CcInstruction::copy(args[0], args[1], args[2]);
    } else if (mnemonic == "cc_buz") {
        if (!need(2))
            return false;
        out = CcInstruction::buz(args[0], args[1]);
    } else if (mnemonic == "cc_cmp") {
        if (!need(3))
            return false;
        out = CcInstruction::cmp(args[0], args[1], args[2]);
    } else if (mnemonic == "cc_search") {
        if (!need(3))
            return false;
        out = CcInstruction::search(args[0], args[1], args[2]);
    } else if (mnemonic == "cc_and") {
        if (!need(4))
            return false;
        out = CcInstruction::logicalAnd(args[0], args[1], args[2],
                                        args[3]);
    } else if (mnemonic == "cc_or") {
        if (!need(4))
            return false;
        out = CcInstruction::logicalOr(args[0], args[1], args[2], args[3]);
    } else if (mnemonic == "cc_xor") {
        if (!need(4))
            return false;
        out = CcInstruction::logicalXor(args[0], args[1], args[2],
                                        args[3]);
    } else if (mnemonic == "cc_not") {
        if (!need(3))
            return false;
        out = CcInstruction::logicalNot(args[0], args[1], args[2]);
    } else if (mnemonic == "cc_clmul64" || mnemonic == "cc_clmul128" ||
               mnemonic == "cc_clmul256") {
        if (!need(4))
            return false;
        std::size_t width = 0;
        std::from_chars(mnemonic.data() + 8,
                        mnemonic.data() + mnemonic.size(), width);
        out = CcInstruction::clmul(args[0], args[1], args[2], args[3],
                                   width);
    } else {
        error = "unknown mnemonic '" + std::string(mnemonic) + "'";
        return false;
    }

    try {
        out.validate();
    } catch (const FatalError &e) {
        error = e.what();
        return false;
    }
    return true;
}

/** Parse line @p lineno of a trace into @p parsed: a record, an error
 *  naming the line, or nothing for a blank or comment-only line. */
void
parseLine(std::string_view line, std::size_t lineno, ParsedTrace &parsed)
{
    Tokens tokens(line);
    const std::string_view kind = tokens.next();
    if (kind.empty())
        return;

    auto fail = [&](std::string msg) {
        parsed.errors.push_back({lineno, std::string(line), std::move(msg)});
    };
    // Records replay on a hierarchy that indexes its private caches
    // by core unchecked.
    auto badCore = [&](std::uint64_t core) {
        if (core < cache::Hierarchy::kCores)
            return false;
        fail("core " + std::to_string(core) +
             " out of range: the machine has " +
             std::to_string(cache::Hierarchy::kCores) + " cores");
        return true;
    };

    TraceRecord rec;
    if (kind == "R" || kind == "W") {
        const std::string_view coreText = tokens.next();
        const std::string_view addrText = tokens.next();
        if (addrText.empty() || !tokens.next().empty()) {
            fail("R/W records need <core> <addr>");
            return;
        }
        std::uint64_t core = 0, addr = 0;
        if (!parseNumber(coreText, core) || !parseNumber(addrText, addr)) {
            fail("bad core or address");
            return;
        }
        if (badCore(core))
            return;
        rec.kind = kind == "R" ? TraceRecord::Kind::Read
                               : TraceRecord::Kind::Write;
        rec.core = static_cast<CoreId>(core);
        rec.addr = addr;
    } else if (kind == "CC") {
        const std::string_view coreText = tokens.next();
        const std::string_view mnemonic = tokens.next();
        std::string_view operand = tokens.next();
        if (operand.empty()) {
            fail("CC records need <core> <mnemonic> <args...>");
            return;
        }
        std::uint64_t core = 0;
        if (!parseNumber(coreText, core)) {
            fail("bad core");
            return;
        }
        if (badCore(core))
            return;
        std::uint64_t args[kMaxCcArgs] = {};
        std::size_t count = 0;
        bool ok = true;
        for (; !operand.empty(); operand = tokens.next(), ++count) {
            std::uint64_t v = 0;
            ok &= parseNumber(operand, v);
            if (count < kMaxCcArgs)
                args[count] = v;
        }
        if (!ok) {
            fail("bad numeric operand");
            return;
        }
        std::string error;
        if (!buildCcInstruction(mnemonic, args, count, rec.instr, error)) {
            fail(std::move(error));
            return;
        }
        rec.kind = TraceRecord::Kind::CcOp;
        rec.core = static_cast<CoreId>(core);
    } else {
        fail("unknown record kind '" + std::string(kind) + "'");
        return;
    }
    parsed.records.push_back(rec);
}

/** Report line @p lineno as over kMaxTraceLineBytes, quoting its start. */
void
reportOversized(std::string_view line, std::size_t lineno,
                ParsedTrace &parsed)
{
    parsed.errors.push_back(
        {lineno, std::string(line.substr(0, 64)) + "...",
         "oversized line (> " + std::to_string(kMaxTraceLineBytes) +
             " bytes) skipped"});
}

/**
 * Bounded line read: up to kMaxTraceLineBytes land in @p line; an
 * over-long line is consumed to its newline with a fixed-size buffer
 * (never an unbounded std::string) and flagged via @p oversized.
 * Returns false at end of stream with nothing extracted.
 */
bool
getlineBounded(std::istream &in, std::string &line, bool &oversized)
{
    line.clear();
    oversized = false;
    char buf[kMaxTraceLineBytes + 1];
    while (true) {
        in.getline(buf, sizeof buf);
        std::streamsize got = in.gcount();
        if (in.fail() && !in.eof() && got == sizeof buf - 1) {
            // Buffer filled without a newline: the line is oversized.
            // Keep draining it in buffer-sized chunks.
            oversized = true;
            if (line.size() < kMaxTraceLineBytes)
                line.append(buf, kMaxTraceLineBytes - line.size());
            in.clear();
            continue;
        }
        if (got == 0 && !in.good())
            return !line.empty() || oversized;
        if (!oversized)
            line.append(buf, static_cast<std::size_t>(
                                 got > 0 && in.good() ? got - 1 : got));
        return true;
    }
}

} // namespace

ParsedTrace
parseTrace(std::istream &in)
{
    ParsedTrace parsed;
    std::string line;
    std::size_t lineno = 0;
    bool oversized = false;
    while (getlineBounded(in, line, oversized)) {
        ++lineno;
        if (oversized)
            reportOversized(line, lineno, parsed);
        else
            parseLine(line, lineno, parsed);
    }
    return parsed;
}

ParsedTrace
parseTrace(const std::string &text)
{
    // Lines are views into @p text: split on '\n', and a last line
    // without one counts only if it is not empty, as getline sees it.
    ParsedTrace parsed;
    std::size_t lineno = 0;
    for (std::size_t pos = 0; pos < text.size();) {
        std::size_t end = std::min(text.find('\n', pos), text.size());
        std::string_view line(text.data() + pos, end - pos);
        pos = end + 1;
        ++lineno;
        if (line.size() > kMaxTraceLineBytes)
            reportOversized(line, lineno, parsed);
        else
            parseLine(line, lineno, parsed);
    }
    return parsed;
}

ParsedTrace
parseTraceFile(const std::string &path)
{
    if (path == "-")
        return parseTrace(std::cin);
    std::ifstream in(path);
    if (!in) {
        ParsedTrace parsed;
        parsed.errors.push_back({0, path, "cannot open trace file"});
        return parsed;
    }
    return parseTrace(in);
}

void
replayRecord(System &sys, const TraceRecord &rec, TraceReplayResult &res)
{
    auto &hier = sys.hierarchy();
    switch (rec.kind) {
      case TraceRecord::Kind::Read: {
        auto r = hier.read(rec.core, rec.addr);
        sys.advance(rec.core, r.latency);
        ++res.reads;
        res.l1Misses += r.servedBy != cache::ServedBy::L1;
        res.memAccesses += r.servedBy == cache::ServedBy::Memory;
        break;
      }
      case TraceRecord::Kind::Write: {
        auto r = hier.write(rec.core, rec.addr);
        sys.advance(rec.core, r.latency);
        ++res.writes;
        res.l1Misses += r.servedBy != cache::ServedBy::L1;
        res.memAccesses += r.servedBy == cache::ServedBy::Memory;
        break;
      }
      case TraceRecord::Kind::CcOp: {
        auto r = sys.cc().execute(rec.core, rec.instr);
        sys.advance(rec.core, r.latency);
        ++res.ccInstructions;
        res.ccBlockOps += r.blockOps;
        res.resultChecksum ^= r.result;
        break;
      }
    }
}

TraceReplayResult
replayTrace(System &sys, const ParsedTrace &trace)
{
    TraceReplayResult res;
    for (const TraceRecord &rec : trace.records)
        replayRecord(sys, rec, res);
    res.cycles = sys.elapsed();
    return res;
}

std::string
formatReport(System &sys, const TraceReplayResult &result)
{
    std::ostringstream os;
    os << "---------- trace replay ----------\n"
       << "reads            " << result.reads << "\n"
       << "writes           " << result.writes << "\n"
       << "cc_instructions  " << result.ccInstructions << "\n"
       << "cc_block_ops     " << result.ccBlockOps << "\n"
       << "l1_misses        " << result.l1Misses << "\n"
       << "mem_accesses     " << result.memAccesses << "\n"
       << "cycles           " << result.cycles << "\n"
       << "result_checksum  0x" << std::hex << result.resultChecksum
       << std::dec << "\n"
       << "---------- energy ----------------\n"
       << sys.energy().report()
       << "---------- hierarchy -------------\n"
       << sys.stats().dump();
    return os.str();
}

} // namespace ccache::sim
