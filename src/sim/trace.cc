#include "sim/trace.hh"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/logging.hh"

namespace ccache::sim {

namespace {

/** Parse a hex (0x...) or decimal integer; false on garbage. */
bool
parseNumber(const std::string &token, std::uint64_t &out)
{
    if (token.empty())
        return false;
    try {
        std::size_t consumed = 0;
        out = std::stoull(token, &consumed, 0);
        return consumed == token.size();
    } catch (const std::exception &) {
        return false;
    }
}

/** Split a line into whitespace-separated tokens, dropping comments. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream is(line.substr(0, line.find('#')));
    std::string tok;
    while (is >> tok)
        tokens.push_back(tok);
    return tokens;
}

/** Build a CC instruction from mnemonic + numeric operands. */
bool
buildCcInstruction(const std::string &mnemonic,
                   const std::vector<std::uint64_t> &args,
                   cc::CcInstruction &out, std::string &error)
{
    using cc::CcInstruction;

    auto need = [&](std::size_t n) {
        if (args.size() != n) {
            error = mnemonic + " expects " + std::to_string(n - 1) +
                " operands plus a size";
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
        std::size_t width = std::stoul(mnemonic.substr(8));
        out = CcInstruction::clmul(args[0], args[1], args[2], args[3],
                                   width);
    } else {
        error = "unknown mnemonic '" + mnemonic + "'";
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

} // namespace

namespace {

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
        if (oversized) {
            parsed.errors.push_back(
                {lineno, line.substr(0, 64) + "...",
                 "oversized line (> " +
                     std::to_string(kMaxTraceLineBytes) +
                     " bytes) skipped"});
            continue;
        }
        auto tokens = tokenize(line);
        if (tokens.empty())
            continue;

        auto fail = [&](const std::string &msg) {
            parsed.errors.push_back({lineno, line, msg});
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
        const std::string &kind = tokens[0];
        if (kind == "R" || kind == "W") {
            if (tokens.size() != 3) {
                fail("R/W records need <core> <addr>");
                continue;
            }
            std::uint64_t core = 0, addr = 0;
            if (!parseNumber(tokens[1], core) ||
                !parseNumber(tokens[2], addr)) {
                fail("bad core or address");
                continue;
            }
            if (badCore(core))
                continue;
            rec.kind = kind == "R" ? TraceRecord::Kind::Read
                                   : TraceRecord::Kind::Write;
            rec.core = static_cast<CoreId>(core);
            rec.addr = addr;
        } else if (kind == "CC") {
            if (tokens.size() < 4) {
                fail("CC records need <core> <mnemonic> <args...>");
                continue;
            }
            std::uint64_t core = 0;
            if (!parseNumber(tokens[1], core)) {
                fail("bad core");
                continue;
            }
            if (badCore(core))
                continue;
            std::vector<std::uint64_t> args;
            bool ok = true;
            for (std::size_t t = 3; t < tokens.size(); ++t) {
                std::uint64_t v = 0;
                ok &= parseNumber(tokens[t], v);
                args.push_back(v);
            }
            if (!ok) {
                fail("bad numeric operand");
                continue;
            }
            std::string error;
            if (!buildCcInstruction(tokens[2], args, rec.instr, error)) {
                fail(error);
                continue;
            }
            rec.kind = TraceRecord::Kind::CcOp;
            rec.core = static_cast<CoreId>(core);
        } else {
            fail("unknown record kind '" + kind + "'");
            continue;
        }
        parsed.records.push_back(rec);
    }
    return parsed;
}

ParsedTrace
parseTrace(const std::string &text)
{
    std::istringstream is(text);
    return parseTrace(is);
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
