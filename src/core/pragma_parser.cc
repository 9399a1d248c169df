#include "core/pragma_parser.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "isa/assembler.h"
#include "nvp/memory.h"
#include "util/logging.h"

namespace inc::core
{

namespace
{

std::string
trim(const std::string &s)
{
    size_t a = 0, b = s.size();
    while (a < b && std::isspace(static_cast<unsigned char>(s[a])))
        ++a;
    while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1])))
        --b;
    return s.substr(a, b - a);
}

/** Split "name(arg1, arg2, ...)" into name + trimmed args. */
bool
parseCall(const std::string &text, std::string &name,
          std::vector<std::string> &args)
{
    const size_t open = text.find('(');
    const size_t close = text.rfind(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open)
        return false;
    name = trim(text.substr(0, open));
    args.clear();
    std::string cell;
    for (size_t i = open + 1; i < close; ++i) {
        if (text[i] == ',') {
            args.push_back(trim(cell));
            cell.clear();
        } else {
            cell.push_back(text[i]);
        }
    }
    const std::string last = trim(cell);
    if (!last.empty() || !args.empty())
        args.push_back(last);
    return !name.empty();
}

bool
parseUint(const std::string &tok, std::uint32_t &out)
{
    if (tok.empty())
        return false;
    char *end = nullptr;
    const unsigned long v = std::strtoul(tok.c_str(), &end, 0);
    if (*end != '\0')
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

bool
parseBits(const std::string &tok, int &out)
{
    std::uint32_t v = 0;
    if (!parseUint(tok, v) || v < 1 || v > 8)
        return false;
    out = static_cast<int>(v);
    return true;
}

bool
parsePolicy(const std::string &tok, nvm::RetentionPolicy &policy)
{
    for (auto p : {nvm::RetentionPolicy::full, nvm::RetentionPolicy::linear,
                   nvm::RetentionPolicy::log,
                   nvm::RetentionPolicy::parabola}) {
        if (tok == nvm::policyName(p)) {
            policy = p;
            return true;
        }
    }
    return false;
}

bool
parseMode(const std::string &tok, isa::AssembleMode &mode)
{
    if (tok == "higherbits")
        mode = isa::AssembleMode::higherbits;
    else if (tok == "sum")
        mode = isa::AssembleMode::sum;
    else if (tok == "max")
        mode = isa::AssembleMode::max;
    else if (tok == "min")
        mode = isa::AssembleMode::min;
    else
        return false;
    return true;
}

} // namespace

void
AnnotatedProgram::applyRegions(nvp::DataMemory &memory) const
{
    for (const IncidentalDirective &d : incidental) {
        const auto it = regions.find(d.region);
        if (it == regions.end())
            util::panic("incidental region '%s' undeclared",
                        d.region.c_str());
        memory.addAcRegion(
            {it->second.address, it->second.size, d.policy});
    }
}

approx::BitwidthConfig
AnnotatedProgram::bitwidthConfig() const
{
    approx::BitwidthConfig cfg;
    if (incidental.empty())
        return cfg; // precise by default
    cfg.mode = approx::ApproxMode::dynamic;
    cfg.min_bits = 8;
    cfg.max_bits = 1;
    for (const IncidentalDirective &d : incidental) {
        cfg.min_bits = std::min(cfg.min_bits, d.min_bits);
        cfg.max_bits = std::max(cfg.max_bits, d.max_bits);
    }
    return cfg;
}

PragmaParseResult
parseAnnotated(const std::string &source)
{
    PragmaParseResult result;
    AnnotatedProgram &out = result.annotated;

    std::ostringstream stripped;
    std::istringstream in(source);
    std::string raw;
    int lineno = 0;

    auto fail = [&result, &lineno](const std::string &msg) {
        result.error = util::format("line %d: %s", lineno, msg.c_str());
        return result;
    };

    while (std::getline(in, raw)) {
        ++lineno;
        const std::string line = trim(raw);

        if (line.rfind(".region", 0) == 0) {
            std::istringstream parts(line.substr(7));
            std::string name, addr_tok, size_tok;
            parts >> name >> addr_tok >> size_tok;
            NamedRegion region;
            if (name.empty() || !parseUint(addr_tok, region.address) ||
                !parseUint(size_tok, region.size) || region.size == 0)
                return fail("expected: .region NAME ADDR SIZE");
            if (out.regions.count(name))
                return fail("duplicate region '" + name + "'");
            if (region.address + region.size > isa::kDataMemBytes)
                return fail("region '" + name + "' exceeds data memory");
            out.regions[name] = region;
            stripped << '\n';
            continue;
        }

        if (line.rfind("#pragma", 0) == 0) {
            std::string rest = trim(line.substr(7));
            if (rest.rfind("ac", 0) != 0)
                return fail("only '#pragma ac ...' is supported");
            rest = trim(rest.substr(2));
            std::string name;
            std::vector<std::string> args;
            if (!parseCall(rest, name, args))
                return fail("malformed pragma '" + rest + "'");

            if (name == "incidental") {
                IncidentalDirective d;
                if (args.size() != 4 || !parseBits(args[1], d.min_bits) ||
                    !parseBits(args[2], d.max_bits) ||
                    !parsePolicy(args[3], d.policy) ||
                    d.min_bits > d.max_bits)
                    return fail("expected: incidental(region, minbits, "
                                "maxbits, policy)");
                d.region = args[0];
                if (!out.regions.count(d.region))
                    return fail("incidental region '" + d.region +
                                "' not declared with .region");
                out.incidental.push_back(d);
            } else if (name == "incidental_recover_from") {
                if (args.size() != 1 || args[0].size() < 2 ||
                    args[0][0] != 'r')
                    return fail(
                        "expected: incidental_recover_from(rN)");
                std::uint32_t reg = 0;
                if (!parseUint(args[0].substr(1), reg) ||
                    reg >= static_cast<std::uint32_t>(isa::kNumRegs))
                    return fail("bad register in recover_from");
                out.recover_register = static_cast<int>(reg);
            } else if (name == "recompute") {
                RecomputeDirective d;
                if (args.size() != 2 || !parseBits(args[1], d.min_bits))
                    return fail("expected: recompute(region, minbits)");
                d.region = args[0];
                if (!out.regions.count(d.region))
                    return fail("recompute region '" + d.region +
                                "' not declared");
                out.recomputes.push_back(d);
            } else if (name == "assemble") {
                AssembleDirective d;
                if (args.size() != 2 || !parseMode(args[1], d.mode))
                    return fail("expected: assemble(region, mode)");
                d.region = args[0];
                if (!out.regions.count(d.region))
                    return fail("assemble region '" + d.region +
                                "' not declared");
                out.assembles.push_back(d);
            } else {
                return fail("unknown pragma '" + name + "'");
            }
            stripped << '\n';
            continue;
        }

        stripped << raw << '\n';
    }

    isa::AssembleResult assembled = isa::assemble(stripped.str());
    if (!assembled.ok) {
        result.error = assembled.error;
        return result;
    }
    out.program = std::move(assembled.program);

    // The compiler's verification half of incidental_recover_from: the
    // program must mark a resume point on the named register.
    if (out.recover_register >= 0) {
        bool found = false;
        for (const isa::Instruction &inst : out.program.code()) {
            if (inst.op == isa::Op::markrp &&
                inst.rs1 == out.recover_register)
                found = true;
        }
        if (!found) {
            result.error = util::format(
                "incidental_recover_from(r%d) has no matching 'markrp "
                "r%d, ...' in the program",
                out.recover_register, out.recover_register);
            return result;
        }
    }

    result.ok = true;
    return result;
}

} // namespace inc::core
