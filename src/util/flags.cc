#include "util/flags.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/logging.h"

namespace inc::util
{

bool
parseNumber(const std::string &text, double *out)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !std::isfinite(value))
        return false;
    *out = value;
    return true;
}

bool
inRange(const Flag &flag, double value)
{
    return value >= flag.min && value <= flag.max &&
           (flag.kind != FlagKind::integer || value == std::floor(value));
}

std::string
rangeText(const Flag &flag)
{
    return format("%s in [%.17g, %.17g]",
                  flag.kind == FlagKind::integer ? "an integer"
                                                 : "a number",
                  flag.min, flag.max);
}

Flags::Flags(std::string command, std::vector<Flag> table,
             std::vector<std::string> operands,
             const std::vector<std::string> &args)
    : command_(std::move(command)), table_(std::move(table)),
      operand_names_(std::move(operands))
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--", 0) != 0) {
            if (operands_.size() == operand_names_.size())
                fail("unexpected argument '" + arg + "'");
            operands_.push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const bool inline_value = eq != std::string::npos;
        const std::string name = arg.substr(2, inline_value ? eq - 2 : eq);
        const Flag *flag = find(name);
        if (flag == nullptr)
            fail("unknown flag '--" + name + "'");
        if (values_.count(name))
            fail("--" + name + " given twice");
        const FlagKind kind = flag->kind;
        std::string text = inline_value ? arg.substr(eq + 1) : "";
        if (kind == FlagKind::toggle && inline_value)
            fail("--" + name + " takes no value, got '" + text + "'");
        // A value flag takes the next argument unless that is a flag.
        if (kind != FlagKind::toggle && kind != FlagKind::optional &&
            !inline_value && i + 1 < args.size() &&
            args[i + 1].rfind("--", 0) != 0)
            text = args[++i];
        if (text.empty() && kind != FlagKind::toggle &&
            (kind != FlagKind::optional || inline_value))
            fail("--" + name + " needs a value");
        double number = 0.0;
        if ((kind == FlagKind::integer || kind == FlagKind::number) &&
            !(parseNumber(text, &number) && inRange(*flag, number)))
            fail("--" + name + " must be " + rangeText(*flag) + ", got '" +
                 text + "'");
        values_[name] = text;
    }
    if (operands_.size() < operand_names_.size())
        fail("missing " + operand_names_[operands_.size()]);
}

const Flag *
Flags::find(const std::string &name) const
{
    for (const Flag &flag : table_) {
        if (flag.name == name)
            return &flag;
    }
    return nullptr;
}

const std::string *
Flags::value(const std::string &name) const
{
    if (find(name) == nullptr)
        panic("%s reads --%s, which its flag table does not declare",
              command_.c_str(), name.c_str());
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
}

std::string
Flags::usage() const
{
    std::string out = "usage: " + command_;
    for (const std::string &operand : operand_names_)
        out += " " + operand;
    if (!table_.empty())
        out += " [flags]";
    for (const Flag &flag : table_) {
        // The value placeholder of each FlagKind, in enum order.
        static const char *const kValue[] = {"", " VALUE", " N (", " N (",
                                             "[=VALUE]"};
        out += "\n  --" + flag.name + kValue[static_cast<int>(flag.kind)];
        if (flag.kind == FlagKind::integer || flag.kind == FlagKind::number)
            out += rangeText(flag) + ")";
    }
    return out;
}

void
Flags::fail(const std::string &message) const
{
    fatal("%s: %s\n%s", command_.c_str(), message.c_str(),
          usage().c_str());
}

} // namespace inc::util
