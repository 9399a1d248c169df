/**
 * @file
 * Strict, table-driven command-line flags, plus the whole-value number
 * parser that flags, campaign files and power-trace CSVs share.
 *
 * A command declares one table; each row gives a flag's name (without
 * the leading "--"), its value kind and, for numbers, the accepted
 * range. Flags parses the whole argument list before any work starts
 * and never guesses: a value flag takes `--name=VALUE` or the next
 * argument, and a next argument that starts with "--" is a missing
 * value, not a value. These are fatal, naming the command and the flag
 * and printing the usage generated from the table:
 *
 *   - an unknown, repeated or value-less flag, or a value on a toggle;
 *   - a number that is not one whole finite value in range;
 *   - a missing or extra positional argument.
 *
 * Reading a name the table does not declare panics, so the table
 * cannot drift from the code that reads it.
 */

#ifndef INC_UTIL_FLAGS_H
#define INC_UTIL_FLAGS_H

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace inc::util
{

/**
 * Parse all of @p text as one finite number (strtod syntax). False on
 * empty text, leading blanks, trailing junk, nan or inf: "5abc" is not
 * 5 and "nan" is not 0.
 */
bool parseNumber(const std::string &text, double *out);

/** 2^53: every whole number up to it is exact in a double. The default
 *  upper bound of numeric flags. */
constexpr double kMaxWhole = 9007199254740992.0;
/** Upper bound of a flag stored in an int. */
constexpr double kMaxInt = 2147483647.0;

/** A flag's value kind. Tables in flags.cc and fleet/campaign.cc are
 *  indexed by this order. */
enum class FlagKind
{
    toggle,   ///< `--name`, no value
    text,     ///< `--name VALUE` or `--name=VALUE`
    integer,  ///< a whole number in [min, max]
    number,   ///< a finite number in [min, max]
    optional, ///< `--name` alone, or `--name=VALUE`
};

/** One row of a flag table. */
struct Flag
{
    std::string name;
    FlagKind kind = FlagKind::text;
    double min = 0.0; ///< integer/number: smallest accepted value
    double max = kMaxWhole; ///< integer/number: largest accepted value
};

/** True when @p value is whole (integer flags) and in @p flag's range. */
bool inRange(const Flag &flag, double value);

/** What a numeric flag accepts, e.g. "an integer in [1, 8]". */
std::string rangeText(const Flag &flag);

/** The parsed arguments of one command. */
class Flags
{
  public:
    /**
     * Parse @p args against @p table. @p operands names the positional
     * arguments the command requires, in order (for the usage text).
     * Fatal on any error; see the file comment.
     */
    Flags(std::string command, std::vector<Flag> table,
          std::vector<std::string> operands,
          const std::vector<std::string> &args);

    /** The row declaring @p name, or null. */
    const Flag *find(const std::string &name) const;
    bool has(const std::string &name) const
    {
        return value(name) != nullptr;
    }
    std::string text(const std::string &name,
                     const std::string &fallback = "") const
    {
        return has(name) ? *value(name) : fallback;
    }
    /** An integer/number flag's value as @p T; its range, checked at
     *  parse, must fit @p T. */
    template <typename T>
    T num(const std::string &name, T fallback) const
    {
        return has(name) ? static_cast<T>(std::strtod(value(name)->c_str(),
                                                      nullptr))
                         : fallback;
    }
    const std::string &operand(std::size_t i) const
    {
        return operands_.at(i);
    }

    /** "usage: nvpsim CMD OPERANDS [flags]" and one line per flag. */
    std::string usage() const;

    /** Fatal: "CMD: @p message" followed by the usage. */
    [[noreturn]] void fail(const std::string &message) const;

  private:
    /** The value of @p name, null when absent; panics when the table
     *  does not declare @p name. */
    const std::string *value(const std::string &name) const;

    std::string command_;
    std::vector<Flag> table_;
    std::vector<std::string> operand_names_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> operands_;
};

} // namespace inc::util

#endif // INC_UTIL_FLAGS_H
