/**
 * @file
 * Status and error reporting helpers.
 *
 * Follows the gem5 convention: fatal() is for user errors that make
 * continuing impossible (bad configuration, malformed input); panic() is
 * for internal invariant violations, i.e. library bugs. warn() never
 * stops execution.
 */

#ifndef INC_UTIL_LOGGING_H
#define INC_UTIL_LOGGING_H

#include <cstdarg>
#include <string>

namespace inc::util
{

/** Non-fatal warning about questionable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Terminate because of a user-level error (bad config, malformed input).
 * Exits with status 1.
 */
[[noreturn]]
void fatal(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Terminate because of an internal invariant violation (a library bug).
 * Calls abort().
 */
[[noreturn]]
void panic(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Format helper: vsnprintf into a std::string. */
std::string vformat(const char *fmt, std::va_list args);

/** Format helper: snprintf into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace inc::util

#endif // INC_UTIL_LOGGING_H
