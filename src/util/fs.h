/**
 * @file
 * Small filesystem helpers shared by the experiment harnesses.
 */

#ifndef INC_UTIL_FS_H
#define INC_UTIL_FS_H

#include <string>

namespace inc::util
{

/**
 * Create @p path (and any missing parents) as a directory. Returns
 * true when the directory exists on return — freshly created or
 * already present. Logs a warning and returns false on failure.
 */
bool ensureDir(const std::string &path);

/**
 * Create the parent directory of file @p path (and any missing
 * grandparents). A bare filename has no parent and trivially
 * succeeds. Returns false only when the parent cannot be created —
 * callers writing "outdir/file.json" get the same treatment as
 * INC_BENCH_OUTDIR instead of a bare open error.
 */
bool ensureParentDir(const std::string &path);

/** Write @p content to @p path, creating its parent directory first.
 *  False on any failure. */
bool writeFile(const std::string &path, const std::string &content);

/** Read all of @p path into @p content. False when it cannot be
 *  opened. */
bool readFile(const std::string &path, std::string *content);

} // namespace inc::util

#endif // INC_UTIL_FS_H
