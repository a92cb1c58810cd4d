/**
 * @file
 * Whole-file I/O: the temp+rename commit discipline every journal,
 * spill file and bench baseline goes through, and its matching
 * whole-file read. A crash or interruption mid-write can never leave
 * a torn file at the target path -- either the old contents survive
 * or the new contents are fully committed.
 */

#ifndef SPEC17_UTIL_ATOMIC_FILE_HH_
#define SPEC17_UTIL_ATOMIC_FILE_HH_

#include <string>

namespace spec17 {

/**
 * Writes @p contents to @p path atomically: the bytes go to
 * `path + ".tmp"`, are flushed and checked, and the temp file is then
 * renamed over @p path (an atomic replacement on POSIX filesystems).
 * On any failure the temp file is removed and the target is left
 * untouched; the diagnosis goes to @p error when given, otherwise it
 * is emitted as a warning.
 *
 * @return true when the file was fully committed.
 */
bool writeFileAtomic(const std::string &path,
                     const std::string &contents,
                     std::string *error = nullptr);

/** Reads the whole file at @p path into @p contents; false when it
 *  cannot be opened. */
bool readFile(const std::string &path, std::string &contents);

} // namespace spec17

#endif // SPEC17_UTIL_ATOMIC_FILE_HH_
