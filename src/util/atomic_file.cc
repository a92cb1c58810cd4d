#include "util/atomic_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/stat.h>

#include "util/logging.hh"

namespace spec17 {

namespace {

bool
fail(std::string *error, const std::string &diagnosis)
{
    if (error)
        *error = diagnosis;
    else
        warn(diagnosis);
    return false;
}

/** Writes @p contents to @p file and flushes; the failure, or empty. */
std::string
writeWhole(const std::string &file, const std::string &contents)
{
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    if (!out)
        return "cannot write " + file + ": " + std::strerror(errno);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out)
        return "short write to " + file + ": " + std::strerror(errno);
    return {};
}

} // namespace

bool
writeFileAtomic(const std::string &path, const std::string &contents,
                std::string *error)
{
    // Only a regular file can be replaced by a rename: a device or a
    // pipe at @p path (/dev/stdout, a FIFO) is written in place.
    struct stat st;
    if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
        const std::string failure = writeWhole(path, contents);
        return failure.empty() || fail(error, failure);
    }
    const std::string temp = path + ".tmp";
    const std::string failure = writeWhole(temp, contents);
    if (!failure.empty()) {
        std::remove(temp.c_str());
        return fail(error, failure + "; " + path + " not updated");
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        const std::string reason = std::strerror(errno);
        std::remove(temp.c_str());
        return fail(error, "cannot commit " + path + ": " + reason);
    }
    return true;
}

bool
readFile(const std::string &path, std::string &contents)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    contents = buffer.str();
    return true;
}

} // namespace spec17
