#include "util/atomic_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

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

} // namespace

bool
writeFileAtomic(const std::string &path, const std::string &contents,
                std::string *error)
{
    const std::string temp = path + ".tmp";
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out)
            return fail(error, "cannot write " + temp + "; " + path
                                   + " not updated");
        out.write(contents.data(),
                  static_cast<std::streamsize>(contents.size()));
        out.flush();
        if (!out) {
            std::remove(temp.c_str());
            return fail(error, "short write to " + temp + "; " + path
                                   + " not updated");
        }
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
