#include "util/fs.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "util/logging.h"

namespace inc::util
{

bool
ensureDir(const std::string &path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(fs::path(path), ec);
    if (ec) {
        warn("could not create directory '%s': %s", path.c_str(),
             ec.message().c_str());
        return false;
    }
    if (!fs::is_directory(fs::path(path), ec)) {
        warn("'%s' exists but is not a directory", path.c_str());
        return false;
    }
    return true;
}

bool
ensureParentDir(const std::string &path)
{
    namespace fs = std::filesystem;
    const fs::path parent = fs::path(path).parent_path();
    if (parent.empty())
        return true;
    return ensureDir(parent.string());
}

bool
writeFile(const std::string &path, const std::string &content)
{
    if (!ensureParentDir(path))
        return false;
    std::ofstream out(path, std::ios::binary);
    out << content;
    return static_cast<bool>(out);
}

bool
readFile(const std::string &path, std::string *content)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *content = ss.str();
    return true;
}

} // namespace inc::util
