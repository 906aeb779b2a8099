/**
 * @file
 * Private scratch directories for tests and benchmarks that write
 * files, and whole-file reads and writes there. The first scratchDir()
 * call makes a root with mkdtemp, so concurrent runs never share a
 * path, and the process that made it removes it at exit. A forked
 * death-test child that calls exit() runs the same destructor; the pid
 * check keeps it from deleting its parent's files.
 */

#ifndef JAVELIN_TESTS_SCRATCH_DIR_HH
#define JAVELIN_TESTS_SCRATCH_DIR_HH

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

namespace javelin {

/** An empty directory `name` under this process's scratch root. */
inline std::filesystem::path
scratchDir(const std::string &name)
{
    namespace fs = std::filesystem;
    static const struct Root
    {
        std::string dir = fs::temp_directory_path() / "javelin_XXXXXX";
        pid_t owner = ::getpid();
        Root()
        {
            if (!::mkdtemp(dir.data()))
                throw std::runtime_error("mkdtemp failed: " + dir);
        }
        ~Root()
        {
            std::error_code ignored;
            if (::getpid() == owner)
                fs::remove_all(dir, ignored);
        }
    } root;
    const fs::path dir = fs::path(root.dir) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

inline std::vector<char>
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

inline void
writeFile(const std::filesystem::path &path, const std::vector<char> &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace javelin

#endif // JAVELIN_TESTS_SCRATCH_DIR_HH
