/**
 * @file
 * Scratch paths for tests that touch the filesystem. Every name carries
 * the process id and a per-process counter, so tests that ctest runs
 * at the same time (`ctest -j`, one process per test) never share a
 * file or directory.
 */

#ifndef STELLAR_TESTS_TEMP_PATH_HPP
#define STELLAR_TESTS_TEMP_PATH_HPP

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

namespace stellar::test_util
{

/** `<temp dir>/<prefix>_<pid>_<n><suffix>`, unique to this process and
 *  call. Nothing is created. */
inline std::filesystem::path
uniqueTempPath(const std::string &prefix, const std::string &suffix = "")
{
    static std::atomic<int> counter{0};
    return std::filesystem::temp_directory_path() /
           (prefix + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)) + suffix);
}

/** An empty directory at a uniqueTempPath, removed with its contents
 *  when the object goes out of scope. */
class TempDir
{
  public:
    explicit TempDir(const std::string &prefix)
        : path_(uniqueTempPath(prefix))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~TempDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::filesystem::path &path() const { return path_; }
    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

} // namespace stellar::test_util

#endif // STELLAR_TESTS_TEMP_PATH_HPP
