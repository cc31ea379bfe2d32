/**
 * @file
 * Shared test helpers.
 *
 * livephase reports user errors via fatal() (exit) and invariant
 * violations via panic() (abort). ScopedFailureCapture reroutes both
 * into a C++ exception for the duration of a test so EXPECT_THROW
 * style assertions can cover the error paths without death tests.
 */

#ifndef LIVEPHASE_TESTS_TEST_UTIL_HH
#define LIVEPHASE_TESTS_TEST_UTIL_HH

#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace livephase::test
{

/** Exception thrown in place of exit()/abort() under capture. */
class Failure : public std::runtime_error
{
  public:
    Failure(const std::string &message, bool is_panic)
        : std::runtime_error(message), panic(is_panic)
    {
    }

    bool isPanic() const { return panic; }

  private:
    bool panic;
};

/** RAII hook installing the failure-to-exception bridge. */
class ScopedFailureCapture
{
  public:
    ScopedFailureCapture()
    {
        setFailureHook(&throwFailure);
    }

    ~ScopedFailureCapture()
    {
        setFailureHook(nullptr);
    }

    ScopedFailureCapture(const ScopedFailureCapture &) = delete;
    ScopedFailureCapture &operator=(const ScopedFailureCapture &) =
        delete;

  private:
    [[noreturn]] static void
    throwFailure(const std::string &message, bool is_panic)
    {
        throw Failure(message, is_panic);
    }
};

/** One `<field>: N kB` line of /proc/self/status (RssAnon, VmSize),
 *  in KiB; 0 when unreadable. */
inline size_t
procStatusKib(const char *field)
{
    FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return 0;
    const std::string prefix = std::string(field) + ":";
    char line[256];
    size_t kib = 0;
    while (std::fgets(line, sizeof(line), status) != nullptr)
        if (prefix.compare(0, prefix.size(), line, prefix.size()) ==
            0) {
            std::sscanf(line + prefix.size(), "%zu", &kib);
            break;
        }
    std::fclose(status);
    return kib;
}

} // namespace livephase::test

/** Expect the statement to hit fatal() or panic(). */
#define EXPECT_FAILURE(statement)                                     \
    do {                                                              \
        ::livephase::test::ScopedFailureCapture capture__;            \
        EXPECT_THROW(statement, ::livephase::test::Failure);          \
    } while (0)

#endif // LIVEPHASE_TESTS_TEST_UTIL_HH
