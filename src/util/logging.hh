/**
 * @file
 * Status and error reporting helpers in the gem5 tradition.
 *
 * panic() is for internal invariant violations (a javelin bug); it aborts
 * so a debugger or core dump can capture the state. fatal() is for user
 * errors (bad configuration, impossible parameters); it exits cleanly with
 * a nonzero status. warn() and inform() never terminate.
 */

#ifndef JAVELIN_UTIL_LOGGING_HH
#define JAVELIN_UTIL_LOGGING_HH

#include <sstream>
#include <string>

namespace javelin {

namespace detail {

/** Concatenate any streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const char *file, int line, const std::string &msg);

} // namespace detail

/** Abort on an internal invariant violation. */
#define JAVELIN_PANIC(...) \
    ::javelin::detail::panicImpl(__FILE__, __LINE__, \
                                 ::javelin::detail::concat(__VA_ARGS__))

/** Exit on a user-caused unrecoverable condition. */
#define JAVELIN_FATAL(...) \
    ::javelin::detail::fatalImpl(__FILE__, __LINE__, \
                                 ::javelin::detail::concat(__VA_ARGS__))

/** Alert the user to suspicious but non-fatal conditions. */
#define JAVELIN_WARN(...) \
    ::javelin::detail::warnImpl(__FILE__, __LINE__, \
                                ::javelin::detail::concat(__VA_ARGS__))

/** Panic unless a condition holds. */
#define JAVELIN_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            JAVELIN_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__); \
        } \
    } while (0)

} // namespace javelin

#endif // JAVELIN_UTIL_LOGGING_HH
