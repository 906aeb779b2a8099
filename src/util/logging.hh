/**
 * @file
 * Status and error reporting helpers in the gem5 tradition.
 *
 * panic() is for internal invariant violations (a javelin bug); it aborts
 * so a debugger or core dump can capture the state. warn() never
 * terminates. There is no fatal(): library code throws a typed error
 * for bad input or failed I/O, and only a program's main() decides to
 * exit.
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
void warnImpl(const char *file, int line, const std::string &msg);

} // namespace detail

/** Abort on an internal invariant violation. */
#define JAVELIN_PANIC(...) \
    ::javelin::detail::panicImpl(__FILE__, __LINE__, \
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
