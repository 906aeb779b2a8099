/**
 * @file
 * Minimal self-contained JSON support for the harness interchange
 * formats (scenario specs, sweep checkpoints, sweep reports).
 *
 * The parser tracks the source line of every value so schema layers can
 * report "line 12: unknown key" errors, and it keeps the raw text of
 * every numeric token so 64-bit integers (seeds, bytecode counts) round
 * trip exactly — a double alone only holds 53 bits. The writers mirror
 * the ensemble-report conventions (precision-17 doubles, NaN/inf as
 * null) so that writing a parsed value reproduces the original bytes;
 * the job engine's byte-identical resume guarantee rests on that.
 *
 * Deliberately not a general-purpose library: no comments, no
 * trailing commas, objects keep insertion order in a flat vector.
 */

#ifndef JAVELIN_UTIL_JSON_HH
#define JAVELIN_UTIL_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace javelin {
namespace json {

/** Parse failure; message already includes "line N:". */
struct ParseError : std::runtime_error
{
    int line;
    ParseError(int line_, const std::string &msg)
        : std::runtime_error("line " + std::to_string(line_) + ": " +
                             msg),
          line(line_)
    {
    }
};

/** One JSON value; a tree of these is the parse result. */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    /** 1-based source line where this value's first token started. */
    int line = 0;

    bool boolean = false;
    double number = 0.0;
    /** Exact numeric token text (u64-safe round trips). */
    std::string raw;
    std::string str;
    std::vector<Value> items;
    /** Object members in insertion order (duplicates rejected). */
    std::vector<std::pair<std::string, Value>> members;

    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member lookup; nullptr when absent (objects only). */
    const Value *find(const std::string &key) const;

    /** Typed accessors; throw ParseError (with this line) on mismatch. */
    bool asBool() const;
    double asDouble() const;
    /** Integer accessors parse the raw token: exact for 64-bit. */
    std::uint64_t asU64() const;
    std::int64_t asI64() const;
    const std::string &asString() const;

  private:
    [[noreturn]] void typeError(const char *wanted) const;
};

/**
 * Parse one JSON document (the whole string must be consumed, aside
 * from trailing whitespace). Throws ParseError.
 */
Value parse(const std::string &text);

/** JSON string literal: quotes, escapes for ", \, and control chars. */
void writeString(std::ostream &os, const std::string &s);

/** JSON double: full round-trip precision (17), NaN/inf as null. */
void writeNumber(std::ostream &os, double v);

} // namespace json
} // namespace javelin

#endif // JAVELIN_UTIL_JSON_HH
