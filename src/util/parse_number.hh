/**
 * @file
 * The one checked number parser behind every command-line flag of the
 * bench binaries and the clapd/clapr daemons, and every numeric
 * environment knob (envUnsigned): a value that is not wholly a number
 * in range is refused, never read as a prefix ("2s" as 2, "2e4" as 2)
 * or wrapped ("-1" as 4294967295).
 */

#ifndef CLAP_UTIL_PARSE_NUMBER_HH
#define CLAP_UTIL_PARSE_NUMBER_HH

#include <cctype>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

namespace clap
{

/**
 * All of @p text must be a number in [@p lo, @p hi], with no sign,
 * space or trailing characters. Integers are decimal; with
 * @p cLiteral they read as C literals instead (0x hex, leading-0
 * octal), the way seeds are written. Leaves @p out alone and returns
 * false otherwise.
 */
template <typename T>
bool
parseNumber(const std::string &text, T lo, T hi, T &out,
            bool cLiteral = false)
{
    const char first = text.empty() ? '\0' : text[0];
    if (!std::isdigit(static_cast<unsigned char>(first)) &&
        !(std::is_floating_point_v<T> && first == '.'))
        return false;
    errno = 0;
    char *end = nullptr;
    T value{};
    if constexpr (std::is_floating_point_v<T>) {
        value = std::strtod(text.c_str(), &end);
    } else {
        const unsigned long long wide =
            std::strtoull(text.c_str(), &end, cLiteral ? 0 : 10);
        if (wide > static_cast<unsigned long long>(
                       std::numeric_limits<T>::max()))
            return false;
        value = static_cast<T>(wide);
    }
    if (errno != 0 || *end != '\0' || !(value >= lo && value <= hi))
        return false;
    out = value;
    return true;
}

/**
 * The number in environment variable @p name, or @p fallback when it
 * is unset or empty. A value that is not wholly a number in
 * [@p lo, @p hi] exits 2, naming the variable.
 */
inline std::size_t
envUnsigned(const char *name, std::size_t fallback, std::size_t lo,
            std::size_t hi)
{
    const char *text = std::getenv(name);
    if (text == nullptr || *text == '\0')
        return fallback;
    std::size_t value = 0;
    if (!parseNumber(text, lo, hi, value)) {
        std::fprintf(stderr, "bad value in %s='%s': want a number in "
                     "%zu..%zu\n", name, text, lo, hi);
        std::exit(2);
    }
    return value;
}

} // namespace clap

#endif // CLAP_UTIL_PARSE_NUMBER_HH
