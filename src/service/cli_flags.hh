/**
 * @file
 * Strict numeric command-line values for reqisc-compile and
 * reqisc-compiled. The whole argument must be a number inside the
 * flag's range, so `--jobs abc` or `--port 99999` is a usage error
 * (exit 2) instead of a silent 0 or a wrapped value.
 */

#ifndef REQISC_SERVICE_CLI_FLAGS_HH
#define REQISC_SERVICE_CLI_FLAGS_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

namespace reqisc::service
{

/** Upper bound of every thread-count flag (--jobs, --block-workers...). */
inline constexpr long long kMaxThreadsFlag = 256;

/**
 * Parse all of `text` as a base-10 integer in [lo, hi] into `out`.
 * On failure `out` is untouched and `error` names the flag, the range
 * and the rejected text.
 */
template <typename T>
bool
parseIntFlag(const std::string &flag, const char *text, long long lo,
             long long hi, T &out, std::string &error)
{
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' ||
        std::isspace(static_cast<unsigned char>(text[0])) ||
        errno != 0 || v < lo || v > hi) {
        error = flag + ": expected an integer in [" +
                std::to_string(lo) + ", " + std::to_string(hi) +
                "], got '" + text + "'";
        return false;
    }
    out = static_cast<T>(v);
    return true;
}

/** parseIntFlag for a finite real number >= 0. */
inline bool
parseNonNegativeFlag(const std::string &flag, const char *text,
                     double &out, std::string &error)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' ||
        std::isspace(static_cast<unsigned char>(text[0])) ||
        errno != 0 || !std::isfinite(v) || v < 0.0) {
        error = flag + ": expected a finite number >= 0, got '" +
                text + "'";
        return false;
    }
    out = v;
    return true;
}

} // namespace reqisc::service

#endif // REQISC_SERVICE_CLI_FLAGS_HH
