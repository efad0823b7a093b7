#include "obs/trace_json.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace reqisc::obs
{

namespace
{

void appendMicros(std::string &out, std::int64_t ns)
{
    // ns -> fractional µs with 3 decimals, exact (no doubles).
    if (ns < 0)
        ns = 0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                  static_cast<long long>(ns / 1000),
                  static_cast<long long>(ns % 1000));
    out += buf;
}

} // namespace

std::string chromeTraceJson(const std::vector<TraceEvent> &events)
{
    std::string out;
    out.reserve(events.size() * 160 + 64);
    out += "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &ev : events)
    {
        if (!first)
            out += ",";
        first = false;
        out += "\n{\"name\":\"";
        detail::appendJsonEscaped(out, ev.name);
        out += "\",\"cat\":\"reqisc\",\"ph\":\"X\",\"ts\":";
        appendMicros(out, ev.startNs);
        out += ",\"dur\":";
        appendMicros(out, ev.durNs);
        out += ",\"pid\":1,\"tid\":";
        out += std::to_string(ev.tid);
        out += ",\"args\":{\"id\":";
        out += std::to_string(ev.id);
        out += ",\"parent\":";
        out += std::to_string(ev.parent);
        for (const auto &[key, value] : ev.args)
        {
            out += ",\"";
            detail::appendJsonEscaped(out, key);
            out += "\":\"";
            detail::appendJsonEscaped(out, value);
            out += "\"";
        }
        out += "}}";
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

void detail::appendJsonEscaped(std::string &out,
                               const std::string &s)
{
    static const char *hex = "0123456789abcdef";
    for (const char ch : s)
    {
        const unsigned char c = static_cast<unsigned char>(ch);
        switch (ch)
        {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20)
            {
                out += "\\u00";
                out += hex[c >> 4];
                out += hex[c & 0xf];
            }
            else
            {
                out += ch;
            }
            break;
        }
    }
}

bool writeTextFile(const std::string &path,
                   const std::string &content, std::string &error)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
    {
        error = path + ": " + std::strerror(errno);
        return false;
    }
    f << content;
    f.flush();
    if (!f)
    {
        error = path + ": write failed";
        return false;
    }
    return true;
}

} // namespace reqisc::obs
