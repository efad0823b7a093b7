#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "obs/trace_json.hh"

namespace perfbench::trace
{

namespace
{

struct SpanRec
{
    std::string name;
    std::uint64_t id = 0, parent = 0, request = 0;
    std::uint32_t tid = 0;
    Clock::time_point start, end;
};

struct Store
{
    std::atomic<bool> on{false};
    std::atomic<std::uint64_t> nextId{0};
    std::mutex mu;
    std::vector<SpanRec> spans;
    std::unordered_map<std::thread::id, std::uint32_t> tids;
    Clock::time_point epoch = Clock::now();
};

Store &
store()
{
    static Store s;
    return s;
}

thread_local std::vector<std::uint64_t> tlsStack;

void
push(SpanRec rec)
{
    Store &s = store();
    std::lock_guard<std::mutex> lk(s.mu);
    const auto [it, inserted] = s.tids.try_emplace(
        std::this_thread::get_id(),
        static_cast<std::uint32_t>(s.tids.size()));
    rec.tid = it->second;
    s.spans.push_back(std::move(rec));
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

void
setEnabled(bool on)
{
    store().on.store(on);
}

bool
enabled()
{
    return store().on.load(std::memory_order_relaxed);
}

std::uint64_t
reserveId()
{
    return enabled() ? store().nextId.fetch_add(1) + 1 : 0;
}

void
recordAs(std::uint64_t id, const std::string &name,
         Clock::time_point start, Clock::time_point end,
         std::uint64_t parent, std::uint64_t request)
{
    if (!enabled() || id == 0)
        return;
    push({name, id, parent, request, 0, start, end});
}

std::uint64_t
record(const std::string &name, Clock::time_point start,
       Clock::time_point end, std::uint64_t parent,
       std::uint64_t request)
{
    const std::uint64_t id = reserveId();
    recordAs(id, name, start, end, parent, request);
    return id;
}

Scope::Scope(std::string name, std::uint64_t request)
    : name_(std::move(name)), request_(request)
{
    id_ = reserveId();
    if (id_) {
        parent_ = tlsStack.empty() ? 0 : tlsStack.back();
        tlsStack.push_back(id_);
    }
    start_ = Clock::now();
}

double
Scope::stop()
{
    if (stopped_)
        return seconds_;
    const Clock::time_point end = Clock::now();
    stopped_ = true;
    seconds_ = std::chrono::duration<double>(end - start_).count();
    if (id_) {
        tlsStack.pop_back();
        recordAs(id_, name_, start_, end, parent_, request_);
    }
    return seconds_;
}

Scope::~Scope()
{
    stop();
}

std::size_t
spanCount()
{
    Store &s = store();
    std::lock_guard<std::mutex> lk(s.mu);
    return s.spans.size();
}

std::vector<LayerTime>
layerSelfTimes()
{
    Store &s = store();
    std::lock_guard<std::mutex> lk(s.mu);
    std::unordered_map<std::uint64_t, std::vector<const SpanRec *>> kids;
    for (const SpanRec &r : s.spans)
        if (r.parent)
            kids[r.parent].push_back(&r);
    std::map<std::string, LayerTime> byLayer;
    for (const SpanRec &r : s.spans) {
        const double total = msBetween(r.start, r.end);
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        if (const auto it = kids.find(r.id); it != kids.end())
            for (const SpanRec *k : it->second)
                iv.emplace_back(std::max(k->start, r.start),
                                std::min(k->end, r.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point reach = r.start;
        for (const auto &[a, b] : iv) {
            const Clock::time_point from = std::max(a, reach);
            if (b > from) {
                covered += msBetween(from, b);
                reach = b;
            }
        }
        LayerTime &lt = byLayer[layerOf(r.name)];
        lt.layer = layerOf(r.name);
        lt.totalMs += total;
        lt.selfMs += std::max(0.0, total - covered);
        ++lt.spans;
    }
    std::vector<LayerTime> out;
    for (auto &[name, lt] : byLayer)
        out.push_back(lt);
    return out;
}

bool
writeChrome(const std::string &path, std::string &error)
{
    Store &s = store();
    std::vector<reqisc::obs::TraceEvent> events;
    {
        std::lock_guard<std::mutex> lk(s.mu);
        events.reserve(s.spans.size());
        for (const SpanRec &r : s.spans) {
            reqisc::obs::TraceEvent ev;
            ev.name = r.name;
            ev.id = r.id;
            ev.parent = r.parent;
            ev.tid = r.tid;
            ev.startNs = std::chrono::duration_cast<
                             std::chrono::nanoseconds>(r.start - s.epoch)
                             .count();
            ev.durNs = std::chrono::duration_cast<
                           std::chrono::nanoseconds>(r.end - r.start)
                           .count();
            if (r.request)
                ev.args.emplace_back("request",
                                     std::to_string(r.request));
            events.push_back(std::move(ev));
        }
    }
    return reqisc::obs::writeTextFile(
        path, reqisc::obs::chromeTraceJson(events), error);
}

} // namespace perfbench::trace
